//! Allocation pin for sample decoding: once the pool's size classes are
//! warm, `decode` makes zero fresh allocations on either pool.
//!
//! One `#[test]` in a binary of its own, like the workspace's
//! `tests/allocation_regression.rs`: the pool counters are process-global,
//! so any neighbouring test thread that touches the pool inside the
//! measured window would be counted against `decode`.

use exaclim_climsim::dataset::DatasetConfig;
use exaclim_climsim::ClimateDataset;
use exaclim_pipeline::decode::decode;
use exaclim_pipeline::ChannelStats;
use exaclim_tensor::{pool, DType};

#[test]
fn decode_is_allocation_free_once_pool_is_warm() {
    pool::set_enabled(true);
    let mut cfg = DatasetConfig::small(30, 4);
    cfg.generator.h = 16;
    cfg.generator.w = 24;
    let ds = ClimateDataset::in_memory(&cfg);
    let stats = ChannelStats::estimate(&ds, 1).expect("stats");
    let stored = ds.sample(0).expect("sample");
    let run = || {
        decode(
            0,
            &stored.fields,
            &stored.labels,
            &[0, 1, 2, 7],
            16,
            ds.h,
            ds.w,
            &stats,
            &[1.0, 2.0, 3.0],
            DType::F32,
        )
    };
    drop(run()); // warm the size classes
    let f32_before = pool::stats();
    let byte_before = pool::byte_stats();
    for _ in 0..8 {
        drop(run());
    }
    assert_eq!(pool::stats().since(&f32_before).fresh_allocs, 0, "f32 path allocated");
    assert_eq!(pool::byte_stats().since(&byte_before).fresh_allocs, 0, "label path allocated");
}
