//! Allocation pin for the streaming data plane at 1, 2 and 4 reader workers. One `#[test]`
//! in a binary of its own, like `decode_alloc.rs`: the pool counters are process-global.

use exaclim_climsim::{dataset::DatasetConfig, ClimateDataset};
use exaclim_pipeline::{ChannelStats, ReaderMode, StreamConfig, StreamingIngest};
use exaclim_tensor::{pool, DType};
use std::{sync::Arc, time::Duration};

#[test]
fn steady_state_stream_makes_no_fresh_allocations() {
    pool::set_enabled(true);
    let mut ds_cfg = DatasetConfig::small(21, 12);
    (ds_cfg.generator.h, ds_cfg.generator.w, ds_cfg.samples_per_file) = (12, 18, 4);
    let ds = Arc::new(ClimateDataset::in_memory(&ds_cfg));
    for workers in [1usize, 2, 4] {
        let norm = ChannelStats::estimate(&ds, 2).expect("stats");
        let cfg = StreamConfig {
            depth: 6,
            mode: ReaderMode::PerWorker,
            read_cost: Duration::ZERO,
            channels: (0..16).collect(),
            class_weights: vec![1.0, 10.0, 5.0],
            dtype: DType::F32,
            seed: 42,
            // The augmented path must be clean too.
            augment: true,
        };
        let mut s = StreamingIngest::start(ds.clone(), (0..12).collect(), norm, cfg);
        s.set_workers(workers);
        // Warm-up epoch populates the free lists (depth+in-flight buffers).
        // The high water must exceed the measured window's transient peak
        // (full channels + reader in-flight + consumer-held), so: let the
        // readers fill every slot, then hold a few samples alive while
        // they refill the freed slots.
        (0..24).for_each(|_| drop(s.next_sample()));
        std::thread::sleep(Duration::from_millis(40));
        let held: Vec<_> = (0..4).map(|_| s.next_sample()).collect();
        std::thread::sleep(Duration::from_millis(40));
        drop(held);
        std::thread::sleep(Duration::from_millis(20));
        let f32_before = pool::stats();
        let byte_before = pool::byte_stats();
        (0..24).for_each(|_| drop(s.next_sample()));
        // Workers run ahead of the consumer, so allow the counters to be
        // read only after the stream is quiesced.
        drop(s);
        let f32_delta = pool::stats().since(&f32_before);
        let byte_delta = pool::byte_stats().since(&byte_before);
        assert_eq!(f32_delta.fresh_allocs, 0, "{workers} workers: steady-state f32 allocations");
        assert_eq!(byte_delta.fresh_allocs, 0, "{workers} workers: steady-state label allocations");
    }
}
