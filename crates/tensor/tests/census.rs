//! Every test that reads the kernel census, in a binary of its own.
//!
//! The census recorder is process-global: while one test has it enabled,
//! a kernel launched by *any* other thread of the process lands in its
//! records and breaks an exact-count assertion. Inside the crate's unit-test
//! binary that means every test that runs a kernel, guarded or not. Here
//! each test holds [`census_test_guard`] for its whole body, so the binary
//! runs them one at a time and nothing else shares the process. (A
//! run-scoped recorder — ROADMAP item 3 — would make the guard unnecessary.)

use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::conv::conv_flops;
use exaclim_tensor::ops::{conv2d_backward, conv2d_forward, crop_spatial, Conv2dParams, ConvAlgo};
use exaclim_tensor::profile::{
    capture, census_test_guard, enabled, record, set_phase, Category, KernelKind, Phase,
};
use exaclim_tensor::{kernel_threads, set_kernel_threads, DType, Tensor};

// --- the recorder itself -----------------------------------------------------

#[test]
fn capture_collects_records() {
    let _g = census_test_guard();
    set_phase(Phase::Forward);
    let ((), prof) = capture(|| {
        record(KernelKind::Conv, "k1", 100, 10, 20);
        set_phase(Phase::Backward);
        record(KernelKind::Conv, "k2", 200, 30, 40);
        record(KernelKind::Pointwise, "k3", 5, 1, 1);
    });
    assert_eq!(prof.total_kernels(), 3);
    assert_eq!(prof.total_flops(), 305);
    assert_eq!(prof.total_bytes(), 102);
    let cats = prof.by_category();
    let get = |c: Category| cats.iter().find(|(cc, _)| *cc == c).unwrap().1;
    assert_eq!(get(Category::ForwardConv).flops, 100);
    assert_eq!(get(Category::BackwardConv).flops, 200);
    assert_eq!(get(Category::BackwardPointwise).kernels, 1);
    set_phase(Phase::Forward);
}

#[test]
fn disabled_recording_is_dropped() {
    let _g = census_test_guard();
    let before = enabled();
    assert!(!before, "no census should be active between tests");
    record(KernelKind::Conv, "ignored", 1, 1, 1);
    let ((), prof) = capture(|| {});
    assert_eq!(prof.total_kernels(), 0);
}

#[test]
fn optimizer_phase_maps_pointwise_to_optimizer() {
    let _g = census_test_guard();
    set_phase(Phase::Optimizer);
    let ((), prof) = capture(|| {
        record(KernelKind::Pointwise, "sgd", 10, 4, 4);
    });
    assert_eq!(prof.records[0].category, Category::Optimizer);
    set_phase(Phase::Forward);
}

#[test]
fn alloc_traffic_covers_the_captured_region_only() {
    let _g = census_test_guard();
    // Traffic outside the capture must not leak into the column.
    let _warmup = Tensor::zeros([64], DType::F32);
    let ((), prof) = capture(|| {
        let a = Tensor::zeros([32, 32], DType::F32);
        drop(a);
        let _b = Tensor::zeros([32, 32], DType::F32);
    });
    assert_eq!(prof.alloc.total_allocs(), 2, "two tensor allocations in region");
    assert!(
        prof.alloc.bytes_fresh + prof.alloc.bytes_reused >= 2 * 32 * 32 * 4,
        "both requests accounted by bytes"
    );
    let ((), empty) = capture(|| {});
    assert_eq!(empty.alloc.total_allocs(), 0);
}

#[test]
fn concurrent_records_all_land_in_the_census() {
    let _g = census_test_guard();
    set_phase(Phase::Forward);
    let ((), prof) = capture(|| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        record(KernelKind::Pointwise, "worker", 2, 1, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    });
    assert_eq!(prof.total_kernels(), 200);
    assert_eq!(prof.total_flops(), 400);
}

// --- convolution ---------------------------------------------------------------

#[test]
fn census_records_forward_and_backward() {
    let _g = census_test_guard();
    let mut rng = seeded_rng(100);
    let x = randn([2, 3, 6, 5], DType::F32, 1.0, &mut rng);
    let w = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);
    set_phase(Phase::Forward);
    let (y, prof) = capture(|| {
        let y = conv2d_forward(&x, &w, Conv2dParams::padded(1), ConvAlgo::Auto);
        set_phase(Phase::Backward);
        let _ = conv2d_backward(&x, &w, &y, Conv2dParams::padded(1));
        set_phase(Phase::Forward);
        y
    });
    let expected = conv_flops(2, 4, 3, 3, 3, 6, 5);
    let cats = prof.by_category();
    let fwd = cats.iter().find(|(c, _)| *c == Category::ForwardConv).unwrap().1;
    let bwd = cats.iter().find(|(c, _)| *c == Category::BackwardConv).unwrap().1;
    assert_eq!(fwd.flops, expected);
    assert_eq!(bwd.flops, 2 * expected, "data + weight passes");
    assert_eq!(y.shape().dims(), &[2, 4, 6, 5]);
}

/// Census totals do not depend on the pool width (the kernels' outputs are
/// pinned in `determinism.rs`; this pins what they report).
#[test]
fn census_totals_identical_across_widths() {
    let _g = census_test_guard();
    let mut rng = seeded_rng(2024);
    let x = randn([2, 16, 32, 32], DType::F32, 1.0, &mut rng);
    let w = randn([8, 16, 3, 3], DType::F32, 0.5, &mut rng);
    let ambient = kernel_threads();
    let at_width = |threads: usize| {
        set_kernel_threads(threads);
        set_phase(Phase::Forward);
        let ((), prof) = capture(|| {
            let y = conv2d_forward(&x, &w, Conv2dParams::padded(1), ConvAlgo::Auto);
            set_phase(Phase::Backward);
            let _ = conv2d_backward(&x, &w, &y, Conv2dParams::padded(1));
            set_phase(Phase::Forward);
        });
        prof
    };
    let (p1, p4) = (at_width(1), at_width(4));
    set_kernel_threads(ambient);
    assert_eq!(p1.total_kernels(), p4.total_kernels(), "kernel counts differ");
    assert_eq!(p1.total_flops(), p4.total_flops(), "FLOP totals differ");
    assert_eq!(p1.total_bytes(), p4.total_bytes(), "byte totals differ");
    for ((c1, t1), (c4, t4)) in p1.by_category().iter().zip(p4.by_category().iter()) {
        assert_eq!(c1, c4);
        assert_eq!(t1, t4, "category {c1:?} totals differ");
    }
}

// --- concurrent recording ----------------------------------------------------------

/// Every thread records into its own census shard: convolutions launched
/// concurrently from four threads must all land in the census.
#[test]
fn concurrent_fused_convs_all_record() {
    let _g = census_test_guard();
    let mut rng = seeded_rng(404);
    let x = randn([2, 3, 6, 6], DType::F32, 1.0, &mut rng);
    let w = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);
    let p = Conv2dParams::padded(1);
    set_phase(Phase::Forward);
    let ((), prof) = capture(|| {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let _ = conv2d_forward(&x, &w, p, ConvAlgo::Auto);
                    }
                });
            }
        });
    });
    assert_eq!(prof.total_kernels(), 32, "no launch may vanish from the census");
    assert!(prof.records.iter().all(|r| r.name == "conv2d_fwd"));
}

// --- layout ------------------------------------------------------------------------

#[test]
fn census_counts_transposes() {
    let _g = census_test_guard();
    let x = Tensor::zeros([1, 4, 3, 3], DType::F32);
    set_phase(Phase::Forward);
    let ((), prof) = capture(|| {
        let tile = crop_spatial(&x, 0, 0, 3, 3);
        let _ = crop_spatial(&tile, 0, 0, 3, 3);
    });
    let cats = prof.by_category();
    let copies = cats
        .iter()
        .find(|(c, _)| *c == Category::CopiesTransposes)
        .expect("category")
        .1;
    assert_eq!(copies.kernels, 2, "each crop is a copy kernel");
    assert_eq!(copies.bytes, 4 * x.storage_bytes() as u64);
}
