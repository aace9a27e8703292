//! Bit-determinism and fault behaviour of the backward-overlapped
//! gradient all-reduce (§V-A3).
//!
//! The overlap engine's contract is that moving the bucket all-reduces
//! onto a per-rank comm progress thread changes *when* communication
//! happens, never *what* is computed: buckets are pre-assigned from the
//! canonical sorted tensor order, each bucket's reduction is
//! arithmetically independent of the order buckets become ready, and the
//! optimizer joins on the full set before stepping. These tests pin that
//! contract across every axis that could plausibly break it — overlap
//! on/off, kernel thread-pool width, world size — and verify
//! the progress thread degrades cleanly (no deadlock, no drift) under a
//! straggler. Rank death inside a step is `step.rs`'s unit test.

use exaclim_distrib::trainer::{Batch, BatchSource, TrainerConfig};
use exaclim_distrib::{train_data_parallel, train_data_parallel_elastic, ElasticConfig};
use exaclim_faults::FaultPlan;
use exaclim_nn::layers::{Conv2d, ReLU};
use exaclim_nn::loss::Labels;
use exaclim_nn::{Layer, Sequential};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::Conv2dParams;
use exaclim_tensor::{kernel_threads, set_kernel_threads, DType};

const H: usize = 8;
const W: usize = 8;

struct Source {
    rng: rand::rngs::StdRng,
    delay: std::time::Duration,
}

impl BatchSource for Source {
    fn next_batch(&mut self) -> Batch {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let input = randn([1, 3, H, W], DType::F32, 1.0, &mut self.rng);
        let labels: Vec<u8> = (0..H * W).map(|i| (input.as_slice()[i] > 0.0) as u8).collect();
        Batch {
            input,
            labels: Labels::new(1, H, W, labels),
            weights: vec![1.0; H * W],
        }
    }
}

fn source(rank: usize) -> Source {
    Source { rng: seeded_rng(900 + rank as u64), delay: std::time::Duration::ZERO }
}

/// Two conv layers → four parameter tensors, so a small fusion threshold
/// yields several buckets and the ready-order actually varies.
fn model(rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
    let p = Conv2dParams::padded(1);
    Box::new(
        Sequential::new("det")
            .push(Conv2d::new("c1", 3, 6, 3, p, true, rng))
            .push(ReLU::new())
            .push(Conv2d::new("c2", 6, 2, 3, p, true, rng)),
    )
}

fn config(overlap: bool) -> TrainerConfig {
    config_at(4, overlap)
}

fn config_at(ranks: usize, overlap: bool) -> TrainerConfig {
    let mut cfg = TrainerConfig::new(ranks);
    cfg.steps = 5;
    cfg.seed = 11;
    cfg.fusion_threshold_bytes = 512;
    cfg.overlap_comm = overlap;
    cfg
}

/// The tentpole determinism matrix: overlap {off, on} × kernel threads
/// {1, 4}. Every combination must produce bit-identical per-step and
/// final parameter hashes.
#[test]
fn overlap_threads_matrix_is_bit_identical() {
    let ambient = kernel_threads();
    let mut baseline = None;
    for threads in [1usize, 4] {
        for overlap in [false, true] {
            set_kernel_threads(threads);
            let cfg = config(overlap);
            let (r, _m) = train_data_parallel(&cfg, model, source);
            set_kernel_threads(ambient);
            assert!(r.consistent, "replicas diverged (overlap={overlap}, threads={threads})");
            assert_eq!(r.overlap_comm, overlap);
            assert_eq!(r.step_hashes.len(), cfg.steps, "one rank-0 hash per step");
            let key = (r.step_hashes.clone(), r.final_hashes.clone());
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(
                    *b, key,
                    "parameter bits changed (overlap={overlap}, threads={threads})"
                ),
            }
        }
    }
    // The same at 2 and 8 ranks (ambient threads).
    for ranks in [2usize, 8] {
        let run = |overlap| train_data_parallel(&config_at(ranks, overlap), model, source).0;
        let (serial, overlapped) = (run(false), run(true));
        assert!(serial.consistent && overlapped.consistent, "{ranks} ranks: replicas diverged");
        assert_eq!(serial.step_hashes, overlapped.step_hashes, "{ranks} ranks: per-step hashes");
        assert_eq!(serial.final_hashes, overlapped.final_hashes, "{ranks} ranks: final hashes");
    }
}

/// Overlap must also be bit-neutral when ranks finish backward at very
/// different times: a straggler rank delays its batches, so fast ranks'
/// progress threads sit on partially-reduced buckets for a long time
/// before the straggler's contributions arrive. No deadlock, no drift.
#[test]
fn straggler_rank_overlaps_without_deadlock_or_drift() {
    let straggler_source = |rank: usize| Source {
        rng: seeded_rng(900 + rank as u64),
        delay: std::time::Duration::from_millis(if rank == 1 { 25 } else { 0 }),
    };
    let (serial, _m1) = train_data_parallel(&config(false), model, straggler_source);
    let (overlapped, _m2) = train_data_parallel(&config(true), model, straggler_source);
    assert!(serial.consistent && overlapped.consistent);
    assert_eq!(serial.step_hashes, overlapped.step_hashes);
    assert_eq!(serial.final_hashes, overlapped.final_hashes);
}

/// Healthy fault-tolerant (elastic) run with overlap on matches the plain
/// serial trainer bit for bit — the membership rounds and the overlap
/// engine compose without touching the arithmetic.
#[test]
fn overlapped_ft_run_matches_serial_plain_trainer_bitwise() {
    let (plain, _m) = train_data_parallel(&config(false), model, source);
    let mut cfg = ElasticConfig::new(config(true));
    cfg.recv_deadline = std::time::Duration::from_secs(2);
    let (r, _m2) = train_data_parallel_elastic(&cfg, &FaultPlan::none(), model, source);
    assert!(r.consistent);
    assert_eq!(r.generations.len(), 1, "no transitions");
    assert_eq!(r.final_hashes[0], plain.final_hashes[0], "identical parameter bits");
}
