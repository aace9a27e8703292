//! Bit-determinism of the fused optimizer plane (§V-B / ISSUE 10).
//!
//! The fused plane moves the optimizer update across three axes that
//! must each be bit-neutral: *where* it runs (main-thread serial, kernel
//! pool `par_step`, comm progress thread bucket-apply), *how* the
//! arithmetic is issued (SIMD micro-kernels vs scalar fallback), and
//! *when* the state crosses to another replica (parameters plus
//! `OptState` bytes, as an elastic snapshot carries them, between fused
//! and legacy layouts). These tests pin
//! all three against the serial-legacy baseline for every optimizer the
//! trainer can build.

use exaclim_distrib::trainer::{Batch, BatchSource, OptimizerKind, TrainerConfig};
use exaclim_distrib::train_data_parallel;
use exaclim_nn::layers::{Conv2d, ReLU};
use exaclim_nn::loss::Labels;
use exaclim_nn::optim::LarcSgd;
use exaclim_nn::{Layer, OptState, Optimizer, Param, ParamSet, Sequential};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::Conv2dParams;
use exaclim_tensor::{
    kernel_threads, set_kernel_threads, set_simd_enabled, simd_enabled, DType, Tensor,
};

const H: usize = 8;
const W: usize = 8;

struct Source {
    rng: rand::rngs::StdRng,
}

impl BatchSource for Source {
    fn next_batch(&mut self) -> Batch {
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
    Source { rng: seeded_rng(4400 + rank as u64) }
}

/// Two conv layers → four parameter tensors; a 512-byte fusion threshold
/// splits them into several buckets so the progress thread's bucket
/// applies genuinely run out of serial order.
fn model(rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
    let p = Conv2dParams::padded(1);
    Box::new(
        Sequential::new("fused_det")
            .push(Conv2d::new("c1", 3, 6, 3, p, true, rng))
            .push(ReLU::new())
            .push(Conv2d::new("c2", 6, 2, 3, p, true, rng)),
    )
}

fn config(ranks: usize, kind: OptimizerKind, lag: bool, overlap: bool, fused: bool) -> TrainerConfig {
    let mut cfg = TrainerConfig::new(ranks);
    cfg.steps = 3;
    cfg.seed = 23;
    cfg.optimizer = kind;
    cfg.gradient_lag = lag;
    cfg.fusion_threshold_bytes = 512;
    cfg.overlap_comm = overlap;
    cfg.fused_optim = fused;
    cfg
}

/// The tentpole matrix: {Sgd, Adam, LarcSgd, Lagged} × overlap {off, on}
/// × fused {off, on} × SIMD {on, off} × kernel threads {1, 4}. Sixteen
/// mode combinations per optimizer and world size (1, 2, 4 ranks), every one
/// bit-identical to its serial-legacy-scalar baseline. One `#[test]` because the
/// SIMD gate and the kernel pool width are process-global.
#[test]
fn fused_simd_threads_matrix_is_bit_identical() {
    let ambient_threads = kernel_threads();
    let ambient_simd = simd_enabled();
    let kinds: &[(&str, OptimizerKind, bool)] = &[
        ("sgd", OptimizerKind::Sgd { lr: 0.05, momentum: 0.9 }, false),
        ("adam", OptimizerKind::Adam { lr: 0.01 }, false),
        ("larc", OptimizerKind::Larc { lr: 0.05, trust: 0.02 }, false),
        ("lagged", OptimizerKind::Sgd { lr: 0.05, momentum: 0.9 }, true),
    ];
    for (&(name, kind, lag), ranks) in kinds.iter().flat_map(|k| [1usize, 2, 4].map(|r| (k, r))) {
        let mut baseline = None;
        for threads in [1usize, 4] {
            for simd in [true, false] {
                for overlap in [false, true] {
                    for fused in [false, true] {
                        set_kernel_threads(threads);
                        set_simd_enabled(simd);
                        let cfg = config(ranks, kind, lag, overlap, fused);
                        let (r, _m) = train_data_parallel(&cfg, model, source);
                        set_simd_enabled(ambient_simd);
                        set_kernel_threads(ambient_threads);
                        assert!(r.consistent, "{name}: replicas diverged");
                        assert_eq!(r.fused_optim, fused);
                        let key = (r.step_hashes.clone(), r.final_hashes.clone());
                        match &baseline {
                            None => baseline = Some(key),
                            Some(b) => assert_eq!(
                                *b, key,
                                "{name}, {ranks} ranks: parameter bits changed (threads={threads}, \
                                 simd={simd}, overlap={overlap}, fused={fused})"
                            ),
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Optimizer-state crossing: state exported mid-run under one step mode
// must continue bitwise under the other.
// ---------------------------------------------------------------------

fn toy_set(seed: u32) -> ParamSet {
    let mut set = ParamSet::new();
    for (i, n) in [37usize, 8, 129, 5].into_iter().enumerate() {
        let vals: Vec<f32> = (0..n)
            .map(|j| {
                let k = (j as u32).wrapping_mul(2654435761).wrapping_add(seed + i as u32);
                (k % 1000) as f32 * 0.0021 - 1.05
            })
            .collect();
        set.push(Param::new(format!("p{i}"), Tensor::from_vec([n], DType::F32, vals)));
    }
    set
}

fn seed_grads(set: &ParamSet, seed: u32) {
    for (i, p) in set.iter().enumerate() {
        let n = p.numel();
        let vals: Vec<f32> = (0..n)
            .map(|j| {
                let k = (j as u32).wrapping_mul(0x9e3779b9).wrapping_add(seed * 31 + i as u32);
                (k % 997) as f32 * 0.004 - 2.0
            })
            .collect();
        p.set_grad(Tensor::from_vec([n], DType::F32, vals));
    }
}

fn larc() -> LarcSgd {
    let mut o = LarcSgd::new(0.05, 0.02);
    o.sgd_mut().momentum = 0.9;
    o.sgd_mut().weight_decay = 1e-4;
    o
}

/// Drive `steps` optimizer steps; `par` picks the fused-style parallel
/// application path, serial legacy otherwise. Same bits either way.
fn drive(opt: &mut LarcSgd, set: &ParamSet, first: u32, steps: u32, par: bool) {
    for s in first..first + steps {
        seed_grads(set, s);
        if par {
            opt.par_step(set);
        } else {
            opt.step(set);
        }
    }
}

/// Export under fused `par_step`, adopt into a fresh optimizer, finish
/// under legacy serial `step` — and the reverse — both bitwise equal to
/// an uninterrupted legacy run. The `OptState` bytes are stable across the
/// pool-backed state layout regardless of which plane wrote the moments.
#[test]
fn optimizer_state_crosses_fused_and_legacy_planes_bitwise() {
    // Uninterrupted legacy reference: 6 serial steps.
    let reference = toy_set(9);
    let mut opt = larc();
    drive(&mut opt, &reference, 0, 6, false);
    let want = reference.state_hash();

    for (label, first_par, second_par) in [("fused→legacy", true, false), ("legacy→fused", false, true)] {
        let set = toy_set(9);
        let mut opt = larc();
        drive(&mut opt, &set, 0, 3, first_par);
        let opt_bytes = opt.export_state().to_bytes();

        // Fresh replica stand-in: new params, new optimizer, adopt both.
        let restored = toy_set(1); // different seed: bits must come from the handover
        for (dst, src) in restored.iter().zip(set.iter()) {
            dst.apply_update(|v, _| v.copy_from_slice(src.value().as_slice()));
        }
        let mut opt2 = larc();
        let st = OptState::from_bytes(&opt_bytes).expect("decode");
        opt2.import_state(&st, &restored).expect("import");

        drive(&mut opt2, &restored, 3, 3, second_par);
        assert_eq!(
            restored.state_hash(),
            want,
            "{label}: crossing step modes through OptState bytes changed parameter bits"
        );
    }
}
