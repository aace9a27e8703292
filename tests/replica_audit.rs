//! The replica-consistency audit must *fail* when replicas differ.
//!
//! Every other suite asserts `consistent == true`; a hash that never
//! changed, or an audit that never compared, would pass them all. Here one
//! of two replicas starts from a model with a single perturbed weight —
//! the paper's "assuming consistent initialization" (§V-A3) broken on
//! purpose — and the trainer must say so, on every comm × optimizer plane.

use exaclim_distrib::train_data_parallel;
use exaclim_distrib::trainer::{Batch, BatchSource, TrainerConfig};
use exaclim_nn::layers::{Conv2d, ReLU};
use exaclim_nn::loss::Labels;
use exaclim_nn::{Layer, Sequential};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::Conv2dParams;
use exaclim_tensor::DType;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const H: usize = 8;
const W: usize = 8;

struct Source(rand::rngs::StdRng);

impl BatchSource for Source {
    fn next_batch(&mut self) -> Batch {
        let input = randn([1, 3, H, W], DType::F32, 1.0, &mut self.0);
        let labels: Vec<u8> = (0..H * W).map(|i| (input.as_slice()[i] > 0.0) as u8).collect();
        Batch { input, labels: Labels::new(1, H, W, labels), weights: vec![1.0; H * W] }
    }
}

fn source(rank: usize) -> Source {
    Source(seeded_rng(900 + rank as u64))
}

fn model(rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
    let p = Conv2dParams::padded(1);
    Box::new(
        Sequential::new("audit")
            .push(Conv2d::new("c1", 3, 6, 3, p, true, rng))
            .push(ReLU::new())
            .push(Conv2d::new("c2", 6, 2, 3, p, true, rng)),
    )
}

#[test]
fn audit_reports_a_replica_that_starts_one_weight_apart() {
    for overlap in [false, true] {
        for fused in [false, true] {
            let mut cfg = TrainerConfig::new(2);
            cfg.steps = 4;
            cfg.seed = 11;
            cfg.fusion_threshold_bytes = 512;
            cfg.overlap_comm = overlap;
            cfg.fused_optim = fused;
            let tag = format!("overlap={overlap}, fused={fused}");

            // Whichever rank builds second gets one weight moved. The
            // all-reduce hands both ranks the same update from then on, so
            // they never meet again.
            let built = Arc::new(AtomicUsize::new(0));
            let perturbed = move |rng: &mut rand::rngs::StdRng| {
                let m = model(rng);
                if built.fetch_add(1, Ordering::SeqCst) == 1 {
                    m.params().iter().next().expect("a parameter").apply_update(|v, _| v[0] += 0.25);
                }
                m
            };
            let (bad, _m) = train_data_parallel(&cfg, perturbed, source);
            assert!(!bad.consistent, "audit missed a perturbed replica ({tag})");
            assert_ne!(bad.final_hashes[0], bad.final_hashes[1], "{tag}");

            let (good, _m) = train_data_parallel(&cfg, model, source);
            assert!(good.consistent, "healthy replicas flagged ({tag})");
        }
    }
}
