//! Integration: full stack from synthetic climate data through distributed
//! training to evaluation — the paper's training loop at laptop scale.

use exaclim_core::experiment::{run_experiment, ExperimentConfig, ModelKind};
use exaclim_core::prelude::*;

#[test]
fn tiramisu_end_to_end() {
    let mut cfg = ExperimentConfig::quick(ModelKind::Tiramisu);
    cfg.trainer.steps = 8;
    let result = run_experiment(&cfg).expect("experiment");
    assert!(result.report.consistent, "data-parallel replicas must stay identical");
    assert!(!result.report.diverged);
    let first = result.report.steps[0].mean_loss;
    let last = result.report.steps.last().expect("steps").mean_loss;
    assert!(last.is_finite() && first.is_finite());
    assert!(last < first * 1.2, "loss should not explode: {first} → {last}");
}

#[test]
fn deeplab_end_to_end_with_lag_and_larc() {
    let mut cfg = ExperimentConfig::quick(ModelKind::DeepLab);
    cfg.trainer.steps = 8;
    cfg.trainer.gradient_lag = true;
    cfg.trainer.optimizer = OptimizerKind::Larc { lr: 0.05, trust: 0.02 };
    let result = run_experiment(&cfg).expect("experiment");
    assert!(result.report.consistent);
    assert!(!result.report.diverged, "LARC + lag must remain stable");
}

#[test]
fn longer_training_learns_minority_classes() {
    // 50 steps of DeepLab on the 48×72 grid should produce nonzero
    // minority-class IoU — the paper's whole point versus the collapse
    // baseline, which predicts background everywhere: no minority pixel at
    // all, IoU exactly 0. That, and a loss well below where it started, is
    // what this asserts; how large the IoU is after 50 steps is a lottery
    // of the seed. Measured minority IoU = max(TC, AR) and last / first loss
    // with the transposed-convolution forward as a scatter | on the GEMM
    // (the two sum in different orders), by `cfg.trainer.seed`:
    //
    //   seed   minority IoU       last / first
    //   1234   0.0583 | 0.0492    0.331 | 0.336
    //   1      0.0092 | 0.0098    0.372 | 0.378
    //   2      0.0099 | 0.0087    0.469 | 0.466
    //   3      0.0175 | 0.0182    0.310 | 0.311
    //   4      0.0135 | 0.0090    0.452 | 0.446
    //   5      0.0317 | 0.0453    0.439 | 0.439
    //
    // TC IoU is 0.0 in all twelve runs; the old `> 0.05` held at one seed
    // in six under either arithmetic, and 100 steps is no steadier (scatter:
    // 0.055 / 0.0 / 0.025 / 0.016 / 0.100 / 0.009).
    for seed in [1234, 1] {
        let mut cfg = ExperimentConfig::study(ModelKind::DeepLab, 2, 50);
        cfg.trainer.seed = seed;
        let result = run_experiment(&cfg).expect("experiment");
        assert!(result.report.consistent);
        let minority = result.validation.class_iou[1]
            .unwrap_or(0.0)
            .max(result.validation.class_iou[2].unwrap_or(0.0));
        assert!(
            minority > 0.0,
            "seed {seed}: after 50 steps some minority-class pixel must be predicted right; IoUs {:?}",
            result.validation.class_iou
        );
        let first = result.report.steps[0].mean_loss;
        let last = result.report.steps.last().expect("steps").mean_loss;
        assert!(last < 0.6 * first, "seed {seed}: loss must fall well below its start: {first} → {last}");
    }
}

#[test]
fn four_rank_hierarchical_matches_two_node_topology() {
    // 4 ranks as 2 "nodes" × 2 "GPUs" with 2 shard leaders — the Summit
    // communicator layout in miniature.
    let mut cfg = ExperimentConfig::quick(ModelKind::Tiramisu);
    cfg.trainer.ranks = 4;
    cfg.trainer.node_size = 2;
    cfg.trainer.shard_leaders = 2;
    cfg.trainer.steps = 5;
    let result = run_experiment(&cfg).expect("experiment");
    assert!(result.report.consistent, "hybrid all-reduce must keep replicas identical");
}

#[test]
fn daint_channel_subset_trains() {
    // The 4-of-16 channel mode (§V-B3's initial Piz Daint configuration).
    let mut cfg = ExperimentConfig::quick(ModelKind::Tiramisu);
    cfg.channels = exaclim_core::climsim::DAINT_CHANNELS
        .iter()
        .map(|n| exaclim_core::climsim::channel_index(n).expect("known channel"))
        .collect();
    cfg.trainer.steps = 5;
    let result = run_experiment(&cfg).expect("experiment");
    assert!(result.report.consistent);
    assert!(!result.report.diverged);
}
