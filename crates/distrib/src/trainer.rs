//! Synchronous data-parallel training over thread ranks.
//!
//! Each rank owns a full model replica built from the same seed
//! ("assuming consistent initialization", §V-A3), trains on its own local
//! batches, and participates in per-step gradient averaging through the
//! hybrid hierarchical all-reduce. Because the collectives are bitwise
//! deterministic, every replica applies *identical* updates — which the
//! trainer verifies by hashing parameters.
//!
//! The step itself lives in `step.rs` (`Replica::step`). This module holds
//! the configuration and one of its two drivers: [`train_data_parallel`]
//! (a healthy world; aggregates the report). The other, elastic
//! membership with crash recovery, is [`crate::elastic`].

use crate::step::{Replica, StepStats, Trained};
use exaclim_comm::{CommError, CommWorld, Communicator};
use exaclim_nn::loss::Labels;
use exaclim_nn::Layer;
use exaclim_tensor::{DType, Tensor};
use std::time::Duration;

/// One local batch: input `[N, C, H, W]`, labels, per-pixel loss weights.
pub struct Batch {
    /// Input fields.
    pub input: Tensor,
    /// Ground-truth class labels.
    pub labels: Labels,
    /// Per-pixel loss weights (§V-B1), length `N·H·W`.
    pub weights: Vec<f32>,
}

/// Supplies local batches to one rank.
pub trait BatchSource: Send {
    /// The next local batch (ranks draw disjoint or independently-sampled
    /// shards, per the staging design of §V-A1).
    fn next_batch(&mut self) -> Batch;

    /// Per-step timing feedback: how long this step's critical path
    /// waited on `next_batch` (exposed ingest) and the step's wall time.
    /// Streaming sources feed this to reader autoscaling
    /// (`exaclim_pipeline::ReaderAutoscaler`, which decides once per
    /// 16-step window); the default is a no-op.
    fn on_step_timing(&mut self, _ingest_wait: Duration, _step_wall: Duration) {}
}

/// Optimizer selection for the distributed trainer.
#[derive(Debug, Clone, Copy)]
pub enum OptimizerKind {
    /// SGD with momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum.
        momentum: f32,
    },
    /// Adam (the paper's Tiramisu optimizer).
    Adam {
        /// Learning rate.
        lr: f32,
    },
    /// LARC around SGD-momentum (§V-B2).
    Larc {
        /// Global learning-rate clip.
        lr: f32,
        /// Trust coefficient.
        trust: f32,
    },
}

/// Distributed-training configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of rank threads (GPUs).
    pub ranks: usize,
    /// Ranks per simulated node (6 on Summit).
    pub node_size: usize,
    /// Shard leaders for the hierarchical all-reduce (4 on Summit).
    pub shard_leaders: usize,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// §V-B4 gradient lag.
    pub gradient_lag: bool,
    /// Training precision for activations and weights. It also fixes the
    /// loss scale (§V-B1): 128 for `F16` (`step.rs`'s `F16_LOSS_SCALE`),
    /// none for `F32`.
    pub precision: DType,
    /// Steps to run.
    pub steps: usize,
    /// Global seed (model init; per-rank streams derive from it).
    pub seed: u64,
    /// Horovod-style fusion threshold in bytes.
    pub fusion_threshold_bytes: usize,
    /// Overlap gradient reduction with backward (§V-A3's "communication of
    /// gradients ... can start as soon as they become available"): a
    /// per-rank comm progress thread all-reduces each fusion bucket as soon
    /// as backward has accumulated the gradient of its last parameter
    /// (every `Param::accumulate_grad` fires that parameter's ready hook),
    /// and the optimizer step joins on the queue. Bit-identical to serial
    /// reduction — buckets are assigned before the step from the canonical
    /// order. On by default; `false` is the serial reference the
    /// determinism suites compare against.
    pub overlap_comm: bool,
    /// Fused optimizer plane: single-pass SIMD updates, applied per
    /// fusion bucket on the comm progress thread the moment the bucket's
    /// all-reduce lands (overlap mode), or spread over the kernel thread
    /// pool (serial mode). Bit-identical to the legacy serial step —
    /// per-parameter updates are independent and LARC norms use the
    /// canonical lane-split reduction. On by default; `false` is the
    /// reference the determinism suites compare against.
    pub fused_optim: bool,
}

impl TrainerConfig {
    /// A small sane default.
    pub fn new(ranks: usize) -> TrainerConfig {
        TrainerConfig {
            ranks,
            node_size: ranks.min(2),
            shard_leaders: 1,
            optimizer: OptimizerKind::Sgd { lr: 0.01, momentum: 0.9 },
            gradient_lag: false,
            precision: DType::F32,
            steps: 4,
            seed: 1234,
            fusion_threshold_bytes: 1 << 20,
            overlap_comm: true,
            fused_optim: true,
        }
    }
}

/// One step's aggregate record.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// Loss averaged over all ranks.
    pub mean_loss: f32,
    /// Wall-clock duration of the step on rank 0, seconds.
    pub wall_time_s: f64,
}

/// Result of a distributed run.
#[derive(Debug)]
pub struct TrainingReport {
    /// Per-step aggregates.
    pub steps: Vec<StepRecord>,
    /// Final parameter hash per rank.
    pub final_hashes: Vec<u64>,
    /// True if every rank ended with bitwise-identical parameters.
    pub consistent: bool,
    /// *Every* message rank 0 sent or received over the whole run, not
    /// only control traffic as its name suggests: the gradient
    /// all-reduce's chunks, the loss all-reduce and the audit broadcast.
    /// The step runs no coordination round (the fusion buckets are
    /// canonical), so every step adds the same count (7 on a 2-rank,
    /// one-bucket run) and the total is the same on every run of one
    /// configuration.
    pub rank0_control_messages: u64,
    /// Fused all-reduce launches per rank per step.
    pub allreduce_launches_per_step: usize,
    /// Logical gradient bytes on the wire per rank per step (four per
    /// gradient element).
    pub wire_bytes_per_step: u64,
    /// Non-finite loss detected (FP16 overflow diagnostics).
    pub diverged: bool,
    /// Whether gradient reduction overlapped backward this run.
    pub overlap_comm: bool,
    /// Rank 0's post-step parameter hash for every step — the determinism
    /// suite compares these bit-for-bit across modes.
    pub step_hashes: Vec<u64>,
    /// Mean seconds per step some thread of rank 0 spent packing /
    /// all-reducing / scattering gradients, wherever it ran. The spread
    /// between this and the mean of `exposed_comm_s_steps` is what
    /// backward hid.
    pub comm_busy_s_per_step: f64,
    /// Whether the fused optimizer plane ran this run.
    pub fused_optim: bool,
    /// Mean seconds per step some thread of rank 0 spent applying
    /// optimizer updates, wherever they ran. The spread between this and
    /// the mean of `optim_s_steps` is the optimizer work the fused plane
    /// hid.
    pub optim_busy_s_per_step: f64,
    /// Rank 0's per-step *critical-path* optimizer seconds: the
    /// main-thread step, ~0 in fused-overlap mode, where the progress
    /// thread retires updates behind backward.
    pub optim_s_steps: Vec<f64>,
    /// Rank 0's per-step exposed-communication seconds: the time its
    /// critical path spent *waiting* on gradient communication (the whole
    /// reduce loop when serial, the join on the progress thread when
    /// overlapped).
    pub exposed_comm_s_steps: Vec<f64>,
}

/// Runs synchronous data-parallel training. Returns the report and the
/// trained rank-0 replica (identical to every other replica when
/// `report.consistent`).
///
/// * `model_builder` must construct the network deterministically from the
///   provided RNG: every rank calls it with an identically-seeded stream.
/// * `source_builder(rank)` builds that rank's batch source.
pub fn train_data_parallel<B, MB, SB>(
    config: &TrainerConfig,
    model_builder: MB,
    source_builder: SB,
) -> (TrainingReport, Box<dyn Layer>)
where
    B: BatchSource + 'static,
    MB: Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer> + Send + Sync + Clone + 'static,
    SB: Fn(usize) -> B + Send + Sync,
{
    assert!(config.ranks >= 1, "need at least one rank");
    assert_eq!(config.ranks % config.node_size, 0, "node_size must divide ranks");
    let comms = CommWorld::new(config.ranks);
    let stats = comms[0].stats();
    let cfg = config.clone();

    let mut results: Vec<RankResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let cfg = cfg.clone();
                let mb = model_builder.clone();
                let source = source_builder(comm.rank());
                scope.spawn(move || rank_main(comm, cfg, mb, source))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                // The plain trainer assumes a healthy world: every
                // collective is still the fallible `try_` variant, but a
                // failure here has no recovery story — surface it loudly.
                h.join()
                    .expect("rank thread")
                    .unwrap_or_else(|e| panic!("rank {rank}: communication failed: {e}"))
            })
            .collect()
    });

    // Rank 0 is the source of every timing column.
    let r0 = &results[0].stats;
    let n_steps = r0.len();
    let steps: Vec<StepRecord> = (0..n_steps)
        .map(|s| StepRecord {
            step: s,
            mean_loss: results.iter().map(|r| r.stats[s].mean_loss).sum::<f32>() / results.len() as f32,
            wall_time_s: r0[s].wall_s,
        })
        .collect();
    let final_hashes: Vec<u64> = results.iter().map(|r| r.done.final_hash).collect();
    let consistent = final_hashes.windows(2).all(|w| w[0] == w[1])
        && results.iter().all(|r| r.done.hashes_ok);
    let per_step = |f: fn(&StepStats) -> f64| {
        if n_steps > 0 { r0.iter().map(f).sum::<f64>() / n_steps as f64 } else { 0.0 }
    };
    let report = TrainingReport {
        diverged: steps.iter().any(|s| !s.mean_loss.is_finite()),
        steps,
        consistent,
        final_hashes,
        rank0_control_messages: stats.messages_sent(0) + stats.messages_received(0),
        allreduce_launches_per_step: results[0].done.allreduce_launches,
        wire_bytes_per_step: r0.last().map_or(0, |s| s.wire_bytes),
        overlap_comm: cfg.overlap_comm,
        step_hashes: r0.iter().map(|s| s.hash).collect(),
        comm_busy_s_per_step: per_step(|s| s.comm_busy_s),
        fused_optim: cfg.fused_optim,
        optim_busy_s_per_step: per_step(|s| s.optim_busy_s),
        optim_s_steps: r0.iter().map(|s| s.optim_s).collect(),
        exposed_comm_s_steps: r0.iter().map(|s| s.exposed_comm_s).collect(),
    };
    let model = results.swap_remove(0).done.model;
    (report, model)
}

struct RankResult {
    /// One entry per completed step.
    stats: Vec<StepStats>,
    done: Trained,
}

fn rank_main<B, MB>(
    comm: Communicator,
    cfg: TrainerConfig,
    model_builder: MB,
    mut source: B,
) -> Result<RankResult, CommError>
where
    B: BatchSource,
    MB: Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer>,
{
    let mut replica = Replica::build(&cfg, comm.rank(), &model_builder);
    replica.wire(comm);
    let mut stats = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        // Lending is safe: a failure here ends the run.
        stats.push(replica.step(step, &mut source, true)?);
    }
    Ok(RankResult { stats, done: replica.finish() })
}

/// Shared toy training fixtures for the trainer / elastic test suites.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use exaclim_nn::layers::Conv2d;
    use exaclim_nn::loss::{class_weights, pixel_weight_map, ClassWeighting};
    use exaclim_nn::Sequential;
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::ops::Conv2dParams;

    /// A toy per-rank source: random 2-channel fields whose label is 1
    /// where channel 0 exceeds channel 1 — learnable by a 1×1 conv.
    pub(crate) struct ToySource {
        rng: rand::rngs::StdRng,
    }

    impl BatchSource for ToySource {
        fn next_batch(&mut self) -> Batch {
            let (h, w) = (6, 6);
            let input = randn([1, 2, h, w], DType::F32, 1.0, &mut self.rng);
            let labels: Vec<u8> = (0..h * w)
                .map(|i| (input.as_slice()[i] > input.as_slice()[h * w + i]) as u8)
                .collect();
            let labels = Labels::new(1, h, w, labels);
            let freq = labels.class_frequencies(2);
            let weights = pixel_weight_map(&labels, &class_weights(&freq, ClassWeighting::Uniform));
            Batch { input, labels, weights }
        }
    }

    pub(crate) fn toy_model(rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
        Box::new(
            Sequential::new("toy")
                .push(Conv2d::new("c1", 2, 8, 3, Conv2dParams::padded(1), true, rng))
                .push(exaclim_nn::layers::ReLU::new())
                .push(Conv2d::new("c2", 8, 2, 1, Conv2dParams::default(), true, rng)),
        )
    }

    pub(crate) fn toy_config(ranks: usize, steps: usize) -> TrainerConfig {
        let mut cfg = TrainerConfig::new(ranks);
        cfg.steps = steps;
        cfg.optimizer = OptimizerKind::Sgd { lr: 0.05, momentum: 0.9 };
        cfg
    }

    pub(crate) fn toy_source(rank: usize) -> ToySource {
        ToySource {
            rng: seeded_rng(900 + rank as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{toy_config, toy_model, toy_source};
    use super::*;
    use exaclim_nn::layers::Conv2d;
    use exaclim_nn::Sequential;
    use exaclim_tensor::init::seeded_rng;
    use exaclim_tensor::ops::Conv2dParams;
    use rand::Rng;

    #[test]
    fn replicas_stay_bitwise_identical() {
        let (report, _model) = train_data_parallel(&toy_config(4, 5), toy_model, toy_source);
        assert!(report.consistent, "replicas diverged: {:?}", report.final_hashes);
        assert!(!report.diverged);
        assert_eq!(report.steps.len(), 5);
    }

    #[test]
    fn training_reduces_loss() {
        let (report, _model) = train_data_parallel(&toy_config(2, 30), toy_model, toy_source);
        let first = report.steps[0].mean_loss;
        let last = report.steps.last().unwrap().mean_loss;
        assert!(last < first * 0.9, "loss should fall: {first} → {last}");
    }

    #[test]
    fn data_parallel_matches_equivalent_single_rank_direction() {
        // 4 ranks with averaged gradients should track a similar loss
        // trajectory to 1 rank (not identical — different batches — but
        // both learn).
        let (multi, _ma) = train_data_parallel(&toy_config(4, 20), toy_model, toy_source);
        let (single, _mb) = train_data_parallel(&toy_config(1, 20), toy_model, toy_source);
        assert!(multi.steps.last().unwrap().mean_loss < multi.steps[0].mean_loss);
        assert!(single.steps.last().unwrap().mean_loss < single.steps[0].mean_loss);
    }

    #[test]
    fn gradient_lag_trains_and_stays_consistent() {
        let mut cfg = toy_config(2, 25);
        cfg.gradient_lag = true;
        let (report, _model) = train_data_parallel(&cfg, toy_model, toy_source);
        assert!(report.consistent);
        let first = report.steps[1].mean_loss; // step 0 applies no update
        let last = report.steps.last().unwrap().mean_loss;
        assert!(last < first, "lagged training learns: {first} → {last}");
    }

    #[test]
    fn larc_trains_consistently() {
        let mut cfg = toy_config(2, 15);
        cfg.optimizer = OptimizerKind::Larc { lr: 0.1, trust: 0.02 };
        let (report, _model) = train_data_parallel(&cfg, toy_model, toy_source);
        assert!(report.consistent);
        assert!(report.steps.last().unwrap().mean_loss.is_finite());
    }

    #[test]
    fn step_traffic_is_deterministic_and_linear_in_steps() {
        // No step message depends on arrival timing: repeats of one run
        // count the same rank-0 traffic, and every step adds the same.
        let messages = |steps| {
            let (r, _m) = train_data_parallel(&toy_config(2, steps), toy_model, toy_source);
            assert!(r.consistent);
            r.rank0_control_messages
        };
        let m4: Vec<u64> = (0..3).map(|_| messages(4)).collect();
        assert!(m4.iter().all(|&m| m == m4[0]), "repeats of a 4-step run: {m4:?}");
        let (m2, m6) = (messages(2), messages(6));
        assert_eq!(m4[0] - m2, m6 - m4[0], "messages at 2 / 4 / 6 steps: {m2} / {} / {m6}", m4[0]);
    }

    #[test]
    fn fusion_threshold_controls_launch_count() {
        let mut fused = toy_config(2, 2);
        fused.fusion_threshold_bytes = usize::MAX / 8;
        let (r_fused, _m3) = train_data_parallel(&fused, toy_model, toy_source);
        let mut unfused = toy_config(2, 2);
        unfused.fusion_threshold_bytes = 4;
        let (r_unfused, _m4) = train_data_parallel(&unfused, toy_model, toy_source);
        assert_eq!(r_fused.allreduce_launches_per_step, 1);
        assert_eq!(r_unfused.allreduce_launches_per_step, 4, "one per tensor");
        // Fusion changes the launch count, never the bytes: four per
        // gradient element.
        let elements = toy_model(&mut seeded_rng(0)).params().total_scalars() as u64;
        assert_eq!(r_fused.wire_bytes_per_step, 4 * elements);
        assert_eq!(r_unfused.wire_bytes_per_step, 4 * elements);
    }

    #[test]
    fn fp16_training_runs_with_loss_scaling() {
        let mut cfg = toy_config(2, 8);
        cfg.precision = DType::F16;
        let (report, _model) = train_data_parallel(&cfg, toy_model, toy_source);
        assert!(report.consistent);
        assert!(!report.diverged, "uniform weights at scale 128 must stay finite");
    }

    #[test]
    fn fused_optimizer_matches_legacy_bitwise_serial_and_overlap() {
        // The fused plane only moves WHERE applies run (progress thread /
        // kernel pool / main thread); the per-step parameter bits must be
        // identical in all four mode combinations.
        let mut baseline = toy_config(2, 6);
        baseline.overlap_comm = false;
        baseline.fused_optim = false;
        let (a, _m) = train_data_parallel(&baseline, toy_model, toy_source);
        assert!(a.consistent);
        for overlap in [false, true] {
            for fused in [false, true] {
                if !overlap && !fused {
                    continue;
                }
                let mut cfg = baseline.clone();
                cfg.overlap_comm = overlap;
                cfg.fused_optim = fused;
                let (b, _m) = train_data_parallel(&cfg, toy_model, toy_source);
                assert!(b.consistent);
                assert_eq!(
                    a.step_hashes, b.step_hashes,
                    "overlap={overlap} fused={fused} drifted from the legacy serial step"
                );
            }
        }
    }

    #[test]
    fn fused_optimizer_matches_legacy_for_larc_and_lag() {
        // LARC exercises the norms + folded-rescale path; gradient lag
        // exercises the unprimed-step and queue-rotation path.
        for (larc, lag) in [(true, false), (false, true)] {
            let mut cfg = toy_config(2, 6);
            cfg.overlap_comm = true;
            if larc {
                cfg.optimizer = OptimizerKind::Larc { lr: 0.1, trust: 0.02 };
            }
            cfg.gradient_lag = lag;
            cfg.fused_optim = false;
            let (a, _m) = train_data_parallel(&cfg, toy_model, toy_source);
            cfg.fused_optim = true;
            let (b, _m) = train_data_parallel(&cfg, toy_model, toy_source);
            assert!(a.consistent && b.consistent);
            assert_eq!(a.step_hashes, b.step_hashes, "larc={larc} lag={lag}");
        }
    }

    /// Differently-seeded init across ranks must be *caught* by the
    /// consistency audit (negative test for the replica checker).
    #[test]
    fn divergent_initialization_is_detected() {
        let cfg = toy_config(2, 1);
        static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let builder = |rng: &mut rand::rngs::StdRng| -> Box<dyn Layer> {
            // Sabotage: a different seed on every invocation.
            let _ = rng.gen::<f32>();
            let unique = CALLS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut m = Sequential::new("bad");
            let mut local = seeded_rng(unique);
            m.push_boxed(Box::new(Conv2d::new("c", 2, 2, 1, Conv2dParams::default(), true, &mut local)));
            Box::new(m)
        };
        let (report, _model) = train_data_parallel(&cfg, builder, toy_source);
        assert!(!report.consistent, "sabotaged init must be flagged");
    }
}
