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
//! the configuration and two of its three drivers: [`train_data_parallel`]
//! (a healthy world; aggregates the report) and
//! [`train_data_parallel_ft`] (crash-at-step, checkpoint cadence,
//! generation restarts). The third, elastic membership, is
//! [`crate::elastic`].

use crate::control::ControlPlane;
use crate::step::{Replica, StepStats, Trained};
use exaclim_comm::{CommError, CommWorld, Communicator};
use exaclim_faults::FaultPlan;
use exaclim_nn::loss::Labels;
use exaclim_nn::Layer;
use exaclim_tensor::{ComputePrecision, DType, Tensor};
use std::path::PathBuf;
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

    /// Elastic-generation hook: called after the rank joins a new world
    /// generation, with the surviving member ids. Streaming sources
    /// re-shard deterministically here; the default is a no-op.
    fn on_generation(&mut self, _generation: u64, _members: &[usize]) {}

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
    /// Control-plane variant.
    pub control: ControlPlane,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// §V-B4 gradient lag.
    pub gradient_lag: bool,
    /// Lag depth when `gradient_lag` is set (1 = the paper's lag 1;
    /// larger = the EASGD-style deeper lags §V-B4 cites).
    pub lag_depth: usize,
    /// Training precision for activations.
    pub precision: DType,
    /// GEMM operand precision inside conv/deconv kernels (FP32, or
    /// f16/bf16 panels with FP32 accumulation). Orthogonal to
    /// `precision`: activations can stay FP32 storage while the GEMM
    /// computes through half operands. Defaults to FP32.
    pub compute: ComputePrecision,
    /// FP16 loss scale (1.0 for FP32).
    pub loss_scale: f32,
    /// Steps to run.
    pub steps: usize,
    /// Global seed (model init; per-rank streams derive from it).
    pub seed: u64,
    /// Horovod-style fusion threshold in bytes.
    pub fusion_threshold_bytes: usize,
    /// Randomize each rank's gradient-ready order (models TensorFlow's
    /// independent dynamic schedulers).
    pub shuffle_ready_order: bool,
    /// Quantize gradients through binary16 before the all-reduce (§VIII-B:
    /// "compression techniques can be used at the expense of already
    /// heavily utilized main processors"). Halves wire bytes; replicas
    /// stay bitwise consistent because every rank quantizes identically.
    pub compress_gradients: bool,
    /// Overlap gradient reduction with backward (§V-A3's "communication of
    /// gradients ... can start as soon as they become available"): a
    /// per-rank comm progress thread all-reduces fusion buckets as layer
    /// backward paths mark their parameters ready, and the optimizer step
    /// joins on the queue. Bit-identical to serial reduction — buckets are
    /// assigned before the step from the canonical order. On by default;
    /// `false` is the serial reference the determinism suites compare
    /// against.
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
            control: ControlPlane::Hierarchical { radix: 2 },
            optimizer: OptimizerKind::Sgd { lr: 0.01, momentum: 0.9 },
            gradient_lag: false,
            lag_depth: 1,
            precision: DType::F32,
            compute: ComputePrecision::F32,
            loss_scale: 1.0,
            steps: 4,
            seed: 1234,
            fusion_threshold_bytes: 1 << 20,
            shuffle_ready_order: true,
            compress_gradients: false,
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
    /// *Every* message rank 0 sent or received over the whole run — not
    /// only the control plane its name suggests: the coordination round,
    /// but also the gradient all-reduce's chunks, the loss all-reduce and
    /// the audit broadcast (on a 2-rank, 7-bucket run about 28 of the
    /// ≈ 46 per step are data plane). Comparable between runs that differ
    /// only in the control plane, which is how the tests use it.
    pub rank0_control_messages: u64,
    /// Fused all-reduce launches per rank per step.
    pub allreduce_launches_per_step: usize,
    /// Logical gradient bytes on the wire per rank per step (halved by
    /// FP16 gradient compression).
    pub wire_bytes_per_step: u64,
    /// Non-finite loss detected (FP16 overflow diagnostics).
    pub diverged: bool,
    /// Whether gradient reduction overlapped backward this run.
    pub overlap_comm: bool,
    /// Rank 0's post-step parameter hash for every step — the determinism
    /// suite compares these bit-for-bit across modes.
    pub step_hashes: Vec<u64>,
    /// Mean seconds per step rank 0's critical path spent *waiting* on
    /// gradient communication (the whole reduce loop when serial, the join
    /// on the progress thread when overlapped).
    pub exposed_comm_s_per_step: f64,
    /// Mean seconds per step some thread of rank 0 spent packing /
    /// all-reducing / scattering gradients, wherever it ran. The spread
    /// between this and `exposed_comm_s_per_step` is what backward hid.
    pub comm_busy_s_per_step: f64,
    /// Mean seconds per step rank 0's critical path spent blocked on the
    /// input pipeline (the `next_batch` pull) — near zero when prefetch
    /// keeps up, and the signal prefetch autoscaling consumes.
    pub ingest_wait_s_per_step: f64,
    /// Whether the fused optimizer plane ran this run.
    pub fused_optim: bool,
    /// Mean seconds per step rank 0's *critical path* spent in the
    /// optimizer (the main-thread step; ~0 in fused-overlap mode, where
    /// the progress thread retires updates behind backward).
    pub optim_s_per_step: f64,
    /// Mean seconds per step some thread of rank 0 spent applying
    /// optimizer updates, wherever they ran. The spread between this and
    /// `optim_s_per_step` is the optimizer work the fused plane hid.
    pub optim_busy_s_per_step: f64,
    /// Rank 0's per-step critical-path optimizer seconds (the benchmark
    /// adapter reads this and `exposed_comm_s_steps` as raw vectors).
    pub optim_s_steps: Vec<f64>,
    /// Rank 0's per-step exposed-communication seconds.
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
        exposed_comm_s_per_step: per_step(|s| s.exposed_comm_s),
        comm_busy_s_per_step: per_step(|s| s.comm_busy_s),
        ingest_wait_s_per_step: per_step(|s| s.ingest_wait_s),
        fused_optim: cfg.fused_optim,
        optim_s_per_step: per_step(|s| s.optim_s),
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

// ---------------------------------------------------------------------------
// Fault-tolerant training: checkpoint/restart over a shrinking world.
// ---------------------------------------------------------------------------

/// Fault-tolerance knobs wrapped around a [`TrainerConfig`].
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// The underlying training configuration. `ranks` is the *initial*
    /// world size; the surviving world shrinks as ranks die.
    pub base: TrainerConfig,
    /// Save an auto-checkpoint after every this-many completed steps.
    pub checkpoint_every: usize,
    /// Directory for `step-*.exck` auto-checkpoints.
    pub checkpoint_dir: PathBuf,
    /// Give up (panic) after this many restarts.
    pub max_restarts: usize,
    /// Per-receive deadline for the training world. Short, so a dead rank
    /// is detected in bounded time instead of hanging a collective.
    pub recv_deadline: Duration,
}

impl FtConfig {
    /// Sensible defaults: checkpoint every 2 steps, up to 4 restarts,
    /// 5-second receive deadline.
    pub fn new(base: TrainerConfig, checkpoint_dir: impl Into<PathBuf>) -> FtConfig {
        FtConfig {
            base,
            checkpoint_every: 2,
            checkpoint_dir: checkpoint_dir.into(),
            max_restarts: 4,
            recv_deadline: Duration::from_secs(5),
        }
    }
}

/// Result of a fault-tolerant run.
#[derive(Debug)]
pub struct FtReport {
    /// Per-step aggregates over all `base.steps` global steps. Steps
    /// replayed after a restart carry the replay's numbers.
    pub steps: Vec<StepRecord>,
    /// Final parameter hash per *surviving* rank.
    pub final_hashes: Vec<u64>,
    /// True if every surviving replica ended bitwise identical.
    pub consistent: bool,
    /// Restarts performed (0 on a healthy run).
    pub restarts: usize,
    /// Auto-checkpoints written across all generations.
    pub checkpoints_saved: usize,
    /// Original ids of ranks that died, in death order.
    pub ranks_lost: Vec<usize>,
    /// Original ids of the ranks that finished the run.
    pub survivors: Vec<usize>,
    /// Non-finite loss detected.
    pub diverged: bool,
    /// Completed steps that had to be re-executed because they post-dated
    /// the checkpoint a restart resumed from — the work checkpoint-restart
    /// throws away, and the number elastic resizing drives to zero.
    pub steps_replayed: usize,
}

/// How one rank's participation in a generation ended.
enum FtEnd {
    /// Ran every remaining step.
    Finished,
    /// The injected fault fired: the rank exited at this step, dropping
    /// its communicator without a word — a real node death's signature.
    Crashed { at_step: usize },
    /// A collective failed (a peer died or went silent); the rank backed
    /// out cleanly so the driver can restart the survivors.
    Aborted { error: CommError },
}

/// One rank's generation: how it ended and what it accumulated first.
struct FtRankRun {
    end: FtEnd,
    /// One record per completed global step.
    records: Vec<StepRecord>,
    /// Completed-step counts at which this rank saved an auto-checkpoint.
    saved: Vec<usize>,
    done: Trained,
}

/// Runs synchronous data-parallel training that survives rank deaths.
///
/// The driver runs the world in *generations*. Within a generation, ranks
/// train exactly like [`train_data_parallel`] except that every collective
/// is the fallible `try_` variant and rank 0 writes an auto-checkpoint
/// every [`FtConfig::checkpoint_every`] steps. A rank whose [`FaultPlan`]
/// says "crash at step c" exits at that step without ceremony; survivors
/// observe the death as typed [`CommError`]s (never a hang — receives are
/// deadline-bounded), abort the step, and the driver restarts a smaller
/// world from the latest checkpoint. Replayed steps are deterministic, so
/// two runs with the same seeds and the same fault plan produce identical
/// parameter bits.
///
/// Auto-checkpoints carry the optimizer state (momentum/Adam moments) as
/// the EXCK v2 trailer section, and restarts import it — a resumed world
/// continues the *exact* optimizer trajectory instead of restarting the
/// moments cold.
pub fn train_data_parallel_ft<B, MB, SB>(
    ft: &FtConfig,
    faults: &FaultPlan,
    model_builder: MB,
    source_builder: SB,
) -> (FtReport, Box<dyn Layer>)
where
    B: BatchSource + 'static,
    MB: Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer> + Send + Sync + Clone + 'static,
    SB: Fn(usize) -> B + Send + Sync,
{
    assert!(ft.base.ranks >= 1, "need at least one rank");
    assert_eq!(ft.base.ranks % ft.base.node_size, 0, "node_size must divide ranks");
    assert!(ft.checkpoint_every >= 1, "checkpoint_every must be at least 1");

    let mut members: Vec<usize> = (0..ft.base.ranks).collect();
    let mut ranks_lost: Vec<usize> = Vec::new();
    let mut restarts = 0usize;
    let mut checkpoints_saved = 0usize;
    let mut steps_replayed = 0usize;
    // The most recent checkpoint written *by this run* — tracked in
    // memory, never rediscovered from disk, so stale files from an older
    // run in the same directory can't hijack a restart.
    let mut resume: Option<(usize, PathBuf)> = None;
    let mut step_records: Vec<Option<StepRecord>> = vec![None; ft.base.steps];

    loop {
        let n = members.len();
        assert!(n >= 1, "every rank died; nothing left to restart");
        let start_step = resume.as_ref().map_or(0, |(s, _)| *s);

        let comms = CommWorld::with_deadline(n, ft.recv_deadline);
        let runs: Vec<FtRankRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .zip(&members)
                .map(|(comm, &original)| {
                    let mb = model_builder.clone();
                    let source = source_builder(original);
                    let resume = resume.as_ref();
                    scope.spawn(move || rank_main_ft(original, comm, ft, resume, faults, mb, source))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
        });

        let mut newly_dead: Vec<usize> = Vec::new();
        let mut why: Vec<String> = Vec::new();
        let mut all_finished = true;
        let mut final_hashes: Vec<u64> = Vec::new();
        let mut hashes_ok = true;
        let mut model_out: Option<Box<dyn Layer>> = None;
        let mut gen_end = start_step;
        for (idx, run) in runs.into_iter().enumerate() {
            match &run.end {
                FtEnd::Finished => {
                    final_hashes.push(run.done.final_hash);
                    hashes_ok &= run.done.hashes_ok;
                }
                FtEnd::Crashed { at_step } => {
                    all_finished = false;
                    newly_dead.push(members[idx]);
                    why.push(format!("rank {} crashed at step {at_step}", members[idx]));
                }
                FtEnd::Aborted { error } => {
                    all_finished = false;
                    why.push(format!("rank {} aborted: {error}", members[idx]));
                }
            }
            // Rank 0 of the generation is the checkpoint writer and the
            // source of step aggregates (even from a partial generation).
            if idx == 0 {
                gen_end = run.records.last().map_or(start_step, |r| r.step + 1);
                for r in &run.records {
                    step_records[r.step] = Some(*r);
                }
                checkpoints_saved += run.saved.len();
                if let Some(&s) = run.saved.iter().max() {
                    if resume.as_ref().is_none_or(|(r, _)| s > *r) {
                        let path = ft.checkpoint_dir.join(format!("step-{s:08}.exck"));
                        resume = Some((s, path));
                    }
                }
                if all_finished {
                    model_out = Some(run.done.model);
                }
            }
        }

        if all_finished {
            let steps: Vec<StepRecord> = step_records
                .into_iter()
                .map(|r| r.expect("every step completed"))
                .collect();
            let diverged = steps.iter().any(|s| !s.mean_loss.is_finite());
            let consistent = hashes_ok && final_hashes.windows(2).all(|w| w[0] == w[1]);
            let report = FtReport {
                steps,
                final_hashes,
                consistent,
                restarts,
                checkpoints_saved,
                ranks_lost,
                survivors: members,
                diverged,
                steps_replayed,
            };
            return (report, model_out.expect("rank 0 finished"));
        }

        // Work completed past the checkpoint the next generation resumes
        // from is lost and must be re-run.
        steps_replayed += gen_end.saturating_sub(resume.as_ref().map_or(0, |(s, _)| *s));
        restarts += 1;
        assert!(
            restarts <= ft.max_restarts,
            "gave up after {restarts} restarts (lost ranks {ranks_lost:?}; this generation: {})",
            why.join("; ")
        );
        members.retain(|m| !newly_dead.contains(m));
        ranks_lost.extend(newly_dead);
    }
}

fn rank_main_ft<B, MB>(
    original: usize,
    comm: Communicator,
    ft: &FtConfig,
    resume: Option<&(usize, PathBuf)>,
    faults: &FaultPlan,
    model_builder: MB,
    mut source: B,
) -> FtRankRun
where
    B: BatchSource,
    MB: Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer>,
{
    let cfg = &ft.base;
    let writes_checkpoints = comm.rank() == 0;
    // Streams are keyed by the rank's *original* id so a survivor keeps
    // its data shard across generations; an identical restore lands on
    // top of the identical replica, and the streams fast-forward so
    // replayed global steps see the batches they would have seen.
    let mut replica = Replica::build(cfg, original, &model_builder);
    let mut start_step = 0;
    if let Some((step, path)) = resume {
        replica
            .restore(path)
            .unwrap_or_else(|e| panic!("rank {original}: restore step-{step} checkpoint: {e}"));
        start_step = *step;
    }
    replica.fast_forward(&mut source, start_step);
    replica.wire(comm);

    let crash_at = faults.crash_step(original);
    let mut records = Vec::new();
    let mut saved = Vec::new();
    let mut end = FtEnd::Finished;
    for step in start_step..cfg.steps {
        if crash_at == Some(step) {
            // Fault injection: die here. Dropping the communicator (on
            // return) is the whole signal — peers find out through their
            // own receives.
            end = FtEnd::Crashed { at_step: step };
            break;
        }
        // Lending is safe under checkpoint-restart: if the step aborts
        // with some buckets already applied, the restart restores model
        // *and* optimizer state, wiping the partial update.
        match replica.step(step, &mut source, true) {
            Ok(s) => {
                records.push(StepRecord { step, mean_loss: s.mean_loss, wall_time_s: s.wall_s });
                let completed = step + 1;
                if writes_checkpoints && completed.is_multiple_of(ft.checkpoint_every) {
                    replica
                        .save_checkpoint(&ft.checkpoint_dir, completed)
                        .unwrap_or_else(|e| panic!("auto-checkpoint at step {completed}: {e}"));
                    saved.push(completed);
                }
            }
            Err(error) => {
                end = FtEnd::Aborted { error };
                break;
            }
        }
    }
    FtRankRun { end, records, saved, done: replica.finish() }
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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
    fn hierarchical_control_reduces_rank0_traffic() {
        let mut central = toy_config(6, 3);
        central.control = ControlPlane::Centralized;
        central.node_size = 3;
        central.shard_leaders = 2;
        let (r_central, _m1) = train_data_parallel(&central, toy_model, toy_source);

        let mut hier = central.clone();
        hier.control = ControlPlane::Hierarchical { radix: 2 };
        let (r_hier, _m2) = train_data_parallel(&hier, toy_model, toy_source);

        assert!(r_central.consistent && r_hier.consistent);
        assert!(
            r_hier.rank0_control_messages < r_central.rank0_control_messages,
            "hierarchical {} vs centralized {}",
            r_hier.rank0_control_messages,
            r_central.rank0_control_messages
        );
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
    }

    #[test]
    fn gradient_compression_halves_wire_bytes_and_still_trains() {
        let mut plain = toy_config(2, 12);
        let (r_plain, _m) = train_data_parallel(&plain.clone(), toy_model, toy_source);
        plain.compress_gradients = true;
        let (r_comp, _m2) = train_data_parallel(&plain, toy_model, toy_source);
        assert!(r_comp.consistent, "compressed replicas stay identical");
        assert_eq!(
            r_comp.wire_bytes_per_step * 2,
            r_plain.wire_bytes_per_step,
            "binary16 halves gradient wire traffic"
        );
        let first = r_comp.steps[0].mean_loss;
        let last = r_comp.steps.last().unwrap().mean_loss;
        assert!(last < first, "compressed-gradient training still learns: {first} → {last}");
    }

    #[test]
    fn fp16_training_runs_with_loss_scaling() {
        let mut cfg = toy_config(2, 8);
        cfg.precision = DType::F16;
        cfg.loss_scale = 128.0;
        let (report, _model) = train_data_parallel(&cfg, toy_model, toy_source);
        assert!(report.consistent);
        assert!(!report.diverged, "uniform weights at scale 128 must stay finite");
    }

    fn ft_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("exaclim_ft_{}", std::process::id()))
            .join(name);
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn ft_config(ranks: usize, steps: usize, dir: &str) -> FtConfig {
        let mut ft = FtConfig::new(toy_config(ranks, steps), ft_dir(dir));
        ft.checkpoint_every = 2;
        ft.recv_deadline = Duration::from_secs(2);
        ft
    }

    /// Counts `on_step_timing` calls across every rank's source.
    struct TimedSource(test_support::ToySource, Arc<AtomicUsize>);

    impl BatchSource for TimedSource {
        fn next_batch(&mut self) -> Batch {
            self.0.next_batch()
        }
        fn on_step_timing(&mut self, _ingest_wait: Duration, _step_wall: Duration) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn healthy_ft_run_matches_plain_trainer_bitwise() {
        // With no faults injected, the fault-tolerant path must follow
        // the exact arithmetic of the plain trainer — one hash across
        // drivers × planes.
        let mut hashes = Vec::new();
        for overlap in [false, true] {
            for fused in [false, true] {
                let mut ft = ft_config(2, 6, &format!("healthy_{overlap}_{fused}"));
                ft.base.overlap_comm = overlap;
                ft.base.fused_optim = fused;
                let (plain, _m) = train_data_parallel(&ft.base, toy_model, toy_source);
                let timings = Arc::new(AtomicUsize::new(0));
                let source = |rank| TimedSource(toy_source(rank), timings.clone());
                let (r, _m2) = train_data_parallel_ft(&ft, &FaultPlan::none(), toy_model, source);
                assert_eq!(r.restarts, 0);
                assert!(r.ranks_lost.is_empty());
                assert_eq!(r.steps_replayed, 0);
                assert!(r.consistent);
                assert_eq!(
                    r.final_hashes[0], plain.final_hashes[0],
                    "overlap={overlap} fused={fused}: identical parameter bits"
                );
                assert_eq!(r.checkpoints_saved, 3, "steps 2, 4, 6");
                // Reader autoscaling feedback must flow under FT too.
                assert_eq!(timings.load(Ordering::SeqCst), 2 * 6, "one per rank per step");
                std::fs::remove_dir_all(&ft.checkpoint_dir).ok();
                hashes.push(plain.final_hashes[0]);
            }
        }
        assert!(hashes.windows(2).all(|w| w[0] == w[1]), "planes diverged: {hashes:?}");
    }

    #[test]
    fn rank_death_recovers_via_checkpoint_restart() {
        // End-to-end recovery: rank 2 dies at step 5 of 8. Survivors
        // detect it, restart from the step-4 checkpoint as a 3-rank
        // world, and finish with bitwise-identical replicas.
        let ft = ft_config(4, 8, "one_death");
        let faults = FaultPlan::seeded(7).with_crash_at_step(2, 5);
        let (r, _model) = train_data_parallel_ft(&ft, &faults, toy_model, toy_source);
        assert_eq!(r.ranks_lost, vec![2]);
        assert_eq!(r.survivors, vec![0, 1, 3]);
        assert_eq!(r.restarts, 1);
        assert_eq!(r.steps_replayed, 1, "step 4 post-dates the step-4 checkpoint by one");
        assert_eq!(r.steps.len(), 8, "every global step completed");
        assert!(r.steps.iter().enumerate().all(|(i, s)| s.step == i));
        assert_eq!(r.final_hashes.len(), 3, "one hash per survivor");
        assert!(r.consistent, "survivors diverged: {:?}", r.final_hashes);
        assert!(r.checkpoints_saved >= 2, "auto-checkpoints were written");
        assert!(!r.diverged);
        std::fs::remove_dir_all(&ft.checkpoint_dir).ok();
    }

    #[test]
    fn death_before_any_checkpoint_restarts_from_scratch() {
        // Dying at step 1 (before the first step-2 checkpoint) must fall
        // back to a from-scratch restart, not a bogus restore.
        let ft = ft_config(2, 4, "early_death");
        let faults = FaultPlan::seeded(8).with_crash_at_step(1, 1);
        let (r, _model) = train_data_parallel_ft(&ft, &faults, toy_model, toy_source);
        assert_eq!(r.ranks_lost, vec![1]);
        assert_eq!(r.restarts, 1);
        assert_eq!(r.steps_replayed, 1, "step 0 completed but was never checkpointed");
        assert_eq!(r.steps.len(), 4);
        assert!(r.consistent);
        std::fs::remove_dir_all(&ft.checkpoint_dir).ok();
    }

    #[test]
    fn ft_replay_with_same_fault_plan_is_bit_identical() {
        // Determinism under chaos: the same seeded fault plan twice gives
        // the same deaths, the same restarts, and the same final bits.
        // Killing rank 0 also hands the checkpoint-writer role to the
        // next survivor.
        let faults = FaultPlan::seeded(21).with_crash_at_step(0, 3);
        let ft_a = ft_config(4, 6, "replay_a");
        let (a, _ma) = train_data_parallel_ft(&ft_a, &faults, toy_model, toy_source);
        let ft_b = ft_config(4, 6, "replay_b");
        let (b, _mb) = train_data_parallel_ft(&ft_b, &faults, toy_model, toy_source);
        assert_eq!(a.ranks_lost, b.ranks_lost);
        assert_eq!(a.restarts, b.restarts);
        assert_eq!(a.final_hashes, b.final_hashes);
        assert_eq!(a.steps.len(), b.steps.len());
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits(), "step {} loss", x.step);
        }
        std::fs::remove_dir_all(&ft_a.checkpoint_dir).ok();
        std::fs::remove_dir_all(&ft_b.checkpoint_dir).ok();
    }

    #[test]
    fn two_rank_deaths_across_generations_recover() {
        // Rank 1 dies at step 2, rank 3 at step 4 — two restarts, and the
        // last two survivors still finish consistently.
        let ft = ft_config(4, 6, "two_deaths");
        let faults = FaultPlan::seeded(5)
            .with_crash_at_step(1, 2)
            .with_crash_at_step(3, 4);
        let (r, _model) = train_data_parallel_ft(&ft, &faults, toy_model, toy_source);
        let mut lost = r.ranks_lost.clone();
        lost.sort_unstable();
        assert_eq!(lost, vec![1, 3]);
        assert_eq!(r.survivors, vec![0, 2]);
        assert_eq!(r.restarts, 2);
        assert_eq!(r.steps.len(), 6);
        assert!(r.consistent);
        std::fs::remove_dir_all(&ft.checkpoint_dir).ok();
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

    #[test]
    fn ft_recovery_is_bit_identical_with_fused_optimizer() {
        // A mid-step failure can leave some buckets applied on the worker;
        // the checkpoint restart must wipe the partial update and land on
        // the same bits as the legacy path.
        let run = |fused: bool, dir: &str| {
            let mut ft = ft_config(4, 8, dir);
            ft.base.overlap_comm = true;
            ft.base.fused_optim = fused;
            let faults = FaultPlan::seeded(7).with_crash_at_step(2, 5);
            let (r, _m) = train_data_parallel_ft(&ft, &faults, toy_model, toy_source);
            assert!(r.consistent, "fused={fused}");
            assert_eq!(r.restarts, 1);
            std::fs::remove_dir_all(&ft.checkpoint_dir).ok();
            r.final_hashes
        };
        assert_eq!(run(false, "fused_legacy"), run(true, "fused_fused"));
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
