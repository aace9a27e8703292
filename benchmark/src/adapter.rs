//! The only file of the benchmark that names repository types.
//!
//! Everything here calls the crates through their public functions and
//! times those calls from outside: workload builders, the `TimedLayer`
//! and `TimedSource` wrappers, the one `trainer_config()`, the serving
//! harness, and the per-layer probes. A refactor of the trainer, the
//! ingest path or the profiler has this one benchmark file to follow.

use crate::stats::SplitMix64;
use crate::trace::TraceSink;
use exaclim_climsim::{ClimateDataset, DatasetConfig, Split};
use exaclim_comm::CommWorld;
use exaclim_core::experiment::ClimateBatchSource;
use exaclim_distrib::trainer::Batch;
use exaclim_distrib::{fuse, train_data_parallel, BatchSource, OptimizerKind, TrainerConfig};
use exaclim_models::{DeepLabConfig, DeepLabV3Plus, Tiramisu, TiramisuConfig, NUM_CLASSES};
use exaclim_nn::checkpoint;
use exaclim_nn::layers::{BilinearUpsample, Conv2d, MaxPool2d, ReLU};
use exaclim_nn::loss::{class_weights, ClassWeighting, Labels, WeightedCrossEntropy};
use exaclim_nn::optim::{Adam, LarcSgd, Optimizer};
use exaclim_nn::{Ctx, Layer, ParamSet, Sequential};
use exaclim_pipeline::ChannelStats;
use exaclim_serve::{
    concat_batch, infer_tiled, plan_tiles, replicas_from_checkpoint, split_batch, InferenceServer,
    ServeConfig, ServeHandle, TileConfig,
};
use exaclim_staging::real::stage_distributed;
use exaclim_staging::StagingPlan;
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::{
    batchnorm_forward, conv2d_backward, conv2d_forward, gemm, Conv2dParams, ConvAlgo,
};
use exaclim_tensor::profile::{self, Category, SpanKind};
use exaclim_tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Named per-layer measurements, in the order they were taken.
pub type Metrics = Vec<(&'static str, f64)>;

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

/// The SIMD level the kernels dispatch to on this host.
pub fn simd_level() -> &'static str {
    exaclim_tensor::simd::active_level().label()
}

/// Width of the kernel thread pool (library default: one per core).
pub fn kernel_pool_width() -> usize {
    exaclim_tensor::kernel_threads()
}

// ---------------------------------------------------------------------------
// Training workloads
// ---------------------------------------------------------------------------

/// The four training workloads (see the README for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    DeeplabR1,
    TiramisuR2,
    GradheavyR2,
    DataboundR1,
}

/// Fixed sizes of one training workload, identical on every commit.
pub struct TrainSpec {
    pub ranks: usize,
    pub local_batch: usize,
    /// Untimed steps at the start of every chunk (caches fill, the reader
    /// autoscaler settles).
    pub warm_steps: usize,
    /// Timed steps of every chunk.
    pub timed_steps: usize,
    /// Whether the loss after a chunk must be below its first step's.
    pub must_learn: bool,
    /// The step-time percentile reported as the tail: the highest the
    /// number of steps a 10 s window holds on the seed tree leaves ten
    /// samples beyond (about 100, 70, 240 and 2400 steps).
    pub tail: f64,
}

impl TrainKind {
    pub fn parse(name: &str) -> Option<TrainKind> {
        match name {
            "train_deeplab_r1" => Some(TrainKind::DeeplabR1),
            "train_tiramisu_r2" => Some(TrainKind::TiramisuR2),
            "train_gradheavy_r2" => Some(TrainKind::GradheavyR2),
            "train_databound_r1" => Some(TrainKind::DataboundR1),
            _ => None,
        }
    }

    pub fn spec(self) -> TrainSpec {
        match self {
            TrainKind::DeeplabR1 => TrainSpec {
                ranks: 1,
                local_batch: 1,
                warm_steps: 2,
                timed_steps: 20,
                must_learn: true,
                tail: 0.75,
            },
            TrainKind::TiramisuR2 => TrainSpec {
                ranks: 2,
                local_batch: 1,
                warm_steps: 2,
                timed_steps: 14,
                must_learn: true,
                tail: 0.75,
            },
            TrainKind::GradheavyR2 => TrainSpec {
                ranks: 2,
                local_batch: 1,
                warm_steps: 5,
                timed_steps: 40,
                must_learn: false,
                tail: 0.90,
            },
            TrainKind::DataboundR1 => TrainSpec {
                ranks: 1,
                local_batch: 1,
                warm_steps: 50,
                timed_steps: 300,
                must_learn: false,
                tail: 0.99,
            },
        }
    }
}

/// Grid of the two network workloads (`ExperimentConfig::study` shapes).
const NET_GRID: (usize, usize) = (48, 72);
/// Frames of the data-bound workload: large, so reading and decoding them
/// is the step.
const DATABOUND_GRID: (usize, usize) = (96, 144);
/// ... and its model pools them 8×8 first, so that the model is next to
/// nothing beside the ingest of a frame.
const DATABOUND_POOL: usize = 8;
/// Width of the hidden 1×1 convolutions of the gradient-heavy workload,
/// and the side of its patches.
const GRADHEAVY_WIDTH: usize = 768;
const GRADHEAVY_PATCH: usize = 4;
const CHANNELS: usize = 16;

#[derive(Clone)]
enum Model {
    DeepLab,
    Tiramisu,
    /// 1×1 convolutions `widths[0] → widths[1] → …` with ReLU between, on
    /// the input max-pooled by `pool` (logits upsampled back by as much).
    Pointwise {
        widths: Vec<usize>,
        pool: usize,
    },
}

impl Model {
    fn build(&self, rng: &mut StdRng) -> Box<dyn Layer> {
        match self {
            Model::DeepLab => Box::new(DeepLabV3Plus::new(DeepLabConfig::tiny(CHANNELS), rng)),
            Model::Tiramisu => Box::new(Tiramisu::new(TiramisuConfig::tiny(CHANNELS), rng)),
            Model::Pointwise { widths, pool } => {
                let mut net = Sequential::new("pointwise");
                if *pool > 1 {
                    net.push_boxed(Box::new(MaxPool2d::new(*pool, *pool, 0)));
                }
                for (i, pair) in widths.windows(2).enumerate() {
                    if i > 0 {
                        net.push_boxed(Box::new(ReLU::new()));
                    }
                    let conv = Conv2d::new(
                        format!("pw{i}"),
                        pair[0],
                        pair[1],
                        1,
                        Conv2dParams::default(),
                        true,
                        rng,
                    );
                    net.push_boxed(Box::new(conv));
                }
                if *pool > 1 {
                    net.push_boxed(Box::new(BilinearUpsample::new(*pool)));
                }
                Box::new(net)
            }
        }
    }

    /// Training FLOPs per sample from the architecture spec; `None` for
    /// the spec-less pointwise stacks (the census supplies theirs).
    fn spec_train_flops(&self, h: usize, w: usize) -> Option<u64> {
        match self {
            Model::DeepLab => Some(DeepLabConfig::tiny(CHANNELS).spec(h, w).training_flops()),
            Model::Tiramisu => Some(TiramisuConfig::tiny(CHANNELS).spec(h, w).training_flops()),
            Model::Pointwise { .. } => None,
        }
    }

    /// `(in_ch, out_ch, h, w)` of the 3×3 convolution that does the most
    /// forward work; the pointwise stacks have none and probe their input
    /// shape instead.
    fn dominant_conv(&self, h: usize, w: usize) -> (usize, usize, usize, usize) {
        let spec = match self {
            Model::DeepLab => DeepLabConfig::tiny(CHANNELS).spec(h, w),
            Model::Tiramisu => TiramisuConfig::tiny(CHANNELS).spec(h, w),
            Model::Pointwise { .. } => return (CHANNELS, CHANNELS, h, w),
        };
        spec.ops
            .iter()
            .filter(|op| {
                matches!(
                    op.kind,
                    exaclim_models::OpKind::Conv {
                        kernel: 3,
                        stride: 1,
                        ..
                    }
                )
            })
            .max_by_key(|op| op.forward_flops())
            .map_or((CHANNELS, CHANNELS, h, w), |op| {
                (op.in_ch, op.out_ch, op.out_h, op.out_w)
            })
    }
}

enum Data {
    /// The synthetic climate dataset behind the staging plan and the
    /// streaming ingest engine.
    Climate {
        dataset: Arc<ClimateDataset>,
        stats: Arc<ChannelStats>,
        class_w: Vec<f32>,
        samples_per_rank: usize,
    },
    /// Seeded random labelled patches generated in memory.
    Patches,
}

/// The one trainer configuration of the benchmark: library defaults, with
/// the backward-overlapped comm plane and the fused optimizer pinned on
/// (the plane ROADMAP item 1 keeps), whatever the environment says.
pub fn trainer_config(
    ranks: usize,
    optimizer: OptimizerKind,
    seed: u64,
    steps: usize,
) -> TrainerConfig {
    let mut cfg = TrainerConfig::new(ranks);
    cfg.overlap_comm = true;
    cfg.fused_optim = true;
    cfg.optimizer = optimizer;
    cfg.seed = seed;
    cfg.steps = steps;
    cfg
}

/// Everything a training workload builds before its first timed step.
pub struct TrainSetup {
    kind: TrainKind,
    seed: u64,
    model: Model,
    data: Data,
    optimizer: OptimizerKind,
    grid: (usize, usize),
    /// Per-layer numbers that set-up itself produced (`climsim.generate_s`,
    /// `staging.*`).
    pub setup_metrics: Metrics,
}

/// Builds workload `kind` from `seed`. Disk-backed workloads write their
/// dataset under `dir`.
pub fn train_setup(kind: TrainKind, seed: u64, dir: &Path) -> TrainSetup {
    let mut setup_metrics = Metrics::new();
    let climate =
        |grid: (usize, usize), n: usize, per_file: usize, disk: bool, metrics: &mut Metrics| {
            let mut cfg = DatasetConfig::small(seed, n);
            cfg.generator.h = grid.0;
            cfg.generator.w = grid.1;
            cfg.samples_per_file = per_file;
            let t0 = Instant::now();
            let dataset = if disk {
                ClimateDataset::on_disk(&cfg, dir.join("dataset")).expect("write the CDF5 dataset")
            } else {
                ClimateDataset::in_memory(&cfg)
            };
            metrics.push(("climsim.generate_s", t0.elapsed().as_secs_f64()));
            let dataset = Arc::new(dataset);
            let stats = Arc::new(
                ChannelStats::estimate(&dataset, 4.min(dataset.len())).expect("channel statistics"),
            );
            let freqs = dataset
                .class_frequencies(Split::Train, NUM_CLASSES)
                .expect("class frequencies");
            let class_w = class_weights(&freqs, ClassWeighting::InverseSqrtFrequency);
            (dataset, stats, class_w)
        };
    let spec = kind.spec();
    let (model, data, optimizer, grid) = match kind {
        TrainKind::DeeplabR1 => {
            let (dataset, stats, class_w) = climate(NET_GRID, 32, 4, false, &mut setup_metrics);
            let data = Data::Climate {
                dataset,
                stats,
                class_w,
                samples_per_rank: 16,
            };
            (
                Model::DeepLab,
                data,
                OptimizerKind::Adam { lr: 2e-3 },
                NET_GRID,
            )
        }
        TrainKind::TiramisuR2 => {
            let (dataset, stats, class_w) = climate(NET_GRID, 32, 4, true, &mut setup_metrics);
            // §V-A1 staging: each rank's node-local shard is read once from
            // the shared files and redistributed.
            let n_train = dataset.indices(Split::Train).len();
            let t0 = Instant::now();
            let plan = StagingPlan::build(n_train, spec.ranks, 16, seed);
            setup_metrics.push(("staging.plan_ms", t0.elapsed().as_secs_f64() * 1e3));
            let report = stage_distributed(&dataset, &plan);
            setup_metrics.push(("staging.stage_distributed_s", report.wall_time));
            setup_metrics.push(("staging.disk_reads", report.disk_reads as f64));
            setup_metrics.push(("staging.forwarded", report.forwarded as f64));
            setup_metrics.push(("staging.mean_replication", plan.mean_replication()));
            let data = Data::Climate {
                dataset,
                stats,
                class_w,
                samples_per_rank: 16,
            };
            (
                Model::Tiramisu,
                data,
                OptimizerKind::Larc {
                    lr: 0.05,
                    trust: 0.02,
                },
                NET_GRID,
            )
        }
        TrainKind::GradheavyR2 => {
            let w = GRADHEAVY_WIDTH;
            let widths = vec![CHANNELS, w, w, w, w, NUM_CLASSES];
            let side = GRADHEAVY_PATCH;
            (
                Model::Pointwise { widths, pool: 1 },
                Data::Patches,
                OptimizerKind::Larc {
                    lr: 0.05,
                    trust: 0.02,
                },
                (side, side),
            )
        }
        TrainKind::DataboundR1 => {
            let (dataset, stats, class_w) =
                climate(DATABOUND_GRID, 96, 4, true, &mut setup_metrics);
            let n_train = dataset.indices(Split::Train).len();
            let data = Data::Climate {
                dataset,
                stats,
                class_w,
                samples_per_rank: n_train,
            };
            (
                Model::Pointwise {
                    widths: vec![CHANNELS, NUM_CLASSES],
                    pool: DATABOUND_POOL,
                },
                data,
                OptimizerKind::Adam { lr: 2e-3 },
                DATABOUND_GRID,
            )
        }
    };
    TrainSetup {
        kind,
        seed,
        model,
        data,
        optimizer,
        grid,
        setup_metrics,
    }
}

/// Either source behind one type, as `train_data_parallel` wants.
enum AnySource {
    Climate(Box<ClimateBatchSource>),
    Patches(PatchSource),
}

impl AnySource {
    fn workers(&self) -> usize {
        match self {
            AnySource::Climate(s) => s.workers(),
            AnySource::Patches(_) => 0,
        }
    }
}

impl BatchSource for AnySource {
    fn next_batch(&mut self) -> Batch {
        match self {
            AnySource::Climate(s) => s.next_batch(),
            AnySource::Patches(s) => s.next_batch(),
        }
    }

    fn on_step_timing(&mut self, ingest_wait: Duration, step_wall: Duration) {
        if let AnySource::Climate(s) = self {
            s.on_step_timing(ingest_wait, step_wall);
        }
    }
}

/// Random 16-channel patches whose label is the largest of the first
/// three channels: learnable by 1×1 convolutions, generated in microseconds.
struct PatchSource {
    rng: StdRng,
    side: usize,
}

impl BatchSource for PatchSource {
    fn next_batch(&mut self) -> Batch {
        let hw = self.side * self.side;
        let input = randn(
            [1, CHANNELS, self.side, self.side],
            DType::F32,
            1.0,
            &mut self.rng,
        );
        let x = input.as_slice();
        let labels: Vec<u8> = (0..hw)
            .map(|p| {
                (0..NUM_CLASSES)
                    .max_by(|&a, &b| x[a * hw + p].total_cmp(&x[b * hw + p]))
                    .expect("classes") as u8
            })
            .collect();
        Batch {
            input,
            labels: Labels::new(1, self.side, self.side, labels),
            weights: vec![1.0; hw],
        }
    }
}

thread_local! {
    /// `(rank, global step)` of the step the current rank thread is in;
    /// set by `TimedSource`, read by `TimedLayer` on the same thread.
    static CURRENT: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

#[derive(Default)]
struct RankLog {
    entries: Vec<Instant>,
    waits_s: Vec<f64>,
    forward_s: Vec<f64>,
    backward_s: Vec<f64>,
    feedback_s: Vec<f64>,
}

type Logs = Arc<Vec<Mutex<RankLog>>>;

fn lock(log: &Mutex<RankLog>) -> std::sync::MutexGuard<'_, RankLog> {
    log.lock().expect("a rank thread panicked while logging")
}

/// Wraps a `BatchSource`: stamps every `next_batch` entry (the step
/// boundary), times the wait, and, when tracing, records the span.
struct TimedSource {
    inner: AnySource,
    rank: usize,
    step_base: usize,
    calls: usize,
    logs: Logs,
    sink: Option<TraceSink>,
    workers: Arc<AtomicUsize>,
}

impl BatchSource for TimedSource {
    fn next_batch(&mut self) -> Batch {
        let step = self.step_base + self.calls;
        CURRENT.set((self.rank, step));
        let t0 = Instant::now();
        let batch = self.inner.next_batch();
        let t1 = Instant::now();
        {
            let mut log = lock(&self.logs[self.rank]);
            log.entries.push(t0);
            log.waits_s.push((t1 - t0).as_secs_f64());
        }
        if let Some(sink) = &self.sink {
            sink.record(
                "pipeline.next_batch",
                "pipeline",
                "step",
                format!("{}:{step}", self.rank),
                t0,
                t1,
            );
        }
        self.calls += 1;
        batch
    }

    /// The trainer's timing feedback is a call into the pipeline too: the
    /// reader autoscaler acts on it, and a change of the reader count tears
    /// the readers down and respawns them before the call returns.
    fn on_step_timing(&mut self, ingest_wait: Duration, step_wall: Duration) {
        let t0 = Instant::now();
        self.inner.on_step_timing(ingest_wait, step_wall);
        let t1 = Instant::now();
        lock(&self.logs[self.rank])
            .feedback_s
            .push((t1 - t0).as_secs_f64());
        if let Some(sink) = &self.sink {
            let step = self.step_base + self.calls - 1;
            sink.record(
                "pipeline.on_step_timing",
                "pipeline",
                "step",
                format!("{}:{step}", self.rank),
                t0,
                t1,
            );
        }
        if self.rank == 0 {
            self.workers.store(self.inner.workers(), Ordering::Relaxed);
        }
    }
}

/// Wraps the model the builder returns: times `forward` and `backward`
/// from outside and records their spans. Traced runs only.
struct TimedLayer {
    inner: Box<dyn Layer>,
    logs: Logs,
    sink: TraceSink,
}

impl Layer for TimedLayer {
    fn forward(&mut self, x: &Tensor, ctx: &mut Ctx) -> Tensor {
        let (rank, step) = CURRENT.get();
        let t0 = Instant::now();
        let y = self.inner.forward(x, ctx);
        let t1 = Instant::now();
        lock(&self.logs[rank])
            .forward_s
            .push((t1 - t0).as_secs_f64());
        self.sink.record(
            "models.forward",
            "models",
            "step",
            format!("{rank}:{step}"),
            t0,
            t1,
        );
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (rank, step) = CURRENT.get();
        let t0 = Instant::now();
        let g = self.inner.backward(grad_out);
        let t1 = Instant::now();
        lock(&self.logs[rank])
            .backward_s
            .push((t1 - t0).as_secs_f64());
        self.sink.record(
            "models.backward",
            "models",
            "step",
            format!("{rank}:{step}"),
            t0,
            t1,
        );
        g
    }

    fn params(&self) -> ParamSet {
        self.inner.params()
    }

    fn buffers(&self) -> ParamSet {
        self.inner.buffers()
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Kernel-census groups the per-layer table reports.
const CENSUS_GROUPS: [&str; 4] = ["conv", "pointwise", "batchnorm", "copy"];

/// Exact kernel counts of the traced part of a run: totals that add up
/// across chunks, with the number of operations (rank-steps, requests or
/// frames) they cover.
#[derive(Default, Clone, Copy)]
pub struct Census {
    /// FLOPs by `CENSUS_GROUPS`.
    pub flops: [f64; 4],
    /// Bytes read + written by `CENSUS_GROUPS`.
    pub bytes: [f64; 4],
    /// Pool-tracked allocations the allocator served fresh, and from the pool.
    pub fresh_allocs: f64,
    pub pool_served: f64,
    pub ops: f64,
}

impl Census {
    pub fn add(&mut self, other: &Census) {
        for g in 0..4 {
            self.flops[g] += other.flops[g];
            self.bytes[g] += other.bytes[g];
        }
        self.fresh_allocs += other.fresh_allocs;
        self.pool_served += other.pool_served;
        self.ops += other.ops;
    }

    /// The `tensor.*` per-layer metrics: counts per operation, and the
    /// share of pool-tracked allocations the pool served.
    pub fn per_op(&self) -> Vec<(String, f64)> {
        let ops = self.ops.max(1.0);
        let mut out = Vec::new();
        for (g, group) in CENSUS_GROUPS.iter().enumerate() {
            out.push((
                format!("tensor.flops_per_step.{group}"),
                self.flops[g] / ops,
            ));
            out.push((
                format!("tensor.bytes_per_step.{group}"),
                self.bytes[g] / ops,
            ));
        }
        out.push((
            "tensor.pool_fresh_allocs_per_step".into(),
            self.fresh_allocs / ops,
        ));
        let served = self.pool_served / (self.pool_served + self.fresh_allocs).max(1.0);
        out.push(("tensor.pool_hit_ratio".into(), served));
        out
    }
}

/// Starts the kernel census (process-wide).
pub fn census_start() {
    profile::start();
}

/// Stops the census and returns what `ops` operations recorded.
pub fn census_stop(ops: usize) -> Census {
    let prof = profile::stop();
    let mut census = Census {
        ops: ops as f64,
        ..Census::default()
    };
    for r in &prof.records {
        let group = match r.category {
            Category::ForwardConv | Category::BackwardConv => 0,
            Category::ForwardPointwise | Category::BackwardPointwise
                if r.name.starts_with("batchnorm") =>
            {
                2
            }
            Category::ForwardPointwise | Category::BackwardPointwise => 1,
            Category::CopiesTransposes => 3,
            _ => continue,
        };
        census.flops[group] += r.flops as f64;
        census.bytes[group] += (r.bytes_read + r.bytes_written) as f64;
    }
    census.fresh_allocs = prof.alloc.fresh_allocs as f64;
    census.pool_served = prof.alloc.pool_served as f64;
    census
}

/// What one chunk (one `train_data_parallel` call of `warm + timed + 1`
/// steps) produced. Per-step vectors are rank 0's.
pub struct ChunkOut {
    /// `next_batch` entry instants: consecutive differences are step times.
    pub entries: Vec<Instant>,
    pub waits_s: Vec<f64>,
    /// Time inside the source's `on_step_timing` (reader autoscaling).
    pub feedback_s: Vec<f64>,
    /// Empty unless traced.
    pub forward_s: Vec<f64>,
    pub backward_s: Vec<f64>,
    pub losses: Vec<f64>,
    pub exposed_comm_s: Vec<f64>,
    pub optim_exposed_s: Vec<f64>,
    pub comm_busy_s_per_step: f64,
    pub optim_busy_s_per_step: f64,
    pub control_msgs_per_step: f64,
    pub allreduce_launches_per_step: f64,
    pub wire_bytes_per_step: f64,
    pub consistent: bool,
    pub diverged: bool,
    pub param_hash: u64,
    pub workers_final: usize,
    pub census: Option<Census>,
}

impl TrainSetup {
    fn climate_source(&self, rank: usize, ranks: usize) -> Option<ClimateBatchSource> {
        let Data::Climate {
            dataset,
            stats,
            class_w,
            samples_per_rank,
        } = &self.data
        else {
            return None;
        };
        Some(ClimateBatchSource::new(
            dataset.clone(),
            stats.clone(),
            rank,
            ranks,
            *samples_per_rank,
            (0..CHANNELS).collect(),
            class_w.clone(),
            DType::F32,
            self.kind.spec().local_batch,
            self.seed,
            true,
        ))
    }

    fn source(&self, rank: usize, ranks: usize) -> AnySource {
        match self.climate_source(rank, ranks) {
            Some(source) => AnySource::Climate(Box::new(source)),
            None => AnySource::Patches(PatchSource {
                rng: seeded_rng(self.seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9)),
                side: self.grid.0,
            }),
        }
    }

    /// Runs `steps` training steps from a freshly built model. With a
    /// sink, the model and the sources are wrapped, the kernel census and
    /// the crates' own step timeline are on, and spans go to the sink with
    /// step numbers starting at `step_base`.
    pub fn chunk(&self, steps: usize, sink: Option<&TraceSink>, step_base: usize) -> ChunkOut {
        let spec = self.kind.spec();
        let cfg = trainer_config(spec.ranks, self.optimizer, self.seed, steps);
        let logs: Logs = Arc::new(
            (0..spec.ranks)
                .map(|_| Mutex::new(RankLog::default()))
                .collect(),
        );
        let workers = Arc::new(AtomicUsize::new(0));

        let model = self.model.clone();
        let (wrap_logs, wrap_sink) = (logs.clone(), sink.cloned());
        let model_builder = move |rng: &mut StdRng| -> Box<dyn Layer> {
            let inner = model.build(rng);
            match &wrap_sink {
                Some(sink) => Box::new(TimedLayer {
                    inner,
                    logs: wrap_logs.clone(),
                    sink: sink.clone(),
                }),
                None => inner,
            }
        };
        let source_builder = |rank: usize| TimedSource {
            inner: self.source(rank, spec.ranks),
            rank,
            step_base,
            calls: 0,
            logs: logs.clone(),
            sink: sink.cloned(),
            workers: workers.clone(),
        };

        let t_start = Instant::now();
        if sink.is_some() {
            census_start();
            profile::timeline_start();
        }
        let (report, _model) = train_data_parallel(&cfg, model_builder, source_builder);
        let end = Instant::now();
        let census = sink.map(|sink| {
            let timeline = profile::timeline_stop();
            let census = census_stop(steps * spec.ranks);
            // The crates' own spans: times are seconds since
            // `timeline_start`, which ran within microseconds of `t_start`.
            let base_us = sink.us(t_start);
            for s in &timeline {
                let (name, layer) = match s.kind {
                    SpanKind::CommExposed => ("distrib.comm_exposed", "distrib"),
                    SpanKind::CommBusy => ("distrib.comm_busy", "distrib"),
                    SpanKind::Optimizer => ("nn.optimizer", "nn"),
                    // Covered by the wrappers above, from outside.
                    SpanKind::Forward | SpanKind::Backward | SpanKind::Ingest => continue,
                };
                let start = base_us + s.start_s * 1e6;
                let id = format!("{}:{}", s.rank, step_base + s.step);
                sink.record_us(name, layer, "step", id, start, start + s.dur_s * 1e6);
            }
            for (rank, log) in logs.iter().enumerate() {
                let log = lock(log);
                for (i, &t0) in log.entries.iter().enumerate() {
                    let t1 = log.entries.get(i + 1).copied().unwrap_or(end);
                    sink.record(
                        "step",
                        "distrib",
                        "",
                        format!("{rank}:{}", step_base + i),
                        t0,
                        t1,
                    );
                }
            }
            census
        });

        let mut log0 = std::mem::take(&mut *lock(&logs[0]));
        // One more boundary, so the last step has an end like the others.
        log0.entries.push(end);
        let n = steps.max(1) as f64;
        ChunkOut {
            entries: log0.entries,
            waits_s: log0.waits_s,
            feedback_s: log0.feedback_s,
            forward_s: log0.forward_s,
            backward_s: log0.backward_s,
            losses: report
                .steps
                .iter()
                .map(|s| f64::from(s.mean_loss))
                .collect(),
            exposed_comm_s: report.exposed_comm_s_steps.clone(),
            optim_exposed_s: report.optim_s_steps.clone(),
            comm_busy_s_per_step: report.comm_busy_s_per_step,
            optim_busy_s_per_step: report.optim_busy_s_per_step,
            control_msgs_per_step: report.rank0_control_messages as f64 / n,
            allreduce_launches_per_step: report.allreduce_launches_per_step as f64,
            wire_bytes_per_step: report.wire_bytes_per_step as f64,
            consistent: report.consistent,
            diverged: report.diverged,
            param_hash: report.final_hashes[0],
            workers_final: workers.load(Ordering::Relaxed),
            census,
        }
    }

    /// Hash of the first `n` batches rank 0's source delivers, with the
    /// reader autoscaler either free to act on `wait_share` or pinned to
    /// one worker. Content must not depend on the worker count.
    pub fn delivered_hash(&self, n: usize, autoscaled: bool) -> Option<u64> {
        let src = self.climate_source(0, self.kind.spec().ranks)?;
        let mut src = if autoscaled {
            src
        } else {
            src.without_autoscaling()
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..n {
            let b = src.next_batch();
            if autoscaled {
                // An exposed wait: the autoscaler grows the reader set.
                src.on_step_timing(Duration::from_millis(5), Duration::from_millis(10));
            }
            h = (h ^ b.input.bit_hash()).wrapping_mul(0x0000_0100_0000_01B3);
            h = b.labels.data.iter().fold(h, |h, &l| {
                (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01B3)
            });
        }
        Some(h)
    }

    pub fn model_params(&self) -> usize {
        self.model
            .build(&mut seeded_rng(self.seed))
            .params()
            .total_scalars()
    }

    pub fn spec_train_flops_per_sample(&self) -> Option<f64> {
        self.model
            .spec_train_flops(self.grid.0, self.grid.1)
            .map(|f| f as f64)
    }

    /// The per-layer probes of a training workload: each layer's public
    /// functions called alone, on this workload's shapes.
    pub fn probes(&self, dir: &Path, budget: Duration) -> Metrics {
        let spec = self.kind.spec();
        let mut out = Metrics::new();
        let mut rng = seeded_rng(self.seed);
        let model = self.model.build(&mut rng);
        let params = model.params();
        let (h, w) = self.grid;

        // comm: two thread-ranks all-reduce this model's largest fusion bucket.
        let cfg = trainer_config(2, self.optimizer, self.seed, 0);
        let sizes: Vec<usize> = params.iter().map(|p| p.numel()).collect();
        let order: Vec<u32> = (0..sizes.len() as u32).collect();
        let bucket = fuse(&order, &sizes, cfg.fusion_threshold_bytes)
            .iter()
            .map(|b| b.elements)
            .max()
            .unwrap_or(1);
        out.extend(comm_probe(bucket, cfg.node_size, cfg.shard_leaders));

        // nn: the loss on this workload's logits, one optimizer step.
        let logits = randn(
            [spec.local_batch, NUM_CLASSES, h, w],
            DType::F32,
            1.0,
            &mut rng,
        );
        let labels = Labels::new(
            spec.local_batch,
            h,
            w,
            (0..spec.local_batch * h * w)
                .map(|_| rng.gen_range(0..NUM_CLASSES) as u8)
                .collect(),
        );
        let weights = vec![1.0f32; spec.local_batch * h * w];
        let loss = WeightedCrossEntropy::default();
        out.push((
            "nn.loss_ms",
            median_ms(budget, || {
                std::hint::black_box(loss.forward(&logits, &labels, &weights));
            }),
        ));
        let mut optimizer: Box<dyn Optimizer> = match self.optimizer {
            OptimizerKind::Adam { lr } => Box::new(Adam::new(lr)),
            OptimizerKind::Larc { lr, trust } => Box::new(LarcSgd::new(lr, trust)),
            OptimizerKind::Sgd { lr, .. } => Box::new(exaclim_nn::optim::Sgd::new(lr)),
        };
        out.push((
            "nn.optim_step_ms",
            median_ms_with(
                budget,
                || {
                    params
                        .iter()
                        .for_each(|p| p.with_mut(|_, g| g.as_mut_slice().fill(1e-3)))
                },
                || optimizer.step(&params),
            ),
        ));

        out.extend(model_probes(&self.model, model.as_ref(), h, w, dir, budget));

        // pipeline: the same source drained with no trainer behind it.
        let mut src = self.source(0, spec.ranks);
        let (t0, mut n) = (Instant::now(), 0usize);
        while t0.elapsed() < budget * 4 {
            std::hint::black_box(src.next_batch());
            n += spec.local_batch;
        }
        out.push((
            "pipeline.drain_samples_per_s",
            n as f64 / t0.elapsed().as_secs_f64(),
        ));
        drop(src);

        // climsim: whole chunks through the public cursor.
        if let Data::Climate { dataset, .. } = &self.data {
            let mut cursor = dataset.open_cursor();
            let (mut fields, mut labels) = (Vec::new(), Vec::new());
            let (mut chunk_ms, mut bytes) = (Vec::new(), 0usize);
            let t0 = Instant::now();
            for c in (0..dataset.n_chunks())
                .cycle()
                .take_while(|_| t0.elapsed() < budget * 4)
            {
                let tc = Instant::now();
                let (lo, hi) = dataset.chunk_bounds(c);
                for i in lo..hi {
                    cursor
                        .read_into(i, &mut fields, &mut labels)
                        .expect("read a stored sample");
                    bytes += fields.len() * 4 + labels.len();
                }
                chunk_ms.push(tc.elapsed().as_secs_f64() * 1e3);
            }
            out.push(("climsim.read_chunk_ms", crate::stats::median(&chunk_ms)));
            out.push((
                "climsim.read_mbps",
                bytes as f64 / 1e6 / t0.elapsed().as_secs_f64(),
            ));
        }
        out
    }
}

/// Median time of `f` in milliseconds, over as many calls as fit `budget`
/// (at least three).
fn median_ms(budget: Duration, f: impl FnMut()) -> f64 {
    median_ms_with(budget, || {}, f)
}

/// As `median_ms`, with an untimed `prepare` before every call.
fn median_ms_with(budget: Duration, mut prepare: impl FnMut(), mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 3 || t0.elapsed() < budget {
        prepare();
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}

fn comm_probe(elements: usize, node_size: usize, shard_leaders: usize) -> Metrics {
    const CALLS: usize = 12;
    let comms = CommWorld::new(2);
    let stats = comms[0].stats();
    let times: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                scope.spawn(move || {
                    let mut buf = vec![1.0f32; elements];
                    (0..CALLS)
                        .map(|_| {
                            let t = Instant::now();
                            comm.try_hierarchical_allreduce(&mut buf, node_size, shard_leaders)
                                .expect("healthy two-rank world");
                            t.elapsed().as_secs_f64() * 1e3
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("comm probe rank"))
            .collect()
    });
    let ms = crate::stats::median(&times[0]);
    vec![
        ("comm.allreduce_ms", ms),
        (
            "comm.allreduce_gbps",
            elements as f64 * 4.0 / 1e9 / (ms / 1e3),
        ),
        (
            "comm.msgs_per_call",
            stats.messages_sent(0) as f64 / CALLS as f64,
        ),
        (
            "comm.bytes_sent_per_call",
            stats.bytes_sent(0) as f64 / CALLS as f64,
        ),
    ]
}

/// Probes every workload has a use for: the checkpoint round trip of its
/// model and the host roofline on its dominant shape.
fn model_probes(
    kind: &Model,
    model: &dyn Layer,
    h: usize,
    w: usize,
    dir: &Path,
    budget: Duration,
) -> Metrics {
    let mut out = Metrics::new();
    let state = checkpoint::full_state(model);
    let path = dir.join("probe.exck");
    out.push((
        "nn.checkpoint_save_ms",
        median_ms(budget, || {
            checkpoint::save(&state, &path).expect("save EXCK")
        }),
    ));
    out.push((
        "nn.checkpoint_load_ms",
        median_ms(budget, || {
            checkpoint::load_into(&state, &path).expect("load EXCK")
        }),
    ));
    out.push((
        "nn.checkpoint_bytes",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
    ));
    let _ = std::fs::remove_file(&path);

    let mut rng = seeded_rng(17);
    let (c_in, c_out, ph, pw) = kind.dominant_conv(h, w);
    // The dominant convolution as the GEMM it lowers to.
    let (m, n, k) = (c_out, ph * pw, c_in * 9);
    let a = randn([m, k], DType::F32, 1.0, &mut rng);
    let b = randn([k, n], DType::F32, 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let gemm_ms = median_ms(budget, || {
        gemm(
            m,
            n,
            k,
            a.as_slice(),
            b.as_slice(),
            std::hint::black_box(&mut c),
        )
    });
    out.push((
        "tensor.probe_gemm_gflops",
        2.0 * (m * n * k) as f64 / 1e9 / (gemm_ms / 1e3),
    ));

    // One core copying a buffer far larger than the caches: read + write.
    let src = vec![1.0f32; 8 << 20];
    let mut dst = vec![0.0f32; 8 << 20];
    let copy_ms = median_ms(budget, || {
        std::hint::black_box(&mut dst).copy_from_slice(std::hint::black_box(&src))
    });
    out.push((
        "tensor.probe_stream_gbps",
        2.0 * (src.len() * 4) as f64 / 1e9 / (copy_ms / 1e3),
    ));

    let x = randn([1, c_in, ph, pw], DType::F32, 1.0, &mut rng);
    let wt = randn([c_out, c_in, 3, 3], DType::F32, 0.1, &mut rng);
    let p = Conv2dParams::padded(1);
    let y = conv2d_forward(&x, &wt, p, ConvAlgo::Auto);
    out.push((
        "tensor.probe_conv3x3_fwd_ms",
        median_ms(budget, || {
            std::hint::black_box(conv2d_forward(&x, &wt, p, ConvAlgo::Auto));
        }),
    ));
    out.push((
        "tensor.probe_conv3x3_bwd_ms",
        median_ms(budget, || {
            std::hint::black_box(conv2d_backward(&x, &wt, &y, p));
        }),
    ));
    let gamma = Tensor::full([c_out], DType::F32, 1.0);
    let beta = Tensor::zeros([c_out], DType::F32);
    out.push((
        "tensor.probe_bn_fwd_ms",
        median_ms(budget, || {
            std::hint::black_box(batchnorm_forward(&y, &gamma, &beta, 1e-5, None));
        }),
    ));
    out
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

/// Request shape of `serve_poisson`: one 16-channel 32×32 patch.
const REQUEST_SIDE: usize = 32;
/// Full frames of `serve_tiled`, cut into 32-pixel tiles with an 8-pixel halo.
const FRAME_GRID: (usize, usize) = (96, 144);
const TILE: (usize, usize) = (32, 8);
/// Distinct request contents generated from the seed and cycled through.
const REQUEST_POOL: usize = 32;
/// Frames pushed through a new server before it counts as warm.
pub const WARM_FRAMES: usize = 2;

/// One answered request of an open-loop phase; times are seconds since
/// the phase began.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    pub due_s: f64,
    pub submitted_s: f64,
    pub completed_s: f64,
    /// Index into the request pool.
    pub input: usize,
    /// Bit hash of the reply.
    pub reply_hash: u64,
    pub shape_ok: bool,
}

/// What the server counted over its whole life.
pub struct ServeStats {
    pub service_ms_p50: f64,
    pub service_ms_p95: f64,
    pub service_total_s: f64,
    pub mean_batch: f64,
    pub full_flush_share: f64,
    pub deadline_flush_share: f64,
    pub queue_high: f64,
    pub replicas: usize,
}

/// A model saved to EXCK, loaded into a default-configured server, warm.
pub struct ServeSetup {
    server: InferenceServer,
    handle: ServeHandle,
    checkpoint: PathBuf,
    seed: u64,
    requests: Vec<Tensor>,
    frame: Tensor,
    pub setup_metrics: Metrics,
}

fn serve_model(seed: u64) -> Box<dyn Layer> {
    Model::DeepLab.build(&mut seeded_rng(seed))
}

fn seeded_tensor(rng: &mut SplitMix64, shape: [usize; 4]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(
        shape,
        DType::F32,
        (0..n).map(|_| rng.next_normal() as f32).collect(),
    )
}

pub fn serve_setup(seed: u64, dir: &Path) -> ServeSetup {
    let mut setup_metrics = Metrics::new();
    let checkpoint = dir.join("model.exck");
    let model = serve_model(seed);
    let t0 = Instant::now();
    checkpoint::save(&checkpoint::full_state(model.as_ref()), &checkpoint)
        .expect("save the EXCK checkpoint");
    setup_metrics.push(("nn.checkpoint_save_ms", t0.elapsed().as_secs_f64() * 1e3));
    setup_metrics.push((
        "nn.checkpoint_bytes",
        std::fs::metadata(&checkpoint).map_or(0.0, |m| m.len() as f64),
    ));
    drop(model);
    let t0 = Instant::now();
    let server = InferenceServer::from_checkpoint(ServeConfig::default(), &checkpoint, move || {
        serve_model(seed)
    })
    .expect("load the EXCK checkpoint");
    setup_metrics.push((
        "nn.checkpoint_load_ms",
        t0.elapsed().as_secs_f64() * 1e3 / server.config().replicas as f64,
    ));
    let handle = server.handle();

    let mut rng = SplitMix64::new(seed ^ 0x5E21_7E57);
    let requests: Vec<Tensor> = (0..REQUEST_POOL)
        .map(|_| seeded_tensor(&mut rng, [1, CHANNELS, REQUEST_SIDE, REQUEST_SIDE]))
        .collect();
    let frame = seeded_tensor(&mut rng, [1, CHANNELS, FRAME_GRID.0, FRAME_GRID.1]);
    let setup = ServeSetup {
        server,
        handle,
        checkpoint,
        seed,
        requests,
        frame,
        setup_metrics,
    };
    // Warm both replicas, the pool and both request shapes.
    for i in 0..8 {
        setup.handle.infer(setup.requests[i].clone());
    }
    for _ in 0..WARM_FRAMES {
        setup.tiled_frame();
    }
    setup
}

impl ServeSetup {
    /// Open loop: one thread submits request `i` when `due_s[i]` has
    /// passed, whatever the server is doing; a second thread waits for the
    /// replies in submit order. A reply that overtook an earlier one is
    /// therefore stamped late, by at most one batch service time.
    pub fn open_loop(
        &self,
        due_s: &[f64],
        first_id: usize,
        sink: Option<&TraceSink>,
    ) -> Vec<RequestRecord> {
        let (tx, rx) = mpsc::channel();
        let t0 = Instant::now();
        let since = |t: Instant| (t - t0).as_secs_f64();
        std::thread::scope(|scope| {
            let submitter = scope.spawn(move || {
                for (i, &due) in due_s.iter().enumerate() {
                    let due_at = t0 + Duration::from_secs_f64(due);
                    if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let input = i % self.requests.len();
                    let pending = self.handle.submit(self.requests[input].clone());
                    if tx.send((i, input, Instant::now(), pending)).is_err() {
                        return;
                    }
                }
            });
            let collector = scope.spawn(move || {
                let mut records = Vec::with_capacity(due_s.len());
                for (i, input, submitted, pending) in rx {
                    let reply = pending.wait();
                    let completed = Instant::now();
                    let record = RequestRecord {
                        due_s: due_s[i],
                        submitted_s: since(submitted),
                        completed_s: since(completed),
                        input,
                        reply_hash: reply.bit_hash(),
                        shape_ok: reply.shape().dims()
                            == [1, NUM_CLASSES, REQUEST_SIDE, REQUEST_SIDE],
                    };
                    if let Some(sink) = sink {
                        let id = (first_id + i).to_string();
                        let due_at = t0 + Duration::from_secs_f64(due_s[i]);
                        sink.record("request", "serve", "", id.clone(), due_at, completed);
                        sink.record(
                            "bench.generator_late",
                            "bench",
                            "request",
                            id.clone(),
                            due_at,
                            submitted,
                        );
                        sink.record(
                            "serve.queue_batch_forward",
                            "serve",
                            "request",
                            id,
                            submitted,
                            completed,
                        );
                    }
                    records.push(record);
                }
                records
            });
            submitter.join().expect("submit thread");
            collector.join().expect("collector thread")
        })
    }

    /// Reply hashes of the first `k` pooled requests from a direct
    /// eval-mode `forward` of the same checkpoint, outside the server.
    pub fn reference_hashes(&self, k: usize) -> (Vec<u64>, f64) {
        let seed = self.seed;
        let mut model = replicas_from_checkpoint(&self.checkpoint, 1, move || serve_model(seed))
            .expect("load the EXCK checkpoint")
            .pop()
            .expect("one replica");
        let mut ctx = Ctx::eval();
        let mut ms = Vec::new();
        let hashes = self.requests[..k]
            .iter()
            .map(|x| {
                let t = Instant::now();
                let y = model.forward(x, &mut ctx);
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                y.bit_hash()
            })
            .collect();
        (hashes, crate::stats::median(&ms))
    }

    pub fn request_pool(&self) -> usize {
        self.requests.len()
    }

    /// Closed loop: one full frame through `infer_tiled`. Returns the
    /// frame's wall time in milliseconds and the hash of the blended output.
    pub fn tiled_frame(&self) -> (f64, u64) {
        let t = Instant::now();
        let out = infer_tiled(&self.handle, &self.frame, &TileConfig::new(TILE.0, TILE.1));
        (t.elapsed().as_secs_f64() * 1e3, out.bit_hash())
    }

    pub fn tiles_per_frame(&self) -> usize {
        plan_tiles(FRAME_GRID.0, FRAME_GRID.1, &TileConfig::new(TILE.0, TILE.1)).len()
    }

    pub fn queue_depth(&self) -> usize {
        self.server.queue_depth()
    }

    /// Per-layer probes of the serving workloads.
    pub fn probes(&self, dir: &Path, budget: Duration) -> Metrics {
        let mut out = Metrics::new();
        let model = serve_model(self.seed);
        out.push(("models.params", model.params().total_scalars() as f64));
        out.extend(
            model_probes(
                &Model::DeepLab,
                model.as_ref(),
                REQUEST_SIDE,
                REQUEST_SIDE,
                dir,
                budget,
            )
            .into_iter()
            // The checkpoint round trip was timed for real in set-up.
            .filter(|(name, _)| !name.starts_with("nn.checkpoint")),
        );
        let tcfg = TileConfig::new(TILE.0, TILE.1);
        out.push((
            "serve.tile_plan_ms",
            median_ms(budget, || {
                std::hint::black_box(plan_tiles(FRAME_GRID.0, FRAME_GRID.1, &tcfg));
            }),
        ));
        // What a full batch of interior tile windows costs to fuse and split.
        let side = TILE.0 + 2 * TILE.1;
        let max_batch = self.server.config().max_batch;
        let mut rng = seeded_rng(3);
        let windows: Vec<Tensor> = (0..max_batch)
            .map(|_| randn([1, CHANNELS, side, side], DType::F32, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = windows.iter().collect();
        let fused_out = randn(
            [max_batch, NUM_CLASSES, side, side],
            DType::F32,
            1.0,
            &mut rng,
        );
        let ones = vec![1usize; max_batch];
        out.push((
            "serve.concat_split_ms",
            median_ms(budget, || {
                std::hint::black_box(concat_batch(&refs));
                std::hint::black_box(split_batch(&fused_out, &ones));
            }),
        ));
        out
    }

    /// Stops the server (every replica joins) and returns its telemetry.
    pub fn shutdown(self) -> ServeStats {
        let ServeSetup { server, handle, .. } = self;
        drop(handle);
        let replicas = server.config().replicas;
        let tm = server.shutdown();
        let service = tm.service();
        let batches = tm.batches().max(1) as f64;
        ServeStats {
            service_ms_p50: service.p50().as_secs_f64() * 1e3,
            service_ms_p95: service.quantile(0.95).as_secs_f64() * 1e3,
            service_total_s: service.total().as_secs_f64(),
            mean_batch: tm.mean_batch(),
            full_flush_share: tm.replicas.iter().map(|r| r.full_flushes).sum::<u64>() as f64
                / batches,
            deadline_flush_share: tm.deadline_flushes() as f64 / batches,
            queue_high: tm.queue_high as f64,
            replicas,
        }
    }
}
