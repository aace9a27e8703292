//! End-to-end segmentation experiments: synthetic climate data →
//! distributed training → IoU evaluation (§VII-C/D at laptop scale).

use exaclim_climsim::{ClimateDataset, DatasetConfig, Split};
use exaclim_distrib::trainer::Batch;
use exaclim_distrib::{train_data_parallel, BatchSource, TrainerConfig, TrainingReport};
use exaclim_models::{DeepLabConfig, DeepLabV3Plus, Tiramisu, TiramisuConfig, NUM_CLASSES};
use exaclim_nn::loss::{class_weights, ClassWeighting, Labels};
use exaclim_nn::metrics::{argmax_channels, ConfusionMatrix};
use exaclim_nn::{Ctx, Layer};
use exaclim_pipeline::{ChannelStats, ReaderAutoscaler, ReaderMode, StreamConfig, StreamingIngest};
use exaclim_staging::IngestFeed;
use exaclim_tensor::{pool, DType, Tensor};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Which architecture to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Modified Tiramisu (tiny config).
    Tiramisu,
    /// Modified DeepLabv3+ (tiny config).
    DeepLab,
}

/// A full experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Architecture.
    pub model: ModelKind,
    /// Synthetic-dataset parameters.
    pub dataset: DatasetConfig,
    /// Distributed-trainer parameters.
    pub trainer: TrainerConfig,
    /// Class-weighting scheme (§V-B1).
    pub weighting: ClassWeighting,
    /// Input channels used (indices into the 16 CAM5 variables).
    pub channels: Vec<usize>,
    /// Node-local shard size per rank (§V-A1: 250 per GPU).
    pub samples_per_rank: usize,
    /// Label-preserving augmentation (longitude roll + latitude mirror).
    pub augment: bool,
}

impl ExperimentConfig {
    /// A fast configuration: 24×32 grid (dims must divide by 8 for the
    /// DeepLab stride chain, like the paper's 1152×768), 2 ranks, a few
    /// steps.
    pub fn quick(model: ModelKind) -> ExperimentConfig {
        let mut dataset = DatasetConfig::small(42, 12);
        dataset.generator.h = 24;
        dataset.generator.w = 32;
        let mut trainer = TrainerConfig::new(2);
        trainer.steps = 6;
        trainer.optimizer = exaclim_distrib::OptimizerKind::Adam { lr: 3e-3 };
        ExperimentConfig {
            model,
            dataset,
            trainer,
            weighting: ClassWeighting::InverseSqrtFrequency,
            channels: (0..16).collect(),
            samples_per_rank: 8,
            augment: false,
        }
    }

    /// A longer configuration on a larger grid, for the convergence and
    /// IoU studies (Figures 6/7 at laptop scale).
    pub fn study(model: ModelKind, ranks: usize, steps: usize) -> ExperimentConfig {
        let mut dataset = DatasetConfig::small(42, 32);
        dataset.generator.h = 48;
        dataset.generator.w = 72;
        let mut trainer = TrainerConfig::new(ranks);
        trainer.steps = steps;
        trainer.optimizer = exaclim_distrib::OptimizerKind::Adam { lr: 2e-3 };
        ExperimentConfig {
            model,
            dataset,
            trainer,
            weighting: ClassWeighting::InverseSqrtFrequency,
            channels: (0..16).collect(),
            samples_per_rank: 16,
            augment: true,
        }
    }

    fn build_model(&self, rng: &mut rand::rngs::StdRng) -> Box<dyn Layer> {
        let in_ch = self.channels.len();
        match self.model {
            ModelKind::Tiramisu => Box::new(Tiramisu::new(TiramisuConfig::tiny(in_ch), rng)),
            ModelKind::DeepLab => Box::new(DeepLabV3Plus::new(DeepLabConfig::tiny(in_ch), rng)),
        }
    }
}

/// Per-rank batch source over a node-local shard, fed by the streaming
/// ingest engine: the shard comes from the staging plan ([`IngestFeed`],
/// mirroring §V-A1 node-local staging), samples arrive through
/// backpressured sharded readers in the bit-reproducible hierarchical
/// shuffle order, augmentation runs in-stream on raw fields, and batch
/// assembly draws its storage from the tensor pool.
///
/// The stream starts with one reader. A [`ReaderAutoscaler`] capped at
/// [`ReaderAutoscaler::auto_workers`] reads the trainer's step timings and
/// resizes the reader set only when a 16-step window calls for it; a
/// generation change (a new shard) resets its floor. Since the sequence
/// is worker-invariant, resizing never changes a batch.
pub struct ClimateBatchSource {
    stream: StreamingIngest,
    feed: IngestFeed,
    /// Training-split indices; the staging plan speaks in positions within
    /// this list, the dataset in global indices.
    train: Vec<usize>,
    n_channels: usize,
    h: usize,
    w: usize,
    dtype: DType,
    local_batch: usize,
    autoscaler: Option<ReaderAutoscaler>,
}

impl ClimateBatchSource {
    /// Builds rank `rank`'s source (of `ranks` total) over the training
    /// split. `augment` enables the label-preserving augmentations
    /// (longitude roll + latitude mirror with meridional sign flips),
    /// applied in-stream on raw fields before normalization.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dataset: Arc<ClimateDataset>,
        stats: Arc<ChannelStats>,
        rank: usize,
        ranks: usize,
        samples_per_rank: usize,
        channels: Vec<usize>,
        weights: Vec<f32>,
        dtype: DType,
        local_batch: usize,
        seed: u64,
        augment: bool,
    ) -> ClimateBatchSource {
        let train = dataset.indices(Split::Train);
        let per = samples_per_rank.min(train.len()).max(1);
        let feed = IngestFeed::build(train.len(), ranks.max(1), rank, per, seed);
        let shard: Vec<usize> = feed.shard().iter().map(|&i| train[i]).collect();
        let n_channels = channels.len();
        let (h, w) = (dataset.h, dataset.w);
        let stream = StreamingIngest::start(
            dataset,
            shard,
            (*stats).clone(),
            StreamConfig {
                depth: local_batch.max(2) * 2,
                mode: ReaderMode::PerWorker,
                read_cost: Duration::ZERO,
                channels,
                class_weights: weights,
                dtype,
                seed: seed ^ 0x57EA ^ (rank as u64).wrapping_mul(0x9E37_79B9),
                augment,
            },
        );
        ClimateBatchSource {
            stream,
            feed,
            train,
            n_channels,
            h,
            w,
            dtype,
            local_batch,
            autoscaler: Some(ReaderAutoscaler::new(ReaderAutoscaler::auto_workers())),
        }
    }

    /// Drops the reader autoscaler: the stream keeps its one reader
    /// whatever the step timings say. For callers that pin the reader
    /// count, such as a content check against the autoscaled stream.
    pub fn without_autoscaling(mut self) -> ClimateBatchSource {
        self.autoscaler = None;
        self
    }

    /// Current reader-worker count.
    pub fn workers(&self) -> usize {
        self.stream.workers()
    }
}

impl BatchSource for ClimateBatchSource {
    fn next_batch(&mut self) -> Batch {
        let hw = self.h * self.w;
        let n = self.local_batch;
        let mut data = pool::take_with_capacity(n * self.n_channels * hw);
        let mut labels = Vec::with_capacity(n * hw);
        let mut weights = Vec::with_capacity(n * hw);
        for _ in 0..n {
            let s = self.stream.next_sample();
            data.extend_from_slice(s.input.as_slice());
            labels.extend_from_slice(s.labels.as_slice());
            weights.extend_from_slice(&s.weights);
        }
        Batch {
            input: Tensor::from_pool([n, self.n_channels, self.h, self.w], self.dtype, data),
            labels: Labels::new(n, self.h, self.w, labels),
            weights,
        }
    }

    fn on_generation(&mut self, _generation: u64, members: &[usize]) {
        // Deterministic elastic re-shard: every surviving rank computes the
        // same post-churn staging plan, and the stream rebuilds the current
        // epoch over the new shard — sequence depends only on (seed, churn
        // history), never on timing or worker count.
        let shard = self.feed.on_generation_change(members);
        let mapped: Vec<usize> = shard.iter().map(|&i| self.train[i]).collect();
        self.stream.reshard(mapped);
        if let Some(scaler) = &mut self.autoscaler {
            scaler.on_reshard();
        }
    }

    fn on_step_timing(&mut self, ingest_wait: Duration, step_wall: Duration) {
        if let Some(scaler) = &mut self.autoscaler {
            if let Some(w) = scaler.observe(self.stream.workers(), ingest_wait, step_wall) {
                self.stream.set_workers(w);
            }
        }
    }
}

/// Segmentation quality on a dataset split.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Pixel accuracy.
    pub accuracy: f64,
    /// Per-class IoU (BG, TC, AR), `None` when absent.
    pub class_iou: Vec<Option<f64>>,
    /// Mean IoU over present classes — the paper's headline metric
    /// (Tiramisu 59 %, DeepLabv3+ 73 %).
    pub mean_iou: f64,
}

/// Evaluates a trained model on a split.
pub fn evaluate_model(
    model: &mut dyn Layer,
    dataset: &ClimateDataset,
    split: Split,
    stats: &ChannelStats,
    channels: &[usize],
    dtype: DType,
) -> io::Result<EvalResult> {
    let mut ctx = Ctx::eval();
    let (h, w) = (dataset.h, dataset.w);
    let hw = h * w;
    let mut cm = ConfusionMatrix::new(NUM_CLASSES);
    for idx in dataset.indices(split) {
        let stored = dataset.sample(idx)?;
        let mut data = Vec::with_capacity(channels.len() * hw);
        for &c in channels {
            for &v in &stored.fields[c * hw..(c + 1) * hw] {
                data.push(stats.normalize(c, v));
            }
        }
        let input = Tensor::from_vec([1, channels.len(), h, w], dtype, data);
        let logits = model.forward(&input, &mut ctx);
        let pred = argmax_channels(&logits);
        let truth = Labels::new(1, h, w, stored.labels);
        cm.update(&pred, &truth);
    }
    Ok(EvalResult {
        accuracy: cm.accuracy(),
        class_iou: (0..NUM_CLASSES).map(|c| cm.class_iou(c)).collect(),
        mean_iou: cm.mean_iou(),
    })
}

/// A finished experiment.
pub struct ExperimentResult {
    /// Distributed-training report (loss curve, consistency, counters).
    pub report: TrainingReport,
    /// Validation-split quality.
    pub validation: EvalResult,
    /// The trained model (rank 0's replica).
    pub model: Box<dyn Layer>,
    /// The dataset, for further analysis/rendering.
    pub dataset: Arc<ClimateDataset>,
    /// Channel statistics used for normalization.
    pub stats: Arc<ChannelStats>,
}

/// Runs a full experiment: generate data → train data-parallel → evaluate.
pub fn run_experiment(config: &ExperimentConfig) -> io::Result<ExperimentResult> {
    let dataset = Arc::new(ClimateDataset::in_memory(&config.dataset));
    let stats = Arc::new(ChannelStats::estimate(&dataset, 4.min(dataset.len()))?);
    let freqs = dataset.class_frequencies(Split::Train, NUM_CLASSES)?;
    let weights = class_weights(&freqs, config.weighting);

    let cfg = config.clone();
    let ds = dataset.clone();
    let st = stats.clone();
    let wts = weights.clone();
    let model_builder = move |rng: &mut rand::rngs::StdRng| cfg.build_model(rng);
    let trainer_cfg = config.trainer.clone();
    let channels = config.channels.clone();
    let spr = config.samples_per_rank;
    let precision = trainer_cfg.precision;
    let seed = trainer_cfg.seed;
    let augment = config.augment;
    let ranks = trainer_cfg.ranks;
    let (report, mut model) = train_data_parallel(&trainer_cfg, model_builder, move |rank| {
        ClimateBatchSource::new(
            ds.clone(),
            st.clone(),
            rank,
            ranks,
            spr,
            channels.clone(),
            wts.clone(),
            precision,
            1,
            seed,
            augment,
        )
    });

    let validation = evaluate_model(
        model.as_mut(),
        &dataset,
        Split::Validation,
        &stats,
        &config.channels,
        config.trainer.precision,
    )?;
    Ok(ExperimentResult {
        report,
        validation,
        model,
        dataset,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_trains_and_evaluates() {
        let mut cfg = ExperimentConfig::quick(ModelKind::Tiramisu);
        cfg.trainer.steps = 4;
        let result = run_experiment(&cfg).expect("experiment");
        assert!(result.report.consistent, "replicas must stay identical");
        assert_eq!(result.report.steps.len(), 4);
        assert!(result.validation.accuracy > 0.0);
        assert_eq!(result.validation.class_iou.len(), 3);
    }

    fn source(augment: bool) -> ClimateBatchSource {
        let cfg = ExperimentConfig::quick(ModelKind::DeepLab);
        let ds = Arc::new(ClimateDataset::in_memory(&cfg.dataset));
        let stats = Arc::new(ChannelStats::estimate(&ds, 2).expect("stats"));
        ClimateBatchSource::new(
            ds,
            stats,
            0,
            2,
            4,
            vec![0, 1, 2, 7],
            vec![1.0, 2.0, 3.0],
            DType::F32,
            2,
            9,
            augment,
        )
    }

    #[test]
    fn batch_source_shapes() {
        let mut src = source(false);
        let b = src.next_batch();
        assert_eq!(b.input.shape().dims(), &[2, 4, 24, 32]);
        assert_eq!(b.labels.numel(), 2 * 24 * 32);
        assert_eq!(b.weights.len(), 2 * 24 * 32);
    }

    #[test]
    fn batches_replay_identically_across_autoscaling() {
        // Two identical sources; one gets a window of exposed-I/O signals
        // that doubles its reader count mid-stream (the cap is set so this
        // holds on any host). The batch sequence must not notice —
        // autoscaling may change throughput, never content.
        let mut a = source(true);
        let mut b = source(true);
        b.autoscaler = Some(ReaderAutoscaler::new(4));
        let (ba, bb) = (a.next_batch(), b.next_batch());
        assert_eq!(ba.input.as_slice(), bb.input.as_slice());
        for _ in 0..ReaderAutoscaler::WINDOW {
            b.on_step_timing(Duration::from_millis(50), Duration::from_millis(100));
        }
        assert_eq!((a.workers(), b.workers()), (1, 2), "b resized mid-stream");
        for _ in 0..3 {
            let (ba, bb) = (a.next_batch(), b.next_batch());
            assert_eq!(ba.input.as_slice(), bb.input.as_slice());
            assert_eq!(ba.weights, bb.weights);
        }
    }

    #[test]
    fn exposed_drive_resizes_the_readers_and_keeps_the_content() {
        // The benchmark's content check: 64 batches, each step reporting a
        // 5 ms wait in a 10 ms wall, against a source pinned to one reader.
        // Four exposed windows double the readers up to the host cap (a
        // one-core host has nothing to resize).
        let drive = |mut src: ClimateBatchSource, feed: bool| {
            let mut seen = Vec::new();
            for _ in 0..64 {
                let b = src.next_batch();
                if feed {
                    src.on_step_timing(Duration::from_millis(5), Duration::from_millis(10));
                }
                seen.push((b.input.bit_hash(), b.labels.data));
            }
            (seen, src.workers())
        };
        let (auto, workers) = drive(source(true), true);
        let (pinned, one) = drive(source(true).without_autoscaling(), false);
        assert_eq!(workers, ReaderAutoscaler::auto_workers().min(16));
        assert_eq!(one, 1);
        assert!(auto == pinned, "autoscaled batches differ");
    }

    #[test]
    fn generation_change_reshards_deterministically() {
        // Same churn event on two replicas of the same rank → identical
        // post-churn batches (every survivor recomputes the same plan).
        let mut a = source(false);
        let mut b = source(false);
        let _ = (a.next_batch(), b.next_batch());
        a.on_generation(1, &[0, 2, 3]);
        b.on_generation(1, &[3, 2, 0]);
        for _ in 0..2 {
            let (ba, bb) = (a.next_batch(), b.next_batch());
            assert_eq!(ba.input.as_slice(), bb.input.as_slice());
        }
    }

    #[test]
    fn training_improves_over_untrained_baseline() {
        // A short DeepLab run should beat an untrained model's mean IoU.
        let mut cfg = ExperimentConfig::quick(ModelKind::DeepLab);
        cfg.trainer.steps = 10;
        cfg.trainer.ranks = 2;
        let trained = run_experiment(&cfg).expect("trained");
        let mut untrained_cfg = cfg.clone();
        untrained_cfg.trainer.steps = 0;
        // steps = 0 → the trainer loop never runs; model stays at init.
        let untrained = run_experiment(&untrained_cfg).expect("untrained");
        let first = trained.report.steps.first().expect("steps").mean_loss;
        let last = trained.report.steps.last().expect("steps").mean_loss;
        assert!(last < first, "loss must fall: {first} → {last}");
        let _ = untrained; // IoU comparison is noisy at 10 steps; loss is the signal
    }
}
