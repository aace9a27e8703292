//! The prefetch queue with background reader workers (§V-A2).
//!
//! The paper's two input-pipeline fixes are both modelled faithfully:
//!
//! * **Prefetching**: a bounded queue decouples input production from
//!   training consumption; as long as it stays non-empty the "GPU" never
//!   waits.
//! * **Worker parallelism vs the HDF5 global lock**: with
//!   [`ReaderMode::SharedLocked`], all workers contend on one reader mutex
//!   (TensorFlow threads + libhdf5); with [`ReaderMode::PerWorker`], each
//!   worker owns an independent reader (the Python `multiprocessing`
//!   workaround), so reads genuinely overlap.
//!
//! This module holds the configuration and the live counters; the engine
//! that consumes them is [`crate::stream::StreamingIngest`].

use exaclim_perfmodel::LatencyHistogram;
use exaclim_tensor::DType;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Reader-concurrency mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderMode {
    /// One shared reader behind a global lock (the HDF5 pathology).
    SharedLocked,
    /// One independent reader per worker (the multiprocessing fix).
    PerWorker,
}

/// Prefetch-pipeline configuration.
#[derive(Debug, Clone)]
pub struct PrefetchConfig {
    /// Background workers.
    pub workers: usize,
    /// Queue depth (prefetched samples).
    pub depth: usize,
    /// Reader concurrency mode.
    pub mode: ReaderMode,
    /// Artificial per-read-operation cost, standing in for HDF5 open +
    /// decode overhead of a 56.6 MB paper-scale sample (tiny test grids
    /// read in microseconds). The streaming readers pay it once per chunk
    /// run; the legacy pull model paid it once per sample.
    pub read_cost: Duration,
    /// Channels to keep (e.g. all 16, or the 4-channel Daint subset).
    pub channels: Vec<usize>,
    /// Per-class loss weights.
    pub class_weights: Vec<f32>,
    /// Output precision.
    pub dtype: DType,
}

impl PrefetchConfig {
    /// Reader-worker count sized to the host: the kernel pool's width
    /// (`EXACLIM_NUM_THREADS` → `available_parallelism`), at least 1.
    ///
    /// Every worker count used by the paper-replication benches is
    /// *semantic* — the paper's fixed reader-thread sweeps (§V-A2) — and
    /// stays explicit. This helper is for callers that want a sensible
    /// host-matched default instead.
    pub fn auto_workers() -> usize {
        rayon::current_num_threads().max(1)
    }

    /// Worker count adjusted by the exposed-I/O feedback loop: given the
    /// time a step's critical path waited on ingest versus the step wall
    /// time, grow aggressively (double) while ingest is exposed above 10 %
    /// of the step, shrink by one once it falls below 2 %, and stay put in
    /// between. Clamped to `[1, auto_workers()]`. Pure — autoscaling
    /// decisions are reproducible from the recorded timings.
    pub fn auto_workers_for_io(current: usize, ingest_wait: Duration, step_wall: Duration) -> usize {
        let cap = PrefetchConfig::auto_workers();
        let current = current.clamp(1, cap.max(1));
        if step_wall.is_zero() {
            return current;
        }
        let exposed = ingest_wait.as_secs_f64() / step_wall.as_secs_f64();
        if exposed > 0.10 {
            (current * 2).min(cap)
        } else if exposed < 0.02 {
            (current - 1).max(1)
        } else {
            current
        }
    }
}

/// Live pipeline counters. Durations are recorded into mergeable
/// [`LatencyHistogram`]s, so consumers get p50/p99 alongside the totals
/// the old atomic counters provided.
#[derive(Default)]
pub struct PipelineStats {
    produced: AtomicU64,
    consumed: AtomicU64,
    consumer_wait: Mutex<LatencyHistogram>,
    read: Mutex<LatencyHistogram>,
}

impl PipelineStats {
    /// Samples produced by workers.
    pub fn produced(&self) -> u64 {
        self.produced.load(Ordering::Relaxed)
    }

    /// Samples taken by the consumer.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Total time the consumer spent blocked on an empty queue.
    pub fn consumer_wait(&self) -> Duration {
        self.consumer_wait.lock().total()
    }

    /// Total wall time spent inside (possibly locked) read operations.
    pub fn read_time(&self) -> Duration {
        self.read.lock().total()
    }

    /// Median consumer wait per pull.
    pub fn wait_p50(&self) -> Duration {
        self.consumer_wait.lock().p50()
    }

    /// 99th-percentile consumer wait per pull — the ingest tail the step
    /// timeline's p99 column reports.
    pub fn wait_p99(&self) -> Duration {
        self.consumer_wait.lock().p99()
    }

    /// Median read-operation latency.
    pub fn read_p50(&self) -> Duration {
        self.read.lock().p50()
    }

    /// 99th-percentile read-operation latency.
    pub fn read_p99(&self) -> Duration {
        self.read.lock().p99()
    }

    /// Snapshot of the consumer-wait histogram (mergeable across ranks).
    pub fn wait_histogram(&self) -> LatencyHistogram {
        self.consumer_wait.lock().clone()
    }

    /// Snapshot of the read-operation histogram.
    pub fn read_histogram(&self) -> LatencyHistogram {
        self.read.lock().clone()
    }

    pub(crate) fn note_produced(&self) {
        self.produced.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_consumed(&self) {
        self.consumed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_wait(&self, d: Duration) {
        self.consumer_wait.lock().record(d);
    }

    pub(crate) fn record_read(&self, d: Duration) {
        self.read.lock().record(d);
    }
}

impl std::fmt::Debug for PipelineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineStats")
            .field("produced", &self.produced())
            .field("consumed", &self.consumed())
            .field("consumer_wait", &self.consumer_wait())
            .field("read_time", &self.read_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::ChannelStats;
    use crate::sampler::SampleSampler;
    use crate::stream::{IngestStream, StreamConfig, StreamingIngest};
    use exaclim_climsim::dataset::DatasetConfig;
    use exaclim_climsim::ClimateDataset;
    use std::sync::Arc;
    use std::time::Instant;

    fn tiny_dataset() -> Arc<ClimateDataset> {
        let mut cfg = DatasetConfig::small(40, 6);
        cfg.generator.h = 12;
        cfg.generator.w = 18;
        Arc::new(ClimateDataset::in_memory(&cfg))
    }

    fn config(mode: ReaderMode, workers: usize) -> PrefetchConfig {
        PrefetchConfig {
            workers,
            depth: 4,
            mode,
            read_cost: Duration::ZERO,
            channels: (0..16).collect(),
            class_weights: vec![1.0, 10.0, 5.0],
            dtype: DType::F32,
        }
    }

    /// Streams `sampler`'s shard under its seed and chunking.
    fn start(
        ds: &Arc<ClimateDataset>,
        sampler: SampleSampler,
        stats: ChannelStats,
        prefetch: PrefetchConfig,
    ) -> StreamingIngest {
        let cfg = StreamConfig::for_sampler(&sampler, prefetch);
        StreamingIngest::start(ds.clone(), sampler.shard().to_vec(), stats, cfg)
    }

    #[test]
    fn auto_workers_matches_the_kernel_pool() {
        let w = PrefetchConfig::auto_workers();
        assert!(w >= 1);
        assert_eq!(w, exaclim_tensor::kernel_threads().max(1));
    }

    #[test]
    fn auto_workers_for_io_grows_and_shrinks() {
        let step = Duration::from_millis(100);
        // Heavily exposed ingest: double.
        let grown = PrefetchConfig::auto_workers_for_io(1, Duration::from_millis(50), step);
        assert_eq!(grown, 2.min(PrefetchConfig::auto_workers()));
        // Negligible ingest: shrink by one, floored at 1.
        assert_eq!(PrefetchConfig::auto_workers_for_io(2, Duration::ZERO, step), 1);
        assert_eq!(PrefetchConfig::auto_workers_for_io(1, Duration::ZERO, step), 1);
        // In the dead band: hold.
        assert_eq!(
            PrefetchConfig::auto_workers_for_io(2, Duration::from_millis(5), step),
            2.min(PrefetchConfig::auto_workers())
        );
    }

    #[test]
    fn queue_produces_decoded_samples() {
        let ds = tiny_dataset();
        let stats = ChannelStats::estimate(&ds, 2).expect("stats");
        let sampler = SampleSampler::for_rank(ds.len(), 0, 4, 1);
        let mut q = start(&ds, sampler, stats, config(ReaderMode::PerWorker, 2));
        for _ in 0..10 {
            let s = q.next_sample();
            assert_eq!(s.input.shape().dims(), &[1, 16, 12, 18]);
            assert_eq!(s.labels.len(), 12 * 18);
        }
        assert!(q.stats().consumed() == 10);
    }

    #[test]
    fn both_modes_deliver_valid_data() {
        let ds = tiny_dataset();
        for mode in [ReaderMode::SharedLocked, ReaderMode::PerWorker] {
            let stats = ChannelStats::estimate(&ds, 2).expect("stats");
            let sampler = SampleSampler::for_rank(ds.len(), 0, 6, 2);
            let mut q = start(&ds, sampler, stats, config(mode, 3));
            for _ in 0..6 {
                let s = q.next_sample();
                assert!(!s.input.has_non_finite(), "{mode:?} produced garbage");
            }
        }
    }

    #[test]
    fn per_worker_mode_beats_global_lock_under_read_cost() {
        // With a 3 ms per-read-op wait and 4 workers, serialized reads cap
        // production at ~333/s while independent readers overlap their
        // waits (I/O waits overlap even on one core, like real HDF5 reads).
        let ds = tiny_dataset();
        let n = 24;
        let mut elapsed = Vec::new();
        for mode in [ReaderMode::SharedLocked, ReaderMode::PerWorker] {
            let stats = ChannelStats::estimate(&ds, 1).expect("stats");
            let sampler = SampleSampler::for_rank(ds.len(), 0, 6, 3);
            let mut cfg = config(mode, 4);
            cfg.read_cost = Duration::from_millis(3);
            let mut q = start(&ds, sampler, stats, cfg);
            let t0 = Instant::now();
            for _ in 0..n {
                let _ = q.next_sample();
            }
            elapsed.push(t0.elapsed().as_secs_f64());
        }
        assert!(
            elapsed[1] * 1.5 < elapsed[0],
            "per-worker {}s should clearly beat shared-locked {}s",
            elapsed[1],
            elapsed[0]
        );
    }

    #[test]
    fn channel_subset_mode() {
        let ds = tiny_dataset();
        let stats = ChannelStats::estimate(&ds, 2).expect("stats");
        let sampler = SampleSampler::for_rank(ds.len(), 0, 4, 4);
        let mut cfg = config(ReaderMode::PerWorker, 1);
        cfg.channels = vec![0, 1, 2, 7]; // TMQ, U850, V850, PSL
        let mut q = start(&ds, sampler, stats, cfg);
        let s = q.next_sample();
        assert_eq!(s.input.shape().dims(), &[1, 4, 12, 18]);
    }

    #[test]
    fn drop_shuts_workers_down() {
        let ds = tiny_dataset();
        let stats = ChannelStats::estimate(&ds, 1).expect("stats");
        let sampler = SampleSampler::for_rank(ds.len(), 0, 4, 5);
        let mut q = start(&ds, sampler, stats, config(ReaderMode::PerWorker, 2));
        let _ = q.next_sample();
        drop(q); // must not hang
    }

    #[test]
    fn wait_histogram_records_every_pull() {
        let ds = tiny_dataset();
        let stats = ChannelStats::estimate(&ds, 1).expect("stats");
        let sampler = SampleSampler::for_rank(ds.len(), 0, 4, 6);
        let mut q = start(&ds, sampler, stats, config(ReaderMode::PerWorker, 1));
        for _ in 0..8 {
            let _ = q.next_sample();
        }
        let st = q.stats();
        assert_eq!(st.wait_histogram().count(), 8, "one wait sample per pull");
        assert!(st.wait_p99() >= st.wait_p50());
        assert!(st.consumer_wait() >= st.wait_p50(), "total covers at least the median");
        assert!(st.read_histogram().count() > 0, "read ops recorded");
    }
}
