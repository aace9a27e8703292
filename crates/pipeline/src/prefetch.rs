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
//! This module holds the configuration, the live counters and the reader
//! autoscaler; the engine that consumes them is
//! [`crate::stream::StreamingIngest`].
//!
//! **Reader autoscaling.** [`ReaderAutoscaler`] sizes the reader set from
//! the exposed-ingest share of the step (the time the step's critical path
//! waited on ingest over its wall time). It decides once per
//! [`ReaderAutoscaler::WINDOW`] steps, on the window's summed timings:
//! above 10 % it doubles the readers, below 2 % it drops one, in between
//! it holds. A window that read above 10 % at `n` readers proves `n` too
//! few, so later shrinks stop at `n + 1` (the *floor*, at most the cap);
//! a new shard resets the floor. Without the floor, a second reader that
//! hides the very wait which justified it would be taken away again, and
//! every such flip tears the readers down and respawns them.

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
}

/// Exposed-ingest share of a window above which the readers double.
const GROW_ABOVE: f64 = 0.10;
/// Exposed-ingest share of a window below which one reader goes.
const SHRINK_BELOW: f64 = 0.02;

/// The exposed-I/O feedback loop that sizes the reader set (see the module
/// docs). Its decisions are a pure function of the timing sequence and
/// the reshard points, so they are reproducible from recorded timings.
#[derive(Debug)]
pub struct ReaderAutoscaler {
    cap: usize,
    floor: usize,
    steps: usize,
    wait: Duration,
    wall: Duration,
}

impl ReaderAutoscaler {
    /// Steps summed into one decision. A one-step cold-start wait is
    /// diluted this many times, so compute-bound runs never grow.
    pub const WINDOW: usize = 16;

    /// An autoscaler that never goes above `cap` readers (callers pass
    /// [`PrefetchConfig::auto_workers`]) nor below one.
    pub fn new(cap: usize) -> ReaderAutoscaler {
        ReaderAutoscaler {
            cap: cap.max(1),
            floor: 1,
            steps: 0,
            wait: Duration::ZERO,
            wall: Duration::ZERO,
        }
    }

    /// Records one step — how long its critical path waited on ingest and
    /// its wall time — run at `current` readers. At the end of a window it
    /// returns the new reader count when that differs from `current`.
    pub fn observe(
        &mut self,
        current: usize,
        ingest_wait: Duration,
        step_wall: Duration,
    ) -> Option<usize> {
        self.wait += ingest_wait;
        self.wall += step_wall;
        self.steps += 1;
        if self.steps < Self::WINDOW {
            return None;
        }
        let (wait, wall) = (self.wait, self.wall);
        self.reset_window();
        if wall.is_zero() {
            return None;
        }
        let n = current.clamp(1, self.cap);
        let exposed = wait.as_secs_f64() / wall.as_secs_f64();
        let next = if exposed > GROW_ABOVE {
            self.floor = self.floor.max(n + 1).min(self.cap);
            (n * 2).min(self.cap)
        } else if exposed < SHRINK_BELOW && n > self.floor {
            n - 1
        } else {
            n
        };
        (next != current).then_some(next)
    }

    /// A new shard: what earlier windows measured no longer applies, so
    /// the floor returns to one and the current window starts over.
    pub fn on_reshard(&mut self) {
        self.floor = 1;
        self.reset_window();
    }

    /// The fewest readers a shrink may leave.
    pub fn floor(&self) -> usize {
        self.floor
    }

    fn reset_window(&mut self) {
        self.steps = 0;
        self.wait = Duration::ZERO;
        self.wall = Duration::ZERO;
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

    /// Drives `scaler` for `windows` windows of 10 ms steps, starting at
    /// `n` readers, whose exposed-ingest share at `n` readers is
    /// `share(n)`. Returns the reader count after every move.
    fn drive(
        scaler: &mut ReaderAutoscaler,
        mut n: usize,
        windows: usize,
        share: impl Fn(usize) -> f64,
    ) -> Vec<usize> {
        let wall = Duration::from_millis(10);
        let mut moves = Vec::new();
        for _ in 0..windows * ReaderAutoscaler::WINDOW {
            if let Some(next) = scaler.observe(n, wall.mul_f64(share(n)), wall) {
                n = next;
                moves.push(n);
            }
        }
        moves
    }

    /// One reader leaves 15 % of the step exposed, two leave 1 %.
    fn one_reader_too_few(n: usize) -> f64 {
        if n == 1 {
            0.15
        } else {
            0.01
        }
    }

    #[test]
    fn autoscaler_settles_where_one_reader_is_too_few_and_two_hide_the_wait() {
        let mut scaler = ReaderAutoscaler::new(4);
        let moves = drive(&mut scaler, 1, 40, one_reader_too_few);
        assert_eq!(moves, vec![2], "one move to two readers, then no more");
        assert_eq!(scaler.floor(), 2);
    }

    #[test]
    fn autoscaler_ignores_a_single_exposed_step_in_a_quiet_window() {
        let mut scaler = ReaderAutoscaler::new(4);
        let wall = Duration::from_millis(10);
        // A 50 %-exposed cold start, then fifteen steps with no wait:
        // 3.1 % over the window, inside the hold band.
        assert_eq!(scaler.observe(1, wall / 2, wall), None);
        for _ in 1..ReaderAutoscaler::WINDOW {
            assert_eq!(scaler.observe(1, Duration::ZERO, wall), None);
        }
        assert_eq!(scaler.floor(), 1);
    }

    #[test]
    fn autoscaler_shrinks_only_to_counts_never_measured_too_few() {
        // Up to two readers leave 15 % exposed, three or more hide the
        // wait: 1 → 2 → 4, then one shrink to 3 and no further.
        let mut scaler = ReaderAutoscaler::new(8);
        let share = |n: usize| if n <= 2 { 0.15 } else { 0.0 };
        let moves = drive(&mut scaler, 1, 40, share);
        assert_eq!(moves, vec![2, 4, 3]);
        assert_eq!(scaler.floor(), 3);
    }

    #[test]
    fn autoscaler_floor_resets_on_reshard() {
        let mut scaler = ReaderAutoscaler::new(4);
        assert_eq!(drive(&mut scaler, 1, 4, one_reader_too_few), vec![2]);
        scaler.on_reshard();
        assert_eq!(scaler.floor(), 1);
        // The new shard needs no second reader: one quiet window drops it.
        let moves = drive(&mut scaler, 2, 4, |_| 0.0);
        assert_eq!(moves, vec![1]);
    }

    #[test]
    fn autoscaler_floor_never_exceeds_the_cap() {
        for cap in [1, 2] {
            let mut scaler = ReaderAutoscaler::new(cap);
            let moves = drive(&mut scaler, 1, 8, |_| 0.5);
            assert_eq!(moves, if cap == 1 { vec![] } else { vec![2] });
            assert_eq!(scaler.floor(), cap);
        }
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
