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
//! This module holds the reader mode and the reader autoscaler; the
//! engine that consumes them is [`crate::stream::StreamingIngest`], which
//! starts with one reader.
//!
//! **Reader autoscaling.** [`ReaderAutoscaler`] sizes the reader set from
//! the exposed-ingest share of the step (the time the step's critical path
//! waited on ingest over its wall time). It decides once per
//! [`ReaderAutoscaler::WINDOW`] steps, on the window's summed timings:
//! above 10 % it doubles the readers, below 2 % it drops one, in between
//! it holds. A window that read above 10 % at `n` readers proves `n` too
//! few, so later shrinks stop at `n + 1` (the *floor*, at most the cap).
//! Without the floor, a second reader that hides the very wait which
//! justified it would be taken away again, and every such flip tears the
//! readers down and respawns them.

use std::time::Duration;

/// Reader-concurrency mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderMode {
    /// One shared reader behind a global lock (the HDF5 pathology).
    SharedLocked,
    /// One independent reader per worker (the multiprocessing fix).
    PerWorker,
}

/// Exposed-ingest share of a window above which the readers double.
const GROW_ABOVE: f64 = 0.10;
/// Exposed-ingest share of a window below which one reader goes.
const SHRINK_BELOW: f64 = 0.02;

/// The exposed-I/O feedback loop that sizes the reader set (see the module
/// docs). Its decisions are a pure function of the timing sequence, so
/// they are reproducible from recorded timings.
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

    /// The reader cap sized to the host: the kernel pool's width
    /// (`available_parallelism` unless a test narrowed it), at least 1.
    pub fn auto_workers() -> usize {
        rayon::current_num_threads().max(1)
    }

    /// An autoscaler that never goes above `cap` readers (callers pass
    /// [`ReaderAutoscaler::auto_workers`]) nor below one.
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
        let (wait, wall) = (std::mem::take(&mut self.wait), std::mem::take(&mut self.wall));
        self.steps = 0;
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

    /// The fewest readers a shrink may leave.
    #[cfg(test)]
    fn floor(&self) -> usize {
        self.floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::ChannelStats;
    use crate::stream::{StreamConfig, StreamingIngest};
    use exaclim_climsim::dataset::DatasetConfig;
    use exaclim_climsim::ClimateDataset;
    use exaclim_tensor::DType;
    use std::sync::Arc;
    use std::time::Instant;

    /// Six samples, one per file: every read is its own operation, so the
    /// read cost is paid per sample.
    fn tiny_dataset() -> Arc<ClimateDataset> {
        let mut cfg = DatasetConfig::small(40, 6);
        cfg.generator.h = 12;
        cfg.generator.w = 18;
        cfg.samples_per_file = 1;
        Arc::new(ClimateDataset::in_memory(&cfg))
    }

    fn config(mode: ReaderMode, seed: u64) -> StreamConfig {
        StreamConfig {
            depth: 4,
            mode,
            read_cost: Duration::ZERO,
            channels: (0..16).collect(),
            class_weights: vec![1.0, 10.0, 5.0],
            dtype: DType::F32,
            seed,
            augment: false,
        }
    }

    /// Streams `shard` on `workers` readers.
    fn start(
        ds: &Arc<ClimateDataset>,
        shard: Vec<usize>,
        stats: ChannelStats,
        cfg: StreamConfig,
        workers: usize,
    ) -> StreamingIngest {
        let mut q = StreamingIngest::start(ds.clone(), shard, stats, cfg);
        q.set_workers(workers);
        q
    }

    #[test]
    fn auto_workers_matches_the_kernel_pool() {
        let w = ReaderAutoscaler::auto_workers();
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
        let cfg = config(ReaderMode::PerWorker, 1);
        let mut q = start(&ds, vec![0, 2, 3, 5], stats, cfg, 2);
        for _ in 0..10 {
            let s = q.next_sample();
            assert_eq!(s.input.shape().dims(), &[1, 16, 12, 18]);
            assert_eq!(s.labels.len(), 12 * 18);
        }
    }

    #[test]
    fn both_modes_deliver_valid_data() {
        let ds = tiny_dataset();
        for mode in [ReaderMode::SharedLocked, ReaderMode::PerWorker] {
            let stats = ChannelStats::estimate(&ds, 2).expect("stats");
            let mut q = start(&ds, (0..6).collect(), stats, config(mode, 2), 3);
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
            let mut cfg = config(mode, 3);
            cfg.read_cost = Duration::from_millis(3);
            let mut q = start(&ds, (0..6).collect(), stats, cfg, 4);
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
        let mut cfg = config(ReaderMode::PerWorker, 4);
        cfg.channels = vec![0, 1, 2, 7]; // TMQ, U850, V850, PSL
        let mut q = start(&ds, vec![1, 3, 4, 5], stats, cfg, 1);
        let s = q.next_sample();
        assert_eq!(s.input.shape().dims(), &[1, 4, 12, 18]);
    }

    #[test]
    fn drop_shuts_workers_down() {
        let ds = tiny_dataset();
        let stats = ChannelStats::estimate(&ds, 1).expect("stats");
        let mut q = start(&ds, vec![0, 1, 4, 5], stats, config(ReaderMode::PerWorker, 5), 2);
        let _ = q.next_sample();
        drop(q); // must not hang
    }
}
