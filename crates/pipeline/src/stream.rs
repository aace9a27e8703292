//! The streaming, backpressured, bit-reproducible ingest engine.
//!
//! A pull-per-sample queue takes one sample index at a time from a
//! locked sampler and allocates fresh buffers for every decoded sample.
//! This module instead runs *sharded reader tasks*:
//!
//! * The epoch order comes from the pure hierarchical shuffle
//!   ([`crate::sampler::epoch_permutation`]) and is split into **runs** of
//!   `chunk_size` consecutive positions. By construction a run maps to one
//!   storage chunk (one CDF5 file), so a reader performs one physical read
//!   operation per run — one open + one sequential sweep — instead of one
//!   per sample.
//! * Run `j` of epoch `e` has a global ordinal `g = e·n_runs + j` and is
//!   owned by worker `g mod W`. Each worker streams its runs, in order,
//!   through its own bounded channel; the consumer demultiplexes by
//!   following `g` — so the consumed sequence is **invariant to the worker
//!   count**, and backpressure is per-worker (a slow consumer stalls
//!   readers; readers never race each other for indices).
//! * Decode output lives in pool-recycled buffers and each worker reuses
//!   its raw staging buffers across runs: the steady-state stream performs
//!   zero fresh heap allocations.
//! * [`StreamingIngest::reshard`] and [`StreamingIngest::set_workers`] tear the
//!   readers down and respawn them at the consumer's exact position, so
//!   elastic generation changes replay deterministically: the consumed
//!   sequence is a pure function of the seed, the shard history and the
//!   positions at which reshards happened — never of worker count or
//!   timing.

use crate::augment::Augmentation;
use crate::decode::{decode, ChannelStats, DecodedSample};
use crate::prefetch::{PrefetchConfig, ReaderMode};
use crate::sampler::{epoch_permutation, SampleSampler};
use crossbeam::channel::{bounded, Receiver, Sender};
use exaclim_climsim::ClimateDataset;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`StreamingIngest`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Worker count, queue depth, reader mode, read cost, channel
    /// selection, class weights and dtype.
    pub prefetch: PrefetchConfig,
    /// Shuffle seed; with the shard it fully determines the order.
    pub seed: u64,
    /// Samples per run (normally the dataset's `chunk_size()`).
    pub chunk_size: usize,
    /// Apply the label-preserving augmentations in-stream, on raw fields
    /// before normalization, seeded per `(seed, epoch, position)`.
    pub augment: bool,
    /// Raw channel indices whose sign flips under a latitude mirror.
    pub meridional: Vec<usize>,
}

impl StreamConfig {
    /// `sampler`'s seed and chunking drive the shuffle; no augmentation.
    /// Pair with `sampler.shard()` when starting the stream.
    pub fn for_sampler(sampler: &SampleSampler, prefetch: PrefetchConfig) -> StreamConfig {
        StreamConfig {
            prefetch,
            seed: sampler.seed(),
            chunk_size: sampler.chunk_size(),
            augment: false,
            meridional: Vec::new(),
        }
    }
}

struct WorkerSet {
    stop: Arc<AtomicBool>,
    rxs: Vec<Receiver<DecodedSample>>,
    handles: Vec<JoinHandle<()>>,
}

/// The sharded-reader streaming engine: a backpressured, reproducible
/// source of decoded samples, consumed by both trainers.
pub struct StreamingIngest {
    dataset: Arc<ClimateDataset>,
    norm: Arc<ChannelStats>,
    cfg: StreamConfig,
    shard: Arc<Vec<usize>>,
    n_workers: usize,
    epoch: u64,
    cursor: usize,
    state: Option<WorkerSet>,
}

impl StreamingIngest {
    /// Starts `cfg.prefetch.workers` reader tasks over `shard`.
    pub fn start(
        dataset: Arc<ClimateDataset>,
        shard: Vec<usize>,
        stats_src: ChannelStats,
        cfg: StreamConfig,
    ) -> StreamingIngest {
        assert!(!shard.is_empty(), "shard must be non-empty");
        let n_workers = cfg.prefetch.workers.max(1);
        let mut s = StreamingIngest {
            dataset,
            norm: Arc::new(stats_src),
            cfg,
            shard: Arc::new(shard),
            n_workers,
            epoch: 0,
            cursor: 0,
            state: None,
        };
        s.spawn();
        s
    }

    /// Consumer position as `(epoch, samples consumed within it)`.
    pub fn position(&self) -> (u64, usize) {
        (self.epoch, self.cursor)
    }

    /// The active shard, in storage order.
    pub fn shard(&self) -> &[usize] {
        &self.shard
    }

    fn chunk(&self) -> usize {
        self.cfg.chunk_size.max(1)
    }

    fn n_runs(&self) -> usize {
        self.shard.len().div_ceil(self.chunk())
    }

    fn spawn(&mut self) {
        let stop = Arc::new(AtomicBool::new(false));
        // The shared depth budget splits across per-worker channels; each
        // gets at least one slot so every reader can run ahead.
        let cap = self.cfg.prefetch.depth.max(1).div_ceil(self.n_workers).max(1);
        let global_lock = match self.cfg.prefetch.mode {
            ReaderMode::SharedLocked => Some(Arc::new(Mutex::new(()))),
            ReaderMode::PerWorker => None,
        };
        let mut rxs = Vec::with_capacity(self.n_workers);
        let mut handles = Vec::with_capacity(self.n_workers);
        for w in 0..self.n_workers {
            let (tx, rx) = bounded(cap);
            rxs.push(rx);
            let ctx = WorkerCtx {
                worker: w,
                n_workers: self.n_workers,
                dataset: self.dataset.clone(),
                norm: self.norm.clone(),
                shard: self.shard.clone(),
                cfg: self.cfg.clone(),
                start_epoch: self.epoch,
                start_pos: self.cursor,
                stop: stop.clone(),
                global_lock: global_lock.clone(),
            };
            handles.push(std::thread::spawn(move || worker_loop(ctx, tx)));
        }
        self.state = Some(WorkerSet { stop, rxs, handles });
    }

    fn teardown(&mut self) {
        if let Some(mut st) = self.state.take() {
            st.stop.store(true, Ordering::SeqCst);
            // Dropping the receivers disconnects the channels, so readers
            // blocked on a full queue fail their send and exit.
            st.rxs.clear();
            for h in st.handles.drain(..) {
                let _ = h.join();
            }
        }
    }

    /// Next sample in the global order (blocks on backpressure).
    pub fn next_sample(&mut self) -> DecodedSample {
        let j = self.cursor / self.chunk();
        let g = self.epoch.wrapping_mul(self.n_runs() as u64).wrapping_add(j as u64);
        let w = (g % self.n_workers as u64) as usize;
        let st = self.state.as_ref().expect("stream is running");
        let sample = st.rxs[w].recv().expect("ingest worker exited");
        self.cursor += 1;
        if self.cursor >= self.shard.len() {
            self.cursor = 0;
            self.epoch = self.epoch.wrapping_add(1);
        }
        sample
    }

    /// Replaces the shard (an elastic re-shard): the *current* epoch is
    /// rebuilt over the new shard and delivery restarts at its beginning.
    /// Deterministic — the continuation depends only on `(seed, epoch,
    /// new_shard)`.
    pub fn reshard(&mut self, shard: Vec<usize>) {
        assert!(!shard.is_empty(), "shard must be non-empty");
        self.teardown();
        self.shard = Arc::new(shard);
        self.cursor = 0;
        self.spawn();
    }

    /// Changes the reader-worker count, resuming at the exact consumed
    /// position; the sample sequence is unaffected.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        if workers == self.n_workers {
            return;
        }
        self.teardown();
        self.n_workers = workers;
        self.spawn();
    }

    /// Current reader-worker count.
    pub fn workers(&self) -> usize {
        self.n_workers
    }
}

impl Drop for StreamingIngest {
    fn drop(&mut self) {
        self.teardown();
    }
}

struct WorkerCtx {
    worker: usize,
    n_workers: usize,
    dataset: Arc<ClimateDataset>,
    norm: Arc<ChannelStats>,
    shard: Arc<Vec<usize>>,
    cfg: StreamConfig,
    start_epoch: u64,
    start_pos: usize,
    stop: Arc<AtomicBool>,
    global_lock: Option<Arc<Mutex<()>>>,
}

fn worker_loop(ctx: WorkerCtx, tx: Sender<DecodedSample>) {
    let chunk = ctx.cfg.chunk_size.max(1);
    let n_runs = ctx.shard.len().div_ceil(chunk);
    let (c, h, w) = (ctx.dataset.channels, ctx.dataset.h, ctx.dataset.w);
    let mut cursor = ctx.dataset.open_cursor();
    // Raw staging for one run, plus the augmentation scratch — allocated
    // once here, reused for the thread's lifetime.
    let mut raw: Vec<(Vec<f32>, Vec<u8>)> = Vec::new();
    let mut aug_buf: Vec<f32> = Vec::new();
    let mut epoch = ctx.start_epoch;
    let mut floor = ctx.start_pos; // resume offset, first epoch only
    loop {
        let order = epoch_permutation(ctx.cfg.seed, epoch, &ctx.shard, chunk);
        for j in 0..n_runs {
            if ctx.stop.load(Ordering::Relaxed) {
                return;
            }
            let g = epoch.wrapping_mul(n_runs as u64).wrapping_add(j as u64);
            if (g % ctx.n_workers as u64) as usize != ctx.worker {
                continue;
            }
            let lo = (j * chunk).max(floor);
            let hi = ((j + 1) * chunk).min(order.len());
            if lo >= hi {
                continue; // run fully consumed before a respawn
            }
            while raw.len() < hi - lo {
                raw.push((Vec::new(), Vec::new()));
            }
            // One physical read operation for the whole run: the paper's
            // HDF5 per-read overhead (`read_cost`) is paid once, and in
            // SharedLocked mode the global library lock is held for the
            // operation's duration. Decode happens outside the lock.
            {
                let _guard = ctx.global_lock.as_ref().map(|l| l.lock());
                if !ctx.cfg.prefetch.read_cost.is_zero() {
                    std::thread::sleep(ctx.cfg.prefetch.read_cost);
                }
                for (k, p) in (lo..hi).enumerate() {
                    let (f, l) = &mut raw[k];
                    cursor.read_into(order[p], f, l).expect("dataset read");
                }
            }
            for (k, p) in (lo..hi).enumerate() {
                let (f, l) = &raw[k];
                let fields: &[f32] = if ctx.cfg.augment {
                    let a = Augmentation::at_position(w, ctx.cfg.seed, epoch, p as u64);
                    a.apply_sample_into(f, c, h, w, &ctx.cfg.meridional, &mut aug_buf);
                    &aug_buf
                } else {
                    f
                };
                let mut item = decode(
                    order[p],
                    fields,
                    l,
                    &ctx.cfg.prefetch.channels,
                    c,
                    h,
                    w,
                    &ctx.norm,
                    &ctx.cfg.prefetch.class_weights,
                    ctx.cfg.prefetch.dtype,
                );
                // Blocking send with stop polling (backpressure point).
                loop {
                    match tx.send_timeout(item, Duration::from_millis(20)) {
                        Ok(()) => break,
                        Err(crossbeam::channel::SendTimeoutError::Timeout(back)) => {
                            if ctx.stop.load(Ordering::Relaxed) {
                                return;
                            }
                            item = back;
                        }
                        Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => return,
                    }
                }
            }
        }
        floor = 0;
        epoch = epoch.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::sequence_hash;
    use exaclim_climsim::dataset::DatasetConfig;
    use exaclim_tensor::DType;

    fn chunked_dataset(n: usize) -> Arc<ClimateDataset> {
        let mut cfg = DatasetConfig::small(21, n);
        cfg.generator.h = 12;
        cfg.generator.w = 18;
        cfg.samples_per_file = 4;
        Arc::new(ClimateDataset::in_memory(&cfg))
    }

    fn stream_cfg(workers: usize, chunk: usize) -> StreamConfig {
        StreamConfig {
            prefetch: PrefetchConfig {
                workers,
                depth: 6,
                mode: ReaderMode::PerWorker,
                read_cost: Duration::ZERO,
                channels: (0..16).collect(),
                class_weights: vec![1.0, 10.0, 5.0],
                dtype: DType::F32,
            },
            seed: 42,
            chunk_size: chunk,
            augment: false,
            meridional: Vec::new(),
        }
    }

    fn consume(stream: &mut StreamingIngest, n: usize) -> Vec<usize> {
        (0..n).map(|_| stream.next_sample().index).collect()
    }

    #[test]
    fn delivers_the_epoch_permutation_in_order() {
        let ds = chunked_dataset(12);
        let norm = ChannelStats::estimate(&ds, 2).expect("stats");
        let shard: Vec<usize> = (0..12).collect();
        let mut s = StreamingIngest::start(ds, shard.clone(), norm, stream_cfg(3, 4));
        let got = consume(&mut s, 18); // 1.5 epochs
        let mut want = epoch_permutation(42, 0, &shard, 4);
        want.extend(&epoch_permutation(42, 1, &shard, 4)[..6]);
        assert_eq!(got, want);
        assert_eq!(s.position(), (1, 6));
    }

    #[test]
    fn consumed_order_is_invariant_to_worker_count() {
        let ds = chunked_dataset(12);
        let mut hashes = Vec::new();
        for workers in [1usize, 2, 4] {
            let norm = ChannelStats::estimate(&ds, 2).expect("stats");
            let mut s =
                StreamingIngest::start(ds.clone(), (0..12).collect(), norm, stream_cfg(workers, 4));
            hashes.push(sequence_hash(consume(&mut s, 30)));
        }
        assert_eq!(hashes[0], hashes[1], "1 vs 2 workers");
        assert_eq!(hashes[0], hashes[2], "1 vs 4 workers");
    }

    #[test]
    fn set_workers_mid_epoch_keeps_the_sequence() {
        let ds = chunked_dataset(12);
        let norm = ChannelStats::estimate(&ds, 2).expect("stats");
        let mut s = StreamingIngest::start(ds.clone(), (0..12).collect(), norm, stream_cfg(1, 4));
        let mut got = consume(&mut s, 7); // stop inside a run
        s.set_workers(3);
        assert_eq!(s.workers(), 3);
        got.extend(consume(&mut s, 17));
        let norm = ChannelStats::estimate(&ds, 2).expect("stats");
        let mut uninterrupted =
            StreamingIngest::start(ds, (0..12).collect(), norm, stream_cfg(2, 4));
        assert_eq!(got, consume(&mut uninterrupted, 24));
    }

    #[test]
    fn reshard_rebuilds_the_current_epoch() {
        let ds = chunked_dataset(16);
        let norm = ChannelStats::estimate(&ds, 2).expect("stats");
        let mut s = StreamingIngest::start(ds, (0..8).collect(), norm, stream_cfg(2, 4));
        let _ = consume(&mut s, 11); // into epoch 1
        assert_eq!(s.position().0, 1);
        let new_shard: Vec<usize> = (8..16).collect();
        s.reshard(new_shard.clone());
        let got = consume(&mut s, 8);
        assert_eq!(got, epoch_permutation(42, 1, &new_shard, 4), "epoch 1 rebuilt on new shard");
    }

    #[test]
    fn seeded_churn_schedule_replays_bit_identically() {
        // The same (seed, reshard-position) schedule must yield the same
        // global sequence at any worker count.
        let ds = chunked_dataset(24);
        let shard_a: Vec<usize> = (0..12).collect();
        let shard_b: Vec<usize> = (6..18).collect();
        let shard_c: Vec<usize> = (12..24).collect();
        let run = |workers: usize| {
            let norm = ChannelStats::estimate(&ds, 2).expect("stats");
            let mut s =
                StreamingIngest::start(ds.clone(), shard_a.clone(), norm, stream_cfg(workers, 4));
            let mut seq = consume(&mut s, 9);
            s.reshard(shard_b.clone()); // a rank joined
            seq.extend(consume(&mut s, 15));
            s.set_workers(workers.max(2) - 1);
            s.reshard(shard_c.clone()); // a rank left
            seq.extend(consume(&mut s, 10));
            seq
        };
        let base = run(1);
        assert_eq!(base, run(2));
        assert_eq!(base, run(4));
        assert_eq!(base.len(), 34);
    }
}
