//! The streaming, backpressured, bit-reproducible ingest engine.
//!
//! The stream runs *sharded reader tasks*:
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
//! * [`StreamingIngest::set_workers`] tears the readers down and respawns
//!   them at the consumer's exact position. The shard is fixed for the
//!   stream's lifetime, so the consumed sequence is a pure function of the
//!   seed and the shard — never of worker count or timing.

use crate::augment::{Augmentation, MERIDIONAL_CHANNELS};
use crate::decode::{decode, ChannelStats, DecodedSample};
use crate::prefetch::ReaderMode;
use crate::sampler::epoch_permutation;
use crossbeam::channel::{bounded, Receiver, Sender};
use exaclim_climsim::ClimateDataset;
use exaclim_tensor::DType;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`StreamingIngest`]. The run length is the
/// dataset's `chunk_size()` (one CDF5 file) and the stream starts with one
/// reader; [`StreamingIngest::set_workers`] resizes it.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Queue depth (prefetched samples), split across the readers.
    pub depth: usize,
    /// Reader concurrency mode.
    pub mode: ReaderMode,
    /// Artificial per-read-operation cost, standing in for HDF5 open +
    /// decode overhead of a 56.6 MB paper-scale sample (tiny test grids
    /// read in microseconds). Paid once per run.
    pub read_cost: Duration,
    /// Channels to keep (e.g. all 16, or the 4-channel Daint subset).
    pub channels: Vec<usize>,
    /// Per-class loss weights.
    pub class_weights: Vec<f32>,
    /// Output precision.
    pub dtype: DType,
    /// Shuffle seed; with the shard it fully determines the order.
    pub seed: u64,
    /// Apply the label-preserving augmentations in-stream, on raw fields
    /// before normalization, seeded per `(seed, epoch, position)`; the
    /// meridional winds ([`MERIDIONAL_CHANNELS`]) flip sign under a
    /// latitude mirror.
    pub augment: bool,
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
    /// Starts one reader task over `shard`.
    pub fn start(
        dataset: Arc<ClimateDataset>,
        shard: Vec<usize>,
        stats_src: ChannelStats,
        cfg: StreamConfig,
    ) -> StreamingIngest {
        assert!(!shard.is_empty(), "shard must be non-empty");
        let mut s = StreamingIngest {
            dataset,
            norm: Arc::new(stats_src),
            cfg,
            shard: Arc::new(shard),
            n_workers: 1,
            epoch: 0,
            cursor: 0,
            state: None,
        };
        s.spawn();
        s
    }

    /// Consumer position as `(epoch, samples consumed within it)`.
    #[cfg(test)]
    fn position(&self) -> (u64, usize) {
        (self.epoch, self.cursor)
    }

    /// Samples per run: one storage chunk.
    fn chunk(&self) -> usize {
        self.dataset.chunk_size()
    }

    fn n_runs(&self) -> usize {
        self.shard.len().div_ceil(self.chunk())
    }

    fn spawn(&mut self) {
        let stop = Arc::new(AtomicBool::new(false));
        // The shared depth budget splits across per-worker channels; each
        // gets at least one slot so every reader can run ahead.
        let cap = self.cfg.depth.max(1).div_ceil(self.n_workers).max(1);
        let global_lock = match self.cfg.mode {
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
    let chunk = ctx.dataset.chunk_size();
    let n_runs = ctx.shard.len().div_ceil(chunk);
    let (c, h, w) = (ctx.dataset.channels, ctx.dataset.h, ctx.dataset.w);
    let meridional: Vec<usize> =
        MERIDIONAL_CHANNELS.iter().filter_map(|n| exaclim_climsim::channel_index(n)).collect();
    let mut cursor = ctx.dataset.open_cursor();
    // Raw staging for one run, plus the augmentation scratch for fields
    // and labels — allocated once here, reused for the thread's lifetime.
    let mut raw: Vec<(Vec<f32>, Vec<u8>)> = Vec::new();
    let (mut aug_fields, mut aug_labels) = (Vec::<f32>::new(), Vec::<u8>::new());
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
                if !ctx.cfg.read_cost.is_zero() {
                    std::thread::sleep(ctx.cfg.read_cost);
                }
                for (k, p) in (lo..hi).enumerate() {
                    let (f, l) = &mut raw[k];
                    cursor.read_into(order[p], f, l).expect("dataset read");
                }
            }
            for (k, p) in (lo..hi).enumerate() {
                let (f, l) = &raw[k];
                let (fields, labels): (&[f32], &[u8]) = if ctx.cfg.augment {
                    let a = Augmentation::at_position(w, ctx.cfg.seed, epoch, p as u64);
                    a.apply_into(f, l, c, h, w, &meridional, &mut aug_fields, &mut aug_labels);
                    (&aug_fields, &aug_labels)
                } else {
                    (f, l)
                };
                let mut item = decode(
                    order[p],
                    fields,
                    labels,
                    &ctx.cfg.channels,
                    c,
                    h,
                    w,
                    &ctx.norm,
                    &ctx.cfg.class_weights,
                    ctx.cfg.dtype,
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

    fn chunked_dataset(n: usize) -> Arc<ClimateDataset> {
        let mut cfg = DatasetConfig::small(21, n);
        cfg.generator.h = 12;
        cfg.generator.w = 18;
        cfg.samples_per_file = 4;
        Arc::new(ClimateDataset::in_memory(&cfg))
    }

    fn stream_cfg() -> StreamConfig {
        StreamConfig {
            depth: 6,
            mode: ReaderMode::PerWorker,
            read_cost: Duration::ZERO,
            channels: (0..16).collect(),
            class_weights: vec![1.0, 10.0, 5.0],
            dtype: DType::F32,
            seed: 42,
            augment: false,
        }
    }

    /// Streams `shard` of `ds` (runs of 4, its chunk size) on `workers`
    /// readers.
    fn start(ds: &Arc<ClimateDataset>, shard: Vec<usize>, workers: usize) -> StreamingIngest {
        let norm = ChannelStats::estimate(ds, 2).expect("stats");
        let mut s = StreamingIngest::start(ds.clone(), shard, norm, stream_cfg());
        s.set_workers(workers);
        s
    }

    fn consume(stream: &mut StreamingIngest, n: usize) -> Vec<usize> {
        (0..n).map(|_| stream.next_sample().index).collect()
    }

    #[test]
    fn delivers_the_epoch_permutation_in_order() {
        let ds = chunked_dataset(12);
        let shard: Vec<usize> = (0..12).collect();
        let mut s = start(&ds, shard.clone(), 3);
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
            let mut s = start(&ds, (0..12).collect(), workers);
            hashes.push(sequence_hash(consume(&mut s, 30)));
        }
        assert_eq!(hashes[0], hashes[1], "1 vs 2 workers");
        assert_eq!(hashes[0], hashes[2], "1 vs 4 workers");
    }

    #[test]
    fn set_workers_mid_epoch_keeps_the_sequence() {
        let ds = chunked_dataset(12);
        let mut s = start(&ds, (0..12).collect(), 1);
        let mut got = consume(&mut s, 7); // stop inside a run
        s.set_workers(3);
        assert_eq!(s.workers(), 3);
        got.extend(consume(&mut s, 17));
        let mut uninterrupted = start(&ds, (0..12).collect(), 2);
        assert_eq!(got, consume(&mut uninterrupted, 24));
    }

    #[test]
    fn augmented_labels_follow_their_fields() {
        // Oracle for in-stream augmentation, over three epochs: for each
        // delivered sample, the (roll, flip_lat) that reproduces its
        // fields from the stored sample must reproduce its labels too, and
        // every weight is its own label's class weight. The expected
        // values are recomputed here pixel by pixel, not through
        // `Augmentation`.
        let ds = chunked_dataset(12);
        let norm = ChannelStats::estimate(&ds, 2).expect("stats");
        let cfg = StreamConfig { augment: true, ..stream_cfg() };
        let mut s = StreamingIngest::start(ds.clone(), (0..12).collect(), norm.clone(), cfg.clone());
        let (h, w) = (ds.h, ds.w);
        let hw = h * w;
        let meridional: Vec<usize> =
            MERIDIONAL_CHANNELS.iter().filter_map(|n| exaclim_climsim::channel_index(n)).collect();
        let (mut flips, mut rolls) = (0, 0);
        for _ in 0..3 * 12 {
            let got = s.next_sample();
            let stored = ds.sample(got.index).expect("stored sample");
            let input = got.input.as_slice();
            // Output pixel (y, x) reads stored pixel (y or h-1-y, x - roll mod w).
            let src = |roll: usize, flip: bool, p: usize| {
                let (y, x) = (p / w, p % w);
                let sy = if flip { h - 1 - y } else { y };
                sy * w + (x + w - roll) % w
            };
            let fits: Vec<(usize, bool)> = (0..w)
                .flat_map(|roll| [(roll, false), (roll, true)])
                .filter(|&(roll, flip)| {
                    cfg.channels.iter().enumerate().all(|(k, &ch)| {
                        let sign = if flip && meridional.contains(&ch) { -1.0 } else { 1.0 };
                        (0..hw).all(|p| {
                            let v = sign * stored.fields[ch * hw + src(roll, flip, p)];
                            input[k * hw + p].to_bits() == norm.normalize(ch, v).to_bits()
                        })
                    })
                })
                .collect();
            assert!(!fits.is_empty(), "sample {}: no transform reproduces its fields", got.index);
            let labels = got.labels.as_slice();
            let fit = fits
                .iter()
                .find(|&&(roll, flip)| (0..hw).all(|p| labels[p] == stored.labels[src(roll, flip, p)]));
            let Some(&(roll, flip)) = fit else {
                panic!("sample {}: labels did not follow fields moved by {fits:?}", got.index)
            };
            flips += flip as usize;
            rolls += (roll != 0) as usize;
            for (p, &l) in labels.iter().enumerate() {
                assert_eq!(got.weights[p], cfg.class_weights[l as usize], "pixel {p}");
            }
        }
        assert!(flips > 0 && rolls > 0, "the run drew {flips} mirrors and {rolls} nonzero rolls");
    }
}
