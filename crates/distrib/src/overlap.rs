//! Backward-overlapped gradient reduction.
//!
//! Horovod hides all-reduce latency behind backward computation: a tensor's
//! gradient can start averaging the moment its producing op finishes, while
//! the framework keeps differentiating earlier layers (§V-A3). This module
//! is that machinery for the thread-rank runtime:
//!
//! * [`reduce_bucket`] — pack / all-reduce / scatter-back for one fusion
//!   bucket. Shared verbatim by the serial reduce loop and the progress
//!   thread, so both modes run the *same* arithmetic.
//! * [`ReadyTracker`] — per-parameter readiness dedup feeding per-bucket
//!   countdowns. When a bucket's last tensor reports ready, the bucket id
//!   is pushed onto the progress thread's queue.
//! * [`CommEngine`] — the per-rank comm progress thread. Each step the rank
//!   thread lends it the [`Communicator`]; it drains exactly one readiness
//!   notification per bucket, reduces each, and hands the communicator back
//!   with the step's wire bytes, busy time, and any [`CommError`].
//!
//! **Determinism.** Buckets are assigned *before* the step from the
//! canonical sorted tensor order, so bucket membership — and therefore
//! summation order and parameter bits — is identical whether communication
//! is serial or overlapped. Bucket *processing* order may differ between
//! modes (it follows readiness), but each bucket's all-reduce is
//! arithmetically independent of the others, and message tags stay
//! consistent across ranks because every rank's backward walks the same
//! layer graph and hence releases buckets in the same order.

use crate::fusion::FusionBucket;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use exaclim_comm::{CommError, Communicator};
use exaclim_nn::{Optimizer, Param, ParamSet};
use exaclim_tensor::profile::{self, KernelKind, SpanKind};
use exaclim_tensor::{DType, Tensor};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything [`reduce_bucket`] needs besides the bucket itself.
#[derive(Debug, Clone)]
pub(crate) struct ReduceSettings {
    /// World size (gradients are averaged by `1/ranks`).
    pub ranks: usize,
    /// Ranks per simulated node.
    pub node_size: usize,
    /// Shard leaders for the hierarchical all-reduce.
    pub shard_leaders: usize,
}

/// Packs one fusion bucket's gradients, all-reduces them, and scatters the
/// rank-averaged result back into the parameters. Returns the bytes the
/// bucket put on the wire. Records an `Allreduce` census entry with those
/// bytes and a `CommBusy` timeline span on whichever thread runs it.
pub(crate) fn reduce_bucket(
    params: &[Param],
    bucket: &FusionBucket,
    comm: &mut Communicator,
    s: &ReduceSettings,
    rank: usize,
    step: usize,
) -> Result<u64, CommError> {
    let t0 = Instant::now();
    let mut flat = exaclim_tensor::pool::take_with_capacity(bucket.elements);
    for &id in &bucket.tensor_ids {
        params[id as usize].with(|_, g| flat.extend_from_slice(g.as_slice()));
    }
    let wire = flat.len() as u64 * 4;
    profile::record(KernelKind::Allreduce, "grad_allreduce", flat.len() as u64, wire, wire);
    comm.try_hierarchical_allreduce(&mut flat, s.node_size, s.shard_leaders)?;
    let inv_n = 1.0 / s.ranks as f32;
    let mut off = 0;
    for &id in &bucket.tensor_ids {
        let p = &params[id as usize];
        let n = p.numel();
        let mut avg = exaclim_tensor::pool::take_with_capacity(n);
        avg.extend(flat[off..off + n].iter().map(|&x| x * inv_n));
        p.set_grad(Tensor::from_pool(p.grad().shape().clone(), DType::F32, avg));
        off += n;
    }
    exaclim_tensor::pool::recycle(flat);
    profile::record_span(rank, step, SpanKind::CommBusy, t0, t0.elapsed().as_secs_f64());
    Ok(wire)
}

/// Tracks per-parameter gradient readiness and releases fusion buckets.
///
/// A parameter's hook fires from `Param::accumulate_grad`, once per
/// backward for every layer-owned parameter; the per-tensor `seen` flags
/// dedup any repeat (and the end-of-step [`flush`](ReadyTracker::flush)),
/// so each bucket's countdown hits zero exactly once per step —
/// so the progress thread can rely on receiving exactly one notification
/// per bucket between [`reset`](ReadyTracker::reset) and the end of
/// [`flush`](ReadyTracker::flush).
pub(crate) struct ReadyTracker {
    /// Tensor id → owning bucket index.
    bucket_of: Vec<usize>,
    /// Per-tensor "already counted this step" flags.
    seen: Vec<AtomicBool>,
    /// Per-bucket countdown of tensors still pending this step.
    remaining: Vec<AtomicUsize>,
    /// Per-bucket reset values for `remaining`.
    counts: Vec<usize>,
    /// Ready-bucket queue feeding the progress thread.
    tx: Sender<usize>,
}

impl ReadyTracker {
    fn new(n_tensors: usize, buckets: &[FusionBucket], tx: Sender<usize>) -> ReadyTracker {
        let mut bucket_of = vec![usize::MAX; n_tensors];
        let mut counts = Vec::with_capacity(buckets.len());
        for (b, bucket) in buckets.iter().enumerate() {
            for &id in &bucket.tensor_ids {
                bucket_of[id as usize] = b;
            }
            counts.push(bucket.tensor_ids.len());
        }
        let tracker = ReadyTracker {
            bucket_of,
            seen: (0..n_tensors).map(|_| AtomicBool::new(true)).collect(),
            remaining: counts.iter().map(|&c| AtomicUsize::new(c)).collect(),
            counts,
            tx,
        };
        // `seen` starts all-true so nothing is released before the first
        // `reset` arms the step.
        tracker
    }

    /// Arms the tracker for a new step. Must not race hooks: call it while
    /// no backward pass is running and no step is in flight.
    pub fn reset(&self) {
        for (r, &c) in self.remaining.iter().zip(&self.counts) {
            r.store(c, Ordering::Relaxed);
        }
        for s in &self.seen {
            s.store(false, Ordering::Release);
        }
    }

    /// Marks one tensor's gradient final. Idempotent within a step; the
    /// owning bucket is released to the queue when its last tensor lands.
    pub fn notify(&self, tensor_id: usize) {
        if self.seen[tensor_id].swap(true, Ordering::AcqRel) {
            return;
        }
        let b = self.bucket_of[tensor_id];
        if self.remaining[b].fetch_sub(1, Ordering::AcqRel) == 1 {
            // Receiver gone means the engine already shut down; readiness
            // is then moot.
            let _ = self.tx.send(b);
        }
    }

    /// Marks every tensor ready. The rank thread calls this after backward
    /// returns, so buckets whose parameters no backward accumulated into
    /// (or a step abandoned mid-backward) still reach the progress thread and
    /// the step stays framed at exactly one notification per bucket.
    pub fn flush(&self) {
        for id in 0..self.seen.len() {
            self.notify(id);
        }
    }
}

/// One step's work order: the communicator on loan, which step it is,
/// and — in fused mode — the optimizer on loan, its step already begun,
/// so the worker can apply each bucket's updates the moment the bucket's
/// all-reduce lands.
struct StepJob {
    comm: Communicator,
    step: usize,
    opt: Option<Box<dyn Optimizer + Send>>,
}

/// What the progress thread hands back at the end of a step.
pub(crate) struct StepOutcome {
    /// The communicator, returned from loan.
    pub comm: Communicator,
    /// The optimizer, returned from loan (fused mode only).
    pub opt: Option<Box<dyn Optimizer + Send>>,
    /// Bytes the step's all-reduces put on the wire.
    pub wire_bytes: u64,
    /// Seconds the worker spent communicating (reduce only — bucket
    /// applies are accounted in `optim_busy_s`, not here).
    pub busy_s: f64,
    /// Seconds the worker spent applying fused optimizer updates.
    pub optim_busy_s: f64,
    /// Buckets whose parameters were updated on the worker. On a comm
    /// error this stops short of the bucket count; the remaining params
    /// still hold unapplied (unreduced) gradients.
    pub applied_buckets: usize,
    /// The step's outcome.
    pub result: Result<(), CommError>,
}

/// The per-rank comm progress thread plus its channels.
///
/// Per step the rank thread arms the tracker ([`ReadyTracker::reset`]),
/// lends the communicator with [`begin_step`](CommEngine::begin_step), runs
/// forward/backward while ready hooks release buckets, then joins with
/// [`finish_step`](CommEngine::finish_step). The worker drains exactly one
/// readiness notification per bucket each step — after an error it keeps
/// draining (without communicating) so the step stays framed and the error
/// is *returned*, never turned into a deadlock.
pub(crate) struct CommEngine {
    tracker: Arc<ReadyTracker>,
    jobs: Option<Sender<StepJob>>,
    done: Receiver<StepOutcome>,
    worker: Option<JoinHandle<()>>,
    in_flight: bool,
}

impl CommEngine {
    /// Spawns the progress thread for `rank`. `params` must be indexed by
    /// tensor id (registration order); `buckets` is the step-invariant
    /// fusion assignment.
    pub fn new(
        rank: usize,
        params: Vec<Param>,
        buckets: Vec<FusionBucket>,
        settings: ReduceSettings,
    ) -> CommEngine {
        let (ready_tx, ready_rx) = unbounded::<usize>();
        let tracker = Arc::new(ReadyTracker::new(params.len(), &buckets, ready_tx));
        let (jobs_tx, jobs_rx) = unbounded::<StepJob>();
        let (done_tx, done_rx) = unbounded::<StepOutcome>();
        let n_buckets = buckets.len();
        let worker = std::thread::Builder::new()
            .name(format!("exaclim-comm-{rank}"))
            .spawn(move || {
                // The set view the lent optimizer's `apply` addresses by
                // tensor id — same Arc-backed params, same indices.
                let param_set = ParamSet::from_vec(params.clone());
                // One bucket's fused updates, on this thread. Applies are
                // per-tensor independent, so worker-side, readiness-ordered
                // application is bit-identical to the serial step.
                let apply_bucket = |o: &mut Box<dyn Optimizer + Send>, b: usize, step: usize| {
                    let t1 = Instant::now();
                    for &id in &buckets[b].tensor_ids {
                        o.apply(&param_set, id as usize);
                    }
                    let dur = t1.elapsed().as_secs_f64();
                    profile::record_span(rank, step, SpanKind::Optimizer, t1, dur);
                    dur
                };
                while let Ok(StepJob { mut comm, step, mut opt }) = jobs_rx.recv() {
                    let mut wire_bytes = 0u64;
                    let mut busy_s = 0.0f64;
                    let mut optim_busy_s = 0.0f64;
                    let mut applied_buckets = 0usize;
                    let mut result: Result<(), CommError> = Ok(());
                    // Reduced buckets whose fused updates have not been
                    // applied yet. Collectives rendezvous across ranks, so
                    // a ready bucket is *always* reduced before any local
                    // optimizer work — applies fill the gaps while this
                    // thread would otherwise idle waiting for backward to
                    // release the next bucket. Apply order is irrelevant
                    // to the bits (per-tensor independence).
                    let mut pending: std::collections::VecDeque<usize> =
                        std::collections::VecDeque::new();
                    let mut drained = 0usize;
                    let mut shutdown = false;
                    while drained < n_buckets {
                        let next = if pending.is_empty() {
                            match ready_rx.recv() {
                                Ok(b) => Some(b),
                                // Tracker dropped: the engine is shutting
                                // down.
                                Err(_) => {
                                    shutdown = true;
                                    None
                                }
                            }
                        } else {
                            match ready_rx.try_recv() {
                                Ok(b) => Some(b),
                                Err(TryRecvError::Empty) => None,
                                Err(TryRecvError::Disconnected) => {
                                    shutdown = true;
                                    None
                                }
                            }
                        };
                        if shutdown {
                            break;
                        }
                        match next {
                            Some(b) => {
                                drained += 1;
                                if result.is_ok() {
                                    let t0 = Instant::now();
                                    match reduce_bucket(&params, &buckets[b], &mut comm, &settings, rank, step) {
                                        Ok(w) => {
                                            wire_bytes += w;
                                            if opt.is_some() {
                                                pending.push_back(b);
                                            }
                                        }
                                        Err(e) => result = Err(e),
                                    }
                                    busy_s += t0.elapsed().as_secs_f64();
                                }
                            }
                            None => {
                                let b = pending.pop_front().expect("pending non-empty");
                                let o = opt.as_mut().expect("pending implies fused");
                                optim_busy_s += apply_bucket(o, b, step);
                                applied_buckets += 1;
                            }
                        }
                    }
                    if !shutdown && result.is_ok() {
                        // Buckets reduced after backward ended: their
                        // applies land in the join window (exposed).
                        if let Some(o) = opt.as_mut() {
                            while let Some(b) = pending.pop_front() {
                                optim_busy_s += apply_bucket(o, b, step);
                                applied_buckets += 1;
                            }
                        }
                    }
                    let done = StepOutcome {
                        comm,
                        opt,
                        wire_bytes,
                        busy_s,
                        optim_busy_s,
                        applied_buckets,
                        result,
                    };
                    if done_tx.send(done).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn comm progress thread");
        CommEngine {
            tracker,
            jobs: Some(jobs_tx),
            done: done_rx,
            worker: Some(worker),
            in_flight: false,
        }
    }

    /// The readiness tracker parameter hooks should notify.
    pub fn tracker(&self) -> &Arc<ReadyTracker> {
        &self.tracker
    }

    /// Lends the communicator — and, in fused mode, the optimizer — to
    /// the progress thread for one step. The tracker must have been
    /// [`reset`](ReadyTracker::reset) first, and a lent optimizer must
    /// already have had `begin_step` called for this step (the worker only
    /// ever calls `apply`).
    pub fn begin_step(
        &mut self,
        comm: Communicator,
        step: usize,
        opt: Option<Box<dyn Optimizer + Send>>,
    ) {
        assert!(!self.in_flight, "begin_step while a step is in flight");
        self.in_flight = true;
        self.jobs
            .as_ref()
            .expect("engine not shut down")
            .send(StepJob { comm, step, opt })
            .expect("comm progress thread alive");
    }

    /// Joins the in-flight step: releases any buckets backward never
    /// released, blocks until the progress thread finishes, and returns
    /// the communicator (and any lent optimizer) with the step's wire
    /// bytes, busy seconds, and outcome. The caller's blocked time here is
    /// the step's *exposed* communication-plus-apply tail.
    pub fn finish_step(&mut self) -> StepOutcome {
        assert!(self.in_flight, "finish_step without begin_step");
        self.tracker.flush();
        let done = self.done.recv().expect("comm progress thread alive");
        self.in_flight = false;
        done
    }
}

impl Drop for CommEngine {
    fn drop(&mut self) {
        if self.in_flight {
            // A step was abandoned (panic unwind): release the remaining
            // buckets so the worker's drain completes, and absorb its
            // StepDone so the join below cannot hang.
            self.tracker.flush();
            let _ = self.done.recv();
        }
        // Closing the job channel ends the worker loop.
        self.jobs.take();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// Clears the ready hooks it holds when dropped, so a training run never
/// leaks hooks (which would keep every later backward calling into a dead
/// run's tracker and pin it alive).
pub(crate) struct HookClearGuard(pub Vec<Param>);

impl Drop for HookClearGuard {
    fn drop(&mut self) {
        for p in &self.0 {
            p.clear_ready_hook();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;

    fn toy_params(sizes: &[usize]) -> Vec<Param> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Param::new(format!("p{i}"), Tensor::zeros([n], DType::F32)))
            .collect()
    }

    #[test]
    fn tracker_releases_each_bucket_exactly_once() {
        let sizes = [4usize, 4, 4, 4];
        let order: Vec<u32> = (0..4).collect();
        // Threshold of two tensors per bucket: 4 floats * 4 bytes * 2.
        let buckets = fuse(&order, &sizes, 32);
        assert_eq!(buckets.len(), 2);
        let (tx, rx) = unbounded();
        let tracker = ReadyTracker::new(4, &buckets, tx);

        // Unarmed: notifications before the first reset are swallowed.
        tracker.notify(0);
        assert!(rx.try_recv().is_err());

        tracker.reset();
        tracker.notify(1);
        tracker.notify(1); // duplicate — must not double-count
        assert!(rx.try_recv().is_err(), "bucket 0 still waits on tensor 0");
        tracker.notify(0);
        assert_eq!(rx.try_recv().unwrap(), 0);
        tracker.flush();
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert!(rx.try_recv().is_err(), "exactly one release per bucket");

        // Next step: same guarantees after re-arming.
        tracker.reset();
        tracker.flush();
        let mut got: Vec<usize> = (0..2).map(|_| rx.try_recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn hook_clear_guard_clears_on_drop() {
        let params = toy_params(&[2, 2]);
        let hits = Arc::new(AtomicUsize::new(0));
        for p in &params {
            let h = hits.clone();
            p.set_ready_hook(Arc::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }));
        }
        {
            let _guard = HookClearGuard(params.clone());
        }
        for p in &params {
            p.accumulate_grad(&Tensor::zeros([2], DType::F32));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 0, "hooks cleared by guard");
    }
}
