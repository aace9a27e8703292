//! Replicated inference serving with dynamic batching.
//!
//! An [`InferenceServer`] owns N model replicas — typically all loaded
//! from one EXCK checkpoint via [`replicas_from_checkpoint`] — and one
//! shared MPMC request queue. Scheduling is decentralized: there is no
//! batcher thread. Each replica runs the batching loop itself:
//!
//! ```text
//!   IDLE ── recv() ──▶ COLLECTING ──[len == max_batch]──▶ FLUSH (full)
//!                          │
//!                          ├──[deadline from first request fires]──▶ FLUSH (deadline)
//!                          └──[queue disconnected]──▶ FLUSH (drain)
//! ```
//!
//! The deadline is measured from the moment the replica accepted the
//! *first* request of the batch, so the queueing delay any request pays
//! for batching is bounded by `max_delay` regardless of offered load.
//! After a flush the replica concatenates the inputs along the batch
//! axis, runs one fused forward, splits the output, and answers each
//! caller through its oneshot channel.
//!
//! Replicas are pinned to eval mode with [`exaclim_nn::Layer::set_training`]
//! at launch, which is what makes the fused forward bit-identical per
//! sample to batch-1 execution (eval batch norm is pointwise; dropout is
//! identity; every kernel reduces over non-batch axes in canonical
//! order). `tests::dynamic_batching_is_bit_identical_to_batch1` asserts exactly this.

use crate::batch::{concat_batch, split_batch};
use crossbeam::channel::{self, Receiver, Sender};
use exaclim_nn::checkpoint;
use exaclim_nn::{Ctx, Layer};
use exaclim_perfmodel::LatencyHistogram;
use exaclim_tensor::Tensor;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-tier configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of model replicas (one thread each).
    pub replicas: usize,
    /// Flush a batch as soon as it reaches this many requests.
    pub max_batch: usize,
    /// Flush a partial batch once this much time has passed since its
    /// first request was accepted.
    pub max_delay: Duration,
    /// Request-queue capacity; a full queue back-pressures `submit`.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            replicas: 2,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_cap: 256,
        }
    }
}

/// Why a replica flushed a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlushReason {
    /// The batch reached `max_batch`.
    Full,
    /// The latency deadline fired on a partial batch.
    Deadline,
    /// The queue disconnected (server shutting down) mid-collection.
    Drain,
}

/// One in-flight request: an NCHW input and the oneshot used to answer.
struct Request {
    input: Tensor,
    resp: Sender<Tensor>,
}

/// Per-replica serving statistics, returned when the replica drains.
#[derive(Clone)]
pub struct ReplicaReport {
    /// Requests answered.
    pub requests: u64,
    /// Fused forwards executed.
    pub batches: u64,
    /// Batches flushed at `max_batch`.
    pub full_flushes: u64,
    /// Batches flushed by the latency deadline.
    pub deadline_flushes: u64,
    /// Batches flushed by queue disconnect at shutdown.
    pub drain_flushes: u64,
    /// Largest batch executed.
    pub max_batch: usize,
    /// Fused-forward service time per batch.
    pub service: LatencyHistogram,
}

/// Aggregated serving telemetry ([`InferenceServer::shutdown`]).
pub struct ServeTelemetry {
    /// Per-replica reports, in launch order.
    pub replicas: Vec<ReplicaReport>,
    /// High-water queue depth observed at batch-formation points.
    pub queue_high: usize,
}

impl ServeTelemetry {
    /// Total requests answered.
    pub fn requests(&self) -> u64 {
        self.replicas.iter().map(|r| r.requests).sum()
    }

    /// Total fused forwards.
    pub fn batches(&self) -> u64 {
        self.replicas.iter().map(|r| r.batches).sum()
    }

    /// Mean batch size (requests per fused forward).
    pub fn mean_batch(&self) -> f64 {
        if self.batches() == 0 {
            return 0.0;
        }
        self.requests() as f64 / self.batches() as f64
    }

    /// Total deadline flushes across replicas.
    pub fn deadline_flushes(&self) -> u64 {
        self.replicas.iter().map(|r| r.deadline_flushes).sum()
    }

    /// All replicas' service-time histograms merged.
    pub fn service(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for r in &self.replicas {
            h.merge(&r.service);
        }
        h
    }
}

/// A cloneable client handle onto the serving queue.
#[derive(Clone)]
pub struct ServeHandle {
    tx: Sender<Request>,
}

/// A submitted request's future result.
pub struct PendingResponse {
    rx: Receiver<Tensor>,
}

impl PendingResponse {
    /// Blocks until the replica answers.
    ///
    /// # Panics
    /// Panics if the server was shut down with this request unanswered.
    pub fn wait(self) -> Tensor {
        self.rx.recv().expect("inference server dropped a pending request")
    }
}

impl ServeHandle {
    /// Enqueues an NCHW input, blocking while the queue is full. The
    /// result arrives on the returned [`PendingResponse`].
    pub fn submit(&self, input: Tensor) -> PendingResponse {
        let (resp_tx, resp_rx) = channel::bounded(1);
        self.tx
            .send(Request { input, resp: resp_tx })
            .expect("inference server is not running");
        PendingResponse { rx: resp_rx }
    }

    /// Synchronous round trip: [`ServeHandle::submit`] + wait.
    pub fn infer(&self, input: Tensor) -> Tensor {
        self.submit(input).wait()
    }
}

/// A running serving tier: replica threads plus the request queue.
pub struct InferenceServer {
    tx: Sender<Request>,
    rx: Receiver<Request>,
    workers: Vec<JoinHandle<ReplicaReport>>,
    queue_high: Arc<AtomicU64>,
    cfg: ServeConfig,
}

impl InferenceServer {
    /// Launches one thread per replica. Every replica is pinned to eval
    /// mode here — serving never runs training-mode normalization, no
    /// matter what context a caller might have threaded elsewhere.
    pub(crate) fn launch(cfg: ServeConfig, mut replicas: Vec<Box<dyn Layer>>) -> InferenceServer {
        assert!(!replicas.is_empty(), "server needs at least one replica");
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        let (tx, rx) = channel::bounded::<Request>(cfg.queue_cap.max(1));
        let queue_high = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::with_capacity(replicas.len());
        for (k, model) in replicas.drain(..).enumerate() {
            let mut model = model;
            model.set_training(false);
            let rx = rx.clone();
            let qh = Arc::clone(&queue_high);
            let (max_batch, max_delay) = (cfg.max_batch, cfg.max_delay);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-replica-{k}"))
                    .spawn(move || replica_loop(model, rx, qh, max_batch, max_delay))
                    .expect("spawn replica thread"),
            );
        }
        InferenceServer { tx, rx, workers, queue_high, cfg }
    }

    /// Builds replicas from an EXCK checkpoint and launches.
    pub fn from_checkpoint(
        cfg: ServeConfig,
        path: impl AsRef<Path>,
        build: impl Fn() -> Box<dyn Layer>,
    ) -> io::Result<InferenceServer> {
        let replicas = replicas_from_checkpoint(path, cfg.replicas, build)?;
        Ok(InferenceServer::launch(cfg, replicas))
    }

    /// A new client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { tx: self.tx.clone() }
    }

    /// Requests currently queued (not yet accepted by a replica).
    pub fn queue_depth(&self) -> usize {
        self.rx.len()
    }

    /// The launch configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Disconnects the queue, waits for every replica to drain, and
    /// returns the aggregated telemetry. All [`ServeHandle`] clones must
    /// be dropped first, or the replicas never observe the disconnect.
    pub fn shutdown(self) -> ServeTelemetry {
        drop(self.tx);
        drop(self.rx);
        let replicas = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("replica thread panicked"))
            .collect();
        ServeTelemetry {
            replicas,
            queue_high: self.queue_high.load(Ordering::Relaxed) as usize,
        }
    }
}

/// Builds `n` identical replicas from one EXCK checkpoint: each is
/// freshly constructed by `build`, overwritten in place from the file
/// (parameters *and* buffers, so batch-norm running statistics restore
/// exactly), and pinned to eval mode. A version-1 checkpoint loads the
/// same way.
pub fn replicas_from_checkpoint(
    path: impl AsRef<Path>,
    n: usize,
    build: impl Fn() -> Box<dyn Layer>,
) -> io::Result<Vec<Box<dyn Layer>>> {
    let path = path.as_ref();
    (0..n)
        .map(|_| {
            let mut model = build();
            checkpoint::load_into(&checkpoint::full_state(model.as_ref()), path)?;
            model.set_training(false);
            Ok(model)
        })
        .collect()
}

/// The per-replica batching loop (see the module docs for the state
/// machine). Runs until the request queue disconnects.
fn replica_loop(
    mut model: Box<dyn Layer>,
    rx: Receiver<Request>,
    queue_high: Arc<AtomicU64>,
    max_batch: usize,
    max_delay: Duration,
) -> ReplicaReport {
    let mut ctx = Ctx::eval();
    let mut report = ReplicaReport {
        requests: 0,
        batches: 0,
        full_flushes: 0,
        deadline_flushes: 0,
        drain_flushes: 0,
        max_batch: 0,
        service: LatencyHistogram::new(),
    };
    loop {
        let first = match rx.recv() {
            Ok(r) => r,
            Err(_) => return report,
        };
        let deadline = Instant::now() + max_delay;
        let mut batch = vec![first];
        let mut reason = FlushReason::Full;
        while batch.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                reason = FlushReason::Deadline;
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(r) => batch.push(r),
                Err(channel::RecvTimeoutError::Timeout) => {
                    reason = FlushReason::Deadline;
                    break;
                }
                Err(channel::RecvTimeoutError::Disconnected) => {
                    reason = FlushReason::Drain;
                    break;
                }
            }
        }
        queue_high.fetch_max(rx.len() as u64, Ordering::Relaxed);

        let t0 = Instant::now();
        // Only same-shaped inputs can share a fused forward; a flush that
        // mixes shapes (e.g. edge tiles next to interior tiles) runs one
        // fused forward per shape group, preserving request order within
        // each group.
        let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for (i, r) in batch.iter().enumerate() {
            let key: Vec<usize> = r.input.shape().dims()[1..].to_vec();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        let mut outputs: Vec<Option<Tensor>> = (0..batch.len()).map(|_| None).collect();
        for (_, idxs) in groups {
            if idxs.len() == 1 {
                outputs[idxs[0]] = Some(model.forward(&batch[idxs[0]].input, &mut ctx));
            } else {
                let sizes: Vec<usize> =
                    idxs.iter().map(|&i| batch[i].input.shape().dims()[0]).collect();
                let inputs: Vec<&Tensor> = idxs.iter().map(|&i| &batch[i].input).collect();
                let fused = model.forward(&concat_batch(&inputs), &mut ctx);
                for (i, out) in idxs.into_iter().zip(split_batch(&fused, &sizes)) {
                    outputs[i] = Some(out);
                }
            }
        }
        report.service.record(t0.elapsed());

        report.batches += 1;
        report.requests += batch.len() as u64;
        report.max_batch = report.max_batch.max(batch.len());
        match reason {
            FlushReason::Full => report.full_flushes += 1,
            FlushReason::Deadline => report.deadline_flushes += 1,
            FlushReason::Drain => report.drain_flushes += 1,
        }
        for (req, out) in batch.into_iter().zip(outputs) {
            // The caller may have abandoned its PendingResponse; that is
            // its prerogative, not a server error.
            let _ = req.resp.send(out.expect("every request belongs to one shape group"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_models::{DeepLabConfig, DeepLabV3Plus};
    use exaclim_nn::checkpoint::{full_state, save};
    use exaclim_nn::OptState;
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::DType;
    use std::path::PathBuf;

    fn tiny_deeplab(seed: u64) -> Box<dyn Layer> {
        let mut rng = seeded_rng(seed);
        Box::new(DeepLabV3Plus::new(DeepLabConfig::tiny(4), &mut rng))
    }

    fn inputs(n: usize) -> Vec<Tensor> {
        let mut rng = seeded_rng(7);
        (0..n).map(|_| randn([1, 4, 16, 16], DType::F32, 1.0, &mut rng)).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("exaclim_serve_{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d.join(name)
    }

    #[test]
    fn dynamic_batching_is_bit_identical_to_batch1() {
        // f16: the paper's inference precision, and a per-forward weight cast.
        [DType::F32, DType::F16].into_iter().for_each(batching_is_bit_identical_for);
    }

    fn batching_is_bit_identical_for(dtype: DType) {
        let xs: Vec<Tensor> = inputs(12).iter().map(|x| x.cast(dtype)).collect();
        // Batch-1 reference server.
        let base = InferenceServer::launch(
            ServeConfig { replicas: 1, max_batch: 1, ..ServeConfig::default() },
            vec![tiny_deeplab(42)],
        );
        let h = base.handle();
        let reference: Vec<u64> = xs.iter().map(|x| h.infer(x.clone()).bit_hash()).collect();
        drop(h);
        let base_tm = base.shutdown();
        assert_eq!(base_tm.requests(), 12);
        assert_eq!(base_tm.batches(), 12, "batch1 server must not batch");

        // Dynamically batched server, two replicas built from the same
        // seed. Submit everything before waiting so batches can form.
        let cfg = ServeConfig {
            replicas: 2,
            max_batch: 4,
            max_delay: Duration::from_millis(20),
            queue_cap: 64,
        };
        let server = InferenceServer::launch(cfg, vec![tiny_deeplab(42), tiny_deeplab(42)]);
        let h = server.handle();
        let pending: Vec<PendingResponse> = xs.iter().map(|x| h.submit(x.clone())).collect();
        drop(h);
        let got: Vec<u64> = pending.into_iter().map(|p| p.wait().bit_hash()).collect();
        let tm = server.shutdown();

        assert_eq!(got, reference, "{dtype:?}: fused batches changed output bits");
        assert_eq!(tm.requests(), 12);
        let flushes: u64 = tm
            .replicas
            .iter()
            .map(|r| r.full_flushes + r.deadline_flushes + r.drain_flushes)
            .sum();
        assert_eq!(flushes, tm.batches(), "flush reasons must partition batches");
        assert_eq!(tm.service().count(), tm.batches());
    }

    #[test]
    fn checkpoint_replicas_serve_source_model_bits() {
        // Reference: the in-memory source model under an eval context.
        let mut source = tiny_deeplab(42);
        let x = inputs(1).remove(0);
        let mut ctx = Ctx::eval();
        let want = source.forward(&x, &mut ctx).bit_hash();

        // v2 as `save` writes it (an empty optimizer section), v2 with a
        // filled section, and a synthesized v1 (no section).
        let plain = tmp("serve_plain.exck");
        save(&full_state(source.as_ref()), &plain).expect("save plain");
        let mut tensors = std::fs::read(&plain).expect("read");
        tensors.truncate(tensors.len() - 8); // drop length prefix + empty OptState
        let with_opt = tmp("serve_opt.exck");
        let mut opt = OptState::default();
        opt.push("sgd.v:probe", vec![1.0, -2.0]);
        let section = opt.to_bytes();
        let len = (section.len() as u32).to_le_bytes();
        std::fs::write(&with_opt, [&tensors[..], &len, &section].concat()).expect("write opt");
        let v1 = tmp("serve_v1.exck");
        tensors[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&v1, &tensors).expect("write v1");

        for path in [&plain, &with_opt, &v1] {
            // Replicas are built from a *different* seed: only a real
            // load can make them agree with the source model.
            let server = InferenceServer::from_checkpoint(
                ServeConfig { replicas: 1, ..ServeConfig::default() },
                path,
                || tiny_deeplab(99),
            )
            .expect("load server");
            let h = server.handle();
            let got = h.infer(x.clone()).bit_hash();
            drop(h);
            server.shutdown();
            assert_eq!(got, want, "checkpoint {path:?} served different bits");
        }
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&with_opt).ok();
        std::fs::remove_file(&v1).ok();
    }

    #[test]
    fn serving_is_deterministic_across_replicas_and_repeats() {
        let server = InferenceServer::launch(
            ServeConfig { replicas: 2, max_batch: 3, ..ServeConfig::default() },
            vec![tiny_deeplab(5), tiny_deeplab(5)],
        );
        let h = server.handle();
        let x = inputs(1).remove(0);
        let first = h.infer(x.clone()).bit_hash();
        for _ in 0..4 {
            assert_eq!(h.infer(x.clone()).bit_hash(), first, "nondeterministic serving");
        }
        drop(h);
        server.shutdown();
    }
}
