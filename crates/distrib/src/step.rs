//! The one synchronous training step, and the replica it runs on.
//!
//! A [`Replica`] is everything one rank needs to train: the model, its
//! parameter handles, the loss, the optimizer, the per-rank random streams
//! and — once [`wire`](Replica::wire)d to a world — the communicator, the
//! comm progress thread and its ready hooks. [`Replica::step`] is the
//! paper's Horovod step (§V-A3, §V-B): ingest → cast → forward → loss →
//! backward with fused buckets all-reduced behind it → optimizer → loss
//! mean → replica-consistency audit. No per-step round agrees on a reduce
//! order: every rank builds the same canonical buckets, so the order is
//! settled before the first step.
//!
//! The two drivers ([`train_data_parallel`](crate::train_data_parallel),
//! [`train_data_parallel_elastic`](crate::train_data_parallel_elastic))
//! differ only in what happens *around* a step — report aggregation;
//! membership rounds and crash recovery — so the step, the state
//! [`Snapshot`] and the per-world wiring live here once.
//!
//! **Determinism.** Fusion buckets are fixed at build time from the
//! canonical tensor order, so bucket membership — and therefore summation
//! order and parameter bits — cannot depend on readiness timing, on
//! whether reduction overlaps backward, or on which thread applies the
//! optimizer. The serial-reduce + main-thread-apply combination
//! (`overlap_comm = false`, `fused_optim = false`) is the reference the
//! determinism suites compare every other combination against.

use crate::fusion::{fuse, FusionBucket};
use crate::overlap::{reduce_bucket, CommEngine, HookClearGuard, ReduceSettings};
use crate::trainer::{BatchSource, OptimizerKind, TrainerConfig};
use exaclim_comm::{CommError, Communicator};
use exaclim_nn::checkpoint;
use exaclim_nn::loss::WeightedCrossEntropy;
use exaclim_nn::optim::{Adam, Lagged, LarcSgd, OptState, Optimizer, Sgd};
use exaclim_nn::{Ctx, Layer, Param, ParamSet};
use exaclim_tensor::init::seeded_rng;
use exaclim_tensor::profile::{self, SpanKind};
use exaclim_tensor::DType;
use std::sync::Arc;
use std::time::Instant;

/// The static loss scale of FP16 training (§V-B1): the loss gradient is
/// multiplied by it so small gradients survive binary16, and the optimizer
/// divides it back out. F32 training runs unscaled.
pub(crate) const F16_LOSS_SCALE: f32 = 128.0;

fn build_optimizer(
    kind: OptimizerKind,
    lag: bool,
    grad_scale: f32,
) -> Box<dyn Optimizer + Send> {
    fn wrap<O: Optimizer + Send + 'static>(opt: O, lag: bool) -> Box<dyn Optimizer + Send> {
        if lag {
            Box::new(Lagged::new(opt))
        } else {
            Box::new(opt)
        }
    }
    match kind {
        OptimizerKind::Sgd { lr, momentum } => {
            let mut o = Sgd::new(lr);
            o.momentum = momentum;
            o.grad_scale = grad_scale;
            wrap(o, lag)
        }
        OptimizerKind::Adam { lr } => {
            let mut o = Adam::new(lr);
            o.grad_scale = grad_scale;
            wrap(o, lag)
        }
        OptimizerKind::Larc { lr, trust } => {
            let mut o = LarcSgd::new(lr, trust);
            o.sgd_mut().grad_scale = grad_scale;
            wrap(o, lag)
        }
    }
}

/// What one completed step measured on this rank.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepStats {
    /// Loss averaged over the world.
    pub mean_loss: f32,
    /// Post-step parameter hash.
    pub hash: u64,
    /// Wall-clock seconds of the whole step.
    pub wall_s: f64,
    /// Logical gradient bytes this rank put on the wire.
    pub wire_bytes: u64,
    /// Seconds the critical path waited on gradient communication (the
    /// whole reduce loop when serial, the join when overlapped).
    pub exposed_comm_s: f64,
    /// Seconds some thread spent packing / all-reducing / scattering.
    pub comm_busy_s: f64,
    /// Seconds the critical path spent in the optimizer (~0 when the
    /// progress thread retired the updates behind backward).
    pub optim_s: f64,
    /// Seconds some thread spent applying optimizer updates.
    pub optim_busy_s: f64,
}

/// What a finished replica hands its driver.
pub(crate) struct Trained {
    pub model: Box<dyn Layer>,
    pub final_hash: u64,
    /// False if any step's audit saw this replica's bits differ from
    /// rank 0's.
    pub hashes_ok: bool,
    /// Fused all-reduce launches per step.
    pub allreduce_launches: usize,
}

/// A replica's complete model state, in memory: what a state broadcast
/// ships and what a survivor-less handoff leaves at the elastic hub.
#[derive(Default)]
pub(crate) struct Snapshot {
    /// The full checkpointable state (not just the trainable set, so
    /// joiners match survivors exactly), flattened in state order.
    pub flat: Vec<f32>,
    /// The optimizer's state as [`OptState::to_bytes`].
    pub opt: Vec<u8>,
}

/// Per-world wiring. Fields drop in declaration order, which is the
/// dependency order: ready hooks feed the engine, the engine's progress
/// thread borrows the communicator, and dropping the communicator is what
/// tells peers this rank is gone.
struct World {
    _hooks: Option<HookClearGuard>,
    engine: Option<CommEngine>,
    /// `None` only while lent to the engine inside a step.
    comm: Option<Communicator>,
    settings: ReduceSettings,
}

/// One rank's training state.
pub(crate) struct Replica {
    world: Option<World>,
    cfg: TrainerConfig,
    model: Box<dyn Layer>,
    /// Full checkpointable state (superset of the trainable set) — what a
    /// [`Snapshot`] carries.
    state: ParamSet,
    params: ParamSet,
    /// Tensor-id-indexed handles.
    params_vec: Vec<Param>,
    buckets: Vec<FusionBucket>,
    loss_fn: WeightedCrossEntropy,
    /// `None` only while lent to the engine inside a step.
    optimizer: Option<Box<dyn Optimizer + Send>>,
    ctx: Ctx,
    hashes_ok: bool,
}

impl Replica {
    /// Builds an identically-initialized replica ("assuming consistent
    /// initialization", §V-A3). `stream_id` keys the dropout stream: the
    /// rank's *original* id, so a survivor keeps its stream across
    /// generations. Dropout decorrelates across ranks; model init does not.
    pub(crate) fn build<MB>(cfg: &TrainerConfig, stream_id: usize, model_builder: &MB) -> Replica
    where
        MB: Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer>,
    {
        let model = model_builder(&mut seeded_rng(cfg.seed));
        let state = checkpoint::full_state(model.as_ref());
        let params = model.params();
        let params_vec: Vec<Param> = params.iter().cloned().collect();
        let sizes: Vec<usize> = params_vec.iter().map(|p| p.numel()).collect();
        let canonical: Vec<u32> = (0..sizes.len() as u32).collect();
        let scale = match cfg.precision {
            DType::F16 => F16_LOSS_SCALE,
            DType::F32 => 1.0,
        };
        Replica {
            world: None,
            buckets: fuse(&canonical, &sizes, cfg.fusion_threshold_bytes),
            loss_fn: WeightedCrossEntropy::with_scale(scale),
            optimizer: Some(build_optimizer(cfg.optimizer, cfg.gradient_lag, scale)),
            ctx: Ctx::train(cfg.seed ^ (stream_id as u64 + 1) << 17),
            hashes_ok: true,
            cfg: cfg.clone(),
            model,
            state,
            params,
            params_vec,
        }
    }

    /// This replica's state and optimizer state.
    pub(crate) fn snapshot(&self) -> Snapshot {
        let mut flat = Vec::with_capacity(self.state.iter().map(|p| p.numel()).sum());
        for p in self.state.iter() {
            flat.extend_from_slice(p.value().as_slice());
        }
        Snapshot { flat, opt: self.optimizer().export_state().to_bytes() }
    }

    /// Overwrites this replica's state and optimizer state with `snap`'s,
    /// so the exact momentum/moment trajectory continues. `snap` may come
    /// from a peer: one of another size, optimizer bytes that do not
    /// decode, or optimizer entries naming parameters this model lacks are
    /// an `Err`, not a panic.
    pub(crate) fn adopt(&mut self, snap: &Snapshot) -> Result<(), String> {
        let total: usize = self.state.iter().map(|p| p.numel()).sum();
        if snap.flat.len() != total {
            return Err(format!("state holds {} values but the model has {total}", snap.flat.len()));
        }
        let opt_state = OptState::from_bytes(&snap.opt)?;
        let mut off = 0;
        for p in self.state.iter() {
            let n = p.numel();
            let src = &snap.flat[off..off + n];
            p.apply_update(|v, _| v.copy_from_slice(src));
            off += n;
        }
        let o = self.optimizer.as_mut().expect("optimizer on rank thread");
        o.import_state(&opt_state, &self.params)
    }

    /// Wires the replica to `comm`'s world, replacing any previous wiring.
    /// A world that no longer tiles into full nodes falls back to a flat
    /// topology.
    pub(crate) fn wire(&mut self, comm: Communicator) {
        self.unwire();
        let (idx, world_size) = (comm.rank(), comm.size());
        let node_size =
            if world_size.is_multiple_of(self.cfg.node_size) { self.cfg.node_size } else { 1 };
        let settings = ReduceSettings {
            ranks: world_size,
            node_size,
            shard_leaders: self.cfg.shard_leaders.min(node_size),
        };
        let engine = self.cfg.overlap_comm.then(|| {
            CommEngine::new(idx, self.params_vec.clone(), self.buckets.clone(), settings.clone())
        });
        let hooks = engine.as_ref().map(|e| {
            for (i, p) in self.params_vec.iter().enumerate() {
                let t = e.tracker().clone();
                p.set_ready_hook(Arc::new(move || t.notify(i)));
            }
            HookClearGuard(self.params_vec.clone())
        });
        self.world = Some(World { _hooks: hooks, engine, comm: Some(comm), settings });
    }

    /// Drops the per-world machinery (see [`World`] for the order).
    /// [`wire`](Replica::wire) does this itself; the only outside caller is
    /// the elastic driver, which must drop the old communicator *before*
    /// the rendezvous that builds the next one so peers see this rank
    /// leave the old world.
    pub(crate) fn unwire(&mut self) {
        self.world = None;
    }

    /// One synchronous training step against the wired world.
    ///
    /// `lend_optimizer` is fixed by the driver's recovery story, not by
    /// configuration: with overlap and the fused plane on, a lent
    /// optimizer is applied bucket by bucket on the progress thread, so a
    /// step that fails mid-flight may leave ranks with *different* buckets
    /// applied. A driver for which a failed step ends the run (the plain
    /// trainer) may lend; one that retries from live parameters (elastic)
    /// must not.
    pub(crate) fn step(
        &mut self,
        step: usize,
        source: &mut dyn BatchSource,
        lend_optimizer: bool,
    ) -> Result<StepStats, CommError> {
        let World { engine, comm, settings, .. } =
            self.world.as_mut().expect("replica is wired to a world");
        let rank = comm.as_ref().expect("communicator on rank thread").rank();
        let t0 = Instant::now();
        let batch = source.next_batch();
        let ingest_wait = t0.elapsed();
        profile::record_span(rank, step, SpanKind::Ingest, t0, ingest_wait.as_secs_f64());
        let input = if batch.input.dtype() == self.cfg.precision {
            batch.input
        } else {
            batch.input.cast(self.cfg.precision)
        };

        let worker_applies = engine.is_some() && lend_optimizer && self.cfg.fused_optim;
        if let Some(engine) = engine.as_mut() {
            // Armed before forward so the progress thread can start the
            // moment the first bucket is ready.
            engine.tracker().reset();
            // A lent optimizer has its step begun here (state bound,
            // per-step scalars advanced — grads untouched); the worker
            // only ever calls `apply`.
            let lent = worker_applies.then(|| {
                let mut o = self.optimizer.take().expect("optimizer on rank thread");
                o.begin_step(&self.params);
                o
            });
            engine.begin_step(comm.take().expect("communicator on rank thread"), step, lent);
        }

        let tf = Instant::now();
        let logits = self.model.forward(&input, &mut self.ctx);
        profile::record_span(rank, step, SpanKind::Forward, tf, tf.elapsed().as_secs_f64());
        profile::set_phase(profile::Phase::Backward);
        let tb = Instant::now();
        let out = self.loss_fn.forward(&logits, &batch.labels, &batch.weights);
        // With the engine armed, ready hooks fire as layer backward paths
        // finish and the progress thread reduces buckets concurrently.
        self.model.backward(&out.grad_logits);
        profile::record_span(rank, step, SpanKind::Backward, tb, tb.elapsed().as_secs_f64());
        profile::set_phase(profile::Phase::Forward);

        let (wire_bytes, exposed_comm_s, comm_busy_s, mut optim_busy_s);
        if let Some(engine) = engine.as_mut() {
            // Join the progress thread; time blocked here is the step's
            // exposed communication (plus whatever bucket applies
            // outlasted backward). A peer death comes back as the worker's
            // typed error — never a hang.
            let te = Instant::now();
            let done = engine.finish_step();
            exposed_comm_s = te.elapsed().as_secs_f64();
            profile::record_span(rank, step, SpanKind::CommExposed, te, exposed_comm_s);
            *comm = Some(done.comm);
            if let Some(o) = done.opt {
                self.optimizer = Some(o);
            }
            if done.result.is_ok() && worker_applies {
                assert_eq!(
                    done.applied_buckets,
                    self.buckets.len(),
                    "fused step must retire every bucket on the worker"
                );
            }
            done.result?;
            (wire_bytes, comm_busy_s, optim_busy_s) =
                (done.wire_bytes, done.busy_s, done.optim_busy_s);
        } else {
            let c = comm.as_mut().expect("communicator on rank thread");
            // Fused gradient all-reduces, serial on the critical path.
            let te = Instant::now();
            let mut wire = 0u64;
            for bucket in &self.buckets {
                wire += reduce_bucket(&self.params_vec, bucket, c, settings, rank, step)?;
            }
            exposed_comm_s = te.elapsed().as_secs_f64();
            profile::record_span(rank, step, SpanKind::CommExposed, te, exposed_comm_s);
            (wire_bytes, comm_busy_s, optim_busy_s) = (wire, exposed_comm_s, 0.0);
        }

        let topt = Instant::now();
        if !worker_applies {
            let o = self.optimizer.as_mut().expect("optimizer on rank thread");
            if self.cfg.fused_optim {
                // Spread the independent per-parameter updates over the
                // kernel thread pool.
                o.par_step(&self.params);
            } else {
                o.step(&self.params);
            }
            let dur = topt.elapsed().as_secs_f64();
            profile::record_span(rank, step, SpanKind::Optimizer, topt, dur);
            optim_busy_s += dur;
        }
        let optim_s = topt.elapsed().as_secs_f64();

        // Cross-rank loss mean (a tiny collective, as in real logging).
        let c = comm.as_mut().expect("communicator on rank thread");
        let mut lbuf = vec![out.loss];
        c.try_allreduce_tree(&mut lbuf)?;
        let mean_loss = lbuf[0] / settings.ranks as f32;

        // Replica-consistency audit: all ranks must agree bit-for-bit.
        // The hash travels as four 16-bit limbs, each exact in f32.
        let hash = self.params.state_hash();
        let mut hbuf: Vec<f32> = (0..4).map(|i| ((hash >> (16 * i)) & 0xffff) as f32).collect();
        let mine = hbuf.clone();
        c.try_broadcast(0, &mut hbuf)?;
        if hbuf != mine {
            self.hashes_ok = false;
        }
        source.on_step_timing(ingest_wait, t0.elapsed());
        Ok(StepStats {
            mean_loss,
            hash,
            wall_s: t0.elapsed().as_secs_f64(),
            wire_bytes,
            exposed_comm_s,
            comm_busy_s,
            optim_s,
            optim_busy_s,
        })
    }

    pub(crate) fn set_lr(&mut self, lr: f32) {
        self.optimizer.as_mut().expect("optimizer on rank thread").set_lr(lr);
    }

    /// Clears the partial gradients a failed step leaves behind, so the
    /// step can be retried from the live parameters.
    pub(crate) fn zero_grads(&self) {
        self.params.zero_grads();
    }

    /// Unwires and hands back the trained model with its audit.
    pub(crate) fn finish(self) -> Trained {
        Trained {
            final_hash: self.params.state_hash(),
            hashes_ok: self.hashes_ok,
            allreduce_launches: self.buckets.len(),
            model: self.model,
        }
    }

    fn optimizer(&self) -> &(dyn Optimizer + Send) {
        self.optimizer.as_deref().expect("optimizer on rank thread")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::test_support::{toy_config, toy_model, toy_source};
    use exaclim_comm::CommWorld;
    use std::time::Duration;

    #[test]
    fn snapshot_adopted_by_a_fresh_replica_reproduces_state_and_optimizer() {
        // Two steps leave non-zero momentum; a replica built for another
        // stream adopts the snapshot.
        let cfg = toy_config(1, 2);
        let mut trained = Replica::build(&cfg, 0, &toy_model);
        trained.wire(CommWorld::new(1).pop().unwrap());
        let mut source = toy_source(0);
        for step in 0..2 {
            trained.step(step, &mut source, false).expect("step");
        }
        let opt_bytes = |r: &Replica| r.optimizer().export_state().to_bytes();
        let mut fresh = Replica::build(&cfg, 1, &toy_model);
        assert_ne!(fresh.state.state_hash(), trained.state.state_hash());
        assert_ne!(opt_bytes(&fresh), opt_bytes(&trained));
        fresh.adopt(&trained.snapshot()).expect("adopt");
        assert_eq!(fresh.state.state_hash(), trained.state.state_hash());
        assert_eq!(opt_bytes(&fresh), opt_bytes(&trained));
    }

    #[test]
    fn adopt_reports_a_malformed_snapshot_as_an_error() {
        let cfg = toy_config(1, 1);
        let good = Replica::build(&cfg, 0, &toy_model).snapshot();
        let mut replica = Replica::build(&cfg, 1, &toy_model);
        assert_eq!(replica.adopt(&good), Ok(()));

        // Optimizer bytes truncated in flight. (A well-formed state for
        // some other model fails in the optimizer's import; `elastic::tests`
        // drives that one end to end, by broadcast and by handoff.)
        let truncated = Snapshot { flat: good.flat.clone(), opt: good.opt[..good.opt.len() - 1].to_vec() };
        let e = replica.adopt(&truncated).expect_err("truncated optimizer state");
        assert!(e.contains("truncated"), "{e}");
        // A state of another size.
        let short = Snapshot { flat: good.flat[1..].to_vec(), opt: good.opt.clone() };
        let e = replica.adopt(&short).expect_err("short state");
        assert!(e.contains("values but the model has"), "{e}");
    }

    #[test]
    fn dead_peer_fails_the_next_step_with_a_typed_error_not_a_hang() {
        // Rank 1 completes step 0, then its communicator drops. Rank 0's
        // step 1 must fail with a typed error naming rank 1 long before the
        // receive deadline, whether the reduction runs inline or on the
        // progress thread and whether that thread holds the lent optimizer.
        // Its first contact with rank 1 is the gradient all-reduce: a send
        // fails if the drop has already been observed, a receive sees the
        // dead peer otherwise. A `Timeout` would mean the death went
        // unnoticed until the deadline.
        for overlap in [false, true] {
            for lend in [false, true] {
                let mut cfg = toy_config(2, 2);
                cfg.overlap_comm = overlap;
                let mut comms = CommWorld::with_deadline(2, Duration::from_secs(2));
                let (c1, c0) = (comms.pop().unwrap(), comms.pop().unwrap());
                let mut r0 = Replica::build(&cfg, 0, &toy_model);
                let mut r1 = Replica::build(&cfg, 1, &toy_model);
                r0.wire(c0);
                r1.wire(c1);
                let (mut s0, mut s1) = (toy_source(0), toy_source(1));
                let (first, second, waited) = std::thread::scope(|scope| {
                    scope.spawn(move || {
                        r1.step(0, &mut s1, lend).expect("rank 1 step 0");
                        drop(r1);
                    });
                    let first = r0.step(0, &mut s0, lend).map(drop);
                    let t0 = std::time::Instant::now();
                    let second = r0.step(1, &mut s0, lend).map(drop);
                    (first, second, t0.elapsed())
                });
                let case = format!("overlap={overlap} lend={lend}");
                assert_eq!(first, Ok(()), "{case}: step 0");
                assert!(
                    matches!(
                        second,
                        Err(CommError::SendFailed { rank: 0, dst: 1 } | CommError::PeerDead { rank: 0, src: 1 })
                    ),
                    "{case}: step 1 gave {second:?}"
                );
                assert!(waited < Duration::from_secs(1), "{case}: took {waited:?}");
            }
        }
    }
}
