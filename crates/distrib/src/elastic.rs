//! Elastic data-parallel training: ranks join and leave at step
//! boundaries without a full restart, and a crash costs no completed step.
//!
//! Restarting the world from a checkpoint on every membership change would
//! throw away the steps since the last snapshot on every node failure — at
//! the paper's scale (4560 Summit nodes) a steady loss — and could not
//! *grow* the world at all. This module keeps training running across
//! membership changes instead:
//!
//! * **Generation-numbered views.** The world is described by a
//!   `WorldView` — a strictly increasing generation number plus the
//!   sorted member ids. Every collective runs against exactly one view;
//!   views change only *between* steps.
//! * **Boundary membership protocol.** At every step boundary each member
//!   reports status (including a graceful-leave intent) to the view's
//!   leader (its lowest member id). The leader merges leavers with the
//!   join lobby and either declares *no change* or runs a
//!   propose → ack → commit handshake for the next view. Committed
//!   transitions re-assemble the communicator through the generation-keyed
//!   [`Rendezvous`], so a collective can never straddle two worlds.
//! * **State follows the view.** On every transition the learning rate is
//!   rescaled linearly with the world size (the paper's Figure-6 rule),
//!   the replica is re-wired to the new world (topology, overlap engine,
//!   ready hooks), and joiners receive the parameters *and optimizer
//!   state* by broadcast from a live survivor — a checkpoint is touched
//!   only in the survivor-less handoff case. Batch sources keep their
//!   shard: a rank's shard is a function of `(seed, rank)`, not of the
//!   world it is in.
//! * **Crash recovery without restart.** A member that vanishes surfaces
//!   as a typed [`CommError`] on the survivors, who meet in a keyed
//!   recovery round, agree on the surviving set, and continue in a fresh
//!   generation from the *live* model — zero completed steps are lost or
//!   replayed.
//! * **Typed protocol faults.** A membership message that does not decode
//!   or arrives out of protocol ends the member that received it as
//!   [`CommError::MalformedPayload`] in
//!   [`ElasticReport::ranks_failed`]; its peers recover as from a crash.
//!
//! Members run the same `Replica::step` as the plain driver; this module
//! owns only what is elastic — the hub, the membership rounds,
//! `enter`/`recover` and the LR rescale.
//!
//! Fault schedules come from [`FaultPlan`] (`with_leave_at_step` /
//! `with_join_at_step` plus crashes), so any churn scenario — flapping
//! ranks, join-during-leave cascades, full founder turnover — replays
//! bit-identically.

use crate::control::{MemberMsg, ViewMsg, TAG_MS_CTRL, TAG_MS_UP};
use crate::step::{Replica, Trained};
use crate::trainer::{BatchSource, OptimizerKind, StepRecord, TrainerConfig};
use exaclim_comm::{CommError, CommWorld, Communicator, Rendezvous};
use exaclim_faults::FaultPlan;
use exaclim_nn::optim::scale_lr_for_batch;
use exaclim_nn::Layer;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A training world: who is in it, under which generation number.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorldView {
    /// Strictly increasing across transitions; 0 is the founding world.
    pub generation: u64,
    /// Sorted original member ids.
    pub members: Vec<usize>,
}

/// One committed membership transition (or the founding world).
#[derive(Debug, Clone)]
pub struct GenerationRecord {
    /// The generation that began here.
    pub generation: u64,
    /// Its members (sorted original ids).
    pub members: Vec<usize>,
    /// First step the generation executes.
    pub begin_step: usize,
    /// Human-readable reason ("initial world", "1 leave / 1 join",
    /// "crash recovery …").
    pub cause: String,
    /// Learning rate after the linear world-size rescale.
    pub lr: f32,
    /// Wall-clock seconds the transition took (0 for the founding world).
    pub transition_wall_s: f64,
}

/// The leader saves an auto-checkpoint after every this-many completed
/// steps. It is kept as the fallback artifact: elastic transitions
/// themselves do not read it unless a handoff leaves no survivor.
const CHECKPOINT_EVERY: usize = 2;

/// Elastic-training knobs wrapped around a [`TrainerConfig`].
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The underlying training configuration. `ranks` is the *founding*
    /// world size; membership changes from there.
    pub base: TrainerConfig,
    /// Directory for `step-*.exck` auto-checkpoints and
    /// `handoff-gen*.exck` survivor-less handoffs.
    pub checkpoint_dir: PathBuf,
    /// Per-receive deadline; also bounds each rendezvous wait.
    pub recv_deadline: Duration,
}

impl ElasticConfig {
    /// Sensible defaults: a 5-second deadline.
    pub fn new(base: TrainerConfig, checkpoint_dir: impl Into<PathBuf>) -> ElasticConfig {
        ElasticConfig {
            base,
            checkpoint_dir: checkpoint_dir.into(),
            recv_deadline: Duration::from_secs(5),
        }
    }
}

/// Result of an elastic run.
#[derive(Debug)]
pub struct ElasticReport {
    /// Per-step aggregates over all `base.steps` global steps.
    pub steps: Vec<StepRecord>,
    /// Final parameter hash per finishing member, in member-id order.
    pub final_hashes: Vec<u64>,
    /// True when every finishing replica ended bitwise identical and
    /// every per-step audit agreed.
    pub consistent: bool,
    /// The founding world plus every committed transition, in order.
    pub generations: Vec<GenerationRecord>,
    /// Ids admitted from the lobby, in admission order.
    pub ranks_joined: Vec<usize>,
    /// Ids that left gracefully, in departure order.
    pub ranks_left: Vec<usize>,
    /// Ids lost to crashes, in recovery order.
    pub ranks_lost: Vec<usize>,
    /// Step attempts abandoned mid-flight and re-run (0 when failures
    /// strike only at boundaries — boundary recovery loses nothing).
    pub steps_retried: usize,
    /// Live param + optimizer broadcasts to joiners.
    pub param_broadcasts: usize,
    /// Transitions that had to fall back to a handoff checkpoint because
    /// no survivor remained to broadcast from.
    pub checkpoint_fallbacks: usize,
    /// Periodic auto-checkpoints written.
    pub checkpoints_saved: usize,
    /// Scheduled joiners the run ended without ever admitting.
    pub never_admitted: Vec<usize>,
    /// Members that stopped on an error no smaller world can cure — a
    /// state broadcast that did not decode, or a membership message that
    /// did not decode or broke the protocol
    /// ([`CommError::MalformedPayload`]) — with the error, in member-id
    /// order. Their peers recover as from a crash, so each id is also in
    /// `ranks_lost`.
    pub ranks_failed: Vec<(usize, CommError)>,
    /// Non-finite loss detected.
    pub diverged: bool,
}

// ---------------------------------------------------------------------------
// The hub: shared membership state (stands in for a job scheduler).
// ---------------------------------------------------------------------------

/// What an admitted joiner needs to enter the world.
#[derive(Clone)]
struct Admission {
    view: WorldView,
    start_step: usize,
    /// Survivor to receive the live broadcast from; `None` means load the
    /// handoff checkpoint instead.
    root: Option<usize>,
    handoff: Option<PathBuf>,
}

#[derive(Default)]
struct Counters {
    retried: usize,
    param_broadcasts: usize,
    checkpoint_fallbacks: usize,
    checkpoints_saved: usize,
}

/// A keyed crash-recovery round: survivors of one failed generation meet
/// here, agree on who is left, and move to a fresh generation together.
struct Recovery {
    new_generation: u64,
    checked: BTreeSet<usize>,
    synced: BTreeSet<usize>,
    /// `(members, broadcast_root, any_unsynced)` once finalized.
    committed: Option<(Vec<usize>, Option<usize>, bool)>,
}

struct HubState {
    alive: BTreeSet<usize>,
    /// Waiting joiners: id → earliest admissible step.
    lobby: BTreeMap<usize, usize>,
    admissions: BTreeMap<usize, Admission>,
    next_generation: u64,
    recoveries: BTreeMap<u64, Recovery>,
    history: Vec<GenerationRecord>,
    ranks_joined: Vec<usize>,
    ranks_left: Vec<usize>,
    ranks_lost: Vec<usize>,
    counters: Counters,
    step_records: Vec<Option<StepRecord>>,
    closed: bool,
}

/// Shared membership authority — the piece a cluster scheduler plays in a
/// real deployment. Everything in it is bookkeeping; the data plane stays
/// on the per-generation communicators.
struct ElasticHub {
    state: Mutex<HubState>,
    cv: Condvar,
    base_lr: f32,
    initial_ranks: usize,
}

/// Membership lease: dropping it (graceful return *or* thread death)
/// deregisters the member and wakes anyone waiting on liveness.
struct HubGuard {
    hub: Arc<ElasticHub>,
    me: usize,
}

impl Drop for HubGuard {
    fn drop(&mut self) {
        let mut s = self.hub.state.lock().unwrap();
        s.alive.remove(&self.me);
        self.hub.cv.notify_all();
    }
}

fn kind_lr(kind: OptimizerKind) -> f32 {
    match kind {
        OptimizerKind::Sgd { lr, .. } => lr,
        OptimizerKind::Adam { lr } => lr,
        OptimizerKind::Larc { lr, .. } => lr,
    }
}

impl ElasticHub {
    fn new(cfg: &ElasticConfig, faults: &FaultPlan) -> ElasticHub {
        let mut lobby: BTreeMap<usize, usize> = BTreeMap::new();
        for j in &faults.joins {
            let e = lobby.entry(j.node).or_insert(j.at_step);
            *e = (*e).min(j.at_step);
        }
        let base_lr = kind_lr(cfg.base.optimizer);
        let state = HubState {
            alive: (0..cfg.base.ranks).collect(),
            lobby,
            admissions: BTreeMap::new(),
            next_generation: 1,
            recoveries: BTreeMap::new(),
            history: vec![GenerationRecord {
                generation: 0,
                members: (0..cfg.base.ranks).collect(),
                begin_step: 0,
                cause: "initial world".into(),
                lr: scale_lr_for_batch(base_lr, cfg.base.ranks, cfg.base.ranks),
                transition_wall_s: 0.0,
            }],
            ranks_joined: Vec::new(),
            ranks_left: Vec::new(),
            ranks_lost: Vec::new(),
            counters: Counters::default(),
            step_records: vec![None; cfg.base.steps],
            closed: false,
        };
        ElasticHub {
            state: Mutex::new(state),
            cv: Condvar::new(),
            base_lr,
            initial_ranks: cfg.base.ranks,
        }
    }

    fn lr_for(&self, world: usize) -> f32 {
        scale_lr_for_batch(self.base_lr, self.initial_ranks, world)
    }

    /// Adopts a founding member's pre-registered liveness slot.
    fn adopt(self: &Arc<Self>, me: usize) -> HubGuard {
        debug_assert!(self.state.lock().unwrap().alive.contains(&me));
        HubGuard { hub: self.clone(), me }
    }

    /// Registers a joiner as alive, waiting out any still-held lease for
    /// the same id (a flapping rank's departing thread may not have
    /// dropped its guard yet when the rejoining thread is admitted).
    fn register(self: &Arc<Self>, me: usize) -> HubGuard {
        let mut s = self.state.lock().unwrap();
        while s.alive.contains(&me) {
            s = self.cv.wait(s).unwrap();
        }
        s.alive.insert(me);
        drop(s);
        HubGuard { hub: self.clone(), me }
    }

    fn alloc_generation(&self) -> u64 {
        let mut s = self.state.lock().unwrap();
        let g = s.next_generation;
        s.next_generation += 1;
        g
    }

    /// Lobby entries admissible at `step` that are not current members.
    fn pending_joins(&self, step: usize, members: &[usize]) -> Vec<usize> {
        let s = self.state.lock().unwrap();
        s.lobby
            .iter()
            .filter(|(node, &at)| at <= step && !members.contains(node))
            .map(|(&node, _)| node)
            .collect()
    }

    /// Books a committed transition: removes admitted joiners from the
    /// lobby, grants their admissions, and logs the generation.
    #[allow(clippy::too_many_arguments)]
    fn commit_transition(
        &self,
        new_gen: u64,
        old_members: &[usize],
        new_members: &[usize],
        begin_step: usize,
        cause: &str,
        handoff: Option<PathBuf>,
        wall_s: f64,
    ) {
        let mut s = self.state.lock().unwrap();
        let joiners: Vec<usize> =
            new_members.iter().copied().filter(|m| !old_members.contains(m)).collect();
        let leavers: Vec<usize> =
            old_members.iter().copied().filter(|m| !new_members.contains(m)).collect();
        let survivors: Vec<usize> =
            old_members.iter().copied().filter(|m| new_members.contains(m)).collect();
        for j in &joiners {
            s.lobby.remove(j);
        }
        if !joiners.is_empty() {
            if survivors.is_empty() {
                s.counters.checkpoint_fallbacks += 1;
            } else {
                s.counters.param_broadcasts += 1;
            }
        }
        let root = survivors.first().copied();
        for j in &joiners {
            s.admissions.insert(
                *j,
                Admission {
                    view: WorldView { generation: new_gen, members: new_members.to_vec() },
                    start_step: begin_step,
                    root,
                    handoff: handoff.clone(),
                },
            );
        }
        s.ranks_joined.extend(joiners);
        s.ranks_left.extend(leavers);
        let lr = self.lr_for(new_members.len());
        s.history.push(GenerationRecord {
            generation: new_gen,
            members: new_members.to_vec(),
            begin_step,
            cause: cause.to_string(),
            lr,
            transition_wall_s: wall_s,
        });
        self.cv.notify_all();
    }

    /// Meets the other survivors of `failed_gen`, waits until every old
    /// member has either checked in or provably died, and returns the
    /// recovery view plus its sync plan: `(view, broadcast_root,
    /// any_unsynced)`.
    fn recover(
        &self,
        failed_gen: u64,
        old_members: &[usize],
        me: usize,
        step: usize,
        synced: bool,
    ) -> (WorldView, Option<usize>, bool) {
        let t0 = Instant::now();
        let mut s = self.state.lock().unwrap();
        if !s.recoveries.contains_key(&failed_gen) {
            let g = s.next_generation;
            s.next_generation += 1;
            s.recoveries.insert(
                failed_gen,
                Recovery {
                    new_generation: g,
                    checked: BTreeSet::new(),
                    synced: BTreeSet::new(),
                    committed: None,
                },
            );
        }
        {
            let r = s.recoveries.get_mut(&failed_gen).unwrap();
            r.checked.insert(me);
            if synced {
                r.synced.insert(me);
            }
        }
        self.cv.notify_all();
        loop {
            let ready = {
                let r = s.recoveries.get(&failed_gen).unwrap();
                old_members.iter().all(|m| r.checked.contains(m) || !s.alive.contains(m))
            };
            if ready {
                break;
            }
            s = self.cv.wait(s).unwrap();
        }
        let needs_finalize = s.recoveries.get(&failed_gen).unwrap().committed.is_none();
        if needs_finalize {
            let (survivors, dead, root, any_unsynced, new_gen) = {
                let r = s.recoveries.get(&failed_gen).unwrap();
                let survivors: Vec<usize> = r.checked.iter().copied().collect();
                let dead: Vec<usize> =
                    old_members.iter().copied().filter(|m| !r.checked.contains(m)).collect();
                let root = r.synced.iter().copied().min();
                let any_unsynced = survivors.iter().any(|m| !r.synced.contains(m));
                (survivors, dead, root, any_unsynced, r.new_generation)
            };
            s.ranks_lost.extend(dead.iter().copied());
            let lr = self.lr_for(survivors.len());
            s.history.push(GenerationRecord {
                generation: new_gen,
                members: survivors.clone(),
                begin_step: step,
                cause: format!("crash recovery (lost {dead:?})"),
                lr,
                transition_wall_s: t0.elapsed().as_secs_f64(),
            });
            if any_unsynced && root.is_some() {
                s.counters.param_broadcasts += 1;
            }
            s.recoveries.get_mut(&failed_gen).unwrap().committed =
                Some((survivors, root, any_unsynced));
            self.cv.notify_all();
        }
        let r = s.recoveries.get(&failed_gen).unwrap();
        let (members, root, any_unsynced) = r.committed.clone().expect("recovery finalized");
        (WorldView { generation: r.new_generation, members }, root, any_unsynced)
    }

    /// Blocks until `me` is admitted or the run closes. `None` means the
    /// run finished without ever needing this joiner.
    fn wait_admission(&self, me: usize) -> Option<Admission> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(a) = s.admissions.remove(&me) {
                return Some(a);
            }
            if s.closed {
                return None;
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    fn record_step(&self, step: usize, mean_loss: f32, wall_time_s: f64) {
        let mut s = self.state.lock().unwrap();
        s.step_records[step] = Some(StepRecord { step, mean_loss, wall_time_s });
    }

    fn note_retry(&self) {
        self.state.lock().unwrap().counters.retried += 1;
    }

    fn note_checkpoint(&self) {
        self.state.lock().unwrap().counters.checkpoints_saved += 1;
    }

    fn close(&self) {
        let mut s = self.state.lock().unwrap();
        s.closed = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Member state machine.
// ---------------------------------------------------------------------------

/// How one member thread's participation ended.
enum MemberOutcome {
    Finished { me: usize, done: Trained },
    Left { me: usize },
    Crashed { me: usize },
    NeverAdmitted { me: usize },
    Failed { me: usize, error: CommError },
}

/// Outcome of one membership round at a step boundary.
enum Round {
    /// Membership unchanged — run the step.
    Proceed,
    /// This member departs gracefully.
    Left,
    /// A new view was committed; enter it and re-run the round.
    Transition { view: WorldView, sync: SyncPlan },
    /// The round was aborted by the leader — run recovery.
    Recover,
}

/// How a freshly assembled world synchronizes model state.
#[derive(Clone)]
enum SyncPlan {
    /// Everybody already holds the live state.
    None,
    /// Broadcast params + optimizer state from this member id; unsynced
    /// members import, synced members just relay.
    Broadcast { root: usize },
    /// No survivor: every unsynced member loads its handoff checkpoint.
    Handoff,
}

struct Member<B: BatchSource> {
    me: usize,
    hub: Arc<ElasticHub>,
    rv: Arc<Rendezvous>,
    cfg: ElasticConfig,
    faults: FaultPlan,
    /// Streams are keyed by the member's id, so they stay stable across
    /// generations.
    replica: Replica,
    source: B,
    view: WorldView,
    synced: bool,
    handoff: Option<PathBuf>,
    /// Step this incarnation entered the world (−1 for founders). A
    /// scheduled leave fires only if it post-dates the entry — a member
    /// that leaves and rejoins at one boundary must not leave again.
    joined_at: i64,
    _guard: HubGuard,
}

impl<B: BatchSource> Member<B> {
    fn is_leader(&self) -> bool {
        self.view.members.first() == Some(&self.me)
    }

    /// Per-generation wiring: the replica joins `comm`'s world and the
    /// learning rate follows the world size.
    fn configure(&mut self, comm: Communicator) {
        self.replica.wire(comm);
        self.replica.set_lr(self.hub.lr_for(self.view.members.len()));
        if self.is_leader() {
            self.rv.forget_before(self.view.generation);
        }
    }

    /// Enters a committed view: rendezvous the new communicator, run the
    /// sync plan, rewire. On error the member's view is already the new
    /// generation, so recovery is keyed correctly.
    fn enter(&mut self, view: WorldView, sync: SyncPlan) -> Result<(), CommError> {
        self.replica.unwire();
        self.view = view;
        let mut comm = self.rv.join(
            self.view.generation,
            &self.view.members,
            self.me,
            self.cfg.recv_deadline,
        )?;
        match sync {
            SyncPlan::None => {}
            SyncPlan::Broadcast { root } => {
                let root_idx = self
                    .view
                    .members
                    .iter()
                    .position(|&m| m == root)
                    .expect("broadcast root is a member of the new view");
                self.replica.sync_from(&mut comm, root_idx, !self.synced)?;
                self.synced = true;
            }
            SyncPlan::Handoff => {
                if !self.synced {
                    let path = self
                        .handoff
                        .as_deref()
                        .expect("survivor-less admission carries a handoff checkpoint");
                    self.replica
                        .restore(path)
                        .unwrap_or_else(|e| panic!("member {}: load handoff: {e}", self.me));
                    self.synced = true;
                }
            }
        }
        self.configure(comm);
        Ok(())
    }

    /// [`enter`](Member::enter), recovering from a peer failure.
    fn enter_or_recover(
        &mut self,
        view: WorldView,
        sync: SyncPlan,
        step: usize,
    ) -> Result<(), CommError> {
        match self.enter(view, sync) {
            Err(e) if !incurable(&e) => self.recover(step),
            done => done,
        }
    }

    /// Keeps recovering until a world assembles. Each attempt is keyed by
    /// the generation that just failed, so repeated failures (e.g. a rank
    /// crashing during the recovery rendezvous) chain cleanly. `Err` only
    /// for an [`incurable`] error: this member must stop.
    fn recover(&mut self, step: usize) -> Result<(), CommError> {
        loop {
            self.replica.unwire();
            let (view, root, any_unsynced) = self.hub.recover(
                self.view.generation,
                &self.view.members.clone(),
                self.me,
                step,
                self.synced,
            );
            let sync = if !any_unsynced {
                SyncPlan::None
            } else {
                match root {
                    Some(r) => SyncPlan::Broadcast { root: r },
                    None => SyncPlan::Handoff,
                }
            };
            match self.enter(view, sync) {
                Err(e) if !incurable(&e) => {}
                done => return done,
            }
        }
    }

    /// One membership round of the boundary before `step`.
    ///
    /// (`i` below is simultaneously the comm rank to message and the index
    /// into `members` — an enumerate would obscure that, hence the allow.)
    #[allow(clippy::needless_range_loop)]
    fn boundary_round(&mut self, step: usize) -> Result<Round, CommError> {
        let wants_leave =
            self.faults.leave_step(self.me) == Some(step) && step as i64 > self.joined_at;
        let members = self.view.members.clone();
        let n = members.len();
        if self.is_leader() {
            let t0 = Instant::now();
            let mut leavers: Vec<usize> = Vec::new();
            if wants_leave {
                leavers.push(self.me);
            }
            for i in 1..n {
                let status = self.gather(i, "Status", |m| matches!(m, MemberMsg::Status { .. }))?;
                if status == (MemberMsg::Status { wants_leave: true }) {
                    leavers.push(members[i]);
                }
            }
            let joiners = self.hub.pending_joins(step, &members);
            if leavers.is_empty() && joiners.is_empty() {
                self.announce(&ViewMsg::NoChange)?;
                return Ok(Round::Proceed);
            }
            let mut new_members: Vec<usize> = members
                .iter()
                .copied()
                .filter(|m| !leavers.contains(m))
                .chain(joiners.iter().copied())
                .collect();
            new_members.sort_unstable();
            assert!(
                !new_members.is_empty(),
                "every member left at step {step} and nobody joined — the model has no home"
            );
            let new_gen = self.hub.alloc_generation();
            let survivors: Vec<usize> =
                members.iter().copied().filter(|m| new_members.contains(m)).collect();
            // Survivor-less transition: persist the live state (params
            // *and* optimizer) before the old world evaporates.
            let handoff = if survivors.is_empty() {
                let path = self.cfg.checkpoint_dir.join(format!("handoff-gen{new_gen:08}.exck"));
                std::fs::create_dir_all(&self.cfg.checkpoint_dir)
                    .and_then(|()| self.replica.save_to(&path))
                    .unwrap_or_else(|e| panic!("write handoff for generation {new_gen}: {e}"));
                Some(path)
            } else {
                None
            };
            self.announce(&ViewMsg::Propose { generation: new_gen, members: new_members.clone() })?;
            for i in 1..n {
                self.gather(i, "Ack", |m| *m == MemberMsg::Ack)?;
            }
            self.announce(&ViewMsg::Commit)?;
            let cause = format!("{} leave / {} join", leavers.len(), joiners.len());
            self.hub.commit_transition(
                new_gen,
                &members,
                &new_members,
                step,
                &cause,
                handoff,
                t0.elapsed().as_secs_f64(),
            );
            if leavers.contains(&self.me) {
                return Ok(Round::Left);
            }
            let sync = if joiners.is_empty() {
                SyncPlan::None
            } else {
                SyncPlan::Broadcast { root: survivors[0] }
            };
            Ok(Round::Transition {
                view: WorldView { generation: new_gen, members: new_members },
                sync,
            })
        } else {
            let (me, leader) = (self.me, members[0]);
            let comm = self.replica.comm();
            comm.try_send_bytes(0, TAG_MS_UP, MemberMsg::Status { wants_leave }.encode())?;
            let mut acked = None;
            loop {
                let bytes = comm.try_recv_bytes(0, TAG_MS_CTRL)?;
                match follow(&bytes, acked.take(), me, leader)? {
                    Follow::Proceed => return Ok(Round::Proceed),
                    Follow::Recover => return Ok(Round::Recover),
                    Follow::Ack(view) => {
                        comm.try_send_bytes(0, TAG_MS_UP, MemberMsg::Ack.encode())?;
                        acked = Some(view);
                    }
                    Follow::Commit(view) => {
                        if !view.members.contains(&me) {
                            return Ok(Round::Left);
                        }
                        // Joiners are synced from the first old member
                        // that stays (the leader does the same).
                        let sync = match members.iter().find(|m| view.members.contains(m)) {
                            Some(&root) if view.members.iter().any(|m| !members.contains(m)) => {
                                SyncPlan::Broadcast { root }
                            }
                            _ => SyncPlan::None,
                        };
                        return Ok(Round::Transition { view, sync });
                    }
                }
            }
        }
    }

    /// Sends `msg` to every other member; a failed send aborts the round.
    fn announce(&mut self, msg: &ViewMsg) -> Result<(), CommError> {
        let n = self.view.members.len();
        let sent = (1..n).try_for_each(|i| self.replica.comm().try_send_bytes(i, TAG_MS_CTRL, msg.encode()));
        if sent.is_err() {
            self.abort_round(n);
        }
        sent
    }

    /// Receives member `i`'s reply in this round and checks it is one
    /// `admits` accepts. Any failure aborts the round for every member
    /// before the error is handed back.
    fn gather(
        &mut self,
        i: usize,
        expected: &str,
        admits: fn(&MemberMsg) -> bool,
    ) -> Result<MemberMsg, CommError> {
        let (me, sender, n) = (self.me, self.view.members[i], self.view.members.len());
        let reply = self.replica.comm().try_recv_bytes(i, TAG_MS_UP).and_then(|bytes| {
            match MemberMsg::decode(&bytes) {
                Ok(m) if admits(&m) => Ok(m),
                got => Err(out_of_protocol(me, sender, expected, got)),
            }
        });
        if reply.is_err() {
            self.abort_round(n);
        }
        reply
    }

    /// Best-effort Abort to every other member (peers may already be
    /// dead; that is exactly why we are aborting).
    fn abort_round(&mut self, n: usize) {
        for i in 1..n {
            let _ = self.replica.comm().try_send_bytes(i, TAG_MS_CTRL, ViewMsg::Abort.encode());
        }
    }

    /// Runs the member until the step budget completes, it leaves, or it
    /// crashes. Every step boundary runs membership rounds to a fixpoint
    /// (a committed transition re-runs the round in the new world, which
    /// is what lets a leave and a join cascade at one boundary). `Err` is
    /// an [`incurable`] error; dropping the member is then the same signal
    /// to its peers as a crash.
    fn run(mut self, start_step: usize) -> Result<MemberOutcome, CommError> {
        let mut step = start_step;
        while step < self.cfg.base.steps {
            if self.faults.crash_step(self.me) == Some(step) {
                // Fault injection: vanish. Dropping the communicator and
                // the hub guard is the whole signal.
                return Ok(MemberOutcome::Crashed { me: self.me });
            }
            loop {
                match self.boundary_round(step) {
                    Ok(Round::Proceed) => break,
                    Ok(Round::Left) => return Ok(MemberOutcome::Left { me: self.me }),
                    Ok(Round::Transition { view, sync }) => {
                        self.enter_or_recover(view, sync, step)?
                    }
                    Err(e) if incurable(&e) => return Err(e),
                    Ok(Round::Recover) | Err(_) => self.recover(step)?,
                }
            }
            // Never lend the optimizer: a failed step is retried from live
            // parameters after `recover`, and members may have applied
            // *different* bucket subsets before the failure.
            match self.replica.step(step, &mut self.source, false) {
                Ok(s) => {
                    if self.is_leader() {
                        self.hub.record_step(step, s.mean_loss, s.wall_s);
                        let completed = step + 1;
                        if completed.is_multiple_of(CHECKPOINT_EVERY) {
                            self.replica
                                .save_checkpoint(&self.cfg.checkpoint_dir, completed)
                                .unwrap_or_else(|e| panic!("auto-checkpoint at step {completed}: {e}"));
                            self.hub.note_checkpoint();
                        }
                    }
                    step += 1;
                }
                Err(_) => {
                    // A mid-step failure abandons the attempt: reset the
                    // gradients, recover a smaller world, and re-run the
                    // same global step there.
                    self.replica.zero_grads();
                    self.hub.note_retry();
                    self.recover(step)?;
                }
            }
        }
        self.hub.close();
        Ok(MemberOutcome::Finished { me: self.me, done: self.replica.finish() })
    }
}

/// True for an error that recovering into a smaller world cannot cure:
/// the root would broadcast the same undecodable state again, or a peer
/// broke the membership protocol.
fn incurable(e: &CommError) -> bool {
    matches!(e, CommError::MalformedPayload { .. })
}

/// A member's next move after one control message from the leader.
#[derive(Debug)]
enum Follow {
    /// `NoChange`: run the step.
    Proceed,
    /// `Abort`: run recovery.
    Recover,
    /// `Propose`: ack this view and wait for the verdict.
    Ack(WorldView),
    /// `Commit` of the view acked before.
    Commit(WorldView),
}

/// Decodes the leader's control message and checks it against the round
/// so far (`acked`: the proposal this member acked, if any). Bytes that do
/// not decode, a `Commit` with no proposal, or anything but `Commit` /
/// `Abort` after one are the leader's protocol violation.
fn follow(
    bytes: &[u8],
    acked: Option<WorldView>,
    me: usize,
    leader: usize,
) -> Result<Follow, CommError> {
    match (ViewMsg::decode(bytes), acked) {
        (Ok(ViewMsg::Abort), _) => Ok(Follow::Recover),
        (Ok(ViewMsg::NoChange), None) => Ok(Follow::Proceed),
        (Ok(ViewMsg::Propose { generation, members }), None) => {
            Ok(Follow::Ack(WorldView { generation, members }))
        }
        (Ok(ViewMsg::Commit), Some(view)) => Ok(Follow::Commit(view)),
        (got, acked) => {
            let expected = if acked.is_some() { "Commit or Abort" } else { "NoChange, Propose or Abort" };
            Err(out_of_protocol(me, leader, expected, got))
        }
    }
}

/// The typed error for a membership message from `sender` that did not
/// decode, or decoded to a kind this point of the round does not admit.
fn out_of_protocol<M: std::fmt::Debug>(
    me: usize,
    sender: usize,
    expected: &str,
    got: Result<M, String>,
) -> CommError {
    let what = match got {
        Ok(m) => format!("expected {expected}, got {m:?}"),
        Err(e) => e,
    };
    CommError::MalformedPayload { rank: me, root: sender, what: format!("membership round: {what}") }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Runs synchronous data-parallel training whose membership changes at
/// step boundaries without a full restart: graceful leaves, lobby joins
/// and crash recovery per the [`FaultPlan`], bit-identically replayable.
/// Returns the report and the trained replica of the lowest-id finisher.
pub fn train_data_parallel_elastic<B, MB, SB>(
    cfg: &ElasticConfig,
    faults: &FaultPlan,
    model_builder: MB,
    source_builder: SB,
) -> (ElasticReport, Box<dyn Layer>)
where
    B: BatchSource + 'static,
    MB: Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer> + Send + Sync + Clone,
    SB: Fn(usize) -> B + Send + Sync,
{
    assert!(cfg.base.ranks >= 1, "need at least one founding rank");
    assert_eq!(cfg.base.ranks % cfg.base.node_size, 0, "node_size must divide ranks");

    let hub = Arc::new(ElasticHub::new(cfg, faults));
    let rv = Arc::new(Rendezvous::new());
    let founding: Vec<usize> = (0..cfg.base.ranks).collect();
    let comms = CommWorld::with_deadline(cfg.base.ranks, cfg.recv_deadline);

    let mut outcomes: Vec<MemberOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (me, comm) in comms.into_iter().enumerate() {
            let hub = hub.clone();
            let rv = rv.clone();
            let cfg = cfg.clone();
            let faults = faults.clone();
            let mb = model_builder.clone();
            let source = source_builder(me);
            let founding = founding.clone();
            handles.push(scope.spawn(move || {
                let guard = hub.adopt(me);
                let mut member = Member {
                    me,
                    replica: Replica::build(&cfg.base, me, &mb),
                    source,
                    view: WorldView { generation: 0, members: founding },
                    synced: true,
                    handoff: None,
                    joined_at: -1,
                    _guard: guard,
                    hub,
                    rv,
                    cfg,
                    faults,
                };
                member.configure(comm);
                member.run(0).unwrap_or_else(|error| MemberOutcome::Failed { me, error })
            }));
        }
        for me in faults.joining_nodes() {
            let hub = hub.clone();
            let rv = rv.clone();
            let cfg = cfg.clone();
            let faults = faults.clone();
            let mb = model_builder.clone();
            let sb = &source_builder;
            handles.push(scope.spawn(move || {
                let Some(adm) = hub.wait_admission(me) else {
                    return MemberOutcome::NeverAdmitted { me };
                };
                let guard = hub.register(me);
                let mut source = sb(me);
                let replica = Replica::build(&cfg.base, me, &mb);
                // Replay the batches of the steps it missed, so the
                // joiner's step `s` batch is what it would have been had
                // it trained from the start — the replay-determinism
                // anchor.
                let start = adm.start_step;
                for _ in 0..start {
                    let _ = source.next_batch();
                }
                let mut member = Member {
                    me,
                    replica,
                    source,
                    // Placeholder until `enter` installs the admitted view.
                    view: WorldView { generation: 0, members: Vec::new() },
                    synced: false,
                    handoff: adm.handoff,
                    joined_at: start as i64,
                    _guard: guard,
                    hub,
                    rv,
                    cfg,
                    faults,
                };
                let sync = match adm.root {
                    Some(root) => SyncPlan::Broadcast { root },
                    None => SyncPlan::Handoff,
                };
                member
                    .enter_or_recover(adm.view, sync, start)
                    .and_then(|()| member.run(start))
                    .unwrap_or_else(|error| MemberOutcome::Failed { me, error })
            }));
        }
        handles.into_iter().map(|h| h.join().expect("member thread")).collect()
    });

    // Aggregate: the hub holds the authoritative membership story; the
    // outcomes hold the replicas.
    outcomes.sort_by_key(|o| match o {
        MemberOutcome::Finished { me, .. }
        | MemberOutcome::Left { me }
        | MemberOutcome::Crashed { me }
        | MemberOutcome::NeverAdmitted { me }
        | MemberOutcome::Failed { me, .. } => *me,
    });
    let mut final_hashes = Vec::new();
    let mut hashes_ok = true;
    let mut never_admitted = Vec::new();
    let mut ranks_failed = Vec::new();
    let mut model_out: Option<Box<dyn Layer>> = None;
    for o in outcomes.drain(..) {
        match o {
            MemberOutcome::Finished { done, .. } => {
                final_hashes.push(done.final_hash);
                hashes_ok &= done.hashes_ok;
                if model_out.is_none() {
                    model_out = Some(done.model);
                }
            }
            MemberOutcome::NeverAdmitted { me } => never_admitted.push(me),
            MemberOutcome::Failed { me, error } => ranks_failed.push((me, error)),
            MemberOutcome::Left { .. } | MemberOutcome::Crashed { .. } => {}
        }
    }

    let s = hub.state.lock().unwrap();
    let steps: Vec<StepRecord> = s
        .step_records
        .iter()
        .map(|r| r.expect("every global step completed"))
        .collect();
    let diverged = steps.iter().any(|r| !r.mean_loss.is_finite());
    let consistent = hashes_ok && final_hashes.windows(2).all(|w| w[0] == w[1]);
    let report = ElasticReport {
        steps,
        final_hashes,
        consistent,
        generations: s.history.clone(),
        ranks_joined: s.ranks_joined.clone(),
        ranks_left: s.ranks_left.clone(),
        ranks_lost: s.ranks_lost.clone(),
        steps_retried: s.counters.retried,
        param_broadcasts: s.counters.param_broadcasts,
        checkpoint_fallbacks: s.counters.checkpoint_fallbacks,
        checkpoints_saved: s.counters.checkpoints_saved,
        never_admitted,
        ranks_failed,
        diverged,
    };
    drop(s);
    (report, model_out.expect("at least one member finished"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::test_support::{toy_config, toy_model, toy_source};
    use crate::trainer::train_data_parallel;

    fn elastic_config(ranks: usize, steps: usize, dir: &str) -> ElasticConfig {
        let d = std::env::temp_dir()
            .join(format!("exaclim_elastic_{}", std::process::id()))
            .join(dir);
        std::fs::remove_dir_all(&d).ok();
        let mut base = toy_config(ranks, steps);
        if !ranks.is_multiple_of(base.node_size) {
            base.node_size = 1;
        }
        let mut cfg = ElasticConfig::new(base, d);
        cfg.recv_deadline = Duration::from_secs(2);
        cfg
    }

    fn run(
        cfg: &ElasticConfig,
        faults: &FaultPlan,
    ) -> (ElasticReport, Box<dyn exaclim_nn::Layer>) {
        train_data_parallel_elastic(cfg, faults, toy_model, toy_source)
    }

    #[test]
    fn healthy_elastic_run_matches_plain_trainer_bitwise() {
        // With no churn the elastic path must follow the plain trainer's
        // exact arithmetic: the membership rounds and the ×1.0 LR rescale
        // are bit-neutral. Returns the hash both trainers landed on.
        let both = |overlap: bool, fused: bool| {
            let mut cfg = elastic_config(2, 6, &format!("healthy_{overlap}_{fused}"));
            cfg.base.overlap_comm = overlap;
            cfg.base.fused_optim = fused;
            let (plain, _m) = train_data_parallel(&cfg.base, toy_model, toy_source);
            let (r, _m2) = run(&cfg, &FaultPlan::none());
            assert!(r.consistent);
            assert_eq!(
                r.final_hashes[0], plain.final_hashes[0],
                "overlap={overlap} fused={fused}: identical parameter bits"
            );
            assert_eq!(r.generations.len(), 1, "no transitions");
            assert!(r.ranks_left.is_empty() && r.ranks_joined.is_empty() && r.ranks_lost.is_empty());
            assert_eq!(r.steps_retried, 0);
            assert_eq!(r.checkpoints_saved, 3, "steps 2, 4, 6");
            std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
            plain.final_hashes[0]
        };
        // One hash across drivers × planes.
        let hash = both(false, false);
        for (overlap, fused) in [(false, true), (true, false), (true, true)] {
            assert_eq!(both(overlap, fused), hash);
        }
    }

    #[test]
    fn leave_and_join_complete_without_restart() {
        // Rank 1 leaves at step 2; a new rank 4 joins at step 5. Training
        // never restarts: the world shrinks to 3, grows to 4, finishes.
        let cfg = elastic_config(4, 8, "leave_join");
        let faults = FaultPlan::seeded(11).with_leave_at_step(1, 2).with_join_at_step(4, 5);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent, "finishers diverged: {:?}", r.final_hashes);
        assert_eq!(r.steps.len(), 8, "every global step completed exactly once");
        assert_eq!(r.ranks_left, vec![1]);
        assert_eq!(r.ranks_joined, vec![4]);
        assert!(r.ranks_lost.is_empty());
        assert_eq!(r.final_hashes.len(), 4, "members 0, 2, 3, 4 finish");
        assert_eq!(r.generations.len(), 3, "initial world + two transitions");
        assert_eq!(r.generations[1].members, vec![0, 2, 3]);
        assert_eq!(r.generations[2].members, vec![0, 2, 3, 4]);
        assert_eq!(r.param_broadcasts, 1, "the joiner got the live state");
        assert_eq!(r.checkpoint_fallbacks, 0, "no checkpoint was needed to resize");
        assert_eq!(r.steps_retried, 0, "boundary churn loses no step");
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn elastic_churn_is_bit_identical_with_fused_optimizer() {
        // Elastic never lends the optimizer to the engine (see
        // train_step); fused mode is par_step only — which must still be
        // bit-identical through leaves, joins, and the LR rescales.
        let run_mode = |fused: bool, dir: &str| {
            let mut cfg = elastic_config(4, 8, dir);
            cfg.base.overlap_comm = true;
            cfg.base.fused_optim = fused;
            let faults = FaultPlan::seeded(11).with_leave_at_step(1, 2).with_join_at_step(4, 5);
            let (r, _m) = run(&cfg, &faults);
            assert!(r.consistent, "fused={fused}");
            assert_eq!(r.steps.len(), 8, "fused={fused}");
            std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
            r.final_hashes
        };
        assert_eq!(run_mode(false, "churn_legacy"), run_mode(true, "churn_fused"));
    }

    #[test]
    fn learning_rate_rescales_linearly_with_the_world() {
        let cfg = elastic_config(4, 6, "lr_rescale");
        let faults = FaultPlan::seeded(3).with_leave_at_step(3, 2);
        let (r, _m) = run(&cfg, &faults);
        // toy_config uses SGD lr 0.05; 4 → 3 ranks scales by 3/4.
        assert_eq!(r.generations[0].lr, 0.05);
        assert_eq!(r.generations[1].lr, scale_lr_for_batch(0.05, 4, 3));
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn elastic_replay_is_bit_identical() {
        let faults = FaultPlan::seeded(9)
            .with_leave_at_step(2, 3)
            .with_join_at_step(4, 4)
            .with_crash_at_step(1, 6);
        let cfg_a = elastic_config(4, 8, "replay_a");
        let (a, _ma) = run(&cfg_a, &faults);
        let cfg_b = elastic_config(4, 8, "replay_b");
        let (b, _mb) = run(&cfg_b, &faults);
        assert_eq!(a.final_hashes, b.final_hashes, "same plan, same bits");
        assert_eq!(a.generations.len(), b.generations.len());
        assert_eq!(a.ranks_lost, b.ranks_lost);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits(), "step {} loss", x.step);
        }
        std::fs::remove_dir_all(&cfg_a.checkpoint_dir).ok();
        std::fs::remove_dir_all(&cfg_b.checkpoint_dir).ok();
    }

    #[test]
    fn crash_recovers_without_checkpoint_restart() {
        // Rank 2 crashes at step 5. Survivors recover in place from the
        // live model: no checkpoint restore, no step lost or replayed —
        // a restart from the step-4 checkpoint would replay step 4.
        let cfg = elastic_config(4, 8, "crash");
        let faults = FaultPlan::seeded(7).with_crash_at_step(2, 5);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_lost, vec![2]);
        assert_eq!(r.steps.len(), 8);
        assert_eq!(r.steps_retried, 0, "a boundary crash loses zero completed steps");
        assert_eq!(r.checkpoint_fallbacks, 0);
        assert_eq!(r.final_hashes.len(), 3);
        let last = r.generations.last().unwrap();
        assert!(last.cause.contains("crash recovery"), "{}", last.cause);
        assert_eq!(last.members, vec![0, 1, 3]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn leader_crash_recovers_and_replays_bit_identically() {
        // The leader (member 0) crashes at step 3 of 6: the others find it
        // dead in the boundary round and elect member 1. Twice, same bits.
        let faults = FaultPlan::seeded(21).with_crash_at_step(0, 3);
        let go = |dir: &str| {
            let cfg = elastic_config(4, 6, dir);
            let (r, _m) = run(&cfg, &faults);
            std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
            assert!(r.consistent);
            assert_eq!(r.ranks_lost, vec![0]);
            assert_eq!((r.steps.len(), r.steps_retried), (6, 0));
            assert_eq!(r.generations.last().unwrap().members, vec![1, 2, 3]);
            r
        };
        let (a, b) = (go("leader_crash_a"), go("leader_crash_b"));
        assert_eq!(a.final_hashes, b.final_hashes, "same plan, same bits");
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits(), "step {} loss", x.step);
        }
    }

    #[test]
    fn two_crashes_across_generations_recover() {
        // Member 1 crashes at step 2, member 3 at step 4 — two recoveries,
        // each from the live model, and the last two finish consistently.
        let cfg = elastic_config(4, 6, "two_crashes");
        let faults = FaultPlan::seeded(5).with_crash_at_step(1, 2).with_crash_at_step(3, 4);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent, "finishers diverged: {:?}", r.final_hashes);
        assert_eq!(r.ranks_lost, vec![1, 3]);
        assert_eq!((r.steps.len(), r.steps_retried, r.final_hashes.len()), (6, 0, 2));
        assert_eq!(r.generations.len(), 3, "initial world + two recoveries");
        assert_eq!(r.generations[1].members, vec![0, 2, 3]);
        assert_eq!(r.generations[2].members, vec![0, 2]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn control_messages_out_of_protocol_are_typed_errors() {
        // The in-protocol sequences are what every elastic run exchanges.
        let view = WorldView { generation: 4, members: vec![0, 2] };
        let propose = ViewMsg::Propose { generation: 4, members: vec![0, 2] }.encode();
        let malformed = |bytes: &[u8], acked: Option<WorldView>| match follow(bytes, acked, 2, 0) {
            Err(CommError::MalformedPayload { rank: 2, root: 0, what }) => what,
            other => panic!("expected a malformed-payload error, got {other:?}"),
        };
        assert!(malformed(&propose[..propose.len() - 1], None).contains("Propose of 2 members"));
        assert!(malformed(&[9], None).contains("unknown ViewMsg kind"));
        assert!(malformed(&[], Some(view.clone())).contains("unknown ViewMsg kind"));
        let what = malformed(&ViewMsg::Commit.encode(), None);
        assert!(what.contains("expected NoChange, Propose or Abort, got Commit"), "{what}");
        let what = malformed(&ViewMsg::NoChange.encode(), Some(view));
        assert!(what.contains("expected Commit or Abort, got NoChange"), "{what}");
    }

    #[test]
    fn out_of_protocol_message_fails_the_member_without_recovery() {
        // The test thread plays leader 0 of a two-member world and answers
        // member 1's status with a Commit that no proposal preceded. The
        // member must stop with the typed error. Were it to run recovery
        // instead, it would find the leader gone and finish alone.
        let cfg = elastic_config(2, 2, "out_of_protocol");
        let hub = Arc::new(ElasticHub::new(&cfg, &FaultPlan::none()));
        let leader_lease = hub.adopt(0);
        let mut comms = CommWorld::with_deadline(2, cfg.recv_deadline);
        let (c1, mut c0) = (comms.pop().unwrap(), comms.pop().unwrap());
        let mut member = Member {
            me: 1,
            replica: Replica::build(&cfg.base, 1, &toy_model),
            source: toy_source(1),
            view: WorldView { generation: 0, members: vec![0, 1] },
            synced: true,
            handoff: None,
            joined_at: -1,
            _guard: hub.adopt(1),
            hub: hub.clone(),
            rv: Arc::new(Rendezvous::new()),
            cfg: cfg.clone(),
            faults: FaultPlan::none(),
        };
        member.configure(c1);
        let outcome = std::thread::scope(|scope| {
            let m = scope.spawn(move || member.run(0));
            let status = c0.try_recv_bytes(1, TAG_MS_UP).expect("status");
            assert_eq!(MemberMsg::decode(&status), Ok(MemberMsg::Status { wants_leave: false }));
            c0.try_send_bytes(1, TAG_MS_CTRL, ViewMsg::Commit.encode()).expect("send");
            drop((c0, leader_lease));
            m.join().expect("member thread")
        });
        match outcome {
            Err(CommError::MalformedPayload { rank: 1, root: 0, what }) => {
                assert!(what.contains("got Commit"), "{what}");
            }
            Err(e) => panic!("expected a malformed-payload error, got {e}"),
            Ok(_) => panic!("the member carried on past an out-of-protocol message"),
        }
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn joiner_that_cannot_decode_the_state_broadcast_is_reported_not_unwound() {
        // Member 2 joins at step 3 with a model whose parameters are named
        // differently (a node launched from another job config): rank 0's
        // optimizer broadcast names velocities it does not have. It must
        // stop with the typed error in the report — no panic on its
        // thread — and the founders carry on as after a crash.
        use exaclim_nn::layers::Conv2d;
        use exaclim_tensor::ops::Conv2dParams;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cfg = elastic_config(2, 6, "malformed_sync");
        let faults = FaultPlan::seeded(3).with_join_at_step(2, 3);
        let built = std::sync::Arc::new(AtomicUsize::new(0));
        let model = move |rng: &mut rand::rngs::StdRng| -> Box<dyn exaclim_nn::Layer> {
            // The joiner builds only once admitted, after both founders.
            if built.fetch_add(1, Ordering::SeqCst) < 2 {
                return toy_model(rng);
            }
            Box::new(
                exaclim_nn::Sequential::new("toy")
                    .push(Conv2d::new("x1", 2, 8, 3, Conv2dParams::padded(1), true, rng))
                    .push(exaclim_nn::layers::ReLU::new())
                    .push(Conv2d::new("x2", 8, 2, 1, Conv2dParams::default(), true, rng)),
            )
        };
        let (r, _m) = train_data_parallel_elastic(&cfg, &faults, model, toy_source);
        match r.ranks_failed.as_slice() {
            [(2, e @ CommError::MalformedPayload { rank: 2, root: 0, .. })] => {
                assert!(e.to_string().contains("unknown parameter"), "{e}");
            }
            other => panic!("expected member 2 to fail on a malformed payload, got {other:?}"),
        }
        assert_eq!(r.ranks_lost, vec![2], "peers recover as from a crash");
        assert_eq!(r.steps.len(), 6);
        assert_eq!(r.final_hashes.len(), 2, "the founders finish");
        assert!(r.consistent);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn flapping_rank_leaves_and_rejoins() {
        // Rank 1 leaves at step 2 and rejoins at step 5 — the lobby and
        // liveness bookkeeping must treat the rejoin as a fresh member.
        let cfg = elastic_config(3, 8, "flap");
        let faults = FaultPlan::seeded(5).with_leave_at_step(1, 2).with_join_at_step(1, 5);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_left, vec![1]);
        assert_eq!(r.ranks_joined, vec![1]);
        assert_eq!(r.final_hashes.len(), 3, "all three ids finish (1 via its rejoin)");
        assert_eq!(r.generations.last().unwrap().members, vec![0, 1, 2]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn join_during_leave_cascades_at_one_boundary() {
        // Rank 1 leaves at step 2 while also queued to join at step 2:
        // the boundary commits *two* transitions back to back (out, then
        // readmitted), exercising the round-to-fixpoint loop.
        let cfg = elastic_config(3, 6, "cascade");
        let faults = FaultPlan::seeded(6).with_leave_at_step(1, 2).with_join_at_step(1, 2);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_left, vec![1]);
        assert_eq!(r.ranks_joined, vec![1]);
        assert_eq!(r.generations.len(), 3, "two transitions at one boundary");
        assert_eq!(r.generations[1].begin_step, r.generations[2].begin_step);
        assert_eq!(r.generations[1].members, vec![0, 2]);
        assert_eq!(r.generations[2].members, vec![0, 1, 2]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn all_founders_leave_and_joiners_continue_via_handoff() {
        // Both founders leave at step 3 exactly when two joiners arrive:
        // no survivor can root a broadcast, so the old leader writes a
        // handoff checkpoint (with optimizer state) and the new world
        // boots from it.
        let cfg = elastic_config(2, 6, "handoff");
        let faults = FaultPlan::seeded(8)
            .with_leave_at_step(0, 3)
            .with_leave_at_step(1, 3)
            .with_join_at_step(2, 3)
            .with_join_at_step(3, 3);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent, "joiner replicas diverged: {:?}", r.final_hashes);
        assert_eq!(r.steps.len(), 6);
        let mut left = r.ranks_left.clone();
        left.sort_unstable();
        assert_eq!(left, vec![0, 1]);
        assert_eq!(r.ranks_joined, vec![2, 3]);
        assert_eq!(r.checkpoint_fallbacks, 1, "survivor-less transition used the handoff");
        assert_eq!(r.param_broadcasts, 0);
        assert_eq!(r.generations.last().unwrap().members, vec![2, 3]);
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn late_joiner_is_never_admitted() {
        let cfg = elastic_config(2, 4, "late");
        let faults = FaultPlan::seeded(4).with_join_at_step(7, 99);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.never_admitted, vec![7]);
        assert!(r.ranks_joined.is_empty());
        std::fs::remove_dir_all(&cfg.checkpoint_dir).ok();
    }

    #[test]
    fn random_churn_plan_completes_and_replays() {
        // A seeded ChaosConfig churn schedule (the fuzz-ish gate): joins
        // and leaves drawn pseudo-randomly, run twice, bit-compared.
        use exaclim_faults::ChaosConfig;
        let chaos = ChaosConfig {
            crash_prob: 0.0,
            straggler_prob: 0.0,
            link_fault_prob: 0.0,
            leave_prob: 0.4,
            join_prob: 0.4,
            horizon: 6,
            ..ChaosConfig::default()
        };
        let faults = FaultPlan::random(31, 3, &chaos);
        assert!(!faults.leaves.is_empty() || !faults.joins.is_empty(), "plan has churn");
        let cfg_a = elastic_config(3, 6, "chaos_a");
        let (a, _ma) = run(&cfg_a, &faults);
        let cfg_b = elastic_config(3, 6, "chaos_b");
        let (b, _mb) = run(&cfg_b, &faults);
        assert!(a.consistent && b.consistent);
        assert_eq!(a.final_hashes, b.final_hashes);
        assert_eq!(a.generations.len(), b.generations.len());
        std::fs::remove_dir_all(&cfg_a.checkpoint_dir).ok();
        std::fs::remove_dir_all(&cfg_b.checkpoint_dir).ok();
    }
}
