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
//! * **One decider.** Membership is decided in one place, the shared hub
//!   (the job scheduler's part), at a meeting keyed by generation. At
//!   every step boundary each member checks in, carrying its
//!   graceful-leave intent. Once every member of the view has checked in
//!   or died, the hub decides once, under its lock, for all of them:
//!   leavers go, members that died without checking in are lost, and lobby
//!   joiners come in. With none of the three the step runs; otherwise the
//!   hub books one new generation. Committed transitions re-assemble the
//!   communicator through the generation-keyed [`Rendezvous`], so a
//!   collective can never straddle two worlds, and the communicator
//!   carries training traffic only.
//! * **State follows the view.** On every transition the learning rate is
//!   rescaled linearly with the world size (the paper's Figure-6 rule),
//!   the replica is re-wired to the new world (topology, overlap engine,
//!   ready hooks), and joiners adopt the parameters *and optimizer
//!   state* — one in-memory snapshot — by broadcast from a live survivor.
//!   When no survivor is left, a departing member leaves its snapshot at
//!   the hub (the scheduler's stand-in for shared storage) and the
//!   joiners adopt that: elastic state never touches the disk. Batch
//!   sources keep their shard: a rank's shard is a function of
//!   `(seed, rank)`, not of the world it is in.
//! * **Crash recovery without restart.** A crash at a boundary is a member
//!   that never checks in. A peer lost mid-step or while a world assembles
//!   surfaces as a typed [`CommError`]; the member meets its generation's
//!   recovery in the hub, which also releases the generation's boundary
//!   meeting. The survivors continue in a fresh generation from the *live*
//!   model — zero completed steps are lost or replayed.
//! * **Typed state faults.** A broadcast or handed-off state that does not
//!   adopt ends the member that received it as
//!   [`CommError::MalformedPayload`] in [`ElasticReport::ranks_failed`];
//!   its peers recover as from a crash.
//!
//! Members run the same `Replica::step` as the plain driver; this module
//! owns only what is elastic — the hub and its meetings, `enter` and the
//! LR rescale.
//!
//! Fault schedules come from [`FaultPlan`] (`with_leave_at_step` /
//! `with_join_at_step` plus crashes), so any churn scenario — flapping
//! ranks, join-during-leave cascades, full founder turnover — replays
//! bit-identically.

use crate::step::{Replica, Snapshot, Trained};
use crate::trainer::{BatchSource, OptimizerKind, StepRecord, TrainerConfig};
use exaclim_comm::{CommError, CommWorld, Communicator, Rendezvous};
use exaclim_faults::FaultPlan;
use exaclim_nn::optim::scale_lr_for_batch;
use exaclim_nn::Layer;
use std::collections::{BTreeMap, BTreeSet};
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

/// Elastic-training knobs wrapped around a [`TrainerConfig`].
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The underlying training configuration. `ranks` is the *founding*
    /// world size; membership changes from there.
    pub base: TrainerConfig,
    /// Per-receive deadline; also bounds each rendezvous wait.
    pub recv_deadline: Duration,
}

impl ElasticConfig {
    /// Sensible defaults: a 5-second deadline.
    pub fn new(base: TrainerConfig) -> ElasticConfig {
        ElasticConfig { base, recv_deadline: Duration::from_secs(5) }
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
    /// Transitions with no survivor to broadcast from, whose joiners
    /// adopted the snapshot a departing member left at the hub.
    pub handoffs: usize,
    /// Scheduled joiners the run ended without ever admitting.
    pub never_admitted: Vec<usize>,
    /// Members that stopped on an error no smaller world can cure — a
    /// broadcast or handed-off state that did not adopt
    /// ([`CommError::MalformedPayload`]) — with the error, in member-id
    /// order. Membership travels through no message, so nothing else can
    /// fail a member. Their peers recover as from a crash, so each id is
    /// also in `ranks_lost`.
    pub ranks_failed: Vec<(usize, CommError)>,
    /// Non-finite loss detected.
    pub diverged: bool,
}

// ---------------------------------------------------------------------------
// The hub: shared membership state (stands in for a job scheduler).
// ---------------------------------------------------------------------------

/// The live state a departing member leaves at the hub for the joiners of
/// a survivor-less world.
#[derive(Clone)]
struct Handoff {
    /// The member that left it.
    writer: usize,
    state: Arc<Snapshot>,
}

/// What an admitted joiner needs to enter the world.
#[derive(Clone)]
struct Admission {
    view: WorldView,
    start_step: usize,
    /// A live broadcast from a survivor, or the handoff.
    sync: SyncPlan,
    handoff: Option<Handoff>,
}

#[derive(Default)]
struct Counters {
    retried: usize,
    param_broadcasts: usize,
    handoffs: usize,
}

/// A member's check-in at a meeting.
#[derive(Clone, Copy)]
struct Checkin {
    /// Departs gracefully at this boundary (never in recovery).
    wants_leave: bool,
    /// Holds the live model state (false only for a joiner not yet synced).
    synced: bool,
}

/// What a meeting decided, once, for every member.
#[derive(Clone)]
enum Decision {
    /// Membership is unchanged: run the step.
    Proceed,
    /// The world moves to `view`. `writer`, a departing old member, leaves
    /// the handoff its joiners adopt when no survivor can broadcast.
    Commit { view: WorldView, sync: SyncPlan, writer: Option<usize> },
}

impl Decision {
    fn round_for(&self, me: usize) -> Round {
        match self {
            Decision::Proceed => Round::Proceed,
            Decision::Commit { view, sync, .. } if view.members.contains(&me) => {
                Round::Transition { view: view.clone(), sync: sync.clone() }
            }
            Decision::Commit { view, writer, .. } if *writer == Some(me) => Round::Handoff(view.clone()),
            Decision::Commit { .. } => Round::Left,
        }
    }
}

/// One meeting of a generation's members, at the boundary before a step
/// or in recovery after a failure.
struct Meeting {
    opened: Instant,
    checked: BTreeMap<usize, Checkin>,
    /// Checked-in members yet to collect their round; the meeting is
    /// dropped when none is left.
    uncollected: usize,
    decided: Option<Decision>,
}

/// `(generation, Some(step))` for the boundary before `step`,
/// `(generation, None)` for the generation's recovery.
type MeetingKey = (u64, Option<usize>);

struct HubState {
    alive: BTreeSet<usize>,
    /// Waiting joiners: id → earliest admissible step.
    lobby: BTreeMap<usize, usize>,
    admissions: BTreeMap<usize, Admission>,
    next_generation: u64,
    /// Open meetings. A generation's recovery meeting marks it failed.
    meetings: BTreeMap<MeetingKey, Meeting>,
    history: Vec<GenerationRecord>,
    ranks_joined: Vec<usize>,
    ranks_left: Vec<usize>,
    ranks_lost: Vec<usize>,
    counters: Counters,
    step_records: Vec<Option<StepRecord>>,
    closed: bool,
}

impl HubState {
    fn admit(&mut self, view: &WorldView, joiners: &[usize], start_step: usize, sync: &SyncPlan, handoff: Option<Handoff>) {
        for &j in joiners {
            let (view, sync, handoff) = (view.clone(), sync.clone(), handoff.clone());
            self.admissions.insert(j, Admission { view, start_step, sync, handoff });
        }
    }
}

/// Shared membership authority — the piece a cluster scheduler plays in a
/// real deployment, and the one place membership is decided. The data
/// plane stays on the per-generation communicators.
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
            meetings: BTreeMap::new(),
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

    /// Checks `me` in at the meeting of `view` — at the boundary before
    /// `step`, or in the generation's recovery — and waits until every
    /// member of the view has checked in or died. Whoever sees that first
    /// decides for everyone; each member gets its part of the one
    /// decision. A boundary meeting releases its members with
    /// [`Round::Recover`] once a member of the generation has gone into
    /// recovery: that member is alive but will not check in here.
    fn meet(&self, view: &WorldView, step: usize, boundary: bool, me: usize, checkin: Checkin) -> Round {
        let key = (view.generation, boundary.then_some(step));
        let mut s = self.state.lock().unwrap();
        let m = s.meetings.entry(key).or_insert_with(|| Meeting {
            opened: Instant::now(),
            checked: BTreeMap::new(),
            uncollected: 0,
            decided: None,
        });
        m.checked.insert(me, checkin);
        m.uncollected += 1;
        self.cv.notify_all();
        let round = loop {
            let m = &s.meetings[&key];
            if let Some(d) = &m.decided {
                break d.round_for(me);
            }
            if boundary && s.meetings.contains_key(&(view.generation, None)) {
                break Round::Recover;
            }
            if view.members.iter().all(|x| m.checked.contains_key(x) || !s.alive.contains(x)) {
                let Some(d) = self.decide(&mut s, key, view, step) else {
                    drop(s);
                    panic!("every member left at step {step} and nobody joined — the model has no home");
                };
                s.meetings.get_mut(&key).unwrap().decided = Some(d);
                self.cv.notify_all();
                continue;
            }
            s = self.cv.wait(s).unwrap();
        };
        let m = s.meetings.get_mut(&key).unwrap();
        m.uncollected -= 1;
        if m.uncollected == 0 {
            s.meetings.remove(&key);
        }
        round
    }

    /// Decides a complete meeting and books the result: members that asked
    /// to leave go, members that died without checking in are lost, and at
    /// a boundary the lobby entries admissible at `step` join. A boundary
    /// with none of the three proceeds; a recovery always moves to a fresh
    /// generation. `None` when nobody would be left.
    fn decide(&self, s: &mut HubState, key: MeetingKey, view: &WorldView, step: usize) -> Option<Decision> {
        let boundary = key.1.is_some();
        let m = &s.meetings[&key];
        let (leavers, survivors): (Vec<usize>, Vec<usize>) =
            m.checked.keys().copied().partition(|x| m.checked[x].wants_leave);
        let lost: Vec<usize> = view.members.iter().copied().filter(|x| !m.checked.contains_key(x)).collect();
        let joiners: Vec<usize> = s
            .lobby
            .iter()
            .filter(|(node, &at)| boundary && at <= step && !view.members.contains(node))
            .map(|(&node, _)| node)
            .collect();
        if boundary && leavers.is_empty() && lost.is_empty() && joiners.is_empty() {
            return Some(Decision::Proceed);
        }
        let mut members: Vec<usize> = survivors.iter().chain(&joiners).copied().collect();
        members.sort_unstable();
        if members.is_empty() {
            return None;
        }
        let root = survivors.iter().copied().find(|x| m.checked[x].synced);
        let sync = if joiners.is_empty() && survivors.iter().all(|x| m.checked[x].synced) {
            SyncPlan::None
        } else if let Some(root) = root {
            SyncPlan::Broadcast { root }
        } else {
            SyncPlan::Handoff
        };
        // Survivor-less: a departing old member hands off the live state
        // before any joiner is admitted.
        let writer = if survivors.is_empty() { leavers.first().copied() } else { None };
        let churn = format!("{} leave / {} join", leavers.len(), joiners.len());
        let cause = match (boundary && lost.is_empty(), leavers.len() + joiners.len()) {
            (true, _) => churn,
            (false, 0) => format!("crash recovery (lost {lost:?})"),
            (false, _) => format!("{churn}, crash recovery (lost {lost:?})"),
        };
        let wall_s = m.opened.elapsed().as_secs_f64();
        let view = WorldView { generation: s.next_generation, members };
        s.next_generation += 1;
        match (&sync, writer) {
            (SyncPlan::Broadcast { .. }, _) => s.counters.param_broadcasts += 1,
            (SyncPlan::Handoff, Some(_)) => s.counters.handoffs += 1,
            _ => {}
        }
        for j in &joiners {
            s.lobby.remove(j);
        }
        if writer.is_none() {
            s.admit(&view, &joiners, step, &sync, None);
        }
        s.ranks_joined.extend(&joiners);
        s.ranks_left.extend(&leavers);
        s.ranks_lost.extend(&lost);
        s.history.push(GenerationRecord {
            generation: view.generation,
            members: view.members.clone(),
            begin_step: step,
            cause,
            lr: self.lr_for(view.members.len()),
            transition_wall_s: wall_s,
        });
        Some(Decision::Commit { view, sync, writer })
    }

    /// Admits every member of a survivor-less `view` with `handoff`.
    fn admit_handoff(&self, view: &WorldView, start_step: usize, handoff: Handoff) {
        let mut s = self.state.lock().unwrap();
        s.admit(view, &view.members, start_step, &SyncPlan::Handoff, Some(handoff));
        self.cv.notify_all();
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

/// This member's part of a meeting's decision.
enum Round {
    /// Membership unchanged — run the step.
    Proceed,
    /// This member departs gracefully.
    Left,
    /// This member departs after leaving the handoff the survivor-less
    /// `view` adopts.
    Handoff(WorldView),
    /// A new view was committed; enter it and meet again at the boundary.
    Transition { view: WorldView, sync: SyncPlan },
    /// The generation went into recovery — meet there.
    Recover,
}

/// How a freshly assembled world synchronizes model state.
#[derive(Clone)]
enum SyncPlan {
    /// Everybody already holds the live state.
    None,
    /// Broadcast a snapshot from this member id; unsynced members adopt
    /// it, synced members just relay.
    Broadcast { root: usize },
    /// No survivor: every unsynced member adopts its handoff.
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
    /// Kept across a recovery: a survivor-less world that fails to
    /// assemble adopts it in the next one.
    handoff: Option<Handoff>,
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
        // A state that does not adopt is its sender's to answer for, not a
        // reason to unwind here.
        let rank = comm.rank();
        let malformed = |root: usize, what: String| CommError::MalformedPayload { rank, root, what };
        match sync {
            SyncPlan::None => {}
            SyncPlan::Broadcast { root } => {
                let root = self
                    .view
                    .members
                    .iter()
                    .position(|&m| m == root)
                    .expect("broadcast root is a member of the new view");
                let mut snap = if rank == root { self.replica.snapshot() } else { Snapshot::default() };
                comm.try_broadcast(root, &mut snap.flat)?;
                comm.try_broadcast_bytes(root, &mut snap.opt)?;
                if !self.synced {
                    self.replica.adopt(&snap).map_err(|e| malformed(root, format!("state broadcast: {e}")))?;
                }
            }
            SyncPlan::Handoff => {
                if !self.synced {
                    let h = self.handoff.as_ref().expect("survivor-less admission carries a handoff");
                    let what = |e| format!("handoff from member {}: {e}", h.writer);
                    self.replica.adopt(&h.state).map_err(|e| malformed(h.writer, what(e)))?;
                }
            }
        }
        self.synced = true;
        self.configure(comm);
        Ok(())
    }

    /// Checks in at this generation's meeting: the boundary before `step`,
    /// or its recovery. A member going into recovery drops its
    /// communicator first, so a peer still inside a collective with it
    /// fails at once instead of at the deadline.
    fn meet(&mut self, step: usize, boundary: bool) -> Round {
        if !boundary {
            self.replica.unwire();
        }
        let wants_leave =
            boundary && self.faults.leave_step(self.me) == Some(step) && step as i64 > self.joined_at;
        let checkin = Checkin { wants_leave, synced: self.synced };
        self.hub.meet(&self.view, step, boundary, self.me, checkin)
    }

    /// Settles membership at the boundary before `step`, starting from
    /// `round` (`None`: check in at the boundary). A committed transition
    /// meets again at the same boundary in the new world — which is what
    /// lets a leave and a join cascade at one boundary — and a failed
    /// `enter` meets the generation's recovery. `Ok(None)` means run the
    /// step; `Err` is an [`incurable`] error.
    fn settle(&mut self, step: usize, mut round: Option<Round>) -> Result<Option<MemberOutcome>, CommError> {
        let me = self.me;
        loop {
            let next = match round.take() {
                Some(r) => r,
                // Fault injection: vanish. Dropping the communicator and
                // the hub guard is the whole signal.
                None if self.faults.crash_step(me) == Some(step) => {
                    return Ok(Some(MemberOutcome::Crashed { me }))
                }
                None => self.meet(step, true),
            };
            match next {
                Round::Proceed => return Ok(None),
                Round::Left => return Ok(Some(MemberOutcome::Left { me })),
                Round::Handoff(view) => {
                    let state = Arc::new(self.replica.snapshot());
                    self.hub.admit_handoff(&view, step, Handoff { writer: me, state });
                    return Ok(Some(MemberOutcome::Left { me }));
                }
                Round::Transition { view, sync } => match self.enter(view, sync) {
                    Ok(()) => {}
                    Err(e) if incurable(&e) => return Err(e),
                    Err(_) => round = Some(Round::Recover),
                },
                Round::Recover => round = Some(self.meet(step, false)),
            }
        }
    }

    /// Runs the member from `start_step` (entering by `round` first, if
    /// given) until the step budget completes, it leaves, or it crashes.
    /// `Err` is an [`incurable`] error; dropping the member is then the
    /// same signal to its peers as a crash.
    fn run(mut self, start_step: usize, mut round: Option<Round>) -> Result<MemberOutcome, CommError> {
        let mut step = start_step;
        while step < self.cfg.base.steps {
            if let Some(done) = self.settle(step, round.take())? {
                return Ok(done);
            }
            // Never lend the optimizer: a failed step is retried from live
            // parameters after recovery, and members may have applied
            // *different* bucket subsets before the failure.
            match self.replica.step(step, &mut self.source, false) {
                Ok(s) => {
                    if self.is_leader() {
                        self.hub.record_step(step, s.mean_loss, s.wall_s);
                    }
                    step += 1;
                }
                Err(_) => {
                    // A mid-step failure abandons the attempt: reset the
                    // gradients, recover a smaller world, and re-run the
                    // same global step there.
                    self.replica.zero_grads();
                    self.hub.note_retry();
                    round = Some(Round::Recover);
                }
            }
        }
        self.hub.close();
        Ok(MemberOutcome::Finished { me: self.me, done: self.replica.finish() })
    }
}

/// True for an error that recovering into a smaller world cannot cure:
/// the root would broadcast the same undecodable state again.
fn incurable(e: &CommError) -> bool {
    matches!(e, CommError::MalformedPayload { .. })
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
                member.run(0, None).unwrap_or_else(|error| MemberOutcome::Failed { me, error })
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
                let member = Member {
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
                member
                    .run(start, Some(Round::Transition { view: adm.view, sync: adm.sync }))
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
        handoffs: s.counters.handoffs,
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
    use crate::trainer::test_support::{toy_config, toy_model, toy_source, ToySource};
    use crate::trainer::train_data_parallel;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn elastic_config(ranks: usize, steps: usize) -> ElasticConfig {
        let mut base = toy_config(ranks, steps);
        if !ranks.is_multiple_of(base.node_size) {
            base.node_size = 1;
        }
        let mut cfg = ElasticConfig::new(base);
        cfg.recv_deadline = Duration::from_secs(2);
        cfg
    }

    fn run(
        cfg: &ElasticConfig,
        faults: &FaultPlan,
    ) -> (ElasticReport, Box<dyn exaclim_nn::Layer>) {
        train_data_parallel_elastic(cfg, faults, toy_model, toy_source)
    }

    /// Counts `on_step_timing` calls across every rank's source.
    struct TimedSource(ToySource, Arc<AtomicUsize>);

    impl BatchSource for TimedSource {
        fn next_batch(&mut self) -> crate::trainer::Batch {
            self.0.next_batch()
        }
        fn on_step_timing(&mut self, _ingest_wait: Duration, _step_wall: Duration) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn healthy_elastic_run_matches_plain_trainer_bitwise() {
        // With no churn the elastic path must follow the plain trainer's
        // exact arithmetic: the membership rounds and the ×1.0 LR rescale
        // are bit-neutral. It also feeds the reader autoscaler one
        // `on_step_timing` per rank per step. Returns the hash both
        // trainers landed on.
        let both = |overlap: bool, fused: bool| {
            let mut cfg = elastic_config(2, 6);
            cfg.base.overlap_comm = overlap;
            cfg.base.fused_optim = fused;
            let (plain, _m) = train_data_parallel(&cfg.base, toy_model, toy_source);
            let timings = Arc::new(AtomicUsize::new(0));
            let source = |rank| TimedSource(toy_source(rank), timings.clone());
            let (r, _m2) = train_data_parallel_elastic(&cfg, &FaultPlan::none(), toy_model, source);
            assert!(r.consistent);
            assert_eq!(
                r.final_hashes[0], plain.final_hashes[0],
                "overlap={overlap} fused={fused}: identical parameter bits"
            );
            assert_eq!(r.generations.len(), 1, "no transitions");
            assert!(r.ranks_left.is_empty() && r.ranks_joined.is_empty() && r.ranks_lost.is_empty());
            assert_eq!(r.steps_retried, 0);
            if overlap && fused {
                assert_eq!(timings.load(Ordering::SeqCst), 2 * 6, "one per rank per step");
            }
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
        let cfg = elastic_config(4, 8);
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
        assert_eq!(r.handoffs, 0, "a survivor broadcast the state");
        assert_eq!(r.steps_retried, 0, "boundary churn loses no step");
    }

    #[test]
    fn elastic_churn_is_bit_identical_with_fused_optimizer() {
        // Elastic never lends the optimizer to the engine (see
        // train_step); fused mode is par_step only — which must still be
        // bit-identical through leaves, joins, and the LR rescales.
        let run_mode = |fused: bool| {
            let mut cfg = elastic_config(4, 8);
            cfg.base.overlap_comm = true;
            cfg.base.fused_optim = fused;
            let faults = FaultPlan::seeded(11).with_leave_at_step(1, 2).with_join_at_step(4, 5);
            let (r, _m) = run(&cfg, &faults);
            assert!(r.consistent, "fused={fused}");
            assert_eq!(r.steps.len(), 8, "fused={fused}");
            r.final_hashes
        };
        assert_eq!(run_mode(false), run_mode(true));
    }

    #[test]
    fn learning_rate_rescales_linearly_with_the_world() {
        let cfg = elastic_config(4, 6);
        let faults = FaultPlan::seeded(3).with_leave_at_step(3, 2);
        let (r, _m) = run(&cfg, &faults);
        // toy_config uses SGD lr 0.05; 4 → 3 ranks scales by 3/4.
        assert_eq!(r.generations[0].lr, 0.05);
        assert_eq!(r.generations[1].lr, scale_lr_for_batch(0.05, 4, 3));
    }

    #[test]
    fn elastic_replay_is_bit_identical() {
        let faults = FaultPlan::seeded(9)
            .with_leave_at_step(2, 3)
            .with_join_at_step(4, 4)
            .with_crash_at_step(1, 6);
        let cfg = elastic_config(4, 8);
        let (a, _ma) = run(&cfg, &faults);
        let (b, _mb) = run(&cfg, &faults);
        assert_eq!(a.final_hashes, b.final_hashes, "same plan, same bits");
        assert_eq!(a.generations.len(), b.generations.len());
        assert_eq!(a.ranks_lost, b.ranks_lost);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits(), "step {} loss", x.step);
        }
    }

    #[test]
    fn crash_recovers_without_checkpoint_restart() {
        // Rank 2 crashes at step 5. Survivors recover in place from the
        // live model: no checkpoint restore, no step lost or replayed —
        // a restart from a step-4 checkpoint would replay step 4.
        let cfg = elastic_config(4, 8);
        let faults = FaultPlan::seeded(7).with_crash_at_step(2, 5);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_lost, vec![2]);
        assert_eq!(r.steps.len(), 8);
        assert_eq!(r.steps_retried, 0, "a boundary crash loses zero completed steps");
        assert_eq!(r.handoffs, 0);
        assert_eq!(r.final_hashes.len(), 3);
        let last = r.generations.last().unwrap();
        assert!(last.cause.contains("crash recovery"), "{}", last.cause);
        assert_eq!(last.members, vec![0, 1, 3]);
    }

    #[test]
    fn leader_crash_recovers_and_replays_bit_identically() {
        // The leader (member 0) crashes at step 3 of 6: the others find it
        // dead in the boundary round and elect member 1. Twice, same bits.
        let faults = FaultPlan::seeded(21).with_crash_at_step(0, 3);
        let go = || {
            let (r, _m) = run(&elastic_config(4, 6), &faults);
            assert!(r.consistent);
            assert_eq!(r.ranks_lost, vec![0]);
            assert_eq!((r.steps.len(), r.steps_retried), (6, 0));
            assert_eq!(r.generations.last().unwrap().members, vec![1, 2, 3]);
            r
        };
        let (a, b) = (go(), go());
        assert_eq!(a.final_hashes, b.final_hashes, "same plan, same bits");
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits(), "step {} loss", x.step);
        }
    }

    #[test]
    fn two_crashes_across_generations_recover() {
        // Member 1 crashes at step 2, member 3 at step 4 — two recoveries,
        // each from the live model, and the last two finish consistently.
        let cfg = elastic_config(4, 6);
        let faults = FaultPlan::seeded(5).with_crash_at_step(1, 2).with_crash_at_step(3, 4);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent, "finishers diverged: {:?}", r.final_hashes);
        assert_eq!(r.ranks_lost, vec![1, 3]);
        assert_eq!((r.steps.len(), r.steps_retried, r.final_hashes.len()), (6, 0, 2));
        assert_eq!(r.generations.len(), 3, "initial world + two recoveries");
        assert_eq!(r.generations[1].members, vec![0, 2, 3]);
        assert_eq!(r.generations[2].members, vec![0, 2]);
    }

    #[test]
    fn recovery_releases_the_generations_boundary_meeting() {
        // Member 1 fails step 2 of generation 0 and goes into recovery
        // while member 0, done with that step, waits at the boundary of
        // step 3. Member 1 is alive but will never check in there, so the
        // hub must release member 0 into the recovery — in either arrival
        // order — where both move to generation 1 with nobody lost. The
        // members are joined only after both have reported, so a missing
        // release fails the test at the timeout instead of hanging it.
        let cfg = elastic_config(2, 4);
        let hub = Arc::new(ElasticHub::new(&cfg, &FaultPlan::none()));
        let _leases = (hub.adopt(0), hub.adopt(1));
        let view = WorldView { generation: 0, members: vec![0, 1] };
        let live = Checkin { wants_leave: false, synced: true };
        let (tx, rx) = std::sync::mpsc::channel();
        let members = [(0, 3), (1, 2)].map(|(me, step)| {
            let (hub, view, tx) = (hub.clone(), view.clone(), tx.clone());
            std::thread::spawn(move || {
                if me == 0 {
                    let round = hub.meet(&view, step, true, me, live);
                    assert!(matches!(round, Round::Recover), "member 0 is released from the boundary");
                }
                match hub.meet(&view, step, false, me, live) {
                    Round::Transition { view, sync: SyncPlan::None } => tx.send(view).unwrap(),
                    _ => panic!("member {me}: expected a transition with nothing to sync"),
                }
            })
        });
        drop(tx);
        let next = || rx.recv_timeout(Duration::from_secs(10)).expect("both members leave the recovery");
        let (v0, v1) = (next(), next());
        for h in members {
            h.join().expect("member thread");
        }
        assert_eq!(v0, v1, "one decision");
        assert_eq!(v0, WorldView { generation: 1, members: vec![0, 1] });
        let s = hub.state.lock().unwrap();
        assert!(s.meetings.is_empty(), "collected meetings are dropped");
        assert_eq!(s.history.last().unwrap().cause, "crash recovery (lost [])");
        assert!(s.ranks_lost.is_empty());
    }

    /// A model builder whose `n`-th build (from 0) is `toy_model` under
    /// other parameter names — a node launched from another job config.
    /// Optimizer state from any other build names velocities it lacks.
    fn renamed_at_build(n: usize) -> impl Fn(&mut rand::rngs::StdRng) -> Box<dyn Layer> + Clone + Send + Sync {
        use exaclim_nn::layers::Conv2d;
        use exaclim_tensor::ops::Conv2dParams;
        let built = Arc::new(AtomicUsize::new(0));
        move |rng: &mut rand::rngs::StdRng| -> Box<dyn Layer> {
            if built.fetch_add(1, Ordering::SeqCst) != n {
                return toy_model(rng);
            }
            Box::new(
                exaclim_nn::Sequential::new("toy")
                    .push(Conv2d::new("x1", 2, 8, 3, Conv2dParams::padded(1), true, rng))
                    .push(exaclim_nn::layers::ReLU::new())
                    .push(Conv2d::new("x2", 8, 2, 1, Conv2dParams::default(), true, rng)),
            )
        }
    }

    #[test]
    fn joiner_that_cannot_decode_the_state_broadcast_is_reported_not_unwound() {
        // Member 2 joins at step 3 with renamed parameters (it builds only
        // once admitted, after both founders): rank 0's optimizer state
        // names velocities it does not have. It must stop with the typed
        // error in the report — no panic on its thread — and the founders
        // carry on as after a crash.
        let cfg = elastic_config(2, 6);
        let faults = FaultPlan::seeded(3).with_join_at_step(2, 3);
        let (r, _m) = train_data_parallel_elastic(&cfg, &faults, renamed_at_build(2), toy_source);
        match r.ranks_failed.as_slice() {
            [(2, e @ CommError::MalformedPayload { rank: 2, root: 0, .. })] => {
                assert!(e.to_string().contains("unknown parameter"), "{e}");
                assert!(!e.is_peer_failure());
            }
            other => panic!("expected member 2 to fail on a malformed payload, got {other:?}"),
        }
        assert_eq!(r.ranks_lost, vec![2], "peers recover as from a crash");
        assert_eq!(r.steps.len(), 6);
        assert_eq!(r.final_hashes.len(), 2, "the founders finish");
        assert!(r.consistent);
    }

    #[test]
    fn flapping_rank_leaves_and_rejoins() {
        // Rank 1 leaves at step 2 and rejoins at step 5 — the lobby and
        // liveness bookkeeping must treat the rejoin as a fresh member.
        let cfg = elastic_config(3, 8);
        let faults = FaultPlan::seeded(5).with_leave_at_step(1, 2).with_join_at_step(1, 5);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_left, vec![1]);
        assert_eq!(r.ranks_joined, vec![1]);
        assert_eq!(r.final_hashes.len(), 3, "all three ids finish (1 via its rejoin)");
        assert_eq!(r.generations.last().unwrap().members, vec![0, 1, 2]);
    }

    #[test]
    fn join_during_leave_cascades_at_one_boundary() {
        // Rank 1 leaves at step 2 while also queued to join at step 2:
        // the boundary commits *two* transitions back to back (out, then
        // readmitted), exercising the round-to-fixpoint loop.
        let cfg = elastic_config(3, 6);
        let faults = FaultPlan::seeded(6).with_leave_at_step(1, 2).with_join_at_step(1, 2);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.ranks_left, vec![1]);
        assert_eq!(r.ranks_joined, vec![1]);
        assert_eq!(r.generations.len(), 3, "two transitions at one boundary");
        assert_eq!(r.generations[1].begin_step, r.generations[2].begin_step);
        assert_eq!(r.generations[1].members, vec![0, 2]);
        assert_eq!(r.generations[2].members, vec![0, 1, 2]);
    }

    /// Both founders of a 2-rank world leave at step 3 exactly when members
    /// 2 and 3 join: no survivor can root a broadcast.
    fn founders_hand_off() -> FaultPlan {
        FaultPlan::seeded(8)
            .with_leave_at_step(0, 3)
            .with_leave_at_step(1, 3)
            .with_join_at_step(2, 3)
            .with_join_at_step(3, 3)
    }

    #[test]
    fn all_founders_leave_and_joiners_continue_via_handoff() {
        // The old leader leaves its snapshot (with optimizer state) at the
        // hub and the new world adopts it.
        let (r, _m) = run(&elastic_config(2, 6), &founders_hand_off());
        assert!(r.consistent, "joiner replicas diverged: {:?}", r.final_hashes);
        assert_eq!(r.steps.len(), 6);
        let mut left = r.ranks_left.clone();
        left.sort_unstable();
        assert_eq!(left, vec![0, 1]);
        assert_eq!(r.ranks_joined, vec![2, 3]);
        assert_eq!(r.handoffs, 1, "survivor-less transition used the handoff");
        assert_eq!(r.param_broadcasts, 0);
        assert_eq!(r.generations.last().unwrap().members, vec![2, 3]);
    }

    #[test]
    fn handoff_joiner_that_cannot_adopt_the_state_is_reported_not_unwound() {
        // As above, but the first joiner to build its model renames its
        // parameters: the handed-off optimizer state names velocities it
        // does not have. It must stop with the typed error — no panic on
        // its thread — and the other joiner carries on alone as after a
        // crash.
        let cfg = elastic_config(2, 6);
        let (r, _m) = train_data_parallel_elastic(&cfg, &founders_hand_off(), renamed_at_build(2), toy_source);
        let failed = match r.ranks_failed.as_slice() {
            [(me, e @ CommError::MalformedPayload { rank, root: 0, .. })] => {
                assert!(e.to_string().contains("unknown parameter"), "{e}");
                assert_eq!(*rank + 2, *me, "its rank in the world [2, 3]");
                *me
            }
            other => panic!("expected a joiner to fail on a malformed handoff, got {other:?}"),
        };
        assert_eq!(r.ranks_lost, vec![failed], "its peer recovers as from a crash");
        assert_eq!(r.handoffs, 1);
        assert_eq!(r.steps.len(), 6);
        assert_eq!(r.final_hashes.len(), 1, "the other joiner finishes");
    }

    #[test]
    fn late_joiner_is_never_admitted() {
        let cfg = elastic_config(2, 4);
        let faults = FaultPlan::seeded(4).with_join_at_step(7, 99);
        let (r, _m) = run(&cfg, &faults);
        assert!(r.consistent);
        assert_eq!(r.never_admitted, vec![7]);
        assert!(r.ranks_joined.is_empty());
    }

    #[test]
    fn random_churn_plan_completes_and_replays() {
        // Seeded ChaosConfig schedules (the fuzz-ish gate): crashes, leaves
        // and joins drawn pseudo-randomly over 3–4 founders. Every run must
        // keep the membership protocol's invariants and replay
        // bit-identically.
        use exaclim_faults::ChaosConfig;
        const STEPS: usize = 6;
        let chaos = ChaosConfig {
            crash_prob: 0.25,
            straggler_prob: 0.0,
            link_fault_prob: 0.0,
            leave_prob: 0.3,
            join_prob: 0.4,
            horizon: STEPS,
            ..ChaosConfig::default()
        };
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        let mut explored = 0;
        for seed in 0..12u64 {
            let founders = 3 + seed as usize % 2;
            let faults = FaultPlan::random(seed, founders, &chaos);
            // A plan with no founder that stays to the end may leave the
            // world empty before a joiner arrives: nothing to train.
            let stays = |m: usize| {
                faults.crash_step(m).is_none_or(|s| s >= STEPS)
                    && faults.leave_step(m).is_none_or(|s| s >= STEPS)
            };
            if !(0..founders).any(stays) {
                continue;
            }
            explored += 1;
            let case = format!("seed {seed}, {founders} founders, {faults:?}");
            let cfg = elastic_config(founders, STEPS);
            let ((a, _ma), (b, _mb)) = (run(&cfg, &faults), run(&cfg, &faults));
            let gens = &a.generations;
            assert!(gens.windows(2).all(|w| w[0].generation < w[1].generation), "{case}: generations increase");
            for g in gens {
                assert!(!g.members.is_empty(), "{case}: generation {} is empty", g.generation);
                assert!(g.members.windows(2).all(|w| w[0] < w[1]), "{case}: members sorted");
            }
            let (mut removed, mut added) = (Vec::new(), Vec::new());
            for w in gens.windows(2) {
                removed.extend(w[0].members.iter().filter(|m| !w[1].members.contains(m)));
                added.extend(w[1].members.iter().filter(|m| !w[0].members.contains(m)));
            }
            let gone = a.ranks_left.iter().chain(&a.ranks_lost).copied().collect();
            assert_eq!(sorted(removed), sorted(gone), "{case}: removals are leaves and losses");
            assert_eq!(sorted(added), sorted(a.ranks_joined.clone()), "{case}: additions are joins");
            assert_eq!(a.steps.len(), STEPS, "{case}");
            assert!(a.consistent && b.consistent, "{case}: finishers diverged");
            assert_eq!(a.final_hashes.len(), gens.last().unwrap().members.len(), "{case}: finishers");
            assert_eq!(a.final_hashes, b.final_hashes, "{case}: replay hashes");
            for (x, y) in a.steps.iter().zip(&b.steps) {
                assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits(), "{case}: step {} loss", x.step);
            }
            let members = |r: &ElasticReport| r.generations.iter().map(|g| g.members.clone()).collect::<Vec<_>>();
            assert_eq!(members(&a), members(&b), "{case}: replay membership");
        }
        assert!(explored >= 8, "only {explored} plans kept a live member");
    }
}
