//! # exaclim-faults
//!
//! Seeded, deterministic fault-injection plans for the whole stack.
//!
//! At the paper's scale (4560 Summit nodes / 27360 GPUs) node failures,
//! flaky links, and stragglers are routine operating conditions, not
//! exceptions. A [`FaultPlan`] is a *pure data* description of which
//! faults strike where and when — built either explicitly or pseudo-
//! randomly from a seed — and is consumed by:
//!
//! * `exaclim-hpcsim` — crash/degrade events in the discrete-event
//!   simulator, per-link slowdown in the α–β network models;
//! * `exaclim-staging` — reader-node failure and shard reassignment in
//!   both the simulated and the real (thread-node) staging system;
//! * `exaclim-comm` / `exaclim-distrib` — rank death at a training step
//!   (detected through typed comm errors), graceful leave and lobby join,
//!   all absorbed by elastic membership without a restart.
//!
//! Because a plan is plain data keyed by a seed, replaying the same plan
//! reproduces the same failure schedule bit-for-bit — chaos testing with
//! deterministic replays.

use std::fmt;

/// When a node crash strikes, in the time base of whichever layer
/// consumes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPoint {
    /// Crash just before executing this training step (trainer layer).
    Step(usize),
    /// Crash at this simulated time in seconds (event simulator).
    Time(f64),
    /// Crash after reading this many owned samples (real staging layer).
    AfterReads(usize),
}

/// A node/rank death.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCrash {
    /// The node (or rank) that dies.
    pub node: usize,
    /// When it dies.
    pub at: CrashPoint,
}

/// Degradation of the link `src → dst` (or a whole class of links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Source endpoint; `None` matches every source.
    pub src: Option<usize>,
    /// Destination endpoint; `None` matches every destination.
    pub dst: Option<usize>,
    /// Multiplicative slowdown of the link (1.0 = healthy, 4.0 = 4×
    /// slower).
    pub slowdown: f64,
    /// Probability each message must be retransmitted (0.0 = lossless).
    pub drop_prob: f64,
}

impl LinkFault {
    /// Expected transmissions per delivered message: `1 / (1 − p)`.
    pub fn expected_transmissions(&self) -> f64 {
        assert!(
            (0.0..1.0).contains(&self.drop_prob),
            "drop probability must be in [0, 1): {}",
            self.drop_prob
        );
        1.0 / (1.0 - self.drop_prob)
    }

    /// True when this fault applies to the link `src → dst`.
    pub fn matches(&self, src: usize, dst: usize) -> bool {
        self.src.is_none_or(|s| s == src) && self.dst.is_none_or(|d| d == dst)
    }
}

/// A persistently slow node: all its work takes `factor`× longer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// The slow node.
    pub node: usize,
    /// Work-time multiplier (≥ 1.0).
    pub factor: f64,
}

/// A node that asks to join the world at a step boundary (elastic
/// training). Unlike a crash this is *cooperative*: the newcomer waits
/// in the lobby until the membership protocol admits it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankJoin {
    /// The node (or rank id) that joins.
    pub node: usize,
    /// First step boundary at which it may be admitted.
    pub at_step: usize,
}

/// A node that announces a *graceful* departure at a step boundary.
/// Unlike a crash the rest of the world is told in advance, so no work
/// is lost and no recovery round is needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankLeave {
    /// The node (or rank id) that leaves.
    pub node: usize,
    /// Step boundary at which it departs (before executing this step).
    pub at_step: usize,
}

/// A complete, deterministic fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed this plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Node deaths.
    pub crashes: Vec<NodeCrash>,
    /// Link degradations.
    pub links: Vec<LinkFault>,
    /// Slow nodes.
    pub stragglers: Vec<Straggler>,
    /// Graceful departures at step boundaries (elastic training).
    pub leaves: Vec<RankLeave>,
    /// Cooperative joins at step boundaries (elastic training).
    pub joins: Vec<RankJoin>,
}

/// Knobs for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Per-node crash probability.
    pub crash_prob: f64,
    /// Latest step/time/read count a crash may strike (scaled per layer).
    pub horizon: usize,
    /// Per-node straggler probability.
    pub straggler_prob: f64,
    /// Maximum straggler slowdown factor.
    pub max_straggle: f64,
    /// Per-node probability its outgoing links degrade.
    pub link_fault_prob: f64,
    /// Maximum link slowdown factor.
    pub max_link_slowdown: f64,
    /// Maximum per-message drop probability.
    pub max_drop_prob: f64,
    /// Per-node probability of a graceful leave (elastic churn).
    /// Defaults to 0.0 so pre-elastic plans replay unchanged.
    pub leave_prob: f64,
    /// Per-node probability a *new* node joins mid-run (elastic churn).
    /// Joiner ids are allocated above the existing node range.
    /// Defaults to 0.0 so pre-elastic plans replay unchanged.
    pub join_prob: f64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            crash_prob: 0.05,
            horizon: 100,
            straggler_prob: 0.05,
            max_straggle: 4.0,
            link_fault_prob: 0.05,
            max_link_slowdown: 8.0,
            max_drop_prob: 0.2,
            leave_prob: 0.0,
            join_prob: 0.0,
        }
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// An empty (healthy-machine) plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan carrying a seed, for builder-style construction.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// A pseudo-random plan over `nodes` nodes: every draw is a pure
    /// function of `(seed, node)`, so the same seed always yields the
    /// same schedule.
    pub fn random(seed: u64, nodes: usize, cfg: &ChaosConfig) -> FaultPlan {
        let mut plan = FaultPlan::seeded(seed);
        for node in 0..nodes {
            let mut s = seed ^ (node as u64).wrapping_mul(0xa076_1d64_78bd_642f);
            if unit(&mut s) < cfg.crash_prob {
                let at = (splitmix64(&mut s) as usize) % cfg.horizon.max(1);
                plan.crashes.push(NodeCrash { node, at: CrashPoint::Step(at) });
            }
            if unit(&mut s) < cfg.straggler_prob {
                let factor = 1.0 + unit(&mut s) * (cfg.max_straggle - 1.0).max(0.0);
                plan.stragglers.push(Straggler { node, factor });
            }
            if unit(&mut s) < cfg.link_fault_prob {
                let slowdown = 1.0 + unit(&mut s) * (cfg.max_link_slowdown - 1.0).max(0.0);
                let drop_prob = unit(&mut s) * cfg.max_drop_prob;
                plan.links.push(LinkFault { src: Some(node), dst: None, slowdown, drop_prob });
            }
            // Elastic churn draws come *after* the pre-elastic draws so
            // that plans built with leave_prob = join_prob = 0.0 remain
            // bit-identical to plans generated before churn existed.
            if unit(&mut s) < cfg.leave_prob {
                let at_step = (splitmix64(&mut s) as usize) % cfg.horizon.max(1);
                plan.leaves.push(RankLeave { node, at_step });
            }
            if unit(&mut s) < cfg.join_prob {
                let at_step = (splitmix64(&mut s) as usize) % cfg.horizon.max(1);
                // Fresh id above the existing range: joiners are new ranks.
                let id = nodes + plan.joins.len();
                plan.joins.push(RankJoin { node: id, at_step });
            }
        }
        plan
    }

    // --- builders --------------------------------------------------------

    /// Adds a crash of `node` just before training step `step`.
    pub fn with_crash_at_step(mut self, node: usize, step: usize) -> FaultPlan {
        self.crashes.push(NodeCrash { node, at: CrashPoint::Step(step) });
        self
    }

    /// Adds a crash of `node` at simulated time `t` seconds.
    pub fn with_crash_at_time(mut self, node: usize, t: f64) -> FaultPlan {
        self.crashes.push(NodeCrash { node, at: CrashPoint::Time(t) });
        self
    }

    /// Adds a crash of `node` after it has read `reads` owned samples.
    pub fn with_crash_after_reads(mut self, node: usize, reads: usize) -> FaultPlan {
        self.crashes.push(NodeCrash { node, at: CrashPoint::AfterReads(reads) });
        self
    }

    /// Adds a link degradation.
    pub fn with_link_fault(mut self, fault: LinkFault) -> FaultPlan {
        assert!(fault.slowdown >= 1.0, "slowdown must be ≥ 1: {}", fault.slowdown);
        assert!(
            (0.0..1.0).contains(&fault.drop_prob),
            "drop probability must be in [0, 1): {}",
            fault.drop_prob
        );
        self.links.push(fault);
        self
    }

    /// Adds a straggler.
    pub fn with_straggler(mut self, node: usize, factor: f64) -> FaultPlan {
        assert!(factor >= 1.0, "straggler factor must be ≥ 1: {factor}");
        self.stragglers.push(Straggler { node, factor });
        self
    }

    /// Adds a cooperative join of `node` at the boundary before `step`.
    pub fn with_join_at_step(mut self, node: usize, step: usize) -> FaultPlan {
        self.joins.push(RankJoin { node, at_step: step });
        self
    }

    /// Adds a graceful leave of `node` at the boundary before `step`.
    pub fn with_leave_at_step(mut self, node: usize, step: usize) -> FaultPlan {
        self.leaves.push(RankLeave { node, at_step: step });
        self
    }

    // --- queries ---------------------------------------------------------

    /// True when the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.links.is_empty()
            && self.stragglers.is_empty()
            && self.leaves.is_empty()
            && self.joins.is_empty()
    }

    /// The step at which `node` crashes, if any ([`CrashPoint::Step`]
    /// entries only; the earliest wins).
    pub fn crash_step(&self, node: usize) -> Option<usize> {
        self.crashes
            .iter()
            .filter(|c| c.node == node)
            .filter_map(|c| match c.at {
                CrashPoint::Step(s) => Some(s),
                _ => None,
            })
            .min()
    }

    /// The simulated time at which `node` crashes, if any.
    #[cfg(test)]
    fn crash_time(&self, node: usize) -> Option<f64> {
        self.crashes
            .iter()
            .filter(|c| c.node == node)
            .filter_map(|c| match c.at {
                CrashPoint::Time(t) => Some(t),
                _ => None,
            })
            .fold(None, |acc: Option<f64>, t| Some(acc.map_or(t, |a| a.min(t))))
    }

    /// The owned-read count after which `node` crashes, if any.
    pub fn crash_after_reads(&self, node: usize) -> Option<usize> {
        self.crashes
            .iter()
            .filter(|c| c.node == node)
            .filter_map(|c| match c.at {
                CrashPoint::AfterReads(n) => Some(n),
                _ => None,
            })
            .min()
    }

    /// Nodes doomed to crash (any crash point).
    #[cfg(test)]
    fn doomed_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.crashes.iter().map(|c| c.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The first step at which `node` gracefully leaves, if scheduled
    /// (the earliest wins). A node that leaves and later rejoins is
    /// expressed as a leave plus a join with a larger step.
    pub fn leave_step(&self, node: usize) -> Option<usize> {
        self.leaves.iter().filter(|l| l.node == node).map(|l| l.at_step).min()
    }

    /// The first step at which `node` may be admitted, if scheduled.
    #[cfg(test)]
    fn join_step(&self, node: usize) -> Option<usize> {
        self.joins.iter().filter(|j| j.node == node).map(|j| j.at_step).min()
    }

    /// Nodes scheduled to join, sorted and deduplicated.
    pub fn joining_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.joins.iter().map(|j| j.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Nodes scheduled to leave, sorted and deduplicated.
    #[cfg(test)]
    fn leaving_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.leaves.iter().map(|l| l.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The combined fault on the link `src → dst`: slowdowns multiply,
    /// drop probabilities compose as independent losses. Returns a
    /// healthy fault when nothing matches.
    #[cfg(test)]
    fn link_fault(&self, src: usize, dst: usize) -> LinkFault {
        let mut slowdown = 1.0;
        let mut pass = 1.0; // probability a message survives every fault
        for f in self.links.iter().filter(|f| f.matches(src, dst)) {
            slowdown *= f.slowdown;
            pass *= 1.0 - f.drop_prob;
        }
        LinkFault {
            src: Some(src),
            dst: Some(dst),
            slowdown,
            drop_prob: 1.0 - pass,
        }
    }

    /// The combined fault on all links *leaving* `src`, whatever their
    /// destination — the right aggregate when a model charges a sender's
    /// whole forwarding volume to one egress pipe.
    pub fn egress_fault(&self, src: usize) -> LinkFault {
        let mut slowdown = 1.0;
        let mut pass = 1.0;
        for f in self.links.iter().filter(|f| f.src.is_none_or(|s| s == src)) {
            slowdown *= f.slowdown;
            pass *= 1.0 - f.drop_prob;
        }
        LinkFault { src: Some(src), dst: None, slowdown, drop_prob: 1.0 - pass }
    }

    /// The straggler slowdown of `node` (1.0 when healthy; multiple
    /// entries multiply).
    pub fn straggler_factor(&self, node: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.node == node)
            .map(|s| s.factor)
            .product()
    }

    /// A stable 64-bit digest of the whole schedule; two plans with the
    /// same digest inject the same faults. Used by determinism tests.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for c in &self.crashes {
            mix(c.node as u64);
            match c.at {
                CrashPoint::Step(s) => {
                    mix(1);
                    mix(s as u64);
                }
                CrashPoint::Time(t) => {
                    mix(2);
                    mix(t.to_bits());
                }
                CrashPoint::AfterReads(n) => {
                    mix(3);
                    mix(n as u64);
                }
            }
        }
        for l in &self.links {
            mix(l.src.map_or(u64::MAX, |s| s as u64));
            mix(l.dst.map_or(u64::MAX, |d| d as u64));
            mix(l.slowdown.to_bits());
            mix(l.drop_prob.to_bits());
        }
        for s in &self.stragglers {
            mix(s.node as u64);
            mix(s.factor.to_bits());
        }
        for l in &self.leaves {
            mix(4);
            mix(l.node as u64);
            mix(l.at_step as u64);
        }
        for j in &self.joins {
            mix(5);
            mix(j.node as u64);
            mix(j.at_step as u64);
        }
        h
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultPlan(seed={}, {} crashes, {} link faults, {} stragglers, {} leaves, {} joins)",
            self.seed,
            self.crashes.len(),
            self.links.len(),
            self.stragglers.len(),
            self.leaves.len(),
            self.joins.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic() {
        let cfg = ChaosConfig { crash_prob: 0.5, ..ChaosConfig::default() };
        let a = FaultPlan::random(42, 100, &cfg);
        let b = FaultPlan::random(42, 100, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = FaultPlan::random(43, 100, &cfg);
        assert_ne!(a.digest(), c.digest(), "different seeds differ");
        assert!(!a.crashes.is_empty(), "p=0.5 over 100 nodes should crash someone");
    }

    #[test]
    fn builder_queries_roundtrip() {
        let plan = FaultPlan::seeded(7)
            .with_crash_at_step(3, 10)
            .with_crash_at_time(1, 2.5)
            .with_crash_after_reads(2, 4)
            .with_straggler(0, 3.0)
            .with_link_fault(LinkFault { src: Some(1), dst: None, slowdown: 2.0, drop_prob: 0.5 });
        assert_eq!(plan.crash_step(3), Some(10));
        assert_eq!(plan.crash_step(0), None);
        assert_eq!(plan.crash_time(1), Some(2.5));
        assert_eq!(plan.crash_after_reads(2), Some(4));
        assert_eq!(plan.straggler_factor(0), 3.0);
        assert_eq!(plan.straggler_factor(5), 1.0);
        assert_eq!(plan.doomed_nodes(), vec![1, 2, 3]);
        let lf = plan.link_fault(1, 9);
        assert_eq!(lf.slowdown, 2.0);
        assert_eq!(lf.expected_transmissions(), 2.0);
        let healthy = plan.link_fault(0, 9);
        assert_eq!(healthy.slowdown, 1.0);
        assert_eq!(healthy.drop_prob, 0.0);
    }

    #[test]
    fn link_faults_compose() {
        let plan = FaultPlan::none()
            .with_link_fault(LinkFault { src: Some(0), dst: None, slowdown: 2.0, drop_prob: 0.5 })
            .with_link_fault(LinkFault { src: None, dst: Some(1), slowdown: 3.0, drop_prob: 0.5 });
        let lf = plan.link_fault(0, 1);
        assert_eq!(lf.slowdown, 6.0);
        assert!((lf.drop_prob - 0.75).abs() < 1e-12);
    }

    #[test]
    fn earliest_crash_wins() {
        let plan = FaultPlan::none().with_crash_at_step(4, 9).with_crash_at_step(4, 3);
        assert_eq!(plan.crash_step(4), Some(3));
    }

    #[test]
    fn join_leave_builders_and_queries() {
        let plan = FaultPlan::seeded(11)
            .with_leave_at_step(1, 4)
            .with_leave_at_step(1, 2)
            .with_join_at_step(5, 6)
            .with_join_at_step(6, 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.leave_step(1), Some(2), "earliest leave wins");
        assert_eq!(plan.leave_step(0), None);
        assert_eq!(plan.join_step(5), Some(6));
        assert_eq!(plan.join_step(9), None);
        assert_eq!(plan.leaving_nodes(), vec![1]);
        assert_eq!(plan.joining_nodes(), vec![5, 6]);
        let display = plan.to_string();
        assert!(display.contains("2 leaves"), "{display}");
        assert!(display.contains("2 joins"), "{display}");
    }

    #[test]
    fn churn_changes_the_digest() {
        let base = FaultPlan::seeded(3).with_crash_at_step(0, 5);
        let with_leave = base.clone().with_leave_at_step(2, 1);
        let with_join = base.clone().with_join_at_step(2, 1);
        assert_ne!(base.digest(), with_leave.digest());
        assert_ne!(base.digest(), with_join.digest());
        assert_ne!(
            with_leave.digest(),
            with_join.digest(),
            "a leave and a join of the same (node, step) must hash differently"
        );
    }

    #[test]
    fn zero_churn_probability_keeps_legacy_plans_bit_identical() {
        // The elastic draws happen after the legacy draws and only when
        // their probabilities are non-zero, so pre-elastic schedules
        // replay unchanged under the extended generator.
        let cfg = ChaosConfig { crash_prob: 0.5, straggler_prob: 0.5, ..ChaosConfig::default() };
        let plan = FaultPlan::random(42, 64, &cfg);
        assert!(plan.leaves.is_empty());
        assert!(plan.joins.is_empty());
        assert!(!plan.crashes.is_empty());
    }

    #[test]
    fn random_churn_is_deterministic_and_joiners_get_fresh_ids() {
        let cfg = ChaosConfig {
            crash_prob: 0.0,
            straggler_prob: 0.0,
            link_fault_prob: 0.0,
            leave_prob: 0.5,
            join_prob: 0.5,
            ..ChaosConfig::default()
        };
        let a = FaultPlan::random(7, 32, &cfg);
        let b = FaultPlan::random(7, 32, &cfg);
        assert_eq!(a, b);
        assert!(!a.leaves.is_empty(), "p=0.5 over 32 nodes should schedule leaves");
        assert!(!a.joins.is_empty(), "p=0.5 over 32 nodes should schedule joins");
        for j in &a.joins {
            assert!(j.node >= 32, "joiner ids are allocated above the node range");
        }
        let ids = a.joining_nodes();
        assert_eq!(ids.len(), a.joins.len(), "joiner ids are unique");
        for l in &a.leaves {
            assert!(l.node < 32, "only existing nodes leave");
            assert!(l.at_step < cfg.horizon);
        }
    }
}
