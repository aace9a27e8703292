//! Shard ownership feeding the streaming ingest readers.
//!
//! The staging plan already answers both reader questions: *what does this
//! node train on* (`needs[node]`, the staged shard) and *what does it read
//! from the shared filesystem* (`owners`, the disjoint partition). An
//! [`IngestFeed`] packages one node's view of the plan for the streaming
//! ingest engine, and carries the elastic re-shard hook: on a generation
//! change it stages joiners with the position-independent seeded draw and
//! reassigns orphaned ownership, deterministically — every surviving rank
//! computes the same post-churn plan without coordination.

use crate::assign::StagingPlan;

/// One node's shard view of a staging plan, with elastic re-shard hooks.
#[derive(Debug, Clone)]
pub struct IngestFeed {
    plan: StagingPlan,
    node: usize,
    samples_per_node: usize,
    seed: u64,
}

impl IngestFeed {
    /// Wraps `plan` for `node`, staging the node first if the plan does
    /// not cover it yet (a rank joining an elastic run).
    pub fn new(mut plan: StagingPlan, node: usize, samples_per_node: usize, seed: u64) -> IngestFeed {
        plan.ensure_node(node, samples_per_node, seed);
        IngestFeed { plan, node, samples_per_node, seed }
    }

    /// Builds the feed from scratch for a fresh world of `nodes` ranks.
    pub fn build(
        n_samples: usize,
        nodes: usize,
        node: usize,
        samples_per_node: usize,
        seed: u64,
    ) -> IngestFeed {
        IngestFeed::new(StagingPlan::build(n_samples, nodes, samples_per_node, seed), node, samples_per_node, seed)
    }

    /// The samples this node trains on — what the streaming readers
    /// deliver (sorted, so chunk-contiguous index runs stay contiguous).
    pub fn shard(&self) -> Vec<usize> {
        self.plan.needs[self.node].clone()
    }

    /// The samples this node reads from the shared filesystem on behalf
    /// of the cohort (the disjoint staging partition).
    #[cfg(test)]
    fn owned(&self) -> Vec<usize> {
        self.plan.owned_by(self.node)
    }

    /// The underlying plan.
    pub fn plan(&self) -> &StagingPlan {
        &self.plan
    }

    /// Elastic re-shard hook, called when the world generation changes:
    /// joiners in `live` are staged with the same seeded per-node draw a
    /// fresh build would use, then orphaned ownership is reassigned over
    /// the live set. Returns this node's (possibly new) training shard —
    /// the argument for [`StreamingIngest::reshard`]. Pure with respect to
    /// `(plan history, live)`: every rank converges on the same plan.
    ///
    /// [`StreamingIngest::reshard`]: https://docs.rs/exaclim-pipeline
    pub fn on_generation_change(&mut self, live: &[usize]) -> Vec<usize> {
        for &n in live {
            self.plan.ensure_node(n, self.samples_per_node, self.seed);
        }
        self.plan.reassign_owners(live);
        self.shard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_matches_the_plan_needs() {
        let feed = IngestFeed::build(100, 4, 2, 25, 7);
        assert_eq!(feed.shard(), StagingPlan::build(100, 4, 25, 7).needs[2]);
        assert!(!feed.owned().is_empty());
    }

    #[test]
    fn joiner_gets_the_fresh_world_shard() {
        // Node 5 joins a 4-node plan: its shard equals what a fresh
        // 6-node build would have given it.
        let plan = StagingPlan::build(100, 4, 25, 7);
        let feed = IngestFeed::new(plan, 5, 25, 7);
        let fresh = StagingPlan::build(100, 6, 25, 7);
        assert_eq!(feed.shard(), fresh.needs[5]);
    }

    #[test]
    fn generation_change_is_deterministic_across_ranks() {
        let mut a = IngestFeed::build(80, 4, 1, 16, 3);
        let mut b = IngestFeed::build(80, 4, 1, 16, 3);
        // Node 2 leaves, node 4 joins; live-set order must not matter.
        let sa = a.on_generation_change(&[0, 1, 3, 4]);
        let sb = b.on_generation_change(&[4, 3, 1, 0]);
        assert_eq!(sa, sb);
        assert_eq!(a.plan().owners, b.plan().owners);
        // Survivor's training shard is stable across churn.
        assert_eq!(sa, StagingPlan::build(80, 4, 16, 3).needs[1]);
    }

    #[test]
    fn ownership_stays_a_partition_after_churn() {
        let mut feed = IngestFeed::build(60, 5, 0, 12, 9);
        feed.on_generation_change(&[0, 1, 3, 5]);
        let live = [0usize, 1, 3, 5];
        let total: usize = live.iter().map(|&n| feed.plan().owned_by(n).len()).sum();
        assert_eq!(total, 60, "every sample owned by exactly one live node");
        assert!(feed.plan().owned_by(2).is_empty(), "departed node owns nothing");
        assert!(feed.plan().owned_by(4).is_empty(), "never-joined node owns nothing");
    }
}
