//! Sample→node assignment for staging.
//!
//! Each node *needs* `samples_per_node` samples drawn independently (the
//! paper: batches drawn from a 1500-sample node-local shard are
//! "statistically very similar" to global draws). Each sample is *owned*
//! (read from the filesystem) by exactly one node; owners forward copies
//! to every node that needs them.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A complete staging plan.
#[derive(Debug, Clone)]
pub struct StagingPlan {
    /// Total samples in the dataset.
    pub n_samples: usize,
    /// Node count.
    pub nodes: usize,
    /// `needs[node]` — samples the node must end up with.
    pub needs: Vec<Vec<usize>>,
    /// `owners[sample]` — the node that reads it from the filesystem.
    pub owners: Vec<usize>,
}

impl StagingPlan {
    /// Builds a plan: every node needs `samples_per_node` distinct samples
    /// (deterministically pseudo-random), ownership is striped so each
    /// node reads `ceil(n_samples/nodes)` disjoint samples.
    pub fn build(n_samples: usize, nodes: usize, samples_per_node: usize, seed: u64) -> StagingPlan {
        assert!(nodes > 0 && n_samples > 0);
        assert!(
            samples_per_node <= n_samples,
            "cannot stage {samples_per_node} distinct samples from a {n_samples}-sample set"
        );
        let needs = (0..nodes)
            .map(|node| {
                let mut rng = StdRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9e37_79b9));
                let mut picks = rand::seq::index::sample(&mut rng, n_samples, samples_per_node).into_vec();
                picks.sort_unstable();
                picks
            })
            .collect();
        let owners = (0..n_samples).map(|s| s % nodes).collect();
        StagingPlan {
            n_samples,
            nodes,
            needs,
            owners,
        }
    }

    /// Samples owned (read from the filesystem) by `node`.
    pub fn owned_by(&self, node: usize) -> Vec<usize> {
        (0..self.n_samples).filter(|&s| self.owners[s] == node).collect()
    }

    /// Nodes that need sample `s`.
    pub fn needed_by(&self, s: usize) -> Vec<usize> {
        (0..self.nodes).filter(|&n| self.needs[n].binary_search(&s).is_ok()).collect()
    }

    /// Mean number of nodes needing each sample — the paper's "each
    /// individual file ... read by 23 nodes on average" under naive
    /// staging.
    pub fn mean_replication(&self) -> f64 {
        let total: usize = self.needs.iter().map(|n| n.len()).sum();
        total as f64 / self.n_samples as f64
    }

    /// Re-shards ownership after a membership change: every sample whose
    /// owner is no longer in `live` is reassigned round-robin over the
    /// live nodes, preserving the ownership partition (every sample owned
    /// by exactly one live node). Samples already owned by live nodes do
    /// not move — only the orphans are re-read. Returns how many samples
    /// moved.
    ///
    /// Deterministic: the reassignment depends only on the current owner
    /// vector and the (sorted) live set, so every rank computing the new
    /// plan independently arrives at the same answer.
    pub fn reassign_owners(&mut self, live: &[usize]) -> usize {
        assert!(!live.is_empty(), "cannot re-shard onto an empty live set");
        let mut live = live.to_vec();
        live.sort_unstable();
        live.dedup();
        let mut moved = 0;
        let mut next = 0usize;
        for owner in self.owners.iter_mut() {
            if live.binary_search(owner).is_err() {
                *owner = live[next % live.len()];
                next += 1;
                moved += 1;
            }
        }
        moved
    }

    /// Grows the plan to cover `node` (a joiner), drawing its needs with
    /// the same seeded per-node rule as [`StagingPlan::build`] — so a
    /// node joining an elastic run stages exactly the shard it would have
    /// had in a fresh world of that size. No-op when the node already has
    /// a non-empty shard.
    pub fn ensure_node(&mut self, node: usize, samples_per_node: usize, seed: u64) {
        if node < self.needs.len() && !self.needs[node].is_empty() {
            return;
        }
        assert!(
            samples_per_node <= self.n_samples,
            "cannot stage {samples_per_node} distinct samples from a {}-sample set",
            self.n_samples
        );
        if node >= self.needs.len() {
            self.needs.resize(node + 1, Vec::new());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9e37_79b9));
        let mut picks =
            rand::seq::index::sample(&mut rng, self.n_samples, samples_per_node).into_vec();
        picks.sort_unstable();
        self.needs[node] = picks;
        self.nodes = self.nodes.max(node + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_are_distinct_and_sized() {
        let plan = StagingPlan::build(100, 8, 25, 1);
        for needs in &plan.needs {
            assert_eq!(needs.len(), 25);
            let mut d = needs.clone();
            d.dedup();
            assert_eq!(d.len(), 25, "needs must be distinct");
        }
    }

    #[test]
    fn ownership_is_a_partition() {
        let plan = StagingPlan::build(50, 7, 10, 2);
        let mut seen = [false; 50];
        for node in 0..7 {
            for s in plan.owned_by(node) {
                assert!(!seen[s], "sample {s} owned twice");
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every sample owned once");
    }

    #[test]
    fn replication_matches_paper_regime() {
        // 63 K samples, 1024 nodes × 1500 samples → ≈24.4 reads per file
        // under naive staging (paper §V-A1: "23 nodes on average").
        // Scaled down 1:100 to keep the test fast.
        let plan = StagingPlan::build(630, 64, 94, 3);
        let r = plan.mean_replication();
        assert!(r > 8.0 && r < 11.0, "replication {r} ≈ 64·94/630");
    }

    #[test]
    fn plan_is_deterministic() {
        let a = StagingPlan::build(40, 4, 10, 9);
        let b = StagingPlan::build(40, 4, 10, 9);
        assert_eq!(a.needs, b.needs);
    }

    #[test]
    fn reassignment_moves_only_orphans_and_keeps_the_partition() {
        let mut plan = StagingPlan::build(50, 5, 10, 6);
        let before = plan.owners.clone();
        // Node 2 leaves, node 5 joins.
        let moved = plan.reassign_owners(&[0, 1, 3, 4, 5]);
        assert_eq!(moved, before.iter().filter(|&&o| o == 2).count());
        for (s, (&old, &new)) in before.iter().zip(plan.owners.iter()).enumerate() {
            if old != 2 {
                assert_eq!(old, new, "sample {s} moved although its owner survived");
            } else {
                assert_ne!(new, 2, "orphaned sample {s} must be re-owned");
            }
        }
        // Still a partition over live nodes.
        let total: usize = [0, 1, 3, 4, 5].iter().map(|&n| plan.owned_by(n).len()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn reassignment_is_deterministic() {
        let mut a = StagingPlan::build(64, 6, 8, 1);
        let mut b = StagingPlan::build(64, 6, 8, 1);
        assert_eq!(a.reassign_owners(&[1, 2, 4]), b.reassign_owners(&[4, 2, 1]));
        assert_eq!(a.owners, b.owners, "live-set order must not matter");
    }

    #[test]
    fn joiner_shard_matches_a_fresh_build() {
        let mut plan = StagingPlan::build(80, 3, 12, 5);
        plan.ensure_node(4, 12, 5);
        let fresh = StagingPlan::build(80, 5, 12, 5);
        assert_eq!(plan.needs[4], fresh.needs[4], "seeded per-node draw is position-independent");
        assert_eq!(plan.nodes, 5);
        assert!(plan.needs[3].is_empty(), "intermediate node was not implicitly staged");
        // Re-ensuring is a no-op.
        let shard = plan.needs[4].clone();
        plan.ensure_node(4, 12, 5);
        assert_eq!(plan.needs[4], shard);
    }
}
