//! Interconnect models and collective cost functions.
//!
//! Classic α–β costs: a message of `m` bytes over a link costs
//! `α + m/β`. The hierarchical hybrid composes intra-node NCCL rings with
//! inter-node MPI reductions exactly as §V-A3 describes.

use serde::{Deserialize, Serialize};

/// A point-to-point link model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkModel {
    /// Per-message latency α, seconds.
    pub latency: f64,
    /// Achievable bandwidth β, bytes/second.
    pub bandwidth: f64,
}

impl LinkModel {
    /// NVLink within a Summit node: 300 GB/s bidirectional per GPU peak;
    /// ~150 GB/s achievable per direction for NCCL rings.
    pub fn nvlink() -> LinkModel {
        LinkModel { latency: 2.0e-6, bandwidth: 150.0e9 }
    }

    /// PCIe 3.0 ×16 on Piz Daint: 32 GB/s bidirectional (§VI-A1),
    /// ~13 GB/s achievable per direction.
    pub fn pcie() -> LinkModel {
        LinkModel { latency: 4.0e-6, bandwidth: 13.0e9 }
    }

    /// Summit's dual-rail EDR InfiniBand: 2×100 Gb/s ≈ 23 GB/s usable.
    pub fn infiniband_dual_edr() -> LinkModel {
        LinkModel { latency: 1.5e-6, bandwidth: 23.0e9 }
    }

    /// Piz Daint's Aries dragonfly: ~10 GB/s injection per node.
    pub fn aries() -> LinkModel {
        LinkModel { latency: 1.3e-6, bandwidth: 10.0e9 }
    }

    /// Time to move one message of `bytes`.
    pub fn message_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }

    /// This link under a [`exaclim_faults::LinkFault`]: the slowdown factor stretches
    /// latency and divides bandwidth, and lossy links pay the expected
    /// retransmission count `1/(1−p)` on both terms — so
    /// `message_time` under the degraded model is the *expected* delivery
    /// time including retries.
    pub fn degraded(&self, fault: &exaclim_faults::LinkFault) -> LinkModel {
        let retries = fault.expected_transmissions();
        assert!(fault.slowdown >= 1.0, "slowdown must be ≥ 1: {}", fault.slowdown);
        LinkModel {
            latency: self.latency * fault.slowdown * retries,
            bandwidth: self.bandwidth / (fault.slowdown * retries),
        }
    }
}

/// All-reduce algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveAlgo {
    /// Systolic ring (NCCL): bandwidth-optimal, latency ∝ n.
    Ring,
    /// Recursive halving/doubling (MPI): latency ∝ log n.
    RecursiveHalvingDoubling,
    /// Binomial reduce + broadcast.
    Tree,
}

/// Cost of an all-reduce of `bytes` over `n` participants on `link`.
pub fn allreduce_time(algo: CollectiveAlgo, n: usize, bytes: f64, link: &LinkModel) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    match algo {
        // 2(n−1) steps, each carrying bytes/n.
        CollectiveAlgo::Ring => 2.0 * (nf - 1.0) * (link.latency + bytes / nf / link.bandwidth),
        // Reduce-scatter + allgather, log n rounds each, halving payloads:
        // total data ≈ 2·bytes·(n−1)/n, latency 2·log2(n)·α.
        CollectiveAlgo::RecursiveHalvingDoubling => {
            let rounds = (nf).log2().ceil();
            2.0 * rounds * link.latency + 2.0 * bytes * (nf - 1.0) / nf / link.bandwidth
        }
        // log n rounds up + log n down, full payload each round.
        CollectiveAlgo::Tree => {
            let rounds = (nf).log2().ceil();
            2.0 * rounds * (link.latency + bytes / link.bandwidth)
        }
    }
}

/// Broadcast cost (binomial tree).
fn broadcast_time(n: usize, bytes: f64, link: &LinkModel) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    (n as f64).log2().ceil() * link.message_time(bytes)
}

/// The §V-A3 hybrid all-reduce across `nodes` nodes of `gpus_per_node`
/// GPUs:
///
/// 1. NCCL ring over `gpus_per_node` ranks on `intra` (full buffer),
/// 2. `shard_leaders` concurrent inter-node reductions of `bytes/s` each
///    on `inter` (they share the node's injection bandwidth, which is why
///    Summit's sweet spot is 4 = one per virtual IB device),
/// 3. NCCL broadcast of each shard back over `intra`.
pub fn hierarchical_allreduce_time(
    nodes: usize,
    gpus_per_node: usize,
    shard_leaders: usize,
    bytes: f64,
    intra: &LinkModel,
    inter: &LinkModel,
    inter_algo: CollectiveAlgo,
) -> f64 {
    let intra_reduce = allreduce_time(CollectiveAlgo::Ring, gpus_per_node, bytes, intra);
    if nodes <= 1 {
        return intra_reduce;
    }
    // Shard reductions run concurrently across leaders. A single process
    // can only drive one of the node's 4 virtual IB devices (the dual-rail
    // ConnectX-5 is virtualized as 4 devices, §V-A3), so per-leader
    // bandwidth is capped at a quarter of the injection bandwidth — which
    // is exactly why the paper's 1:1 mapping of 4 communicating processes
    // to 4 virtual devices is optimal.
    let device_cap = inter.bandwidth / 4.0;
    let per_leader_bw = LinkModel {
        latency: inter.latency,
        bandwidth: (inter.bandwidth / shard_leaders as f64).min(device_cap),
    };
    let shard_bytes = bytes / shard_leaders as f64;
    let inter_reduce = allreduce_time(inter_algo, nodes, shard_bytes, &per_leader_bw);
    let intra_bcast = broadcast_time(gpus_per_node, bytes / shard_leaders as f64, intra)
        * shard_leaders as f64
        / shard_leaders as f64; // shards broadcast concurrently on NVLink fabric
    intra_reduce + inter_reduce + intra_bcast
}

/// Flat (non-hierarchical) all-reduce across every GPU in the job, the
/// pre-optimization baseline.
#[cfg(test)]
fn flat_allreduce_time(total_ranks: usize, bytes: f64, inter: &LinkModel, algo: CollectiveAlgo) -> f64 {
    allreduce_time(algo, total_ranks, bytes, inter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bandwidth_optimal_for_large_buffers() {
        let link = LinkModel { latency: 1e-6, bandwidth: 10e9 };
        let bytes = 1e9;
        let ring = allreduce_time(CollectiveAlgo::Ring, 64, bytes, &link);
        let tree = allreduce_time(CollectiveAlgo::Tree, 64, bytes, &link);
        assert!(ring < tree, "ring {ring} vs tree {tree} on 1 GB");
        // Ring asymptote: 2·bytes/bw = 0.2 s.
        assert!(ring < 0.25 && ring > 0.19);
    }

    #[test]
    fn rhd_wins_at_scale_for_small_buffers() {
        // Latency-dominated regime at 4560 nodes: log-depth beats ring.
        let link = LinkModel::infiniband_dual_edr();
        let bytes = 1e6;
        let ring = allreduce_time(CollectiveAlgo::Ring, 4560, bytes, &link);
        let rhd = allreduce_time(CollectiveAlgo::RecursiveHalvingDoubling, 4560, bytes, &link);
        assert!(rhd < ring / 10.0, "rhd {rhd} vs ring {ring}");
    }

    #[test]
    fn hierarchical_beats_flat_ring_on_summit_shape() {
        // 160 MB of gradients on 4560 nodes × 6 GPUs.
        let bytes = 160e6;
        let flat = flat_allreduce_time(27360, bytes, &LinkModel::infiniband_dual_edr(), CollectiveAlgo::Ring);
        let hybrid = hierarchical_allreduce_time(
            4560,
            6,
            4,
            bytes,
            &LinkModel::nvlink(),
            &LinkModel::infiniband_dual_edr(),
            CollectiveAlgo::RecursiveHalvingDoubling,
        );
        assert!(hybrid < flat, "hybrid {hybrid} vs flat {flat}");
        assert!(hybrid < 0.1, "hybrid all-reduce of 160 MB should take ~tens of ms: {hybrid}");
    }

    #[test]
    fn single_node_reduces_to_nccl_ring() {
        let bytes = 1e8;
        let hybrid = hierarchical_allreduce_time(
            1,
            6,
            4,
            bytes,
            &LinkModel::nvlink(),
            &LinkModel::infiniband_dual_edr(),
            CollectiveAlgo::Ring,
        );
        let ring = allreduce_time(CollectiveAlgo::Ring, 6, bytes, &LinkModel::nvlink());
        assert_eq!(hybrid, ring);
    }

    #[test]
    fn degraded_links_stretch_costs_predictably() {
        use exaclim_faults::LinkFault;
        let link = LinkModel::infiniband_dual_edr();
        // A healthy "fault" changes nothing.
        let healthy = link.degraded(&LinkFault { src: None, dst: None, slowdown: 1.0, drop_prob: 0.0 });
        assert_eq!(healthy.message_time(1e6), link.message_time(1e6));
        // 2× slowdown with 50% drops: expected transmissions = 2, so the
        // bandwidth term stretches 4× and so does latency.
        let bad = link.degraded(&LinkFault { src: None, dst: None, slowdown: 2.0, drop_prob: 0.5 });
        assert!((bad.latency / link.latency - 4.0).abs() < 1e-12);
        assert!((link.bandwidth / bad.bandwidth - 4.0).abs() < 1e-12);
        // And a collective over the degraded link is strictly slower.
        let t_ok = allreduce_time(CollectiveAlgo::Ring, 16, 1e8, &link);
        let t_bad = allreduce_time(CollectiveAlgo::Ring, 16, 1e8, &bad);
        assert!(t_bad > 3.9 * t_ok, "degraded {t_bad} vs healthy {t_ok}");
    }

    #[test]
    fn trivial_sizes_cost_nothing() {
        let link = LinkModel::nvlink();
        assert_eq!(allreduce_time(CollectiveAlgo::Ring, 1, 1e9, &link), 0.0);
        assert_eq!(broadcast_time(1, 1e9, &link), 0.0);
    }

    #[test]
    fn more_shard_leaders_help_until_bandwidth_splits() {
        // Monotone improvement 1→4 leaders on Summit's 4 virtual devices.
        let t = |s| {
            hierarchical_allreduce_time(
                512,
                6,
                s,
                200e6,
                &LinkModel::nvlink(),
                &LinkModel::infiniband_dual_edr(),
                CollectiveAlgo::RecursiveHalvingDoubling,
            )
        };
        // With bandwidth split evenly, leaders mainly reduce latency terms.
        assert!(t(4) <= t(1), "4 leaders {} vs 1 leader {}", t(4), t(1));
    }
}
