//! Property-based tests for the cost models: monotonicity and sanity
//! invariants that must hold for any parameters, not just the calibrated
//! Summit/Piz Daint points.

use exaclim_hpcsim::fs::SharedFilesystem;
use exaclim_hpcsim::gpu::{GpuModel, KernelWork, Precision, WorkCategory};
use exaclim_hpcsim::net::{allreduce_time, hierarchical_allreduce_time, CollectiveAlgo, LinkModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// More bytes never reduce an all-reduce's cost; more ranks never
    /// reduce a ring's cost.
    #[test]
    fn allreduce_cost_is_monotone(
        n in 2usize..4096,
        bytes in 1.0e3f64..1.0e9,
        algo in 0usize..3,
    ) {
        let link = LinkModel { latency: 1.5e-6, bandwidth: 23.0e9 };
        let algo = [CollectiveAlgo::Ring, CollectiveAlgo::RecursiveHalvingDoubling, CollectiveAlgo::Tree][algo];
        let t = allreduce_time(algo, n, bytes, &link);
        prop_assert!(t > 0.0 && t.is_finite());
        let t_more_bytes = allreduce_time(algo, n, bytes * 2.0, &link);
        prop_assert!(t_more_bytes >= t, "{algo:?}: doubling bytes must not speed it up");
        if algo == CollectiveAlgo::Ring {
            let t_more_ranks = allreduce_time(algo, n * 2, bytes, &link);
            prop_assert!(t_more_ranks >= t * 0.99, "ring latency grows with ranks");
        }
    }

    /// In the paper's tuned configuration (4 shard leaders — one per
    /// virtual IB device) the hierarchical hybrid never loses to the flat
    /// ring over the inter-node link (the reason it exists, §V-A3). With
    /// fewer leaders at very small node counts the hybrid *can* lose —
    /// a single process cannot drive the dual-rail NIC — which is exactly
    /// why the paper tuned this knob.
    #[test]
    fn tuned_hybrid_beats_flat_ring(
        nodes in 4usize..2048,
        bytes in 1.0e6f64..5.0e8,
    ) {
        let intra = LinkModel::nvlink();
        let inter = LinkModel::infiniband_dual_edr();
        // A flat ring runs one process per GPU: the node's 6 ranks share
        // its injection bandwidth.
        let flat_link = LinkModel { latency: inter.latency, bandwidth: inter.bandwidth / 6.0 };
        let flat = allreduce_time(CollectiveAlgo::Ring, nodes * 6, bytes, &flat_link);
        let hybrid = hierarchical_allreduce_time(
            nodes, 6, 4, bytes, &intra, &inter,
            CollectiveAlgo::RecursiveHalvingDoubling,
        );
        prop_assert!(hybrid <= flat * 1.05, "hybrid {hybrid} vs flat {flat} at {nodes} nodes");
    }

    /// Filesystem contention: delivered aggregate never exceeds the cap,
    /// per-client bandwidth never grows with more clients.
    #[test]
    fn filesystem_contention_invariants(clients in 1usize..10_000, threads in 1usize..16) {
        let fs = SharedFilesystem::summit_gpfs();
        let delivered = fs.delivered_aggregate(clients, threads);
        prop_assert!(delivered <= fs.aggregate_read_bw * 1.0001);
        let per_small = fs.contended_bw(clients, threads);
        let per_big = fs.contended_bw(clients * 2, threads);
        prop_assert!(per_big <= per_small * 1.0001, "adding clients cannot raise per-client bw");
        // Thread scaling is monotone up to the client cap.
        prop_assert!(fs.client_bw(threads + 1) >= fs.client_bw(threads) * 0.999);
    }

    /// Roofline times are positive, finite, and monotone in work.
    #[test]
    fn roofline_time_is_monotone(
        flops in 1.0e6f64..1.0e14,
        bytes in 1.0e3f64..1.0e12,
        fp16 in proptest::bool::ANY,
    ) {
        let gpu = GpuModel::v100();
        let p = if fp16 { Precision::FP16 } else { Precision::FP32 };
        let w = KernelWork { category: WorkCategory::ForwardConv, kernels: 1, flops, bytes };
        let t = gpu.category_time(&w, p);
        prop_assert!(t > 0.0 && t.is_finite());
        let w2 = KernelWork { flops: flops * 2.0, ..w };
        prop_assert!(gpu.category_time(&w2, p) >= t);
        let w3 = KernelWork { bytes: bytes * 2.0, ..w };
        prop_assert!(gpu.category_time(&w3, p) >= t);
        // FP16 never slower than FP32 for the same math-dominated work.
        if flops / bytes > 1000.0 {
            let t32 = gpu.category_time(&w, Precision::FP32);
            let t16 = gpu.category_time(&w, Precision::FP16);
            prop_assert!(t16 <= t32 * 1.0001);
        }
    }
}
