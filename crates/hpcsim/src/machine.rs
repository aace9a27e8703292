//! Machine descriptions: Summit and Piz Daint with the paper's published
//! parameters (§VI-A).

use crate::fs::{BurstBuffer, SharedFilesystem};
use crate::gpu::GpuModel;
use crate::net::{CollectiveAlgo, LinkModel};
use serde::{Deserialize, Serialize};

/// A machine available to the scaling model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Machine name.
    pub name: String,
    /// Total nodes.
    pub nodes: usize,
    /// GPUs per node (6 on Summit, 1 on Piz Daint).
    pub gpus_per_node: usize,
    /// GPU model.
    pub gpu: GpuModel,
    /// Intra-node GPU link.
    pub intra_link: LinkModel,
    /// Inter-node link (per-node injection).
    pub inter_link: LinkModel,
    /// Inter-node collective algorithm.
    pub inter_algo: CollectiveAlgo,
    /// Shard leaders for the hierarchical all-reduce.
    pub shard_leaders: usize,
    /// The global parallel filesystem.
    pub filesystem: SharedFilesystem,
    /// Node-local staging storage.
    pub burst_buffer: BurstBuffer,
    /// Per-rank compute-time jitter (lognormal σ). Synchronous all-reduce
    /// waits for the slowest of N ranks each step, so this single number
    /// controls how parallel efficiency decays with scale; calibrated so
    /// the model lands on the paper's measured efficiencies (90.7 % at
    /// 27 360 GPUs on Summit; 79.0 % at 5300 on Piz Daint).
    pub jitter_sigma: f64,
}

impl MachineSpec {
    /// Summit (§VI-A2): 4608 nodes × (2 POWER9 + 6 V100), NVLink
    /// intra-node, dual-rail EDR InfiniBand fat tree, GPFS + 800 GB NVMe
    /// burst buffers. The paper's largest run used 4560 nodes.
    pub fn summit() -> MachineSpec {
        MachineSpec {
            name: "Summit".into(),
            nodes: 4608,
            gpus_per_node: 6,
            gpu: GpuModel::v100(),
            intra_link: LinkModel::nvlink(),
            inter_link: LinkModel::infiniband_dual_edr(),
            inter_algo: CollectiveAlgo::RecursiveHalvingDoubling,
            shard_leaders: 4,
            filesystem: SharedFilesystem::summit_gpfs(),
            burst_buffer: BurstBuffer::summit_nvme(),
            jitter_sigma: 0.020,
        }
    }

    /// Piz Daint's XC50 partition (§VI-A1): 5320 nodes × 1 P100, Aries
    /// dragonfly, Lustre, tmpfs staging. The paper scales to 5300 nodes.
    pub fn piz_daint() -> MachineSpec {
        MachineSpec {
            name: "Piz Daint".into(),
            nodes: 5320,
            gpus_per_node: 1,
            gpu: GpuModel::p100(),
            intra_link: LinkModel::pcie(),
            inter_link: LinkModel::aries(),
            inter_algo: CollectiveAlgo::RecursiveHalvingDoubling,
            shard_leaders: 1,
            filesystem: SharedFilesystem::piz_daint_lustre(),
            burst_buffer: BurstBuffer::daint_tmpfs(),
            jitter_sigma: 0.048,
        }
    }

    /// Total GPUs.
    #[cfg(test)]
    fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Peak machine throughput at a precision, FLOP/s.
    #[cfg(test)]
    fn peak_flops(&self, p: crate::gpu::Precision) -> f64 {
        self.total_gpus() as f64 * self.gpu.peak(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::Precision;

    #[test]
    fn summit_shape_matches_paper() {
        let m = MachineSpec::summit();
        assert_eq!(m.total_gpus(), 27648);
        // 4560 nodes × 6 = 27360 GPUs was the paper's largest run.
        assert!(4560 * 6 <= m.total_gpus());
        // Peak FP16: 27648 × 125 TF ≈ 3.46 EF/s full machine.
        assert!(m.peak_flops(Precision::FP16) > 3.0e18);
    }

    #[test]
    fn piz_daint_shape_matches_paper() {
        let m = MachineSpec::piz_daint();
        assert_eq!(m.total_gpus(), 5320);
        // §VI-A1: 50.6 PF/s single-precision peak.
        let pf = m.peak_flops(Precision::FP32) / 1e15;
        assert!((pf - 50.5).abs() < 1.0, "Daint FP32 peak {pf} PF/s");
    }
}
