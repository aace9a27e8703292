//! Roofline GPU models.
//!
//! §VI converts kernel FLOP/byte counts into time via measured fractions
//! of peak math and memory throughput; we invert that: given a census and
//! per-category achievable fractions (calibrated from the paper's own
//! Figure 8/9 measurements), predict the time of each kernel category as
//! `max(flops / (peak·f_math), bytes / (bw·f_mem))`.

use serde::{Deserialize, Serialize};

/// Arithmetic precision of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE binary32 everywhere.
    FP32,
    /// FP16 storage/math with FP32 accumulation (tensor cores on V100).
    FP16,
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::FP32 => write!(f, "FP32"),
            Precision::FP16 => write!(f, "FP16"),
        }
    }
}

/// Kernel-census categories (the rows of Figures 3/8/9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkCategory {
    /// Forward convolutions.
    ForwardConv,
    /// Forward pointwise kernels.
    ForwardPointwise,
    /// Backward convolutions.
    BackwardConv,
    /// Backward pointwise kernels.
    BackwardPointwise,
    /// Optimizer updates.
    Optimizer,
    /// Copies and transposes.
    CopiesTransposes,
    /// Intra-node all-reduce kernels (NCCL).
    Allreduce,
    /// Precision conversions.
    TypeConversions,
}

impl WorkCategory {
    /// All categories in table order.
    pub const ALL: [WorkCategory; 8] = [
        WorkCategory::ForwardConv,
        WorkCategory::ForwardPointwise,
        WorkCategory::BackwardConv,
        WorkCategory::BackwardPointwise,
        WorkCategory::Optimizer,
        WorkCategory::CopiesTransposes,
        WorkCategory::Allreduce,
        WorkCategory::TypeConversions,
    ];

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            WorkCategory::ForwardConv => "Forward Convolutions",
            WorkCategory::ForwardPointwise => "Forward Point-wise",
            WorkCategory::BackwardConv => "Backward Convolutions",
            WorkCategory::BackwardPointwise => "Backward Point-wise",
            WorkCategory::Optimizer => "Optimizer",
            WorkCategory::CopiesTransposes => "Copies/Transposes",
            WorkCategory::Allreduce => "Allreduce (NCCL)",
            WorkCategory::TypeConversions => "Type Conversions",
        }
    }
}

/// One category's aggregated work.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KernelWork {
    /// Category.
    pub category: WorkCategory,
    /// Kernel launches.
    pub kernels: u64,
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved to/from device memory.
    pub bytes: f64,
}

/// Achievable fractions of peak for one category.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Efficiency {
    /// Fraction of peak math throughput.
    pub math: f64,
    /// Fraction of peak memory bandwidth.
    pub mem: f64,
}

/// A roofline GPU model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuModel {
    /// Marketing name.
    pub name: String,
    /// Peak FP32 rate, FLOP/s.
    pub peak_fp32: f64,
    /// Peak FP16 rate, FLOP/s (tensor cores where present).
    pub peak_fp16: f64,
    /// Device memory bandwidth, B/s.
    pub mem_bw: f64,
    /// Per-kernel launch overhead, seconds.
    pub launch_overhead: f64,
    /// Architecture derate on convolution math efficiency relative to the
    /// Volta-tuned cuDNN kernels the category table is calibrated on
    /// (Figure 2 implies P100 convs reach ~2/3 of V100's fraction of
    /// peak: 48 % vs 75 % forward).
    pub conv_math_derate: f64,
}

impl GpuModel {
    /// NVIDIA P100 (Piz Daint): 9.5 TF/s FP32 (Piz Daint's 50.6 PF single
    /// precision over 5320 GPUs), no tensor cores, 720 GB/s HBM2.
    pub fn p100() -> GpuModel {
        GpuModel {
            name: "P100".into(),
            peak_fp32: 9.5e12,
            peak_fp16: 19.0e12, // 2× packed half, no tensor cores
            mem_bw: 720.0e9,
            launch_overhead: 4.0e-6,
            conv_math_derate: 0.65,
        }
    }

    /// NVIDIA V100 (Summit): 15.7 TF/s FP32, 125 TF/s tensor-core FP16
    /// (750 TF/s per 6-GPU node, §VI-A2), 900 GB/s HBM2.
    pub fn v100() -> GpuModel {
        GpuModel {
            name: "V100".into(),
            peak_fp32: 15.7e12,
            peak_fp16: 125.0e12,
            mem_bw: 900.0e9,
            launch_overhead: 3.0e-6,
            conv_math_derate: 1.0,
        }
    }

    /// Peak math rate at a precision.
    pub fn peak(&self, p: Precision) -> f64 {
        match p {
            Precision::FP32 => self.peak_fp32,
            Precision::FP16 => self.peak_fp16,
        }
    }

    /// Achievable efficiency for a category, calibrated against the
    /// paper's single-node profiles (Figures 8 and 9): convolutions reach
    /// 50–100 % of math peak in FP32 but only ~20–50 % of the much higher
    /// tensor-core peak in FP16; pointwise/copy kernels are memory-bound
    /// at 45–80 % of bandwidth.
    fn efficiency(category: WorkCategory, p: Precision) -> Efficiency {
        use WorkCategory::*;
        match (category, p) {
            // FP32 convs: Figure 9 measures 75.6 % (forward) and ~100 %
            // (backward) of math peak for DeepLab's compute-bound kernels.
            (ForwardConv, Precision::FP32) => Efficiency { math: 0.75, mem: 0.65 },
            (BackwardConv, Precision::FP32) => Efficiency { math: 0.95, mem: 0.65 },
            // FP16 tensor cores reach ~52 % of their 8× higher peak
            // (Figure 9 FP16: 52.0 / 51.2 % math); memory-bound FP16 convs
            // saturate bandwidth (Figure 8: 101.2 % of peak).
            (ForwardConv, Precision::FP16) => Efficiency { math: 0.52, mem: 0.95 },
            (BackwardConv, Precision::FP16) => Efficiency { math: 0.52, mem: 0.80 },
            (ForwardPointwise, _) | (BackwardPointwise, _) => Efficiency { math: 0.05, mem: 0.75 },
            (Optimizer, _) => Efficiency { math: 0.02, mem: 0.30 },
            (CopiesTransposes, Precision::FP32) => Efficiency { math: 0.01, mem: 0.70 },
            (CopiesTransposes, Precision::FP16) => Efficiency { math: 0.01, mem: 0.55 },
            (Allreduce, _) => Efficiency { math: 0.01, mem: 0.05 }, // NVLink-bound
            (TypeConversions, _) => Efficiency { math: 0.01, mem: 0.40 },
        }
    }

    /// Roofline time for one category of work.
    pub fn category_time(&self, work: &KernelWork, p: Precision) -> f64 {
        let eff = Self::efficiency(work.category, p);
        let derate = if matches!(work.category, WorkCategory::ForwardConv | WorkCategory::BackwardConv) {
            self.conv_math_derate
        } else {
            1.0
        };
        let math_t = work.flops / (self.peak(p) * eff.math * derate);
        let mem_t = work.bytes / (self.mem_bw * eff.mem);
        math_t.max(mem_t) + work.kernels as f64 * self.launch_overhead
    }

    /// Total step time of a census at a precision.
    pub fn census_time(&self, census: &[KernelWork], p: Precision) -> f64 {
        census.iter().map(|w| self.category_time(w, p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_tensor_cores_dominate_fp16() {
        let g = GpuModel::v100();
        assert_eq!(g.peak(Precision::FP16), 125.0e12);
        assert!((6.0 * g.peak(Precision::FP16) - 750.0e12).abs() < 1.0, "§VI-A2: 750 TF/s per node");
    }

    #[test]
    fn math_bound_conv_times_follow_peak() {
        let g = GpuModel::v100();
        let w = KernelWork {
            category: WorkCategory::ForwardConv,
            kernels: 0,
            flops: 1.0e12,
            bytes: 1.0e9, // trivially small memory traffic
        };
        let t32 = g.category_time(&w, Precision::FP32);
        let t16 = g.category_time(&w, Precision::FP16);
        // FP16 is faster, but by less than the 8× peak ratio — the paper's
        // core observation about tensor-core efficiency.
        assert!(t16 < t32, "FP16 must beat FP32 on math-bound work");
        assert!(t32 / t16 < 8.0, "efficiency loss must dampen the 8× peak ratio");
        assert!(t32 / t16 > 2.0);
    }

    #[test]
    fn memory_bound_kernels_ignore_precision_peak() {
        let g = GpuModel::v100();
        let w = KernelWork {
            category: WorkCategory::ForwardPointwise,
            kernels: 0,
            flops: 1.0e6,
            bytes: 90.0e9,
        };
        let t = g.category_time(&w, Precision::FP32);
        // 90 GB at 75 % of 900 GB/s ≈ 0.133 s.
        assert!((t - 90.0e9 / (900.0e9 * 0.75)).abs() < 1e-6);
    }

    #[test]
    fn launch_overhead_counts_kernels() {
        let g = GpuModel::v100();
        let w = KernelWork {
            category: WorkCategory::Optimizer,
            kernels: 1000,
            flops: 0.0,
            bytes: 0.0,
        };
        assert!((g.category_time(&w, Precision::FP32) - 3.0e-3).abs() < 1e-9);
    }

    #[test]
    fn p100_is_slower_than_v100() {
        let p = GpuModel::p100();
        let v = GpuModel::v100();
        let w = KernelWork {
            category: WorkCategory::BackwardConv,
            kernels: 10,
            flops: 2.0e12,
            bytes: 50.0e9,
        };
        assert!(p.category_time(&w, Precision::FP32) > v.category_time(&w, Precision::FP32));
    }
}
