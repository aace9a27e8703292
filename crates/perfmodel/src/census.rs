//! Graph-based kernel censuses (§VI).

use exaclim_hpcsim::gpu::{KernelWork, Precision, WorkCategory};
use exaclim_hpcsim::WorkloadModel;
use exaclim_models::{ArchSpec, OpKind};
use exaclim_tensor::profile::{Category, Profile};

fn esize(p: Precision) -> f64 {
    match p {
        Precision::FP32 => 4.0,
        Precision::FP16 => 2.0,
    }
}

/// Tile-reuse-limited convolution traffic.
///
/// A tiled (implicit-GEMM) convolution reuses each loaded element at most
/// `reuse` times, where `reuse` is bounded by the smaller GEMM dimension
/// and the register/shared-memory tile (~128 on Volta):
/// `bytes ≈ flops · esize / (2 · min(k_dim, m_dim, 128))`.
///
/// This single formula reproduces the paper's measured traffic: Tiramisu's
/// growth-rate-32 kernels (reuse ≈ 32) move ~90 GB per FP32 step — the
/// "fundamental limitation of the Tiramisu-style network due to its small
/// filter sizes" (§VII-A) — while DeepLab's wide layers hit the 128 tile
/// bound and move ~75 GB against 3.4× the FLOPs (Figure 9: 77.1 GB).
fn conv_traffic(flops: f64, reuse_dim: usize, ideal_bytes: f64, e: f64) -> f64 {
    let reuse = reuse_dim.clamp(1, 128) as f64;
    (flops * e / (2.0 * reuse)).max(ideal_bytes)
}

struct Acc {
    works: Vec<KernelWork>,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            works: WorkCategory::ALL
                .iter()
                .map(|&category| KernelWork { category, kernels: 0, flops: 0.0, bytes: 0.0 })
                .collect(),
        }
    }

    fn add(&mut self, category: WorkCategory, kernels: u64, flops: f64, bytes: f64) {
        let w = self
            .works
            .iter_mut()
            .find(|w| w.category == category)
            .expect("category present");
        w.kernels += kernels;
        w.flops += flops;
        w.bytes += bytes;
    }
}

/// Builds the per-sample training census (forward + backward + optimizer +
/// gradient all-reduce) of an architecture at a precision.
///
/// Bytes follow the activation/weight footprints at the storage precision;
/// weight gradients stay FP32 (master copies), matching both our runtime
/// and the mixed-precision recipe. FP16 adds one cast kernel per weight
/// tensor (the "Type Conversions" rows of Figures 8/9).
pub fn census_from_spec(spec: &ArchSpec, precision: Precision) -> Vec<KernelWork> {
    let e = esize(precision);
    let mut acc = Acc::new();
    for op in &spec.ops {
        let in_bytes = (op.in_ch * op.in_h * op.in_w) as f64 * e;
        let out_bytes = (op.out_ch * op.out_h * op.out_w) as f64 * e;
        let w_bytes = op.weight_params as f64 * e;
        let fwd = op.forward_flops() as f64;
        match op.kind {
            OpKind::Conv { kernel, .. } | OpKind::Deconv { kernel, .. } => {
                let k2 = kernel * kernel;
                let ideal = in_bytes + w_bytes + out_bytes;
                acc.add(
                    WorkCategory::ForwardConv,
                    1,
                    fwd,
                    conv_traffic(fwd, op.out_ch.min(op.in_ch * k2), ideal, e),
                );
                // Backward: data-gradient + weight-gradient passes.
                acc.add(
                    WorkCategory::BackwardConv,
                    1,
                    fwd,
                    conv_traffic(fwd, op.in_ch.min(op.out_ch * k2), ideal, e),
                );
                acc.add(
                    WorkCategory::BackwardConv,
                    1,
                    fwd,
                    conv_traffic(fwd, op.out_ch.max(op.in_ch), ideal, e),
                );
                if precision == Precision::FP16 && op.weight_params > 0 {
                    // Master-weight cast to FP16 before each use.
                    acc.add(
                        WorkCategory::TypeConversions,
                        1,
                        0.0,
                        op.weight_params as f64 * (4.0 + 2.0),
                    );
                }
            }
            OpKind::Concat => {
                acc.add(WorkCategory::CopiesTransposes, 1, 0.0, out_bytes * 2.0);
                acc.add(WorkCategory::CopiesTransposes, 1, 0.0, out_bytes * 2.0); // split on backward
            }
            _ => {
                let bwd = op.backward_flops() as f64;
                acc.add(WorkCategory::ForwardPointwise, 1, fwd, in_bytes + out_bytes);
                acc.add(WorkCategory::BackwardPointwise, 1, bwd, in_bytes + out_bytes);
            }
        }
    }
    // Optimizer: one fused update kernel per parameter tensor; FP32 master
    // weights (read w, read g, write w) plus momentum state.
    let n_param_tensors = spec.ops.iter().filter(|o| o.weight_params > 0).count() as u64;
    let total_params = spec.total_params() as f64;
    acc.add(WorkCategory::Optimizer, n_param_tensors * 2, total_params * 4.0, total_params * 16.0);
    // Gradient all-reduce (NCCL kernels move ~2× the buffer intra-node).
    acc.add(WorkCategory::Allreduce, 30, total_params, total_params * 4.0 * 2.0);
    acc.works
}

/// Converts an executed kernel profile (tiny-network run) into the census
/// shape, so spec-derived and measured censuses can be compared directly.
pub fn census_from_profile(profile: &Profile) -> Vec<KernelWork> {
    let mut acc = Acc::new();
    for (cat, totals) in profile.by_category() {
        let category = match cat {
            Category::ForwardConv => WorkCategory::ForwardConv,
            Category::ForwardPointwise => WorkCategory::ForwardPointwise,
            Category::BackwardConv => WorkCategory::BackwardConv,
            Category::BackwardPointwise => WorkCategory::BackwardPointwise,
            Category::Optimizer => WorkCategory::Optimizer,
            Category::CopiesTransposes => WorkCategory::CopiesTransposes,
            Category::Allreduce => WorkCategory::Allreduce,
            Category::TypeConversions => WorkCategory::TypeConversions,
        };
        acc.add(category, totals.kernels, totals.flops as f64, totals.bytes as f64);
    }
    acc.works
}

/// Builds the weak-scaling workload description for an architecture.
pub fn workload_from_spec(
    name: &str,
    spec: &ArchSpec,
    precision: Precision,
    stored_channels: usize,
) -> WorkloadModel {
    let census = census_from_spec(spec, precision);
    let (c, h, w) = spec.input;
    // §VII-A: FP32 trains 1 image/GPU/step; FP16's smaller footprint fits 2.
    let local_batch = match precision {
        Precision::FP32 => 1,
        Precision::FP16 => 2,
    };
    // Staged files hold every stored channel even when the network reads a
    // subset (the Piz Daint 4-of-16 mode still reads full samples).
    let file_channels = stored_channels.max(c);
    WorkloadModel {
        name: name.to_string(),
        flops_per_sample: spec.training_flops() as f64,
        grad_bytes: spec.total_params() as f64 * 4.0,
        grad_tensors: spec.ops.iter().filter(|o| o.weight_params > 0).count(),
        input_bytes_per_sample: (file_channels * h * w) as f64 * 4.0 + (h * w) as f64,
        local_batch,
        precision,
        census,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_models::{DeepLabConfig, TiramisuConfig};

    fn total_flops(census: &[KernelWork]) -> f64 {
        census.iter().map(|w| w.flops).sum()
    }

    #[test]
    fn spec_census_flops_match_spec_totals() {
        let spec = DeepLabConfig::paper().spec(768, 1152);
        let census = census_from_spec(&spec, Precision::FP32);
        let conv: f64 = census
            .iter()
            .filter(|w| {
                matches!(w.category, WorkCategory::ForwardConv | WorkCategory::BackwardConv)
            })
            .map(|w| w.flops)
            .sum();
        assert!(
            (conv - spec.conv_flops() as f64).abs() < 1e6,
            "conv census {conv} vs spec {}",
            spec.conv_flops()
        );
        // Total census ≈ training flops (+ optimizer + allreduce extras).
        let t = total_flops(&census);
        let spec_t = spec.training_flops() as f64;
        assert!(t >= spec_t && t < spec_t * 1.05, "census {t} vs spec {spec_t}");
    }

    #[test]
    fn fp16_census_adds_conversions_and_halves_activation_bytes() {
        let spec = TiramisuConfig::paper_modified(16).spec(96, 144);
        let c32 = census_from_spec(&spec, Precision::FP32);
        let c16 = census_from_spec(&spec, Precision::FP16);
        let conv_bytes = |c: &[KernelWork]| {
            c.iter()
                .find(|w| w.category == WorkCategory::ForwardConv)
                .map(|w| w.bytes)
                .expect("forward conv present")
        };
        assert!(conv_bytes(&c16) < conv_bytes(&c32) * 0.6);
        let conversions = c16
            .iter()
            .find(|w| w.category == WorkCategory::TypeConversions)
            .expect("conversions present");
        assert!(conversions.kernels > 0, "FP16 must add cast kernels");
        let conv32 = c32
            .iter()
            .find(|w| w.category == WorkCategory::TypeConversions)
            .expect("category row exists");
        assert_eq!(conv32.kernels, 0, "FP32 has no casts");
    }

    /// The paper's cross-check: the symbolic graph census must agree with
    /// what the executed kernels actually report.
    #[test]
    fn spec_census_matches_executed_profile_for_tiny_deeplab() {
        use exaclim_models::DeepLabV3Plus;
        use exaclim_nn::{Ctx, Layer};
        use exaclim_tensor::init::{randn, seeded_rng};
        use exaclim_tensor::{profile, DType};

        let cfg = DeepLabConfig::tiny(4);
        let (h, w) = (16, 16);
        let spec = cfg.spec(h, w);
        let spec_census = census_from_spec(&spec, Precision::FP32);
        let spec_conv: f64 = spec_census
            .iter()
            .filter(|k| {
                matches!(k.category, WorkCategory::ForwardConv | WorkCategory::BackwardConv)
            })
            .map(|k| k.flops)
            .sum();

        let _g = profile::census_test_guard();
        let mut rng = seeded_rng(77);
        let mut net = DeepLabV3Plus::new(cfg, &mut rng);
        let x = randn([1, 4, h, w], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::train(0);
        profile::set_phase(profile::Phase::Forward);
        let (_, prof) = profile::capture(|| {
            let y = net.forward(&x, &mut ctx);
            profile::set_phase(profile::Phase::Backward);
            let g = exaclim_tensor::Tensor::full(y.shape().clone(), DType::F32, 1.0);
            net.backward(&g);
            profile::set_phase(profile::Phase::Forward);
        });
        let run_census = census_from_profile(&prof);
        let run_conv: f64 = run_census
            .iter()
            .filter(|k| {
                matches!(k.category, WorkCategory::ForwardConv | WorkCategory::BackwardConv)
            })
            .map(|k| k.flops)
            .sum();
        let rel = (run_conv - spec_conv).abs() / spec_conv;
        assert!(
            rel < 1e-9,
            "executed conv FLOPs {run_conv} vs symbolic {spec_conv} (rel {rel})"
        );
    }

    #[test]
    fn workload_shape_matches_paper_conventions() {
        let spec = DeepLabConfig::paper().spec(768, 1152);
        let w32 = workload_from_spec("dl", &spec, Precision::FP32, 16);
        let w16 = workload_from_spec("dl", &spec, Precision::FP16, 16);
        assert_eq!(w32.local_batch, 1);
        assert_eq!(w16.local_batch, 2, "§VII-A: FP16 fits two images per GPU");
        assert!((w32.input_bytes_per_sample - 56.6e6).abs() < 1e6);
        assert!(w32.grad_bytes > 1e8, "tens of millions of parameters");
    }
}
