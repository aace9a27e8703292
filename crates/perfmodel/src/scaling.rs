//! Figure 4/5 weak-scaling series.

use crate::census::workload_from_spec;
use exaclim_hpcsim::gpu::Precision;
use exaclim_hpcsim::{MachineSpec, ScalePoint, TrainingJobModel};
use exaclim_models::ArchSpec;

/// A named weak-scaling curve.
#[derive(Debug, Clone)]
pub struct ScalingSeries {
    /// Legend label, e.g. `"DeepLabv3+ FP16 lag 1 (Summit)"`.
    pub label: String,
    /// Scale points in increasing GPU count.
    pub points: Vec<ScalePoint>,
}

impl ScalingSeries {
    /// The largest-scale point.
    pub fn last(&self) -> &ScalePoint {
        self.points.last().expect("non-empty series")
    }

    /// Renders rows: GPUs, images/s (+CI), PF/s, efficiency.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.label);
        let _ = writeln!(
            s,
            "  {:>7} {:>12} {:>22} {:>10} {:>6}",
            "GPUs", "images/s", "68% CI", "PF/s", "eff"
        );
        for p in &self.points {
            let _ = writeln!(
                s,
                "  {:>7} {:>12.1} [{:>9.1}, {:>9.1}] {:>10.2} {:>5.1}%",
                p.gpus,
                p.images_per_sec,
                p.images_per_sec_lo,
                p.images_per_sec_hi,
                p.sustained_flops / 1e15,
                100.0 * p.parallel_efficiency
            );
        }
        s
    }
}

/// Standard node counts for a sweep up to `max_nodes`.
fn node_sweep(max_nodes: usize) -> Vec<usize> {
    let mut v = vec![1usize];
    while *v.last().expect("non-empty") * 4 <= max_nodes {
        let next = v.last().expect("non-empty") * 4;
        v.push(next);
    }
    if *v.last().expect("non-empty") != max_nodes {
        v.push(max_nodes);
    }
    v
}

/// One Figure 4 series: a network on a machine at a precision, lag 0/1.
#[allow(clippy::too_many_arguments)]
pub fn fig4_series(
    label: &str,
    spec: &ArchSpec,
    machine: MachineSpec,
    precision: Precision,
    gradient_lag: bool,
    max_nodes: usize,
    steps: usize,
    seed: u64,
) -> ScalingSeries {
    let workload = workload_from_spec(label, spec, precision, 16);
    let mut job = TrainingJobModel::optimized(machine, workload);
    job.gradient_lag = gradient_lag;
    let nodes = node_sweep(max_nodes);
    ScalingSeries {
        label: format!(
            "{label} {precision} lag {} ({})",
            gradient_lag as u8, job.machine.name
        ),
        points: job.sweep(&nodes, steps, seed),
    }
}

/// The Figure 5 pair: Piz Daint Tiramisu FP32 with local staging vs
/// reading from the global Lustre filesystem.
pub fn fig5_series(spec: &ArchSpec, max_nodes: usize, steps: usize, seed: u64) -> (ScalingSeries, ScalingSeries) {
    let workload = workload_from_spec("Tiramisu", spec, Precision::FP32, 16);
    let mut staged = TrainingJobModel::optimized(MachineSpec::piz_daint(), workload.clone());
    staged.staged_input = true;
    let mut global = TrainingJobModel::optimized(MachineSpec::piz_daint(), workload);
    global.staged_input = false;
    let nodes = node_sweep(max_nodes);
    (
        ScalingSeries {
            label: "P100-FP32 local storage".into(),
            points: staged.sweep(&nodes, steps, seed),
        },
        ScalingSeries {
            label: "P100-FP32 global storage".into(),
            points: global.sweep(&nodes, steps, seed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_models::{DeepLabConfig, TiramisuConfig};

    #[test]
    fn node_sweep_shape() {
        assert_eq!(node_sweep(1), vec![1]);
        assert_eq!(node_sweep(64), vec![1, 4, 16, 64]);
        assert_eq!(node_sweep(100), vec![1, 4, 16, 64, 100]);
    }

    #[test]
    fn fig4_deeplab_fp16_lands_near_paper_throughput() {
        // Paper §VII-B: DeepLabv3+ FP16 lag 1 sustains 999.0 PF/s at 4560
        // nodes with 90.7 % efficiency. Accept the right order of
        // magnitude and the efficiency band.
        let spec = DeepLabConfig::paper().spec(768, 1152);
        let series = fig4_series(
            "DeepLabv3+",
            &spec,
            MachineSpec::summit(),
            Precision::FP16,
            true,
            4560,
            10,
            3,
        );
        let last = series.last();
        assert_eq!(last.gpus, 27360);
        let pf = last.sustained_flops / 1e15;
        assert!(pf > 400.0 && pf < 1600.0, "sustained {pf} PF/s (paper: 999)");
        assert!(
            last.parallel_efficiency > 0.85,
            "efficiency {} (paper: 0.907)",
            last.parallel_efficiency
        );
    }

    #[test]
    fn fig4_daint_tiramisu_efficiency_band() {
        // Paper: 21.0 PF/s sustained, 79.0 % efficiency at 5300 nodes;
        // 83.4 % at 2048.
        let spec = TiramisuConfig::paper_modified(16).spec(768, 1152);
        let series = fig4_series(
            "Tiramisu",
            &spec,
            MachineSpec::piz_daint(),
            Precision::FP32,
            true,
            5300,
            12,
            5,
        );
        let last = series.last();
        assert!(
            last.parallel_efficiency > 0.70 && last.parallel_efficiency < 0.90,
            "Daint efficiency {} (paper: 0.79)",
            last.parallel_efficiency
        );
        let pf = last.sustained_flops / 1e15;
        assert!(pf > 8.0 && pf < 45.0, "sustained {pf} PF/s (paper: 21.0)");
    }

    #[test]
    fn fig5_global_storage_falls_behind_at_scale() {
        let spec = TiramisuConfig::paper_modified(16).spec(768, 1152);
        let (staged, global) = fig5_series(&spec, 2048, 12, 9);
        let small_ratio = global.points[0].images_per_sec / staged.points[0].images_per_sec;
        assert!(small_ratio > 0.95, "matches at small scale: {small_ratio}");
        let big_ratio = global.last().images_per_sec / staged.last().images_per_sec;
        assert!(
            big_ratio < 0.95,
            "paper: ~9.5 % penalty at 2048 GPUs; got ratio {big_ratio}"
        );
        // Variability: the global-FS error bars are wider.
        let spread = |p: &exaclim_hpcsim::ScalePoint| {
            (p.images_per_sec_hi - p.images_per_sec_lo) / p.images_per_sec
        };
        assert!(spread(global.last()) > spread(staged.last()));
    }

    #[test]
    fn series_renders() {
        let spec = TiramisuConfig::tiny(4).spec(32, 32);
        let series = fig4_series(
            "tiny",
            &spec,
            MachineSpec::summit(),
            Precision::FP32,
            false,
            16,
            5,
            1,
        );
        let out = series.render();
        assert!(out.contains("GPUs"));
        assert!(out.contains("eff"));
    }
}
