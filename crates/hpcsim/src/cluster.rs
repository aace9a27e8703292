//! The weak-scaling training-step model behind Figures 4 and 5.
//!
//! A synchronous data-parallel step on `N` ranks is composed of:
//!
//! * **compute** — the roofline time of the per-sample kernel census,
//!   jittered per rank (lognormal σ from the machine spec). The all-reduce
//!   is a barrier, so every step waits for the *slowest* of N ranks: the
//!   max of N lognormal draws is what bends efficiency down as N grows.
//! * **gradient all-reduce** — the hierarchical hybrid cost (§V-A3),
//!   partially overlapped with backward compute; **gradient lag** (§V-B4)
//!   lets it overlap the entire next step instead of serializing the
//!   top layer's reduction.
//! * **control plane** — readiness messages: the centralized Horovod
//!   coordinator processes O(N) messages per tensor per step at rank 0,
//!   the hierarchical radix-r tree O(r).
//! * **input pipeline** — prefetch-overlapped sample reads from either the
//!   node-local burst buffer (staged) or the contended global filesystem
//!   (Figure 5's comparison).

use crate::gpu::{KernelWork, Precision, WorkCategory};
use crate::machine::MachineSpec;
use crate::net::hierarchical_allreduce_time;
use serde::{Deserialize, Serialize};

/// What one rank trains: the per-sample work and gradient footprint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadModel {
    /// Network name (for report rows).
    pub name: String,
    /// Per-sample kernel census (forward + backward + optimizer).
    pub census: Vec<KernelWork>,
    /// Per-sample FLOPs (the paper's "operation count"; used for FLOP/s).
    pub flops_per_sample: f64,
    /// Bytes of gradients all-reduced per step.
    pub grad_bytes: f64,
    /// Gradient tensors per step before fusion ("over a hundred
    /// all-reduce operations per step", §V-A3).
    pub grad_tensors: usize,
    /// Bytes of input data consumed per sample (fields + labels).
    pub input_bytes_per_sample: f64,
    /// Samples per GPU per step (1 in FP32, 2 in FP16 per §VII-A).
    pub local_batch: usize,
    /// Training precision.
    pub precision: Precision,
}

/// A job configuration: machine × workload × optimizations.
#[derive(Debug, Clone)]
pub struct TrainingJobModel {
    /// Machine description.
    pub machine: MachineSpec,
    /// Workload description.
    pub workload: WorkloadModel,
    /// §V-B4 gradient lag (lag 1) on/off.
    pub gradient_lag: bool,
    /// Staged input (burst buffer) vs global-filesystem reads.
    pub staged_input: bool,
    /// Reader threads per staging client.
    pub reader_threads: usize,
    /// Hierarchical (radix-r) control plane vs centralized rank 0.
    pub hierarchical_control: bool,
    /// Control-plane tree radix.
    pub control_radix: usize,
    /// Fusion-buffer bucket count for overlap modelling.
    pub fusion_buckets: usize,
}

impl TrainingJobModel {
    /// A job with the paper's shipping optimizations enabled.
    pub fn optimized(machine: MachineSpec, workload: WorkloadModel) -> TrainingJobModel {
        TrainingJobModel {
            machine,
            workload,
            gradient_lag: true,
            staged_input: true,
            reader_threads: 8,
            hierarchical_control: true,
            control_radix: 4,
            fusion_buckets: 4,
        }
    }

    /// Deterministic per-step compute time of one rank (no jitter).
    fn compute_time(&self) -> f64 {
        self.machine.gpu.census_time(&self.workload.census, self.workload.precision)
            * self.workload.local_batch as f64
    }

    /// Backward-pass fraction of compute (used for overlap modelling).
    fn backward_time(&self) -> f64 {
        let bwd: f64 = self
            .workload
            .census
            .iter()
            .filter(|w| {
                matches!(
                    w.category,
                    WorkCategory::BackwardConv | WorkCategory::BackwardPointwise
                )
            })
            .map(|w| self.machine.gpu.category_time(w, self.workload.precision))
            .sum();
        bwd * self.workload.local_batch as f64
    }

    /// Gradient all-reduce wall time at `nodes` nodes (unoverlapped).
    pub fn allreduce_time(&self, nodes: usize) -> f64 {
        hierarchical_allreduce_time(
            nodes,
            self.machine.gpus_per_node,
            self.machine.shard_leaders,
            self.workload.grad_bytes,
            &self.machine.intra_link,
            &self.machine.inter_link,
            self.machine.inter_algo,
        )
    }

    /// Exposed (non-overlapped) all-reduce time per step.
    fn exposed_allreduce(&self, nodes: usize) -> f64 {
        let t_ar = self.allreduce_time(nodes);
        let t_bwd = self.backward_time();
        let t_cmp = self.compute_time();
        if self.gradient_lag {
            // Lag 1: the whole reduction may overlap the next step's
            // compute; only the excess is exposed.
            (t_ar - 0.95 * t_cmp).max(0.0)
        } else {
            // Lag 0: the top layer's bucket is sequential (§V-B4), the
            // rest overlaps the remaining backward pass.
            let head = t_ar / self.fusion_buckets as f64;
            let rest = t_ar - head;
            head + (rest - 0.8 * t_bwd).max(0.0)
        }
    }

    /// Control-plane time per step at rank 0.
    ///
    /// Readiness protocol: every tensor requires a message in and out of
    /// the coordinator per coordinated rank. Centralized: rank 0 talks to
    /// all N ranks; hierarchical: to `radix + 1` (§V-A3 "no rank sends or
    /// receives more than r+1 messages per tensor").
    fn control_plane_time(&self, total_ranks: usize) -> f64 {
        // Coordinator message-processing rate (msgs/s). A Python-level
        // coordinator handles a few million small messages per second.
        const MSG_RATE: f64 = 3.0e6;
        let per_tensor = if self.hierarchical_control {
            2.0 * (self.control_radix as f64 + 1.0)
        } else {
            2.0 * total_ranks as f64
        };
        self.workload.grad_tensors as f64 * per_tensor / MSG_RATE
    }

    /// Messages through rank 0 per step (the §V-A3 "millions of messages
    /// per second" vs "mere thousands" comparison).
    #[cfg(test)]
    fn control_messages_at_rank0(&self, total_ranks: usize) -> u64 {
        let per_tensor = if self.hierarchical_control {
            2 * (self.control_radix as u64 + 1)
        } else {
            2 * total_ranks as u64
        };
        self.workload.grad_tensors as u64 * per_tensor
    }

    /// Per-node input-read time per step, and whether the source is
    /// contended.
    fn input_time(&self, nodes: usize) -> (f64, f64) {
        let bytes = self.workload.input_bytes_per_sample
            * self.workload.local_batch as f64
            * self.machine.gpus_per_node as f64;
        if self.staged_input {
            (bytes / self.machine.burst_buffer.read_bw, 0.05)
        } else {
            let bw = self
                .machine
                .filesystem
                .contended_bw(nodes, self.reader_threads);
            // Global-filesystem reads carry heavy tail variability, the
            // larger error bars of Figure 5.
            (bytes / bw, 0.35)
        }
    }

    /// Simulates `steps` training steps at `nodes` nodes (weak scaling:
    /// the configured local batch per GPU).
    pub fn simulate(&self, nodes: usize, steps: usize, seed: u64) -> ScalePoint {
        self.simulate_batch(nodes, self.workload.local_batch as f64, steps, seed)
    }

    /// Strong scaling (§III: "keeping the global batch size constant as
    /// worker count grows"): the per-GPU batch shrinks as `global_batch /
    /// ranks`, so compute per step shrinks while the gradient all-reduce
    /// stays fixed — efficiency decays much faster than weak scaling.
    pub fn simulate_strong(&self, nodes: usize, global_batch: usize, steps: usize, seed: u64) -> ScalePoint {
        let ranks = nodes * self.machine.gpus_per_node;
        let local = (global_batch as f64 / ranks as f64).max(1e-9);
        self.simulate_batch(nodes, local, steps, seed)
    }

    fn simulate_batch(&self, nodes: usize, local_batch: f64, steps: usize, seed: u64) -> ScalePoint {
        assert!(nodes >= 1 && nodes <= self.machine.nodes, "node count out of machine range");
        let ranks = nodes * self.machine.gpus_per_node;
        let batch_ratio = local_batch / self.workload.local_batch as f64;
        let t_cmp = self.compute_time() * batch_ratio;
        let t_ar_exposed = self.exposed_allreduce(nodes);
        let t_ctrl = self.control_plane_time(ranks);
        let (t_input_base, input_sigma) = self.input_time(nodes);
        let t_input = t_input_base * batch_ratio;

        let mut rng = Lcg::new(seed ^ nodes as u64);
        let sigma = self.machine.jitter_sigma;
        let mut step_times = Vec::with_capacity(steps);
        for _ in 0..steps {
            // Slowest of N jittered ranks gates the barrier.
            let slowest = max_lognormal(&mut rng, ranks, sigma);
            let arrival = t_cmp * slowest;
            // Prefetching hides input time behind compute; contended reads
            // with fat tails poke through.
            let input_draw = t_input * lognormal(&mut rng, input_sigma);
            let input_exposed = (input_draw - arrival).max(0.0);
            step_times.push(arrival + t_ar_exposed + t_ctrl + input_exposed);
        }
        step_times.sort_by(f64::total_cmp);
        let pct = |q: f64| step_times[((steps - 1) as f64 * q) as usize];
        let median = pct(0.5);
        let images = |t: f64| ranks as f64 * local_batch / t;

        // Ideal: N × the single-GPU (jitter-free) rate, the dashed lines
        // of Figure 4.
        let single_gpu_rate = local_batch / t_cmp;
        let ideal = single_gpu_rate * ranks as f64;
        ScalePoint {
            nodes,
            gpus: ranks,
            step_time_median: median,
            images_per_sec: images(median),
            images_per_sec_lo: images(pct(0.84)),
            images_per_sec_hi: images(pct(0.16)),
            sustained_flops: images(median) * self.workload.flops_per_sample,
            ideal_images_per_sec: ideal,
            parallel_efficiency: images(median) / ideal,
        }
    }

    /// Sweeps node counts, producing one [`ScalePoint`] per entry.
    pub fn sweep(&self, node_counts: &[usize], steps: usize, seed: u64) -> Vec<ScalePoint> {
        node_counts
            .iter()
            .map(|&n| self.simulate(n, steps, seed))
            .collect()
    }
}

/// One point of a weak-scaling curve (Figure 4/5 series).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Nodes used.
    pub nodes: usize,
    /// GPUs used.
    pub gpus: usize,
    /// Median step time, seconds.
    pub step_time_median: f64,
    /// Median throughput, images/s.
    pub images_per_sec: f64,
    /// 16th-percentile throughput (84th-percentile step time).
    pub images_per_sec_lo: f64,
    /// 84th-percentile throughput.
    pub images_per_sec_hi: f64,
    /// Sustained FLOP/s (median images/s × FLOPs/sample).
    pub sustained_flops: f64,
    /// Ideal linear-scaling throughput.
    pub ideal_images_per_sec: f64,
    /// Achieved / ideal.
    pub parallel_efficiency: f64,
}

// --- tiny deterministic RNG (avoids threading rand through hpcsim) ------

struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn normal(&mut self) -> f64 {
        // Box–Muller.
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

fn lognormal(rng: &mut Lcg, sigma: f64) -> f64 {
    (sigma * rng.normal()).exp()
}

/// Max of `n` i.i.d. lognormal(0, σ) draws. Exact sampling up to 100 k
/// ranks; beyond that, the Fisher–Tippett tail approximation
/// `exp(σ·(a_n + G/a_n))` with `a_n = sqrt(2 ln n)` and Gumbel `G`.
fn max_lognormal(rng: &mut Lcg, n: usize, sigma: f64) -> f64 {
    if n <= 100_000 {
        let mut m = f64::MIN;
        for _ in 0..n {
            m = m.max(sigma * rng.normal());
        }
        m.exp()
    } else {
        let a = (2.0 * (n as f64).ln()).sqrt();
        let b = a - (((n as f64).ln().ln() + (4.0 * std::f64::consts::PI).ln()) / (2.0 * a));
        let g = -(-rng.uniform().max(1e-12).ln()).ln();
        (sigma * (b + g / a)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::WorkCategory;

    fn toy_workload(precision: Precision) -> WorkloadModel {
        // Roughly DeepLabv3+-shaped numbers.
        let census = vec![
            KernelWork { category: WorkCategory::ForwardConv, kernels: 240, flops: 4.8e12, bytes: 80e9 },
            KernelWork { category: WorkCategory::BackwardConv, kernels: 130, flops: 9.6e12, bytes: 50e9 },
            KernelWork { category: WorkCategory::ForwardPointwise, kernels: 870, flops: 1e10, bytes: 26e9 },
            KernelWork { category: WorkCategory::BackwardPointwise, kernels: 145, flops: 1e9, bytes: 4e9 },
            KernelWork { category: WorkCategory::Optimizer, kernels: 1219, flops: 1e9, bytes: 1e9 },
            KernelWork { category: WorkCategory::CopiesTransposes, kernels: 535, flops: 0.0, bytes: 63e9 },
        ];
        WorkloadModel {
            name: "toy-deeplab".into(),
            census,
            flops_per_sample: 14.41e12,
            grad_bytes: 180e6,
            grad_tensors: 150,
            input_bytes_per_sample: 56.6e6,
            local_batch: if precision == Precision::FP16 { 2 } else { 1 },
            precision,
        }
    }

    #[test]
    fn efficiency_decays_with_scale() {
        let job = TrainingJobModel::optimized(MachineSpec::summit(), toy_workload(Precision::FP16));
        let pts = job.sweep(&[1, 64, 1024, 4560], 12, 7);
        for w in pts.windows(2) {
            assert!(
                w[1].parallel_efficiency <= w[0].parallel_efficiency + 0.02,
                "efficiency should not grow with scale: {pts:?}"
            );
        }
        // Paper: 90.7 % at 4560 nodes. Land within a few points.
        let eff = pts.last().unwrap().parallel_efficiency;
        assert!(eff > 0.85 && eff < 0.97, "full-Summit efficiency {eff}");
    }

    #[test]
    fn gradient_lag_improves_throughput() {
        let mut job = TrainingJobModel::optimized(MachineSpec::summit(), toy_workload(Precision::FP16));
        job.gradient_lag = false;
        let lag0 = job.simulate(4096, 10, 3);
        job.gradient_lag = true;
        let lag1 = job.simulate(4096, 10, 3);
        assert!(
            lag1.images_per_sec >= lag0.images_per_sec,
            "lag1 {} < lag0 {}",
            lag1.images_per_sec,
            lag0.images_per_sec
        );
    }

    #[test]
    fn centralized_control_collapses_at_scale() {
        let mut job = TrainingJobModel::optimized(MachineSpec::summit(), toy_workload(Precision::FP32));
        job.hierarchical_control = false;
        let central = job.simulate(4096, 10, 5);
        job.hierarchical_control = true;
        let hier = job.simulate(4096, 10, 5);
        assert!(
            hier.images_per_sec > central.images_per_sec * 1.05,
            "hierarchical {} must beat centralized {}",
            hier.images_per_sec,
            central.images_per_sec
        );
        // Message counts: §V-A3's "millions" vs "thousands".
        job.hierarchical_control = false;
        let m_central = job.control_messages_at_rank0(24576);
        job.hierarchical_control = true;
        let m_hier = job.control_messages_at_rank0(24576);
        assert!(m_central > 1_000_000, "centralized msgs/step {m_central}");
        assert!(m_hier < 10_000, "hierarchical msgs/step {m_hier}");
    }

    #[test]
    fn global_fs_hurts_only_at_scale() {
        // Figure 5: staged and global match at small node counts; global
        // saturates the Lustre limit at large counts.
        // Tiramisu-shaped census (≈3.7 TF/sample; Fig 2 reports
        // 1.20 samples/s on a P100). The *files* hold all 16 channels, so
        // each sample read pulls the full 56.6 MB even in 4-channel mode —
        // that is what drives Daint's job toward the 110 GB/s the paper
        // reports at 2048 GPUs.
        let census = vec![
            KernelWork { category: WorkCategory::ForwardConv, kernels: 71, flops: 1.3e12, bytes: 60e9 },
            KernelWork { category: WorkCategory::BackwardConv, kernels: 95, flops: 2.5e12, bytes: 90e9 },
            KernelWork { category: WorkCategory::ForwardPointwise, kernels: 563, flops: 1e10, bytes: 30e9 },
            KernelWork { category: WorkCategory::CopiesTransposes, kernels: 388, flops: 0.0, bytes: 20e9 },
        ];
        let daint_wl = WorkloadModel {
            name: "tiramisu-daint".into(),
            local_batch: 1,
            precision: Precision::FP32,
            flops_per_sample: 3.703e12,
            grad_bytes: 90e6,
            grad_tensors: 120,
            input_bytes_per_sample: 56.6e6,
            census,
        };
        let mut job = TrainingJobModel::optimized(MachineSpec::piz_daint(), daint_wl);
        job.staged_input = true;
        let staged_small = job.simulate(64, 16, 1);
        let staged_big = job.simulate(2048, 16, 1);
        job.staged_input = false;
        let global_small = job.simulate(64, 16, 1);
        let global_big = job.simulate(2048, 16, 1);
        let small_ratio = global_small.images_per_sec / staged_small.images_per_sec;
        assert!(small_ratio > 0.97, "small scale should match: {small_ratio}");
        let big_ratio = global_big.images_per_sec / staged_big.images_per_sec;
        assert!(big_ratio < 0.95, "global FS must fall behind at 2048 nodes: {big_ratio}");
    }

    #[test]
    fn fp16_outruns_fp32() {
        let j16 = TrainingJobModel::optimized(MachineSpec::summit(), toy_workload(Precision::FP16));
        let j32 = TrainingJobModel::optimized(MachineSpec::summit(), toy_workload(Precision::FP32));
        let p16 = j16.simulate(1024, 10, 2);
        let p32 = j32.simulate(1024, 10, 2);
        assert!(p16.images_per_sec > p32.images_per_sec * 1.5);
    }

    #[test]
    fn max_lognormal_tail_approximation_is_continuous() {
        let mut a = Lcg::new(1);
        let mut b = Lcg::new(1);
        let exact: f64 = (0..40).map(|_| max_lognormal(&mut a, 100_000, 0.02)).sum::<f64>() / 40.0;
        let approx: f64 = (0..40).map(|_| max_lognormal(&mut b, 100_001, 0.02)).sum::<f64>() / 40.0;
        assert!(
            (exact - approx).abs() / exact < 0.02,
            "exact {exact} vs approx {approx} at the crossover"
        );
    }

    #[test]
    fn strong_scaling_decays_faster_than_weak() {
        // §III: strong scaling (fixed global batch) divides per-GPU work
        // while communication stays constant — efficiency collapses sooner.
        let job = TrainingJobModel::optimized(MachineSpec::summit(), toy_workload(Precision::FP32));
        let nodes = 512;
        let weak = job.simulate(nodes, 10, 1);
        // Global batch equal to what weak scaling would use at 32 nodes.
        let strong = job.simulate_strong(nodes, 32 * 6, 10, 1);
        assert!(
            strong.parallel_efficiency < weak.parallel_efficiency,
            "strong {} vs weak {}",
            strong.parallel_efficiency,
            weak.parallel_efficiency
        );
        // Throughput in samples/s still reflects the fixed global batch.
        assert!(strong.images_per_sec < weak.images_per_sec);
    }

    #[test]
    fn deterministic_given_seed() {
        let job = TrainingJobModel::optimized(MachineSpec::summit(), toy_workload(Precision::FP16));
        let a = job.simulate(256, 8, 9);
        let b = job.simulate(256, 8, 9);
        assert_eq!(a.images_per_sec, b.images_per_sec);
    }
}
