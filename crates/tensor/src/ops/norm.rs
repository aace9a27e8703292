//! Batch normalization (training-mode, per-channel over N×H×W).
//!
//! Both networks in the paper interleave batch norm with their
//! convolutions (ResNet-50 core; Tiramisu dense layers). Statistics are
//! always accumulated in `f32` even for FP16 activations, following the
//! mixed-precision recipe the paper's Volta runs used.

use crate::profile::{self, KernelKind};
use crate::simd;
use crate::tensor::{DType, Tensor};
use rayon::prelude::*;

/// Saved forward state needed by [`batchnorm_backward`].
#[derive(Debug, Clone)]
pub struct BatchNormCache {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel `1/sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
    /// Normalized activations (pre scale/shift).
    pub xhat: Tensor,
}

/// Training-mode batch norm forward.
///
/// * `gamma`, `beta`: per-channel scale/shift, `[C]`.
/// * `running`: optional `(running_mean, running_var, momentum)` updated as
///   `r = (1−m)·r + m·batch_stat`.
///
/// Returns `(y, cache)`.
#[allow(clippy::needless_range_loop)]
pub fn batchnorm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    running: Option<(&mut Vec<f32>, &mut Vec<f32>, f32)>,
) -> (Tensor, BatchNormCache) {
    let (n, c, h, w) = x.shape().nchw();
    assert_eq!(gamma.numel(), c, "gamma must be per-channel");
    assert_eq!(beta.numel(), c, "beta must be per-channel");
    let m = (n * h * w) as f32;
    let xs = x.as_slice();

    // One task per channel: each channel's statistic accumulates its
    // per-plane partial sums in ni-ascending order (the sequential order),
    // so results are bit-identical at any thread count. Each plane sum
    // uses the canonical lane-split order of the [`crate::simd`]
    // reductions, so the value is also the same at any SIMD level.
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    mean.par_iter_mut().enumerate().for_each(|(ci, mv)| {
        for ni in 0..n {
            let base = (ni * c + ci) * h * w;
            *mv += simd::sum_f64(&xs[base..base + h * w]) as f32;
        }
        *mv /= m;
    });
    var.par_iter_mut().enumerate().for_each(|(ci, vv)| {
        let mu = mean[ci];
        for ni in 0..n {
            let base = (ni * c + ci) * h * w;
            *vv += simd::sum_sqdiff_f64(&xs[base..base + h * w], mu) as f32;
        }
        *vv /= m;
    });

    if let Some((rm, rv, mom)) = running {
        assert_eq!(rm.len(), c);
        assert_eq!(rv.len(), c);
        for ci in 0..c {
            rm[ci] = (1.0 - mom) * rm[ci] + mom * mean[ci];
            rv[ci] = (1.0 - mom) * rv[ci] + mom * var[ci];
        }
    }

    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    let mut xhat = Tensor::zeros(x.shape().clone(), DType::F32);
    let mut y = Tensor::zeros(x.shape().clone(), x.dtype());
    {
        let gs = gamma.as_slice();
        let bs = beta.as_slice();
        let xh = xhat.as_mut_slice();
        let ys = y.as_mut_slice();
        xh.par_chunks_mut(h * w)
            .zip(ys.par_chunks_mut(h * w))
            .enumerate()
            .for_each(|(plane, (xhp, yp))| {
                let ci = plane % c;
                let base = plane * h * w;
                simd::vbn_apply(
                    &xs[base..base + h * w],
                    mean[ci],
                    inv_std[ci],
                    gs[ci],
                    bs[ci],
                    xhp,
                    yp,
                );
            });
    }
    y.requantize();
    profile::record(
        KernelKind::Pointwise,
        "batchnorm_fwd",
        (x.numel() * 5) as u64,
        x.storage_bytes() as u64,
        (y.storage_bytes() + xhat.storage_bytes()) as u64,
    );
    (y, BatchNormCache { mean, inv_std, xhat })
}

/// Gradients of batch norm.
#[derive(Debug)]
pub struct BatchNormGrads {
    /// `∂L/∂x`.
    pub grad_input: Tensor,
    /// `∂L/∂γ`, `[C]`.
    pub grad_gamma: Tensor,
    /// `∂L/∂β`, `[C]`.
    pub grad_beta: Tensor,
}

/// Training-mode batch norm backward.
pub fn batchnorm_backward(
    grad_out: &Tensor,
    gamma: &Tensor,
    cache: &BatchNormCache,
) -> BatchNormGrads {
    let (n, c, h, w) = grad_out.shape().nchw();
    let m = (n * h * w) as f32;
    let gos = grad_out.as_slice();
    let xh = cache.xhat.as_slice();
    let gs = gamma.as_slice();

    // Per-channel tasks; partial sums accumulate ni-ascending as in the
    // sequential loop nest.
    let mut sum_gy = vec![0.0f32; c];
    let mut sum_gy_xhat = vec![0.0f32; c];
    sum_gy
        .par_iter_mut()
        .zip(sum_gy_xhat.par_iter_mut())
        .enumerate()
        .for_each(|(ci, (sg, sgx))| {
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                let (a, b) =
                    simd::sum2_f64(&gos[base..base + h * w], &xh[base..base + h * w]);
                *sg += a as f32;
                *sgx += b as f32;
            }
        });

    let mut gx = Tensor::zeros(grad_out.shape().clone(), grad_out.dtype());
    {
        let gxs = gx.as_mut_slice();
        gxs.par_chunks_mut(h * w).enumerate().for_each(|(plane, gxp)| {
            let ci = plane % c;
            let base = plane * h * w;
            let k = gs[ci] * cache.inv_std[ci] / m;
            simd::vbn_backward(
                &gos[base..base + h * w],
                &xh[base..base + h * w],
                k,
                sum_gy[ci],
                sum_gy_xhat[ci],
                m,
                gxp,
            );
        });
    }
    gx.requantize();

    let grad_gamma = Tensor::from_vec([c], DType::F32, sum_gy_xhat);
    let grad_beta = Tensor::from_vec([c], DType::F32, sum_gy);
    profile::record(
        KernelKind::Pointwise,
        "batchnorm_bwd",
        (grad_out.numel() * 8) as u64,
        (grad_out.storage_bytes() * 2) as u64,
        gx.storage_bytes() as u64,
    );
    BatchNormGrads { grad_input: gx, grad_gamma, grad_beta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};

    #[test]
    fn output_is_normalized() {
        let mut rng = seeded_rng(3);
        let x = randn([4, 2, 5, 5], DType::F32, 3.0, &mut rng);
        let gamma = Tensor::full([2], DType::F32, 1.0);
        let beta = Tensor::zeros([2], DType::F32);
        let (y, _) = batchnorm_forward(&x, &gamma, &beta, 1e-5, None);
        // Per-channel mean ≈ 0, var ≈ 1.
        let (n, c, h, w) = y.shape().nchw();
        for ci in 0..c {
            let mut vals = vec![];
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                vals.extend_from_slice(&y.as_slice()[base..base + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|&v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_shift_and_scale() {
        let mut rng = seeded_rng(4);
        let x = randn([2, 1, 4, 4], DType::F32, 1.0, &mut rng);
        let gamma = Tensor::full([1], DType::F32, 2.0);
        let beta = Tensor::full([1], DType::F32, 5.0);
        let (y, _) = batchnorm_forward(&x, &gamma, &beta, 1e-5, None);
        let mean = y.mean();
        assert!((mean - 5.0).abs() < 1e-3, "beta shifts the mean: {mean}");
    }

    #[test]
    fn running_stats_update() {
        let mut rng = seeded_rng(5);
        let x = randn([2, 2, 4, 4], DType::F32, 2.0, &mut rng);
        let gamma = Tensor::full([2], DType::F32, 1.0);
        let beta = Tensor::zeros([2], DType::F32);
        let mut rm = vec![0.0; 2];
        let mut rv = vec![1.0; 2];
        let (_, cache) = batchnorm_forward(&x, &gamma, &beta, 1e-5, Some((&mut rm, &mut rv, 0.1)));
        for (r, m) in rm.iter().zip(cache.mean.iter()) {
            assert!((r - 0.1 * m).abs() < 1e-6);
        }
    }

    /// Central-difference oracle for `batchnorm_backward`, against every
    /// input entry and against γ and β. The loss projects the output on a
    /// fixed random tensor `r`, so `backward(r)` is its exact gradient; it
    /// is summed in f64 to keep cancellation out of the difference, and
    /// the bound is relative to the gradient's size.
    #[test]
    fn gradient_check() {
        let mut rng = seeded_rng(6);
        let x = randn([2, 3, 3, 4], DType::F32, 1.5, &mut rng);
        let gamma = Tensor::from_vec([3], DType::F32, vec![1.2, 0.8, -0.6]);
        let beta = Tensor::from_vec([3], DType::F32, vec![0.1, -0.2, 0.3]);
        let eps = 1e-5;
        let (y, cache) = batchnorm_forward(&x, &gamma, &beta, eps, None);
        let r = randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
        let grads = batchnorm_backward(&r, &gamma, &cache);

        let loss = |x: &Tensor, g: &Tensor, b: &Tensor| -> f64 {
            let (y, _) = batchnorm_forward(x, g, b, eps, None);
            y.as_slice().iter().zip(r.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum()
        };
        // At this step the largest error is about 2.3e-4 of the gradient.
        const TOL: f64 = 2e-3;
        let h = 1e-2f32;
        // Central difference of the loss along entry `i` of one argument.
        let numeric = |arg: usize, i: usize| -> f64 {
            let mut at = [x.clone(), gamma.clone(), beta.clone()];
            at[arg].as_mut_slice()[i] += h;
            let lp = loss(&at[0], &at[1], &at[2]);
            at[arg].as_mut_slice()[i] -= 2.0 * h;
            let lm = loss(&at[0], &at[1], &at[2]);
            (lp - lm) / (2.0 * h as f64)
        };
        let close = |num: f64, ana: f32| (num - ana as f64).abs() < TOL * (ana as f64).abs().max(0.1);
        for (arg, name, ana) in [
            (0, "x", &grads.grad_input),
            (1, "gamma", &grads.grad_gamma),
            (2, "beta", &grads.grad_beta),
        ] {
            for (i, &a) in ana.as_slice().iter().enumerate() {
                let num = numeric(arg, i);
                assert!(close(num, a), "grad {name}[{i}]: numeric {num} vs analytic {a}");
            }
        }
    }
}
