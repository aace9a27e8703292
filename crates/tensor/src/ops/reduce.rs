//! Channel-axis softmax / log-softmax for per-pixel classification.
//!
//! The segmentation head emits `[N, 3, H, W]` logits (TC / AR / background)
//! and the weighted cross-entropy loss consumes per-pixel log-probabilities.
//! Both use the max-subtraction trick, which matters doubly under FP16.

use crate::pool;
use crate::profile::{self, KernelKind};
use crate::simd;
use crate::tensor::Tensor;

/// Pixels per softmax block: the per-block `max` / `exp-sum` scratch rows
/// stay cache-resident while the channel loop runs vectorized across the
/// block. Fixed, so the evaluation order never depends on configuration.
const SM_BLOCK: usize = 8192;

/// Softmax over the channel axis of an NCHW tensor.
///
/// Channels are the reduction axis but pixels are the vector axis: for a
/// block of pixels the channel loop runs [`simd::vmax_`] /
/// [`simd::vadd_`] rows, so each pixel's reduction order (ci-ascending)
/// is exactly the scalar order and only the `exp` stays scalar.
pub fn softmax_channels(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let mut y = Tensor::zeros(x.shape().clone(), x.dtype());
    {
        let xs = x.as_slice();
        let ys = y.as_mut_slice();
        let hw = h * w;
        let bw_max = SM_BLOCK.min(hw.max(1));
        let mut mx = pool::take_zeroed(bw_max);
        let mut z = pool::take_zeroed(bw_max);
        let mut e = pool::take_zeroed(bw_max);
        for ni in 0..n {
            let mut p0 = 0;
            while p0 < hw {
                let bw = SM_BLOCK.min(hw - p0);
                let (mx, z, e) = (&mut mx[..bw], &mut z[..bw], &mut e[..bw]);
                mx.fill(f32::NEG_INFINITY);
                for ci in 0..c {
                    let row = (ni * c + ci) * hw + p0;
                    simd::vmax_(mx, &xs[row..row + bw]);
                }
                z.fill(0.0);
                for ci in 0..c {
                    let row = (ni * c + ci) * hw + p0;
                    let yr = &mut ys[row..row + bw];
                    for (o, (&v, &m)) in yr.iter_mut().zip(xs[row..row + bw].iter().zip(mx.iter()))
                    {
                        *o = (v - m).exp();
                    }
                    simd::vadd_(z, yr);
                }
                for ci in 0..c {
                    let row = (ni * c + ci) * hw + p0;
                    e.copy_from_slice(&ys[row..row + bw]);
                    simd::vdiv(&mut ys[row..row + bw], e, z);
                }
                p0 += bw;
            }
        }
        pool::recycle(mx);
        pool::recycle(z);
        pool::recycle(e);
    }
    y.requantize();
    profile::record(
        KernelKind::Pointwise,
        "softmax",
        (x.numel() * 4) as u64,
        x.storage_bytes() as u64,
        y.storage_bytes() as u64,
    );
    y
}

/// Log-softmax over the channel axis of an NCHW tensor (always `f32`
/// output: the loss reduction is carried in master precision).
pub fn log_softmax_channels(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let mut y = Tensor::zeros(x.shape().clone(), crate::tensor::DType::F32);
    {
        let xs = x.as_slice();
        let ys = y.as_mut_slice();
        let hw = h * w;
        let bw_max = SM_BLOCK.min(hw.max(1));
        let mut mx = pool::take_zeroed(bw_max);
        let mut z = pool::take_zeroed(bw_max);
        let mut e = pool::take_zeroed(bw_max);
        for ni in 0..n {
            let mut p0 = 0;
            while p0 < hw {
                let bw = SM_BLOCK.min(hw - p0);
                let (mx, z, e) = (&mut mx[..bw], &mut z[..bw], &mut e[..bw]);
                mx.fill(f32::NEG_INFINITY);
                for ci in 0..c {
                    let row = (ni * c + ci) * hw + p0;
                    simd::vmax_(mx, &xs[row..row + bw]);
                }
                z.fill(0.0);
                for ci in 0..c {
                    let row = (ni * c + ci) * hw + p0;
                    for (o, (&v, &m)) in e.iter_mut().zip(xs[row..row + bw].iter().zip(mx.iter()))
                    {
                        *o = (v - m).exp();
                    }
                    simd::vadd_(z, e);
                }
                // Reuse z as the per-pixel logz row.
                for (zz, &m) in z.iter_mut().zip(mx.iter()) {
                    *zz = zz.ln() + m;
                }
                for ci in 0..c {
                    let row = (ni * c + ci) * hw + p0;
                    simd::vsub(&mut ys[row..row + bw], &xs[row..row + bw], z);
                }
                p0 += bw;
            }
        }
        pool::recycle(mx);
        pool::recycle(z);
        pool::recycle(e);
    }
    profile::record(
        KernelKind::Pointwise,
        "log_softmax",
        (x.numel() * 4) as u64,
        x.storage_bytes() as u64,
        y.storage_bytes() as u64,
    );
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::DType;

    #[test]
    fn softmax_sums_to_one_per_pixel() {
        let x = Tensor::from_vec(
            [1, 3, 1, 2],
            DType::F32,
            vec![1.0, -2.0, 0.5, 3.0, 2.0, -1.0],
        );
        let y = softmax_channels(&x);
        for p in 0..2 {
            let s: f32 = (0..3).map(|c| y.at(&[0, c, 0, p])).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec([1, 2, 1, 1], DType::F32, vec![1000.0, 1001.0]);
        let y = softmax_channels(&a);
        let e = 1.0 / (1.0 + 1.0f32.exp());
        assert!((y.at(&[0, 0, 0, 0]) - e).abs() < 1e-5, "no overflow at large logits");
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::from_vec([1, 3, 1, 1], DType::F32, vec![0.3, -1.2, 2.0]);
        let p = softmax_channels(&x);
        let lp = log_softmax_channels(&x);
        for c in 0..3 {
            assert!((lp.at(&[0, c, 0, 0]) - p.at(&[0, c, 0, 0]).ln()).abs() < 1e-5);
        }
    }
}
