//! Pooling kernels.
//!
//! The ResNet-50 core of the paper's DeepLabv3+ begins with a
//! `3×3 maxpool, /2` (Figure 1).

use crate::profile::{self, KernelKind};
use crate::shape::conv_out_dim;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Forward max pooling.
///
/// Returns the pooled tensor and the flat input index of each maximum
/// (needed by [`maxpool2d_backward_shaped`]).
pub fn maxpool2d_forward(
    x: &Tensor,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> (Tensor, Vec<u32>) {
    let (n, c, h, w) = x.shape().nchw();
    let ho = conv_out_dim(h, kernel, stride, pad, 1);
    let wo = conv_out_dim(w, kernel, stride, pad, 1);
    let mut y = Tensor::zeros([n, c, ho, wo], x.dtype());
    let mut arg = vec![0u32; n * c * ho * wo];
    {
        let xs = x.as_slice();
        let ys = y.as_mut_slice();
        ys.par_chunks_mut(ho * wo)
            .zip(arg.par_chunks_mut(ho * wo))
            .enumerate()
            .for_each(|(plane, (yp, ap))| {
                let xbase = plane * h * w;
                for hoi in 0..ho {
                    for woi in 0..wo {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for r in 0..kernel {
                            let hi = (hoi * stride + r) as isize - pad as isize;
                            if hi < 0 || hi >= h as isize {
                                continue;
                            }
                            for s in 0..kernel {
                                let wi = (woi * stride + s) as isize - pad as isize;
                                if wi < 0 || wi >= w as isize {
                                    continue;
                                }
                                let idx = xbase + hi as usize * w + wi as usize;
                                if xs[idx] > best {
                                    best = xs[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        yp[hoi * wo + woi] = best;
                        ap[hoi * wo + woi] = best_idx as u32;
                    }
                }
            });
    }
    profile::record(
        KernelKind::Pointwise,
        "maxpool2d_fwd",
        (n * c * ho * wo * kernel * kernel) as u64,
        x.storage_bytes() as u64,
        y.storage_bytes() as u64,
    );
    (y, arg)
}

/// Backward max pooling: routes each output gradient to its argmax input.
/// Takes the forward input's shape and dtype rather than the tensor, so
/// layers need not keep the input alive just to describe it.
pub fn maxpool2d_backward_shaped(
    shape: crate::shape::Shape,
    dtype: crate::tensor::DType,
    grad_out: &Tensor,
    argmax: &[u32],
) -> Tensor {
    let (_, _, h, w) = shape.nchw();
    let (_, _, ho, wo) = grad_out.shape().nchw();
    let mut gx = Tensor::zeros(shape, dtype);
    {
        let gos = grad_out.as_slice();
        let gxs = gx.as_mut_slice();
        // Argmax indices never cross plane boundaries, so the scatter is
        // plane-local and planes parallelize without write conflicts.
        gxs.par_chunks_mut(h * w)
            .zip(gos.par_chunks(ho * wo))
            .zip(argmax.par_chunks(ho * wo))
            .enumerate()
            .for_each(|(plane, ((gxp, gop), ap))| {
                let base = plane * h * w;
                for (g, &idx) in gop.iter().zip(ap.iter()) {
                    gxp[idx as usize - base] += *g;
                }
            });
    }
    gx.requantize();
    profile::record(
        KernelKind::Pointwise,
        "maxpool2d_bwd",
        grad_out.numel() as u64,
        grad_out.storage_bytes() as u64,
        gx.storage_bytes() as u64,
    );
    gx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::DType;

    #[test]
    fn maxpool_hand_case() {
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            DType::F32,
            vec![
                1.0, 2.0, 5.0, 4.0, //
                3.0, 8.0, 6.0, 7.0, //
                9.0, 2.0, 1.0, 0.0, //
                4.0, 5.0, 3.0, 2.0,
            ],
        );
        let (y, arg) = maxpool2d_forward(&x, 2, 2, 0);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[8.0, 7.0, 9.0, 3.0]);
        assert_eq!(arg, vec![5, 7, 8, 14]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec([1, 1, 2, 2], DType::F32, vec![1.0, 9.0, 3.0, 2.0]);
        let (y, arg) = maxpool2d_forward(&x, 2, 2, 0);
        assert_eq!(y.as_slice(), &[9.0]);
        let go = Tensor::from_vec([1, 1, 1, 1], DType::F32, vec![5.0]);
        let gx = maxpool2d_backward_shaped(x.shape().clone(), x.dtype(), &go, &arg);
        assert_eq!(gx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_padded_matches_resnet_stem() {
        // 3×3 maxpool stride 2 pad 1 halves spatial dims (paper Fig 1).
        let x = Tensor::zeros([1, 2, 576, 4], DType::F32);
        let (y, _) = maxpool2d_forward(&x, 3, 2, 1);
        assert_eq!(y.shape().dims(), &[1, 2, 288, 2]);
    }

    #[test]
    fn padded_regions_never_win() {
        // All-negative input with padding: maxima must come from real pixels,
        // not zero-padding.
        let x = Tensor::from_vec([1, 1, 2, 2], DType::F32, vec![-5.0, -6.0, -7.0, -8.0]);
        let (y, _) = maxpool2d_forward(&x, 3, 2, 1);
        assert_eq!(y.as_slice(), &[-5.0]);
    }

    /// Central-difference oracle for `maxpool2d_backward_shaped`, against
    /// every input entry, for a stride-2 pool and the padded 3×3 stride-2
    /// stem, whose windows overlap. Inputs are distinct multiples of 2⁻⁴,
    /// a permutation with positive and negative values, so no window ties
    /// and a step of 2⁻⁶ either way moves no argmax; the loss projects the
    /// output on a fixed random tensor `r`, summed in f64, so
    /// `backward(r)` is its exact gradient.
    #[test]
    fn gradient_check() {
        let _pool_quiet = crate::pool::TEST_GUARD.lock();
        let mut rng = crate::init::seeded_rng(7);
        for (dims, kernel, stride, pad) in [([2, 2, 6, 6], 2, 2, 0), ([1, 2, 7, 9], 3, 2, 1)] {
            let len: usize = dims.iter().product();
            // 37 is coprime to both sizes, so `i·37 mod len` permutes them.
            let vals = (0..len).map(|i| ((i * 37 % len) as f32 - (len / 2) as f32) * 0.0625).collect();
            let x = Tensor::from_vec(dims, DType::F32, vals);
            let (y, arg) = maxpool2d_forward(&x, kernel, stride, pad);
            let r = crate::init::randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
            let ana = maxpool2d_backward_shaped(x.shape().clone(), x.dtype(), &r, &arg);

            let loss = |x: &Tensor| -> f64 {
                let (y, _) = maxpool2d_forward(x, kernel, stride, pad);
                y.as_slice().iter().zip(r.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum()
            };
            let h = 2f32.powi(-6);
            for (i, &a) in ana.as_slice().iter().enumerate() {
                let mut at = x.clone();
                at.as_mut_slice()[i] += h;
                let lp = loss(&at);
                at.as_mut_slice()[i] -= 2.0 * h;
                let lm = loss(&at);
                let num = (lp - lm) / (2.0 * h as f64);
                assert!(
                    (num - a as f64).abs() < 1e-5 * (a as f64).abs().max(0.1),
                    "kernel {kernel} pad {pad}: grad x[{i}]: numeric {num} vs analytic {a}"
                );
            }
        }
    }
}
