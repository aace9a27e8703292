//! Transposed ("de-") convolution.
//!
//! The paper replaces DeepLabv3+'s quarter-resolution decoder with a
//! full-resolution one built from `3×3 deconv, /2` layers (light blue in
//! Figure 1) — three of them carry 144×96 features back up to 1152×768.
//! Weight layout follows the transposed-convolution convention
//! `[C_in, K_out, R, S]`.

use crate::ops::conv::{Conv2dParams, Im2colB};
use crate::ops::gemm::{compute_precision, gemm_panels, Layout};
use crate::profile::{self, KernelKind};
use crate::shape::deconv_out_dim;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Transposed-convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deconv2dParams {
    /// Upsampling stride.
    pub stride: usize,
    /// Padding (subtracted from the output extent).
    pub pad: usize,
    /// Extra rows/cols appended to the output (resolves output-size
    /// ambiguity of strided convs; `stride 2, pad 1, output_pad 1` with a
    /// 3×3 kernel exactly doubles spatial dims).
    pub output_pad: usize,
}

impl Deconv2dParams {
    /// The paper's upsampling block: exact ×2 with a 3×3 kernel.
    pub fn double() -> Deconv2dParams {
        Deconv2dParams { stride: 2, pad: 1, output_pad: 1 }
    }
}

/// FLOPs of one transposed-convolution pass (every input pixel multiplies
/// the full kernel; 2 FLOPs per multiply-add).
pub fn deconv_flops(n: usize, c: usize, k: usize, r: usize, s: usize, h: usize, w: usize) -> u64 {
    2 * (n as u64) * (c as u64) * (k as u64) * (r as u64) * (s as u64) * (h as u64) * (w as u64)
}

/// Forward transposed convolution.
///
/// * `x`: input `[N, C, H, W]`
/// * `w`: weights `[C, K, R, S]`
///
/// Returns `[N, K, Ho, Wo]` with `Ho = (H−1)·stride − 2·pad + R + output_pad`.
pub fn deconv2d_forward(x: &Tensor, w: &Tensor, p: Deconv2dParams) -> Tensor {
    let (n, c, h, wd) = x.shape().nchw();
    let (cw, k, r, s) = w.shape().nchw();
    assert_eq!(c, cw, "deconv2d: input has {c} channels but weight expects {cw}");
    let ho = deconv_out_dim(h, r, p.stride, p.pad, p.output_pad);
    let wo = deconv_out_dim(wd, s, p.stride, p.pad, p.output_pad);
    let mut y = Tensor::zeros([n, k, ho, wo], x.dtype());
    {
        let xs = x.as_slice();
        let ws = w.as_slice();
        let ys = y.as_mut_slice();
        // One task per (n, k) output plane: all scatter-adds for the plane
        // are local, and per-element contribution order (ci, then hi, wi,
        // ri, si ascending) matches the sequential loop nest exactly, so
        // the result is bit-identical at any thread count.
        ys.par_chunks_mut(ho * wo).enumerate().for_each(|(plane, yp)| {
            let ni = plane / k;
            let ki = plane % k;
            for ci in 0..c {
                let xbase = (ni * c + ci) * h * wd;
                let wbase = ((ci * k + ki) * r) * s;
                for hi in 0..h {
                    for wi in 0..wd {
                        let xv = xs[xbase + hi * wd + wi];
                        if xv == 0.0 {
                            continue;
                        }
                        for ri in 0..r {
                            let hoi = (hi * p.stride + ri) as isize - p.pad as isize;
                            if hoi < 0 || hoi >= ho as isize {
                                continue;
                            }
                            let yrow = hoi as usize * wo;
                            for si in 0..s {
                                let woi = (wi * p.stride + si) as isize - p.pad as isize;
                                if woi < 0 || woi >= wo as isize {
                                    continue;
                                }
                                yp[yrow + woi as usize] += xv * ws[wbase + ri * s + si];
                            }
                        }
                    }
                }
            }
        });
    }
    y.requantize();
    profile::record(
        KernelKind::Conv,
        "deconv2d_fwd",
        deconv_flops(n, c, k, r, s, h, wd),
        (x.storage_bytes() + w.storage_bytes()) as u64,
        y.storage_bytes() as u64,
    );
    y
}

/// Gradients of a transposed convolution.
#[derive(Debug)]
pub struct DeconvGrads {
    /// `∂L/∂x`, same shape as the input.
    pub grad_input: Tensor,
    /// `∂L/∂w`, same shape as the weights.
    pub grad_weight: Tensor,
}

/// Backward transposed convolution.
///
/// Both gradients are ordinary convolutions of `grad_out` and run through
/// the packed blocked GEMM: the data gradient correlates `∂y` with the
/// kernel (`gin = W · col(∂y)`, where the patch mapping
/// `hoi = hi·stride + ri − pad` is exactly the adjoint of the forward
/// scatter), and the weight gradient is `x · col(∂y)ᵀ`. The patch matrix
/// is packed on the fly by [`Im2colB`], never materialized.
pub fn deconv2d_backward(x: &Tensor, w: &Tensor, grad_out: &Tensor, p: Deconv2dParams) -> DeconvGrads {
    let (n, c, h, wd) = x.shape().nchw();
    let (_, k, r, s) = w.shape().nchw();
    let (_, _, ho, wo) = grad_out.shape().nchw();
    let krs = k * r * s;
    let hw = h * wd;
    let prec = compute_precision();
    // The adjoint patch mapping reads gout at hoi = hi·stride + ri − pad:
    // an ordinary (stride, pad, dilation-1) convolution over gout.
    let conv_p = Conv2dParams { stride: p.stride, pad: p.pad, dilation: 1 };

    // grad input: gin[n,c,h,w] = Σ_{k,r,s} gout[n,k,h·st+r−pad, w·st+s−pad]·w[c,k,r,s]
    let mut gx = Tensor::zeros([n, c, h, wd], x.dtype());
    {
        let gos = grad_out.as_slice();
        let ws = w.as_slice();
        let gxs = gx.as_mut_slice();
        // Images serial; parallelism is the GEMM's output-tile grid.
        for ni in 0..n {
            let src = Im2colB {
                xs: gos,
                xbase: ni * k * ho * wo,
                h: ho,
                wd: wo,
                r,
                s,
                wo: wd,
                ncols: hw,
                p: conv_p,
                by_pixel_depth: false,
            };
            let gxn = &mut gxs[ni * c * hw..(ni + 1) * c * hw];
            // gin_n[C, H·W] += W[C, K·R·S] · col(∂y_n)[K·R·S, H·W]
            gemm_panels(c, hw, krs, ws, Layout::Normal, &src, gxn, hw, prec);
        }
    }
    gx.requantize();
    profile::record(
        KernelKind::Conv,
        "deconv2d_bwd_data",
        deconv_flops(n, c, k, r, s, h, wd),
        (grad_out.storage_bytes() + w.storage_bytes()) as u64,
        gx.storage_bytes() as u64,
    );

    // grad weight: gw[c,k,r,s] = Σ_{n,h,w} x[n,c,h,w]·gout[n,k,h·st+r−pad, w·st+s−pad]
    let mut gw = Tensor::zeros([c, k, r, s], crate::tensor::DType::F32);
    {
        let gos = grad_out.as_slice();
        let xs = x.as_slice();
        let gws = gw.as_mut_slice();
        for ni in 0..n {
            let src = Im2colB {
                xs: gos,
                xbase: ni * k * ho * wo,
                h: ho,
                wd: wo,
                r,
                s,
                wo: wd,
                ncols: krs,
                p: conv_p,
                by_pixel_depth: true,
            };
            // Wᵍ[C, K·R·S] += x_n[C, H·W] · col(∂y_n)[K·R·S, H·W]ᵀ
            gemm_panels(c, krs, hw, &xs[ni * c * hw..(ni + 1) * c * hw], Layout::Normal, &src, gws, krs, prec);
        }
    }
    profile::record(
        KernelKind::Conv,
        "deconv2d_bwd_weight",
        deconv_flops(n, c, k, r, s, h, wd),
        (grad_out.storage_bytes() + x.storage_bytes()) as u64,
        gw.storage_bytes() as u64,
    );

    DeconvGrads { grad_input: gx, grad_weight: gw }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use crate::ops::conv::{conv2d_forward, Conv2dParams, ConvAlgo};
    use crate::tensor::DType;

    #[test]
    fn doubles_spatial_dims() {
        let mut rng = seeded_rng(1);
        let x = randn([1, 3, 4, 5], DType::F32, 1.0, &mut rng);
        let w = randn([3, 2, 3, 3], DType::F32, 0.5, &mut rng);
        let y = deconv2d_forward(&x, &w, Deconv2dParams::double());
        assert_eq!(y.shape().dims(), &[1, 2, 8, 10]);
    }

    #[test]
    fn stride1_deconv_is_full_correlation() {
        // With stride 1 and pad 0, a 1×1 input places the kernel verbatim.
        let x = Tensor::from_vec([1, 1, 1, 1], DType::F32, vec![2.0]);
        let w = Tensor::from_vec([1, 1, 2, 2], DType::F32, vec![1.0, 2.0, 3.0, 4.0]);
        let y = deconv2d_forward(&x, &w, Deconv2dParams { stride: 1, pad: 0, output_pad: 0 });
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    /// A transposed conv must be the adjoint of the matching conv:
    /// ⟨conv(x), y⟩ = ⟨x, deconv(y)⟩ for all x, y when weights are shared.
    #[test]
    fn adjoint_of_convolution() {
        let mut rng = seeded_rng(17);
        let stride = 2;
        let pad = 1;
        // conv: [1,2,8,8] → [1,3,4,4] with 3×3 stride 2 pad 1.
        let x = randn([1, 2, 8, 8], DType::F32, 1.0, &mut rng);
        let wc = randn([3, 2, 3, 3], DType::F32, 0.5, &mut rng);
        let cy = conv2d_forward(&x, &wc, Conv2dParams::strided(stride, pad), ConvAlgo::Direct);
        let (_, _, ho, wo) = cy.shape().nchw();
        let y = randn([1, 3, ho, wo], DType::F32, 1.0, &mut rng);
        // deconv with weights viewed as [C_in=3, K=2, 3, 3]: transpose first
        // two axes of wc.
        let mut wt = Tensor::zeros([3, 2, 3, 3], DType::F32);
        for k in 0..3 {
            for c in 0..2 {
                for r in 0..3 {
                    for s in 0..3 {
                        let v = wc.at(&[k, c, r, s]);
                        wt.set(&[k, c, r, s], v);
                    }
                }
            }
        }
        let dy = deconv2d_forward(&y, &wt, Deconv2dParams { stride, pad, output_pad: 1 });
        assert_eq!(dy.shape().dims(), x.shape().dims());
        let lhs: f32 = cy.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(dy.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn gradient_check() {
        let mut rng = seeded_rng(23);
        let x = randn([1, 2, 3, 3], DType::F32, 1.0, &mut rng);
        let w = randn([2, 2, 3, 3], DType::F32, 0.5, &mut rng);
        let p = Deconv2dParams::double();
        let y0 = deconv2d_forward(&x, &w, p);
        let coeff: Vec<f32> = (0..y0.numel()).map(|i| ((i * 29 % 7) as f32 - 3.0) * 0.2).collect();
        let loss = |y: &Tensor| -> f32 {
            y.as_slice().iter().zip(coeff.iter()).map(|(a, b)| a * b).sum()
        };
        let go = Tensor::from_vec(y0.shape().clone(), DType::F32, coeff.clone());
        let grads = deconv2d_backward(&x, &w, &go, p);
        let eps = 1e-2f32;
        for i in [0usize, 5, x.numel() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&deconv2d_forward(&xp, &w, p)) - loss(&deconv2d_forward(&xm, &w, p))) / (2.0 * eps);
            assert!((num - grads.grad_input.as_slice()[i]).abs() < 2e-2);
        }
        for i in [0usize, 9, w.numel() - 1] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let num = (loss(&deconv2d_forward(&x, &wp, p)) - loss(&deconv2d_forward(&x, &wm, p))) / (2.0 * eps);
            assert!((num - grads.grad_weight.as_slice()[i]).abs() < 2e-2);
        }
    }
}
