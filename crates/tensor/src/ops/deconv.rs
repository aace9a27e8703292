//! Transposed ("de-") convolution.
//!
//! The paper replaces DeepLabv3+'s quarter-resolution decoder with a
//! full-resolution one built from `3×3 deconv, /2` layers (light blue in
//! Figure 1) — three of them carry 144×96 features back up to 1152×768.
//! Weight layout follows the transposed-convolution convention
//! `[C_in, K_out, R, S]`.
//!
//! A transposed convolution is the adjoint of the convolution that maps
//! its output grid back to its input grid, so all three of its passes are
//! that convolution's passes with the roles swapped, and all three run
//! through the packed blocked GEMM: forward is the convolution's data
//! gradient in its strip form (`Wᵀ·x` per pixel strip, then a col2im
//! scatter: `transposed_gemm_col2im`, the route `conv2d_backward` keeps
//! for strided convolutions, which the paper's `/2` deconvs are the
//! adjoints of), the data gradient is the convolution's forward
//! (`im2col_gemm`, the code the convolution forward runs) and the weight
//! gradient is its weight gradient with `x` and `∂y` exchanged.

use crate::ops::conv::{im2col_gemm, transposed_gemm_col2im, Conv2dParams, Im2colB};
use crate::ops::gemm::{gemm_panels, Layout};
use crate::profile::{self, KernelKind};
use crate::shape::deconv_out_dim;
use crate::tensor::Tensor;

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
fn deconv_flops(n: usize, c: usize, k: usize, r: usize, s: usize, h: usize, w: usize) -> u64 {
    2 * (n as u64) * (c as u64) * (k as u64) * (r as u64) * (s as u64) * (h as u64) * (w as u64)
}

/// Forward transposed convolution.
///
/// * `x`: input `[N, C, H, W]`
/// * `w`: weights `[C, K, R, S]`
///
/// Returns `[N, K, Ho, Wo]` with `Ho = (H−1)·stride − 2·pad + R + output_pad`.
///
/// Computed as what it is — the data gradient of the convolution it is the
/// adjoint of: per image and per `COL_STRIP` of input pixels, one
/// `col[K·R·S, strip] = Wᵀ[K·R·S, C] · x_n[C, strip]` product on the
/// blocked GEMM, scattered into `y_n` by col2im. Cost: one
/// `[K·R·S × C × H·W]` product per image plus a
/// `K·R·S·min(H·W, COL_STRIP)`-float scratch. Each output element sums its
/// taps strip by strip, then `ri`, `si`, pixel ascending, so results depend
/// on `COL_STRIP`, never on the thread count; zeros in `x` are multiplied
/// like any other value.
pub fn deconv2d_forward(x: &Tensor, w: &Tensor, p: Deconv2dParams) -> Tensor {
    let (n, c, h, wd) = x.shape().nchw();
    let (cw, k, r, s) = w.shape().nchw();
    assert_eq!(c, cw, "deconv2d: input has {c} channels but weight expects {cw}");
    let ho = deconv_out_dim(h, r, p.stride, p.pad, p.output_pad);
    let wo = deconv_out_dim(wd, s, p.stride, p.pad, p.output_pad);
    let mut y = Tensor::zeros([n, k, ho, wo], x.dtype());
    // The scatter target of input pixel (hi, wi), tap (ri, si) is
    // (hi·stride + ri − pad, wi·stride + si − pad): the (stride, pad,
    // dilation-1) convolution over y that `deconv2d_backward` runs forward.
    let conv_p = Conv2dParams { stride: p.stride, pad: p.pad, dilation: 1 };
    transposed_gemm_col2im(
        x.as_slice(),
        (n, c, h * wd),
        w.as_slice(),
        y.as_mut_slice(),
        (k, ho, wo),
        (r, s),
        wd,
        conv_p,
    );
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

/// [`deconv2d_forward`] as the definition reads — every input element
/// places a scaled copy of the kernel — on plain slices: the oracle the
/// GEMM route is tested against. Returns `[N, K, Ho, Wo]` flattened.
#[cfg(test)]
fn deconv2d_forward_reference(
    xs: &[f32],
    (n, c, h, wd): (usize, usize, usize, usize),
    ws: &[f32],
    (k, r, s): (usize, usize, usize),
    p: Deconv2dParams,
) -> Vec<f32> {
    let ho = deconv_out_dim(h, r, p.stride, p.pad, p.output_pad);
    let wo = deconv_out_dim(wd, s, p.stride, p.pad, p.output_pad);
    let mut ys = vec![0.0f32; n * k * ho * wo];
    for (plane, yp) in ys.chunks_mut(ho * wo).enumerate() {
        let ni = plane / k;
        let ki = plane % k;
        for ci in 0..c {
            let xbase = (ni * c + ci) * h * wd;
            let wbase = ((ci * k + ki) * r) * s;
            for hi in 0..h {
                for wi in 0..wd {
                    let xv = xs[xbase + hi * wd + wi];
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
    }
    ys
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
/// is packed on the fly by `Im2colB`, never materialized.
pub fn deconv2d_backward(x: &Tensor, w: &Tensor, grad_out: &Tensor, p: Deconv2dParams) -> DeconvGrads {
    let (n, c, h, wd) = x.shape().nchw();
    let (_, k, r, s) = w.shape().nchw();
    let (ho, wo) = (
        deconv_out_dim(h, r, p.stride, p.pad, p.output_pad),
        deconv_out_dim(wd, s, p.stride, p.pad, p.output_pad),
    );
    assert_eq!(
        grad_out.shape().nchw(),
        (n, k, ho, wo),
        "deconv2d_backward: grad_out is not the [N, K, Ho, Wo] this input, weight and {p:?} produce"
    );
    let krs = k * r * s;
    let hw = h * wd;
    // The adjoint patch mapping reads gout at hoi = hi·stride + ri − pad:
    // an ordinary (stride, pad, dilation-1) convolution over gout.
    let conv_p = Conv2dParams { stride: p.stride, pad: p.pad, dilation: 1 };

    // grad input: gin[n,c,h,w] = Σ_{k,r,s} gout[n,k,h·st+r−pad, w·st+s−pad]·w[c,k,r,s]
    let mut gx = Tensor::zeros([n, c, h, wd], x.dtype());
    // gin_n[C, H·W] += W[C, K·R·S] · col(∂y_n)[K·R·S, H·W]
    im2col_gemm(grad_out.as_slice(), (n, k, ho, wo), w.as_slice(), c, (r, s), (hw, wd), conv_p, gx.as_mut_slice());
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
            gemm_panels(c, krs, hw, &xs[ni * c * hw..(ni + 1) * c * hw], Layout::Normal, &src, gws, krs);
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
    use crate::ops::conv::{conv2d_forward, Conv2dParams, ConvAlgo, COL_STRIP};
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

    /// Central finite difference over *every* input and weight element.
    /// The op is bilinear and the loss linear in `y`, so the difference
    /// quotient is exact up to rounding.
    #[test]
    fn gradient_check() {
        let data = noise(256, 23);
        for stride in 1..=3 {
            let p = Deconv2dParams { stride, pad: 1, output_pad: stride - 1 };
            let mut x = Tensor::from_vec([1, 2, 3, 4], DType::F32, data[..24].to_vec());
            let mut w = Tensor::from_vec([2, 2, 3, 3], DType::F32, data[24..60].iter().map(|v| v * 0.5).collect());
            let y0 = deconv2d_forward(&x, &w, p);
            let coeff: Vec<f32> = (0..y0.numel()).map(|i| ((i * 29 % 7) as f32 - 3.0) * 0.2).collect();
            let loss = |x: &Tensor, w: &Tensor| -> f32 {
                deconv2d_forward(x, w, p).as_slice().iter().zip(&coeff).map(|(a, b)| a * b).sum()
            };
            let go = Tensor::from_vec(y0.shape().clone(), DType::F32, coeff.clone());
            let grads = deconv2d_backward(&x, &w, &go, p);
            let eps = 1e-2f32;
            for i in 0..x.numel() {
                let x0 = x.as_slice()[i];
                x.as_mut_slice()[i] = x0 + eps;
                let up = loss(&x, &w);
                x.as_mut_slice()[i] = x0 - eps;
                let num = (up - loss(&x, &w)) / (2.0 * eps);
                x.as_mut_slice()[i] = x0;
                let ana = grads.grad_input.as_slice()[i];
                assert!((num - ana).abs() < 5e-3, "stride {stride} input grad {i}: {num} vs {ana}");
            }
            for i in 0..w.numel() {
                let w0 = w.as_slice()[i];
                w.as_mut_slice()[i] = w0 + eps;
                let up = loss(&x, &w);
                w.as_mut_slice()[i] = w0 - eps;
                let num = (up - loss(&x, &w)) / (2.0 * eps);
                w.as_mut_slice()[i] = w0;
                let ana = grads.grad_weight.as_slice()[i];
                assert!((num - ana).abs() < 5e-3, "stride {stride} weight grad {i}: {num} vs {ana}");
            }
        }
    }

    // --- oracles for the GEMM route of the forward pass -----------------------

    /// Test data as a plain vector that the sweeps below slice per geometry
    /// (see `ops::conv::tests::noise`).
    fn noise(len: usize, seed: u64) -> Vec<f32> {
        randn([len], DType::F32, 1.0, &mut seeded_rng(seed)).as_slice().to_vec()
    }

    /// Kernel 2–5 × stride 1–3 × pad 0–2 × every `output_pad` below the
    /// stride × two non-square maps: `(kernel, (h, wd), p)`.
    fn geometry_sweep() -> Vec<(usize, (usize, usize), Deconv2dParams)> {
        let mut out = Vec::new();
        for kernel in 2..=5 {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    for output_pad in 0..stride {
                        for map in [(4, 7), (6, 5)] {
                            out.push((kernel, map, Deconv2dParams { stride, pad, output_pad }));
                        }
                    }
                }
            }
        }
        out
    }

    /// `deconv2d_forward` on `[n, c, h, wd]` and `[c, k, kernel, kernel]`
    /// tensors cut from the heads of `xs` and `ws`, against the reference
    /// scatter on the same slices: every element within 1e-5 relative.
    fn assert_forward_matches_reference(
        xs: &[f32],
        (n, c, h, wd): (usize, usize, usize, usize),
        ws: &[f32],
        (k, kernel): (usize, usize),
        p: Deconv2dParams,
    ) -> Tensor {
        let (xs, ws) = (&xs[..n * c * h * wd], &ws[..c * k * kernel * kernel]);
        let x = Tensor::from_vec([n, c, h, wd], DType::F32, xs.to_vec());
        let w = Tensor::from_vec([c, k, kernel, kernel], DType::F32, ws.to_vec());
        let got = deconv2d_forward(&x, &w, p);
        let want = deconv2d_forward_reference(xs, (n, c, h, wd), ws, (k, kernel, kernel), p);
        assert_eq!(got.numel(), want.len());
        for (i, (g, v)) in got.as_slice().iter().zip(&want).enumerate() {
            assert!(
                (g - v).abs() <= 1e-5 * v.abs().max(1.0),
                "element {i}: {g} vs {v}; x {n}x{c}x{h}x{wd} k {k} kernel {kernel} {p:?}"
            );
        }
        got
    }

    #[test]
    fn forward_matches_the_scatter_over_the_geometry_sweep() {
        let (xs, ws) = (noise(2 * 3 * 6 * 7, 31), noise(3 * 2 * 5 * 5, 32));
        for (kernel, (h, wd), p) in geometry_sweep() {
            assert_forward_matches_reference(&xs, (2, 3, h, wd), &ws, (2, kernel), p);
        }
    }

    /// A 96×97 map is more than one `COL_STRIP`, and 8192 = 84·97 + 44 puts
    /// the strip boundary mid-row: the output rows both strips scatter into
    /// must come out as the one-pass reference has them.
    #[test]
    fn forward_matches_the_scatter_across_a_strip_boundary() {
        let (h, wd) = (96, 97);
        assert!(h * wd > COL_STRIP && !COL_STRIP.is_multiple_of(wd));
        let (xs, ws) = (noise(2 * h * wd, 33), noise(2 * 3 * 3 * 3, 34));
        for p in [Deconv2dParams::double(), Deconv2dParams { stride: 1, pad: 1, output_pad: 0 }] {
            assert_forward_matches_reference(&xs, (1, 2, h, wd), &ws, (3, 3), p);
        }
    }

    /// The per-element loop skipped `x == 0`; the GEMM multiplies zeros like
    /// anything else and must land on the same values.
    #[test]
    fn forward_does_not_care_about_zeros_in_the_input() {
        let ws = noise(4 * 3 * 3 * 3, 35);
        let relu: Vec<f32> = noise(2 * 4 * 6 * 9, 36).iter().map(|v| v.max(0.0)).collect();
        assert!(relu.iter().filter(|v| **v == 0.0).count() > relu.len() / 4);
        assert_forward_matches_reference(&relu, (2, 4, 6, 9), &ws, (3, 3), Deconv2dParams::double());
        let zeros = vec![0.0f32; relu.len()];
        let y = assert_forward_matches_reference(&zeros, (2, 4, 6, 9), &ws, (3, 3), Deconv2dParams::double());
        assert!(y.as_slice().iter().all(|v| v.to_bits() == 0), "an all-zero input must give +0.0 everywhere");
    }

    /// ⟨deconv_fwd(x), g⟩ = ⟨x, deconv_bwd_data(g)⟩: forward (GEMM, then
    /// col2im) and data gradient (im2col, then GEMM) are exact adjoints, so
    /// the two inner products agree to rounding for any `x`, `g`.
    #[test]
    fn forward_is_the_adjoint_of_the_data_gradient_over_the_geometry_sweep() {
        let (xs, ws, gs) = (noise(2 * 3 * 6 * 7, 37), noise(3 * 2 * 5 * 5, 38), noise(2 * 2 * 22 * 25, 39));
        let dot = |a: &[f32], b: &[f32]| -> f64 { a.iter().zip(b).map(|(u, v)| *u as f64 * *v as f64).sum() };
        for (kernel, (h, wd), p) in geometry_sweep() {
            let x = Tensor::from_vec([2, 3, h, wd], DType::F32, xs[..2 * 3 * h * wd].to_vec());
            let w = Tensor::from_vec([3, 2, kernel, kernel], DType::F32, ws[..3 * 2 * kernel * kernel].to_vec());
            let y = deconv2d_forward(&x, &w, p);
            let g = Tensor::from_vec(y.shape().clone(), DType::F32, gs[..y.numel()].to_vec());
            let gx = deconv2d_backward(&x, &w, &g, p).grad_input;
            let (lhs, rhs) = (dot(y.as_slice(), g.as_slice()), dot(x.as_slice(), gx.as_slice()));
            assert!(
                (lhs - rhs).abs() <= 1e-4 * lhs.abs().max(1.0),
                "{lhs} vs {rhs}; map {h}x{wd} kernel {kernel} {p:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "deconv2d_backward: grad_out is not the [N, K, Ho, Wo]")]
    fn backward_rejects_a_misshapen_grad_out() {
        let x = Tensor::zeros([1, 2, 4, 5], DType::F32);
        let w = Tensor::zeros([2, 3, 3, 3], DType::F32);
        // The forward output is [1, 3, 8, 10]; this is the input's extent.
        let go = Tensor::zeros([1, 3, 4, 5], DType::F32);
        deconv2d_backward(&x, &w, &go, Deconv2dParams::double());
    }
}
