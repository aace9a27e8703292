//! Bilinear interpolation (resize) kernels.
//!
//! The *standard* DeepLabv3+ decoder reaches full resolution with bilinear
//! upsampling — the compromise the paper replaced with learned
//! deconvolutions. We implement it anyway: it is the baseline decoder in
//! the architecture ablation, and it provides ASPP-style image-feature
//! broadcast.

use crate::profile::{self, KernelKind};
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Sampling coefficients for one output coordinate (align_corners=false).
#[inline]
fn src_coords(dst: usize, scale: f32, src_len: usize) -> (usize, usize, f32) {
    let s = ((dst as f32 + 0.5) * scale - 0.5).max(0.0);
    let i0 = (s.floor() as usize).min(src_len - 1);
    let i1 = (i0 + 1).min(src_len - 1);
    (i0, i1, s - i0 as f32)
}

/// Bilinear resize of an NCHW tensor to `(out_h, out_w)`.
pub fn bilinear_resize_forward(x: &Tensor, out_h: usize, out_w: usize) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let mut y = Tensor::zeros([n, c, out_h, out_w], x.dtype());
    let sh = h as f32 / out_h as f32;
    let sw = w as f32 / out_w as f32;
    {
        let xs = x.as_slice();
        let ys = y.as_mut_slice();
        // Planes are independent gathers: one task per (n, c) plane.
        ys.par_chunks_mut(out_h * out_w).enumerate().for_each(|(plane, yp)| {
            let xbase = plane * h * w;
            for oy in 0..out_h {
                let (y0, y1, fy) = src_coords(oy, sh, h);
                for ox in 0..out_w {
                    let (x0, x1, fx) = src_coords(ox, sw, w);
                    let v00 = xs[xbase + y0 * w + x0];
                    let v01 = xs[xbase + y0 * w + x1];
                    let v10 = xs[xbase + y1 * w + x0];
                    let v11 = xs[xbase + y1 * w + x1];
                    let top = v00 + fx * (v01 - v00);
                    let bot = v10 + fx * (v11 - v10);
                    yp[oy * out_w + ox] = top + fy * (bot - top);
                }
            }
        });
    }
    y.requantize();
    profile::record(
        KernelKind::Pointwise,
        "bilinear_fwd",
        (y.numel() * 8) as u64,
        x.storage_bytes() as u64,
        y.storage_bytes() as u64,
    );
    y
}

/// Backward bilinear resize: scatters gradients with the same coefficients.
pub fn bilinear_resize_backward(x_shape: &crate::Shape, grad_out: &Tensor) -> Tensor {
    let (n, c, h, w) = x_shape.nchw();
    let (_, _, out_h, out_w) = grad_out.shape().nchw();
    let mut gx = Tensor::zeros([n, c, h, w], grad_out.dtype());
    let sh = h as f32 / out_h as f32;
    let sw = w as f32 / out_w as f32;
    {
        let gos = grad_out.as_slice();
        let gxs = gx.as_mut_slice();
        // The scatter never crosses plane boundaries, so planes
        // parallelize conflict-free with unchanged per-plane add order.
        gxs.par_chunks_mut(h * w).enumerate().for_each(|(plane, gxp)| {
            let gbase = plane * out_h * out_w;
            for oy in 0..out_h {
                let (y0, y1, fy) = src_coords(oy, sh, h);
                for ox in 0..out_w {
                    let (x0, x1, fx) = src_coords(ox, sw, w);
                    let g = gos[gbase + oy * out_w + ox];
                    gxp[y0 * w + x0] += g * (1.0 - fy) * (1.0 - fx);
                    gxp[y0 * w + x1] += g * (1.0 - fy) * fx;
                    gxp[y1 * w + x0] += g * fy * (1.0 - fx);
                    gxp[y1 * w + x1] += g * fy * fx;
                }
            }
        });
    }
    gx.requantize();
    profile::record(
        KernelKind::Pointwise,
        "bilinear_bwd",
        (grad_out.numel() * 8) as u64,
        grad_out.storage_bytes() as u64,
        gx.storage_bytes() as u64,
    );
    gx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use crate::tensor::DType;

    #[test]
    fn identity_resize_is_identity() {
        let mut rng = seeded_rng(2);
        let x = randn([1, 2, 4, 4], DType::F32, 1.0, &mut rng);
        let y = bilinear_resize_forward(&x, 4, 4);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn constant_field_stays_constant() {
        let x = Tensor::full([1, 1, 3, 3], DType::F32, 2.5);
        let y = bilinear_resize_forward(&x, 7, 5);
        for &v in y.as_slice() {
            assert!((v - 2.5).abs() < 1e-6);
        }
    }

    #[test]
    fn upsample_2x_interpolates_midpoints() {
        let x = Tensor::from_vec([1, 1, 1, 2], DType::F32, vec![0.0, 4.0]);
        let y = bilinear_resize_forward(&x, 1, 4);
        // align_corners=false: samples at 0.25,0.75,1.25,1.75 of src coords.
        let v = y.as_slice();
        assert!((v[0] - 0.0).abs() < 1e-6);
        assert!((v[1] - 1.0).abs() < 1e-6);
        assert!((v[2] - 3.0).abs() < 1e-6);
        assert!((v[3] - 4.0).abs() < 1e-6);
    }

    /// Backward must be the exact adjoint of forward: ⟨Ax, y⟩ = ⟨x, Aᵀy⟩,
    /// the gradient oracle of a linear op. Up- and downsampling, integer
    /// and non-integer ratios, one axis resized alone, N and C > 1; both
    /// sides summed in f64.
    #[test]
    fn adjoint_identity() {
        let mut rng = seeded_rng(13);
        let cases = [
            ([1, 1, 3, 4], (6, 8)),
            ([2, 3, 5, 7], (3, 4)),
            ([1, 2, 6, 9], (4, 5)),
            ([3, 1, 4, 4], (7, 10)),
            ([2, 2, 9, 3], (2, 3)),
            ([1, 4, 5, 6], (5, 13)),
            ([2, 1, 1, 5], (3, 2)),
        ];
        let dot = |a: &Tensor, b: &Tensor| -> f64 {
            a.as_slice().iter().zip(b.as_slice()).map(|(&u, &v)| u as f64 * v as f64).sum()
        };
        for (dims, (oh, ow)) in cases {
            let x = randn(dims, DType::F32, 1.0, &mut rng);
            let y = bilinear_resize_forward(&x, oh, ow);
            assert_eq!(y.shape().dims(), &[dims[0], dims[1], oh, ow]);
            let gy = randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
            let gx = bilinear_resize_backward(x.shape(), &gy);
            let (lhs, rhs) = (dot(&y, &gy), dot(&x, &gx));
            let scale = dot(&y, &y).sqrt() * dot(&gy, &gy).sqrt();
            assert!((lhs - rhs).abs() <= 1e-6 * scale, "{dims:?} → {oh}×{ow}: {lhs} vs {rhs}");
        }
    }
}
