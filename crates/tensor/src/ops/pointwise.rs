//! Pointwise kernels: activations, bias, dropout, concatenation.
//!
//! These are the "Point-wise" and "Copies/Transposes" rows of the paper's
//! kernel-census tables (Figures 3/8/9) — individually cheap, collectively
//! hundreds of launches per step.

use crate::pool;
use crate::profile::{self, KernelKind};
use crate::simd;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;

/// Elements per parallel block for flat elementwise kernels. Fixed (not a
/// function of thread count), so partitioning — and hence results — are
/// identical at any pool width. Inside a block the [`crate::simd`]
/// primitives do the work (AVX2 when available, a bit-identical scalar
/// loop otherwise).
const PW_BLOCK: usize = 16384;

fn record_pw(name: &'static str, flops: u64, read: u64, written: u64) {
    profile::record(KernelKind::Pointwise, name, flops, read, written);
}

/// Applies a slice kernel `f(dst, a)` over parallel blocks (output drawn
/// from the pool).
fn map1(a: &[f32], f: impl Fn(&mut [f32], &[f32]) + Sync) -> Vec<f32> {
    let mut data = pool::take_zeroed(a.len());
    data.par_chunks_mut(PW_BLOCK)
        .zip(a.par_chunks(PW_BLOCK))
        .for_each(|(d, x)| f(d, x));
    data
}

/// Applies a slice kernel `f(dst, a, b)` over parallel blocks (output
/// drawn from the pool).
fn map2(a: &[f32], b: &[f32], f: impl Fn(&mut [f32], &[f32], &[f32]) + Sync) -> Vec<f32> {
    let mut data = pool::take_zeroed(a.len());
    data.par_chunks_mut(PW_BLOCK)
        .zip(a.par_chunks(PW_BLOCK))
        .zip(b.par_chunks(PW_BLOCK))
        .for_each(|((d, x), y)| f(d, x, y));
    data
}

/// Elementwise `a + b`.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let data = map2(a.as_slice(), b.as_slice(), simd::vadd);
    let out = Tensor::from_vec(a.shape().clone(), a.dtype(), data);
    record_pw(
        "add",
        a.numel() as u64,
        (a.storage_bytes() + b.storage_bytes()) as u64,
        out.storage_bytes() as u64,
    );
    out
}

/// Elementwise `a * b`.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "mul shape mismatch");
    let data = map2(a.as_slice(), b.as_slice(), simd::vmul);
    let out = Tensor::from_vec(a.shape().clone(), a.dtype(), data);
    record_pw(
        "mul",
        a.numel() as u64,
        (a.storage_bytes() + b.storage_bytes()) as u64,
        out.storage_bytes() as u64,
    );
    out
}

/// Adds a per-channel bias `[C]` to an NCHW tensor in place.
#[allow(clippy::needless_range_loop)]
pub fn add_bias_nchw(x: &mut Tensor, bias: &Tensor) {
    let (_n, c, h, w) = x.shape().nchw();
    assert_eq!(bias.numel(), c, "bias must have one entry per channel");
    let bytes = x.storage_bytes() as u64;
    {
        let bs = bias.as_slice();
        let xs = x.as_mut_slice();
        xs.par_chunks_mut(h * w).enumerate().for_each(|(plane, xp)| {
            simd::vadd_scalar_(xp, bs[plane % c]);
        });
    }
    x.requantize();
    record_pw("bias_add", x.numel() as u64, bytes + bias.storage_bytes() as u64, bytes);
}

/// Per-channel bias gradient: sums `grad_out` over N, H, W.
pub fn bias_grad_nchw(grad_out: &Tensor) -> Tensor {
    let (n, c, h, w) = grad_out.shape().nchw();
    let mut gb = Tensor::zeros([c], crate::tensor::DType::F32);
    {
        let gos = grad_out.as_slice();
        let gbs = gb.as_mut_slice();
        // One task per channel; the image loop stays ni-ascending inside,
        // matching the sequential per-channel accumulation order. Each
        // plane sum uses the canonical lane-split order of
        // [`simd::sum_f32`], so the value is the same at any SIMD level.
        gbs.par_iter_mut().enumerate().for_each(|(ci, gbc)| {
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                *gbc += simd::sum_f32(&gos[base..base + h * w]);
            }
        });
    }
    record_pw(
        "bias_grad",
        grad_out.numel() as u64,
        grad_out.storage_bytes() as u64,
        gb.storage_bytes() as u64,
    );
    gb
}

/// ReLU forward.
pub fn relu_forward(x: &Tensor) -> Tensor {
    let data = map1(x.as_slice(), simd::vrelu);
    let out = Tensor::from_vec(x.shape().clone(), x.dtype(), data);
    record_pw("relu_fwd", x.numel() as u64, x.storage_bytes() as u64, out.storage_bytes() as u64);
    out
}

/// ReLU backward: passes gradients where the *input* was positive.
pub fn relu_backward(x: &Tensor, grad_out: &Tensor) -> Tensor {
    assert_eq!(x.shape(), grad_out.shape(), "relu_backward shape mismatch");
    let data = map2(x.as_slice(), grad_out.as_slice(), simd::vrelu_mask);
    let out = Tensor::from_vec(x.shape().clone(), grad_out.dtype(), data);
    record_pw(
        "relu_bwd",
        x.numel() as u64,
        (x.storage_bytes() + grad_out.storage_bytes()) as u64,
        out.storage_bytes() as u64,
    );
    out
}

/// ReLU backward from the cached *output*: for `y = max(0, x)`,
/// `y > 0 ⟺ x > 0`, so the forward result doubles as the gradient mask
/// and the input never needs caching — this halves the activation-cache
/// footprint of every conv→ReLU pair. Bit-identical to
/// [`relu_backward`] on the matching input.
pub fn relu_backward_from_output(y: &Tensor, grad_out: &Tensor) -> Tensor {
    assert_eq!(y.shape(), grad_out.shape(), "relu_backward_from_output shape mismatch");
    let data = map2(y.as_slice(), grad_out.as_slice(), simd::vrelu_mask);
    let out = Tensor::from_vec(y.shape().clone(), grad_out.dtype(), data);
    record_pw(
        "relu_bwd",
        y.numel() as u64,
        (y.storage_bytes() + grad_out.storage_bytes()) as u64,
        out.storage_bytes() as u64,
    );
    out
}

/// Inverted dropout forward. Returns the output and the keep mask
/// (scaled by `1/keep_prob`) used by the backward pass.
pub fn dropout_forward(x: &Tensor, drop_prob: f32, rng: &mut StdRng) -> (Tensor, Vec<f32>) {
    assert!((0.0..1.0).contains(&drop_prob), "drop_prob must be in [0,1)");
    let keep = 1.0 - drop_prob;
    let inv = 1.0 / keep;
    // Mask generation must stay sequential: the RNG stream defines the
    // mask, and splitting it across threads would change the draws.
    let mut mask = pool::take_with_capacity(x.numel());
    mask.extend((0..x.numel()).map(|_| if rng.gen::<f32>() < keep { inv } else { 0.0 }));
    let data = map2(x.as_slice(), &mask, simd::vmul);
    let out = Tensor::from_vec(x.shape().clone(), x.dtype(), data);
    record_pw(
        "dropout_fwd",
        x.numel() as u64,
        x.storage_bytes() as u64,
        out.storage_bytes() as u64,
    );
    (out, mask)
}

/// Dropout backward: applies the stored mask.
pub fn dropout_backward(grad_out: &Tensor, mask: &[f32]) -> Tensor {
    assert_eq!(grad_out.numel(), mask.len(), "dropout mask length mismatch");
    let data = map2(grad_out.as_slice(), mask, simd::vmul);
    let out = Tensor::from_vec(grad_out.shape().clone(), grad_out.dtype(), data);
    record_pw(
        "dropout_bwd",
        grad_out.numel() as u64,
        grad_out.storage_bytes() as u64,
        out.storage_bytes() as u64,
    );
    out
}

/// Concatenates NCHW tensors along the channel axis — the skip-connection
/// primitive of Tiramisu's dense blocks ("where ResNet uses addition,
/// Tiramisu uses concatenation").
pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let (n, _, h, w) = parts[0].shape().nchw();
    let dtype = parts[0].dtype();
    let mut total_c = 0;
    for t in parts {
        let (tn, tc, th, tw) = t.shape().nchw();
        assert_eq!((tn, th, tw), (n, h, w), "concat_channels: non-channel dims must match");
        total_c += tc;
    }
    let mut y = Tensor::zeros([n, total_c, h, w], dtype);
    {
        let ys = y.as_mut_slice();
        for ni in 0..n {
            let mut coff = 0usize;
            for t in parts {
                let tc = t.shape().dim(1);
                let src = &t.as_slice()[ni * tc * h * w..(ni + 1) * tc * h * w];
                let dst_base = (ni * total_c + coff) * h * w;
                ys[dst_base..dst_base + tc * h * w].copy_from_slice(src);
                coff += tc;
            }
        }
    }
    y.requantize();
    profile::record(
        KernelKind::CopyTranspose,
        "concat_channels",
        0,
        parts.iter().map(|t| t.storage_bytes() as u64).sum(),
        y.storage_bytes() as u64,
    );
    y
}

/// Splits an NCHW tensor back into channel groups (the backward of
/// [`concat_channels`]).
pub fn split_channels(x: &Tensor, channels: &[usize]) -> Vec<Tensor> {
    let (n, c, h, w) = x.shape().nchw();
    assert_eq!(channels.iter().sum::<usize>(), c, "split sizes must sum to channel count");
    let xs = x.as_slice();
    let mut out = Vec::with_capacity(channels.len());
    let mut coff = 0usize;
    for &tc in channels {
        let mut t = Tensor::zeros([n, tc, h, w], x.dtype());
        {
            let ts = t.as_mut_slice();
            for ni in 0..n {
                let src_base = (ni * c + coff) * h * w;
                ts[ni * tc * h * w..(ni + 1) * tc * h * w]
                    .copy_from_slice(&xs[src_base..src_base + tc * h * w]);
            }
        }
        out.push(t);
        coff += tc;
    }
    profile::record(
        KernelKind::CopyTranspose,
        "split_channels",
        0,
        x.storage_bytes() as u64,
        x.storage_bytes() as u64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::tensor::DType;

    #[test]
    fn relu_clamps_and_gates() {
        let x = Tensor::from_vec([4], DType::F32, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu_forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Tensor::from_vec([4], DType::F32, vec![1.0, 1.0, 1.0, 1.0]);
        let gx = relu_backward(&x, &g);
        assert_eq!(gx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn bias_add_and_grad_are_adjoint() {
        let mut x = Tensor::zeros([2, 3, 2, 2], DType::F32);
        let b = Tensor::from_vec([3], DType::F32, vec![1.0, 2.0, 3.0]);
        add_bias_nchw(&mut x, &b);
        assert_eq!(x.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(x.at(&[1, 2, 1, 1]), 3.0);
        let gb = bias_grad_nchw(&x);
        // each channel: 2 images × 4 pixels × bias value
        assert_eq!(gb.as_slice(), &[8.0, 16.0, 24.0]);
    }

    #[test]
    fn dropout_scales_to_preserve_expectation() {
        let mut rng = seeded_rng(77);
        let x = Tensor::full([10_000], DType::F32, 1.0);
        let (y, mask) = dropout_forward(&x, 0.3, &mut rng);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout keeps E[x]: {mean}");
        let g = Tensor::full([10_000], DType::F32, 1.0);
        let gx = dropout_backward(&g, &mask);
        assert_eq!(gx.as_slice(), y.as_slice(), "same mask in both directions");
    }

    #[test]
    fn concat_then_split_roundtrips() {
        let a = Tensor::from_vec([1, 1, 2, 2], DType::F32, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec([1, 2, 2, 2], DType::F32, (5..13).map(|i| i as f32).collect());
        let y = concat_channels(&[&a, &b]);
        assert_eq!(y.shape().dims(), &[1, 3, 2, 2]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 1, 0, 0]), 5.0);
        let parts = split_channels(&y, &[1, 2]);
        assert_eq!(parts[0].as_slice(), a.as_slice());
        assert_eq!(parts[1].as_slice(), b.as_slice());
    }

    #[test]
    fn concat_multi_batch_keeps_batches_separate() {
        let a = Tensor::from_vec([2, 1, 1, 1], DType::F32, vec![1.0, 2.0]);
        let b = Tensor::from_vec([2, 1, 1, 1], DType::F32, vec![10.0, 20.0]);
        let y = concat_channels(&[&a, &b]);
        assert_eq!(y.as_slice(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn relu_backward_from_output_is_bit_identical_to_input_mask() {
        use crate::init::{randn, seeded_rng};
        let mut rng = seeded_rng(91);
        let x = randn([2, 3, 4, 4], DType::F32, 1.0, &mut rng);
        let g = randn([2, 3, 4, 4], DType::F32, 1.0, &mut rng);
        let y = relu_forward(&x);
        let from_input = relu_backward(&x, &g);
        let from_output = relu_backward_from_output(&y, &g);
        assert_eq!(from_input.as_slice(), from_output.as_slice());
    }

    #[test]
    fn add_mul_scale() {
        let a = Tensor::from_vec([3], DType::F32, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec([3], DType::F32, vec![4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(mul(&a, &b).as_slice(), &[4.0, 10.0, 18.0]);
    }
}
