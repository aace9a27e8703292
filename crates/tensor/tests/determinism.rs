//! Golden-equality tests: every kernel must produce **bit-identical**
//! outputs at any thread-pool width.
//!
//! The parallel backend partitions work by shape-derived constants only
//! (planes, fixed block sizes, fixed GEMM tiles), never by thread count,
//! and every task owns a disjoint output region with an unchanged
//! per-element accumulation order. These tests pin that contract for the
//! kernels the paper's census cares about (the census totals themselves
//! are pinned in `census.rs`). Each case runs at widths 1, 3 and 4; width
//! 3 splits the chunk grids unevenly.

use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::gemm::{gemm, gemm_a_bt, gemm_at_b};
use exaclim_tensor::ops::{
    batchnorm_backward, batchnorm_forward, bilinear_resize_forward, conv2d_backward,
    conv2d_forward, deconv2d_forward, maxpool2d_backward_shaped, maxpool2d_forward, relu_forward,
    Conv2dParams, ConvAlgo, Deconv2dParams,
};
use exaclim_tensor::{kernel_threads, set_kernel_threads, DType, Tensor};
use std::sync::Mutex;

/// Pool width is process-global; serialize tests that switch it.
static WIDTH_GUARD: Mutex<()> = Mutex::new(());

/// Runs `f` at 1, 3 and 4 threads and asserts the three results are
/// equal; leaves the pool width as it found it.
fn at_widths<T: PartialEq>(what: &str, f: impl Fn() -> T) {
    let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let ambient = kernel_threads();
    let runs = [1, 3, 4].map(|w| {
        set_kernel_threads(w);
        (w, f())
    });
    set_kernel_threads(ambient);
    for (w, r) in &runs[1..] {
        assert!(*r == runs[0].1, "{what} differs between 1 and {w} threads");
    }
}

/// Shapes large enough to cross the blocked-GEMM threshold and produce
/// multi-chunk parallel dispatches.
fn conv_case() -> (Tensor, Tensor) {
    let mut rng = seeded_rng(2024);
    let x = randn([2, 16, 32, 32], DType::F32, 1.0, &mut rng);
    let w = randn([8, 16, 3, 3], DType::F32, 0.5, &mut rng);
    (x, w)
}

#[test]
fn conv2d_forward_bit_identical_across_widths() {
    let (x, w) = conv_case();
    for algo in [ConvAlgo::Direct, ConvAlgo::Auto] {
        at_widths(&format!("{algo:?} forward"), || conv2d_forward(&x, &w, Conv2dParams::padded(1), algo));
    }
}

#[test]
fn conv2d_backward_bit_identical_across_widths() {
    let (x, w) = conv_case();
    let mut rng = seeded_rng(7);
    let go = randn([2, 8, 32, 32], DType::F32, 1.0, &mut rng);
    at_widths("conv2d_backward (grad_input, grad_weight)", || {
        let g = conv2d_backward(&x, &w, &go, Conv2dParams::padded(1));
        (g.grad_input, g.grad_weight)
    });
}

/// The geometries the row-wise im2col packers and the col2im scatter
/// branch on: stride 2, dilation, an odd width whose 8-pixel panels straddle
/// output rows, a 7×7 kernel — through the GEMM route, forward and backward.
/// The data gradient's three routes each appear: the flipped-kernel forward
/// (stride 1, also on a 96×97 map of more pixels than one 8192-pixel
/// column strip), the transposed 1×1, and the strip GEMM + col2im (stride 2,
/// and a 3×3 at pad 3, past `dilation·(r−1)`).
#[test]
fn conv_geometries_bit_identical_across_widths() {
    let mut rng = seeded_rng(31);
    for (kernel, (h, wd), p) in [
        (3, (29, 37), Conv2dParams::strided(2, 1)),
        (3, (29, 37), Conv2dParams::atrous(2)),
        (3, (29, 37), Conv2dParams { stride: 2, pad: 4, dilation: 4 }),
        (7, (29, 37), Conv2dParams::padded(3)),
        (1, (29, 37), Conv2dParams::default()),
        (3, (29, 37), Conv2dParams::padded(3)),
        (3, (96, 97), Conv2dParams::padded(1)),
    ] {
        let x = randn([2, 16, h, wd], DType::F32, 1.0, &mut rng);
        let w = randn([8, 16, kernel, kernel], DType::F32, 0.5, &mut rng);
        at_widths(&format!("(forward, grad_input, grad_weight) under {p:?}"), || {
            let y = conv2d_forward(&x, &w, p, ConvAlgo::Auto);
            let g = conv2d_backward(&x, &w, &y, p);
            (y, g.grad_input, g.grad_weight)
        });
    }
}

#[test]
fn gemm_variants_bit_identical_across_widths() {
    // Exceeds the blocked-kernel threshold with ragged tile edges.
    let (m, n, k) = (131, 517, 260);
    let mut rng = seeded_rng(99);
    let a = randn([m, k], DType::F32, 1.0, &mut rng);
    let b = randn([k, n], DType::F32, 1.0, &mut rng);
    let at = randn([k, m], DType::F32, 1.0, &mut rng);
    let bt = randn([n, k], DType::F32, 1.0, &mut rng);

    at_widths("gemm", || {
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, a.as_slice(), b.as_slice(), &mut c);
        c
    });

    at_widths("gemm_at_b", || {
        let mut c = vec![0.0f32; m * n];
        gemm_at_b(m, n, k, at.as_slice(), b.as_slice(), &mut c);
        c
    });

    at_widths("gemm_a_bt", || {
        let mut c = vec![0.0f32; m * n];
        gemm_a_bt(m, n, k, a.as_slice(), bt.as_slice(), &mut c);
        c
    });
}

#[test]
fn batchnorm_bit_identical_across_widths() {
    let mut rng = seeded_rng(55);
    let x = randn([4, 8, 24, 24], DType::F32, 2.0, &mut rng);
    let gamma = randn([8], DType::F32, 1.0, &mut rng);
    let beta = randn([8], DType::F32, 0.5, &mut rng);
    let go = randn(x.shape().clone(), DType::F32, 1.0, &mut rng);

    at_widths("bn (forward, grad_input, grad_gamma, grad_beta)", || {
        let (y, cache) = batchnorm_forward(&x, &gamma, &beta, 1e-5, None);
        let g = batchnorm_backward(&go, &gamma, &cache);
        (y, g.grad_input, g.grad_gamma, g.grad_beta)
    });
}

#[test]
fn misc_kernels_bit_identical_across_widths() {
    let mut rng = seeded_rng(123);
    let x = randn([2, 4, 16, 16], DType::F32, 1.0, &mut rng);
    let wt = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);

    at_widths("(maxpool fwd, maxpool bwd, bilinear, deconv)", || {
        let (y, arg) = maxpool2d_forward(&x, 3, 2, 1);
        let go = relu_forward(&y);
        let gx = maxpool2d_backward_shaped(x.shape().clone(), x.dtype(), &go, &arg);
        let up = bilinear_resize_forward(&x, 33, 29);
        let de = deconv2d_forward(&x, &wt, Deconv2dParams::double());
        (y, gx, up, de)
    });
}

/// Transposed-convolution forward is a strip GEMM plus a col2im scatter:
/// shapes wide enough for the GEMM's parallel tile grid, every stride with
/// and without `output_pad`, and a 96×97 map (more than one `COL_STRIP` of
/// input pixels, strip boundary mid-row).
#[test]
fn deconv_forward_bit_identical_across_widths() {
    let mut rng = seeded_rng(321);
    let x = randn([2, 16, 32, 32], DType::F32, 1.0, &mut rng);
    let wt = randn([16, 16, 3, 3], DType::F32, 0.5, &mut rng);
    for p in [
        Deconv2dParams::double(),
        Deconv2dParams { stride: 1, pad: 1, output_pad: 0 },
        Deconv2dParams { stride: 2, pad: 1, output_pad: 0 },
        Deconv2dParams { stride: 3, pad: 0, output_pad: 0 },
        Deconv2dParams { stride: 3, pad: 1, output_pad: 2 },
    ] {
        at_widths(&format!("deconv under {p:?}"), || deconv2d_forward(&x, &wt, p));
    }
    let wide = randn([1, 8, 96, 97], DType::F32, 1.0, &mut rng);
    let wt = randn([8, 8, 3, 3], DType::F32, 0.5, &mut rng);
    at_widths("deconv across a strip boundary", || deconv2d_forward(&wide, &wt, Deconv2dParams::double()));
}

#[test]
fn bit_hash_identical_across_widths() {
    // The hash every equality above could be (and the trainer's audit is)
    // phrased in: single-threaded `u64` arithmetic, so the pool width
    // cannot reach it. Lengths straddle its 16-element block.
    for len in [0usize, 15, 16, 33, 70_001] {
        let data: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
        let t = Tensor::from_vec([len], DType::F32, data);
        at_widths(&format!("bit_hash of len {len}"), || t.bit_hash());
    }
}
