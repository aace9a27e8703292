//! Golden-equality tests: every kernel must produce **bit-identical**
//! outputs at any thread-pool width.
//!
//! The parallel backend partitions work by shape-derived constants only
//! (planes, fixed block sizes, fixed GEMM tiles), never by thread count,
//! and every task owns a disjoint output region with an unchanged
//! per-element accumulation order. These tests pin that contract for the
//! kernels the paper's census cares about (the census totals themselves
//! are pinned in `census.rs`). `tier1.sh` re-runs the whole suite under
//! `EXACLIM_NUM_THREADS=4` so the same assertions also hold when the
//! default pool width differs.

use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::gemm::{gemm, gemm_a_bt, gemm_at_b};
use exaclim_tensor::ops::{
    batchnorm_backward, batchnorm_forward, bilinear_resize_forward, conv2d_backward,
    conv2d_forward, deconv2d_forward, maxpool2d_backward_shaped, maxpool2d_forward, relu_forward,
    Conv2dParams, ConvAlgo, Deconv2dParams,
};
use exaclim_tensor::{set_kernel_threads, DType, Tensor};
use std::sync::Mutex;

/// Pool width is process-global; serialize tests that switch it.
static WIDTH_GUARD: Mutex<()> = Mutex::new(());

/// Runs `f` once at 1 thread and once at 4, returning both results.
fn at_widths<T>(f: impl Fn() -> T) -> (T, T) {
    let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    set_kernel_threads(1);
    let one = f();
    set_kernel_threads(4);
    let four = f();
    set_kernel_threads(1);
    (one, four)
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
        let (a, b) = at_widths(|| conv2d_forward(&x, &w, Conv2dParams::padded(1), algo));
        assert_eq!(a.as_slice(), b.as_slice(), "{algo:?} differs across widths");
    }
}

#[test]
fn conv2d_backward_bit_identical_across_widths() {
    let (x, w) = conv_case();
    let mut rng = seeded_rng(7);
    let go = randn([2, 8, 32, 32], DType::F32, 1.0, &mut rng);
    let (a, b) = at_widths(|| conv2d_backward(&x, &w, &go, Conv2dParams::padded(1)));
    assert_eq!(a.grad_input.as_slice(), b.grad_input.as_slice(), "grad_input differs");
    assert_eq!(a.grad_weight.as_slice(), b.grad_weight.as_slice(), "grad_weight differs");
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
        let (a, b) = at_widths(|| {
            let y = conv2d_forward(&x, &w, p, ConvAlgo::Auto);
            let g = conv2d_backward(&x, &w, &y, p);
            (y, g)
        });
        assert_eq!(a.0.as_slice(), b.0.as_slice(), "forward differs under {p:?}");
        assert_eq!(a.1.grad_input.as_slice(), b.1.grad_input.as_slice(), "grad_input differs under {p:?}");
        assert_eq!(a.1.grad_weight.as_slice(), b.1.grad_weight.as_slice(), "grad_weight differs under {p:?}");
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

    let (c1, c4) = at_widths(|| {
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, a.as_slice(), b.as_slice(), &mut c);
        c
    });
    assert_eq!(c1, c4, "gemm differs across widths");

    let (c1, c4) = at_widths(|| {
        let mut c = vec![0.0f32; m * n];
        gemm_at_b(m, n, k, at.as_slice(), b.as_slice(), &mut c);
        c
    });
    assert_eq!(c1, c4, "gemm_at_b differs across widths");

    let (c1, c4) = at_widths(|| {
        let mut c = vec![0.0f32; m * n];
        gemm_a_bt(m, n, k, a.as_slice(), bt.as_slice(), &mut c);
        c
    });
    assert_eq!(c1, c4, "gemm_a_bt differs across widths");
}

#[test]
fn batchnorm_bit_identical_across_widths() {
    let mut rng = seeded_rng(55);
    let x = randn([4, 8, 24, 24], DType::F32, 2.0, &mut rng);
    let gamma = randn([8], DType::F32, 1.0, &mut rng);
    let beta = randn([8], DType::F32, 0.5, &mut rng);
    let go = randn(x.shape().clone(), DType::F32, 1.0, &mut rng);

    let (a, b) = at_widths(|| {
        let (y, cache) = batchnorm_forward(&x, &gamma, &beta, 1e-5, None);
        let grads = batchnorm_backward(&go, &gamma, &cache);
        (y, grads)
    });
    assert_eq!(a.0.as_slice(), b.0.as_slice(), "bn forward differs");
    assert_eq!(
        a.1.grad_input.as_slice(),
        b.1.grad_input.as_slice(),
        "bn grad_input differs"
    );
    assert_eq!(a.1.grad_gamma.as_slice(), b.1.grad_gamma.as_slice(), "grad_gamma differs");
    assert_eq!(a.1.grad_beta.as_slice(), b.1.grad_beta.as_slice(), "grad_beta differs");
}

#[test]
fn misc_kernels_bit_identical_across_widths() {
    let mut rng = seeded_rng(123);
    let x = randn([2, 4, 16, 16], DType::F32, 1.0, &mut rng);
    let wt = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);

    let (a, b) = at_widths(|| {
        let (y, arg) = maxpool2d_forward(&x, 3, 2, 1);
        let go = relu_forward(&y);
        let gx = maxpool2d_backward_shaped(x.shape().clone(), x.dtype(), &go, &arg);
        let up = bilinear_resize_forward(&x, 33, 29);
        let de = deconv2d_forward(&x, &wt, Deconv2dParams::double());
        (y, gx, up, de)
    });
    assert_eq!(a.0.as_slice(), b.0.as_slice(), "maxpool fwd differs");
    assert_eq!(a.1.as_slice(), b.1.as_slice(), "maxpool bwd differs");
    assert_eq!(a.2.as_slice(), b.2.as_slice(), "bilinear differs");
    assert_eq!(a.3.as_slice(), b.3.as_slice(), "deconv differs");
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
        let (a, b) = at_widths(|| deconv2d_forward(&x, &wt, p));
        assert_eq!(a.as_slice(), b.as_slice(), "deconv differs under {p:?}");
    }
    let wide = randn([1, 8, 96, 97], DType::F32, 1.0, &mut rng);
    let wt = randn([8, 8, 3, 3], DType::F32, 0.5, &mut rng);
    let (a, b) = at_widths(|| deconv2d_forward(&wide, &wt, Deconv2dParams::double()));
    assert_eq!(a.as_slice(), b.as_slice(), "deconv differs across a strip boundary");
}

#[test]
fn bit_hash_identical_across_widths() {
    // The hash every equality above could be (and the trainer's audit is)
    // phrased in: single-threaded `u64` arithmetic, so the pool width
    // cannot reach it. Lengths straddle its 16-element block.
    for len in [0usize, 15, 16, 33, 70_001] {
        let data: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
        let t = Tensor::from_vec([len], DType::F32, data);
        let (one, four) = at_widths(|| t.bit_hash());
        assert_eq!(one, four, "len {len}");
    }
}
