//! Property-based tests for the tensor substrate.

use exaclim_tensor::half::{quantize_f16, F16};
use exaclim_tensor::ops::{self, Conv2dParams, ConvAlgo, Deconv2dParams};
use exaclim_tensor::simd::{MR, NR};
use exaclim_tensor::{DType, Shape, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the global SIMD switch so one test's
/// "scalar" phase cannot be re-enabled mid-run by a sibling.
static SIMD_TOGGLE: Mutex<()> = Mutex::new(());

/// Runs `f` once with SIMD forced off and once with it on, restoring the
/// prior state, and returns `(scalar, vector)` results for bit comparison.
fn scalar_and_simd<T>(f: impl Fn() -> T) -> (T, T) {
    let _g = SIMD_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let prev = exaclim_tensor::simd_enabled();
    exaclim_tensor::set_simd_enabled(false);
    let scalar = f();
    exaclim_tensor::set_simd_enabled(true);
    let vector = f();
    exaclim_tensor::set_simd_enabled(prev);
    (scalar, vector)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn small_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -100.0f32..100.0,
        -1.0e-3f32..1.0e-3,
        Just(0.0f32),
    ]
}

/// Depth panel of the blocked GEMM (`crates/tensor/src/ops/gemm.rs`), the
/// one path every shape takes.
const KC: usize = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The blocked GEMM produces the same bits with and without SIMD for
    /// random shapes: every `MR`/`NR`/`KC` remainder, row and column counts
    /// across the `MC` (128) and `NC` (512) tiles, and depths of one or two
    /// `KC` panels.
    #[test]
    fn gemm_blocked_random_shapes_bit_identical_across_simd(
        n_tiles in 8usize..66, n_rem in 0usize..NR,
        k_panels in 0usize..2, k_rem in 1usize..KC,
        m_tiles in 1usize..18, m_rem in 0usize..MR,
        seed in 0u64..200,
    ) {
        let n = n_tiles * NR + n_rem;
        let k = k_panels * KC + k_rem;
        let m = m_tiles * MR + m_rem;
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let a = exaclim_tensor::init::randn([m * k], DType::F32, 1.0, &mut rng);
        let b = exaclim_tensor::init::randn([k * n], DType::F32, 1.0, &mut rng);
        let (s, v) = scalar_and_simd(|| {
            let mut c = vec![0.0f32; m * n];
            ops::gemm(m, n, k, a.as_slice(), b.as_slice(), &mut c);
            c.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        });
        prop_assert_eq!(s, v, "blocked GEMM bits diverge at m={} n={} k={}", m, n, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// f16 → f32 → f16 is the identity on the bit level (for non-NaN).
    #[test]
    fn f16_roundtrip_is_identity(bits in 0u16..0x7c00u16) {
        // All positive finite half values.
        let h = F16(bits);
        let back = F16::from_f32(h.to_f32());
        prop_assert_eq!(h.0, back.0);
    }

    /// Quantization is idempotent and monotone.
    #[test]
    fn f16_quantization_idempotent_monotone(a in small_f32(), b in small_f32()) {
        let qa = quantize_f16(a);
        prop_assert_eq!(qa, quantize_f16(qa), "idempotent");
        if a <= b {
            prop_assert!(quantize_f16(a) <= quantize_f16(b), "monotone: {} {}", a, b);
        }
    }

    /// Quantization error is within half an ULP (2^-11 relative for
    /// normal values).
    #[test]
    fn f16_error_bound(a in -60000.0f32..60000.0) {
        let q = quantize_f16(a);
        let err = (q - a).abs();
        let bound = (a.abs() * 4.9e-4).max(3.0e-8);
        prop_assert!(err <= bound, "a={a}, q={q}, err={err}");
    }

    /// Row-major offsets form a bijection onto 0..numel.
    #[test]
    fn shape_offsets_are_bijective(d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5) {
        let s = Shape::new(&[d0, d1, d2]);
        let mut seen = vec![false; s.numel()];
        for i in 0..d0 {
            for j in 0..d1 {
                for k in 0..d2 {
                    let off = s.offset(&[i, j, k]);
                    prop_assert!(!seen[off], "offset collision at {off}");
                    seen[off] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Convolution is linear: conv(αx, w) == α·conv(x, w).
    #[test]
    fn conv_is_linear_in_input(alpha in -3.0f32..3.0, seed in 0u64..1000) {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([1, 2, 5, 5], DType::F32, 1.0, &mut rng);
        let w = exaclim_tensor::init::randn([3, 2, 3, 3], DType::F32, 0.5, &mut rng);
        let y1 = ops::conv2d_forward(&x, &w, Conv2dParams::padded(1), ConvAlgo::Direct);
        let mut ax = x.clone();
        ax.scale(alpha);
        let y2 = ops::conv2d_forward(&ax, &w, Conv2dParams::padded(1), ConvAlgo::Direct);
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert!((a * alpha - b).abs() < 1e-3 * (1.0 + b.abs()), "{} vs {}", a * alpha, b);
        }
    }

    /// Direct and im2col lowerings agree for random geometry.
    #[test]
    fn conv_lowerings_agree(
        seed in 0u64..500,
        stride in 1usize..3,
        pad in 0usize..3,
        dilation in 1usize..3,
        kernel in prop::sample::select(vec![1usize, 3]),
    ) {
        let (h, w) = (9usize, 8usize);
        let eff = dilation * (kernel - 1) + 1;
        prop_assume!(h + 2 * pad >= eff && w + 2 * pad >= eff);
        let p = Conv2dParams { stride, pad, dilation };
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([2, 3, h, w], DType::F32, 1.0, &mut rng);
        let wt = exaclim_tensor::init::randn([4, 3, kernel, kernel], DType::F32, 0.5, &mut rng);
        let a = ops::conv2d_forward(&x, &wt, p, ConvAlgo::Direct);
        let b = ops::conv2d_forward(&x, &wt, p, ConvAlgo::Auto);
        prop_assert_eq!(a.shape().dims(), b.shape().dims());
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((u - v).abs() < 1e-3, "{} vs {}", u, v);
        }
    }

    /// concat ∘ split is the identity for arbitrary channel partitions.
    #[test]
    fn concat_split_roundtrip(c1 in 1usize..4, c2 in 1usize..4, c3 in 1usize..4, seed in 0u64..100) {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let total = c1 + c2 + c3;
        let x = exaclim_tensor::init::randn([2, total, 3, 4], DType::F32, 1.0, &mut rng);
        let parts = ops::split_channels(&x, &[c1, c2, c3]);
        let refs: Vec<&Tensor> = parts.iter().collect();
        let back = ops::concat_channels(&refs);
        prop_assert_eq!(back.as_slice(), x.as_slice());
    }

    /// Softmax outputs are a probability distribution per pixel.
    #[test]
    fn softmax_is_a_distribution(seed in 0u64..200) {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([1, 4, 3, 3], DType::F32, 5.0, &mut rng);
        let y = ops::softmax_channels(&x);
        for p in 0..9 {
            let mut total = 0.0f32;
            for c in 0..4 {
                let v = y.as_slice()[c * 9 + p];
                prop_assert!((0.0..=1.0).contains(&v));
                total += v;
            }
            prop_assert!((total - 1.0).abs() < 1e-4);
        }
    }

    /// maxpool backward routes exactly the incoming gradient mass.
    #[test]
    fn maxpool_gradient_mass_conserved(seed in 0u64..200) {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([1, 2, 6, 6], DType::F32, 1.0, &mut rng);
        let (y, arg) = ops::maxpool2d_forward(&x, 2, 2, 0);
        let g = exaclim_tensor::init::randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
        let gx = ops::maxpool2d_backward_shaped(x.shape().clone(), x.dtype(), &g, &arg);
        prop_assert!((gx.sum() - g.sum()).abs() < 1e-3);
    }

    /// Bitwise hash is stable and sensitive to single-element changes.
    #[test]
    fn bit_hash_detects_any_change(seed in 0u64..100, idx in 0usize..24) {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([24], DType::F32, 1.0, &mut rng);
        let h1 = x.bit_hash();
        let mut y = x.clone();
        let old = y.as_slice()[idx];
        y.as_mut_slice()[idx] = old + 1.0;
        prop_assert_ne!(h1, y.bit_hash());
        let z = x.clone();
        prop_assert_eq!(h1, z.bit_hash());
    }

    /// Any single flipped bit, at any index of a long tensor of arbitrary
    /// length, changes the hash — the guarantee the per-step replica audit
    /// rests on — and the value does not depend on the SIMD switch.
    #[test]
    fn bit_hash_catches_one_flipped_bit_anywhere(
        seed in 0u64..1000, len in 34usize..6000, at in 0usize..6000, bit in 0u32..32,
    ) {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([len], DType::F32, 1.0, &mut rng);
        let idx = at % len;
        let mut y = x.clone();
        let old = y.as_slice()[idx];
        y.as_mut_slice()[idx] = f32::from_bits(old.to_bits() ^ (1 << bit));
        prop_assert_ne!(x.bit_hash(), y.bit_hash(), "len {} idx {} bit {}", len, idx, bit);
        let (scalar, vector) = scalar_and_simd(|| x.bit_hash());
        prop_assert_eq!(scalar, vector);
    }

    /// Both convolution lowerings are bit-identical across SIMD levels
    /// for random geometry (stride/pad/dilation, odd spatial sizes).
    #[test]
    fn conv_forward_bit_identical_across_simd(
        seed in 0u64..200,
        stride in 1usize..3,
        pad in 0usize..2,
        algo in prop::sample::select(vec![ConvAlgo::Direct, ConvAlgo::Auto]),
    ) {
        let p = Conv2dParams { stride, pad, dilation: 1 };
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([1, 3, 7, 9], DType::F32, 1.0, &mut rng);
        let w = exaclim_tensor::init::randn([5, 3, 3, 3], DType::F32, 0.5, &mut rng);
        let (s, v) = scalar_and_simd(|| bits(&ops::conv2d_forward(&x, &w, p, algo)));
        prop_assert_eq!(s, v);
    }

    /// Convolution backward (data and weight gradients, both through the
    /// packed GEMM path) is bit-identical across SIMD levels.
    #[test]
    fn conv_backward_bit_identical_across_simd(seed in 0u64..150, pad in 0usize..2) {
        let p = Conv2dParams { stride: 1, pad, dilation: 1 };
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([2, 3, 6, 7], DType::F32, 1.0, &mut rng);
        let w = exaclim_tensor::init::randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);
        let y = ops::conv2d_forward(&x, &w, p, ConvAlgo::Direct);
        let go = exaclim_tensor::init::randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
        let (s, v) = scalar_and_simd(|| {
            let g = ops::conv2d_backward(&x, &w, &go, p);
            (bits(&g.grad_input), bits(&g.grad_weight))
        });
        prop_assert_eq!(s, v);
    }

    /// The GEMM route forward and backward under stride, dilation, a 5×5
    /// kernel and odd widths (8-pixel panels straddling output rows, taps
    /// wholly in the padding): bit-identical across SIMD levels.
    #[test]
    fn conv_geometries_bit_identical_across_simd(
        seed in 0u64..150,
        stride in 1usize..4,
        dilation in 1usize..4,
        pad in 0usize..4,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        wd in prop::sample::select(vec![9usize, 11, 17]),
    ) {
        let eff = dilation * (kernel - 1) + 1;
        prop_assume!(7 + 2 * pad >= eff);
        let p = Conv2dParams { stride, pad, dilation };
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([2, 3, 7, wd], DType::F32, 1.0, &mut rng);
        let w = exaclim_tensor::init::randn([4, 3, kernel, kernel], DType::F32, 0.5, &mut rng);
        let (s, v) = scalar_and_simd(|| {
            let y = ops::conv2d_forward(&x, &w, p, ConvAlgo::Auto);
            let g = ops::conv2d_backward(&x, &w, &y, p);
            (bits(&y), bits(&g.grad_input), bits(&g.grad_weight))
        });
        prop_assert_eq!(s, v);
    }

    /// Transposed convolution forward (strip GEMM + col2im) and backward
    /// (both gradients on the packed GEMM) under every stride, with and
    /// without `output_pad`: bit-identical across SIMD levels.
    #[test]
    fn deconv_bit_identical_across_simd(
        seed in 0u64..150,
        stride in 1usize..4,
        pad in 0usize..3,
        output_pad in 0usize..3,
        kernel in prop::sample::select(vec![2usize, 3, 4]),
    ) {
        let p = Deconv2dParams { stride, pad, output_pad: output_pad % stride };
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([2, 5, 6, 9], DType::F32, 1.0, &mut rng);
        let w = exaclim_tensor::init::randn([5, 3, kernel, kernel], DType::F32, 0.5, &mut rng);
        let (s, v) = scalar_and_simd(|| {
            let y = ops::deconv2d_forward(&x, &w, p);
            let g = ops::deconv2d_backward(&x, &w, &y, p);
            (bits(&y), bits(&g.grad_input), bits(&g.grad_weight))
        });
        prop_assert_eq!(s, v);
    }

    /// Batch norm forward and backward (vectorized statistics, apply and
    /// gradient kernels) are bit-identical across SIMD levels.
    #[test]
    fn batchnorm_bit_identical_across_simd(seed in 0u64..200, c in 1usize..5) {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([2, c, 5, 7], DType::F32, 1.0, &mut rng);
        let gamma = exaclim_tensor::init::randn([c], DType::F32, 0.5, &mut rng);
        let beta = exaclim_tensor::init::randn([c], DType::F32, 0.5, &mut rng);
        let go = exaclim_tensor::init::randn([2, c, 5, 7], DType::F32, 1.0, &mut rng);
        let (s, v) = scalar_and_simd(|| {
            let (y, cache) = ops::batchnorm_forward(&x, &gamma, &beta, 1e-5, None);
            let g = ops::batchnorm_backward(&go, &gamma, &cache);
            (bits(&y), bits(&g.grad_input), bits(&g.grad_gamma), bits(&g.grad_beta))
        });
        prop_assert_eq!(s, v);
    }

    /// The pointwise family and channel softmax/log-softmax are
    /// bit-identical across SIMD levels on odd lengths (vector remainder
    /// lanes included).
    #[test]
    fn pointwise_bit_identical_across_simd(seed in 0u64..200, c in 1usize..6) {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let x = exaclim_tensor::init::randn([1, c, 3, 11], DType::F32, 2.0, &mut rng);
        let yv = exaclim_tensor::init::randn([1, c, 3, 11], DType::F32, 2.0, &mut rng);
        let (s, v) = scalar_and_simd(|| {
            let mut out = bits(&ops::add(&x, &yv));
            out.extend(bits(&ops::mul(&x, &yv)));
            out.extend(bits(&ops::relu_forward(&x)));
            out.extend(bits(&ops::relu_backward(&x, &yv)));
            out.extend(bits(&ops::softmax_channels(&x)));
            out.extend(bits(&ops::log_softmax_channels(&x)));
            out
        });
        prop_assert_eq!(s, v);
    }
}

/// The blocked GEMM path (cache-blocked, packed panels, register
/// micro-kernel) on shapes with remainder rows, columns and depth against
/// every blocking parameter: bits must match the scalar route exactly.
#[test]
fn gemm_blocked_bit_identical_across_simd() {
    for (m, n, k, seed) in [(65, 130, 70, 7u64), (64, 513, 17, 11), (130, 67, 37, 13)] {
        let mut rng = exaclim_tensor::init::seeded_rng(seed);
        let a = exaclim_tensor::init::randn([m * k], DType::F32, 1.0, &mut rng);
        let b = exaclim_tensor::init::randn([k * n], DType::F32, 1.0, &mut rng);
        let (s, v) = scalar_and_simd(|| {
            let mut c = vec![0.0f32; m * n];
            ops::gemm(m, n, k, a.as_slice(), b.as_slice(), &mut c);
            c.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        });
        assert_eq!(s, v, "blocked GEMM bits diverge at m={m} n={n} k={k}");
    }
}

/// The blocked GEMM's arithmetic, spelled out as plain loops: per `KC`
/// depth panel, each element of `C` accumulates `acc = a·b + acc` from zero
/// in ascending depth, rounded once per step (`mul_add`), then `c += acc`.
/// `a(i, p)` and `b(p, j)` read the logical `m×k` and `k×n` operands.
fn fma_reference(
    (m, n, k): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<u32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for pc in (0..k).step_by(KC) {
                let acc = (pc..k.min(pc + KC)).fold(0.0f32, |acc, p| a(i, p).mul_add(b(p, j), acc));
                c[i * n + j] += acc;
            }
        }
    }
    c.iter().map(|v| v.to_bits()).collect()
}

/// FMA is the GEMM arithmetic: on both SIMD levels, `ops::gemm` (`A`
/// row-major), `gemm_at_b` (`A` stored transposed), `gemm_a_bt` and the
/// implicit-GEMM convolution equal [`fma_reference`] bit for bit. Shapes
/// have `m` and `n` off the 8×8 register tile and `k` across `KC`; the
/// stride-1 padded convolution takes the in-place `B` route and is checked
/// against the reference on a materialized im2col matrix. One crafted case
/// separates fused from unfused rounding outright: with `x = 1 + 2⁻¹²`,
/// `x·x = 1 + 2⁻¹¹ + 2⁻²⁴` exactly, so `x·x − (1 + 2⁻¹¹)` is `2⁻²⁴`
/// fused and `0` when the product is rounded first. A kernel with separate
/// multiply and add fails every part of this test.
#[test]
fn gemm_is_fma_per_kc_panel_bit_for_bit() {
    use exaclim_tensor::ops::gemm::{gemm_a_bt, gemm_at_b};
    fn check(what: &str, got: Vec<f32>, want: &[u32]) {
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let differ = got.iter().zip(want).filter(|(g, w)| g != w).count();
        let total = want.len();
        assert!(got.len() == total && differ == 0, "{what}: {differ} of {total} elements differ from the FMA reference");
    }
    type Entry = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    /// Runs `entry` with operands stored as it expects them.
    fn run(entry: Entry, (m, n, k): (usize, usize, usize), a: &[f32], b: &[f32], a_t: bool, b_t: bool) -> Vec<f32> {
        // Stores the row-major `rows×cols` matrix `x` as `cols×rows`.
        let transpose =
            |x: &[f32], rows: usize, cols: usize| (0..rows * cols).map(|e| x[(e % rows) * cols + e / rows]).collect::<Vec<_>>();
        let a = if a_t { transpose(a, m, k) } else { a.to_vec() };
        let b = if b_t { transpose(b, k, n) } else { b.to_vec() };
        let mut c = vec![0.0f32; m * n];
        entry(m, n, k, &a, &b, &mut c);
        c
    }
    let entries: [(&str, Entry, bool, bool); 3] = [
        ("gemm", ops::gemm, false, false),
        ("gemm_at_b", gemm_at_b, true, false),
        ("gemm_a_bt", gemm_a_bt, false, true),
    ];

    let x = 1.0 + 2f32.powi(-12);
    let crafted = (vec![1.0, x], vec![-(1.0 + 2f32.powi(-11)), x]);
    assert_eq!(fma_reference((1, 1, 2), |_, p| crafted.0[p], |p, _| crafted.1[p]), [2f32.powi(-24).to_bits()]);

    let (c, kout, h, wd, p) = (30, 12, 9, 19, Conv2dParams::padded(1));
    let mut rng = exaclim_tensor::init::seeded_rng(23);
    let xs = exaclim_tensor::init::randn([2, c, h, wd], DType::F32, 1.0, &mut rng);
    let w = exaclim_tensor::init::randn([kout, c, 3, 3], DType::F32, 0.5, &mut rng);
    // im2col of each image: row `(ci, ri, si)`, column `(hoi, woi)`.
    let (crs, npix) = (c * 9, h * wd);
    let conv_want: Vec<u32> = (0..2)
        .flat_map(|ni| {
            let col = |row: usize, pix: usize| {
                let (ci, ri, si) = (row / 9, row / 3 % 3, row % 3);
                let (hi, wi) = ((pix / wd + ri) as isize - 1, (pix % wd + si) as isize - 1);
                let inside = (0..h as isize).contains(&hi) && (0..wd as isize).contains(&wi);
                if inside { xs.as_slice()[((ni * c + ci) * h + hi as usize) * wd + wi as usize] } else { 0.0 }
            };
            fma_reference((kout, npix, crs), |i, q| w.as_slice()[i * crs + q], col)
        })
        .collect();

    for simd in [false, true] {
        let _g = SIMD_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        let prev = exaclim_tensor::simd_enabled();
        exaclim_tensor::set_simd_enabled(simd);
        for (name, entry, a_t, b_t) in entries {
            let got = run(entry, (1, 1, 2), &crafted.0, &crafted.1, a_t, b_t);
            assert_eq!(got, [2f32.powi(-24)], "{name} crafted case simd={simd}: the products were rounded before the add");
            // 136×16×523: 17 full `A` panels over two `MC` row blocks, a
            // depth tail of 11 off the pack's 8-depth transpose.
            for (m, n, k, seed) in [(13, 21, 300, 1u64), (67, 130, 513, 2), (9, 517, 40, 3), (136, 16, 523, 4)] {
                let mut rng = exaclim_tensor::init::seeded_rng(seed);
                let a = exaclim_tensor::init::randn([m * k], DType::F32, 1.0, &mut rng);
                let b = exaclim_tensor::init::randn([k * n], DType::F32, 1.0, &mut rng);
                let (a, b) = (a.as_slice(), b.as_slice());
                let want = fma_reference((m, n, k), |i, q| a[i * k + q], |q, j| b[q * n + j]);
                check(&format!("{name} {m}x{n}x{k} simd={simd}"), run(entry, (m, n, k), a, b, a_t, b_t), &want);
            }
        }
        let y = ops::conv2d_forward(&xs, &w, p, ConvAlgo::Auto);
        check(&format!("stride-1 conv {c}→{kout} on {h}x{wd} simd={simd}"), y.as_slice().to_vec(), &conv_want);
        exaclim_tensor::set_simd_enabled(prev);
    }
}

/// Transposed-convolution forward on the blocked GEMM path: the decoder's
/// 32→32 stage, and a 96×97 map whose second `COL_STRIP` of input pixels
/// starts mid-row — bits must match the scalar route exactly.
#[test]
fn deconv_forward_blocked_bit_identical_across_simd() {
    for (c, k, h, wd, p) in [
        (32, 32, 12, 18, Deconv2dParams::double()),
        (8, 8, 96, 97, Deconv2dParams::double()),
        (8, 8, 96, 97, Deconv2dParams { stride: 1, pad: 1, output_pad: 0 }),
    ] {
        let mut rng = exaclim_tensor::init::seeded_rng(19);
        let x = exaclim_tensor::init::randn([1, c, h, wd], DType::F32, 1.0, &mut rng);
        let w = exaclim_tensor::init::randn([c, k, 3, 3], DType::F32, 0.5, &mut rng);
        let (s, v) = scalar_and_simd(|| bits(&ops::deconv2d_forward(&x, &w, p)));
        assert_eq!(s, v, "deconv bits diverge at {c}→{k} on {h}x{wd} under {p:?}");
    }
}

/// Half precision is the dtype: an `F16` tensor holds binary16 values in
/// `f32` storage, and the conv family runs its one FP32 kernel on them.
/// `conv2d_forward`, `conv2d_backward`, `deconv2d_forward` and
/// `deconv2d_backward` on `F16` tensors must equal, bit for bit, the same
/// op on `F32` tensors holding the same `quantize_f16` values, with the
/// outputs the `F16` op returns as `F16` requantized — on every SIMD
/// level, for padded, strided, atrous and 1×1 convolutions and for
/// stride-2 and stride-1 transposed ones. The weight gradients are FP32
/// master-precision tensors in both. The GEMM under them reads those
/// values exactly: on `quantize_f16` slices of blocked shapes, scalar and
/// vector paths agree bit for bit.
#[test]
fn half_compute_is_the_f32_kernel_on_rounded_operands() {
    fn gemm_bits(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<u32> {
        let mut c = vec![0.0f32; m * n];
        ops::gemm(m, n, k, a, b, &mut c);
        c.iter().map(|x| x.to_bits()).collect()
    }
    fn assert_same_bits(half: &[u32], oracle: &[u32], what: String) {
        let differ = half.iter().zip(oracle).filter(|(h, o)| h != o).count();
        assert!(half.len() == oracle.len() && differ == 0, "{what}: {differ} of {} elements differ", oracle.len());
    }
    /// The bits of `t`, or of `t` rounded through binary16 when `half`.
    fn out_bits(t: &Tensor, half: bool) -> Vec<u32> {
        if half {
            t.as_slice().iter().map(|&v| quantize_f16(v).to_bits()).collect()
        } else {
            bits(t)
        }
    }
    /// Runs one op family — `[forward, grad_input, grad_weight]` of
    /// `(x, w, ∂y)` — on `F16` operands and on their `F32` copies and
    /// compares every output.
    fn check(what: &str, simd: bool, operands: [&Tensor; 3], op: impl Fn(&Tensor, &Tensor, &Tensor) -> [Tensor; 3]) {
        let widened = operands.map(|t| t.cast(DType::F32));
        let half = op(operands[0], operands[1], operands[2]);
        let oracle = op(&widened[0], &widened[1], &widened[2]);
        for ((name, h), o) in ["forward", "grad_input", "grad_weight"].iter().zip(&half).zip(&oracle) {
            let is_half = h.dtype() == DType::F16;
            assert_eq!(is_half, *name != "grad_weight", "{what} {name}: dtype {:?}", h.dtype());
            assert_same_bits(&bits(h), &out_bits(o, is_half), format!("{what} {name} simd={simd}"));
        }
    }

    let conv_geometries = [
        (3, Conv2dParams::padded(1)),
        (3, Conv2dParams::strided(2, 1)),
        (3, Conv2dParams::atrous(2)),
        (1, Conv2dParams::default()),
    ];
    let deconv_geometries = [Deconv2dParams::double(), Deconv2dParams { stride: 1, pad: 1, output_pad: 0 }];
    for simd in [false, true] {
        let _g = SIMD_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        let prev_simd = exaclim_tensor::simd_enabled();
        exaclim_tensor::set_simd_enabled(simd);

        for (m, n, k, seed) in [(65, 130, 70, 3u64), (64, 513, 17, 5), (130, 67, 300, 9)] {
            let mut rng = exaclim_tensor::init::seeded_rng(seed);
            let a = exaclim_tensor::init::randn([m * k], DType::F16, 1.0, &mut rng);
            let b = exaclim_tensor::init::randn([k * n], DType::F16, 1.0, &mut rng);
            let here = gemm_bits(m, n, k, a.as_slice(), b.as_slice());
            exaclim_tensor::set_simd_enabled(!simd);
            let other = gemm_bits(m, n, k, a.as_slice(), b.as_slice());
            exaclim_tensor::set_simd_enabled(simd);
            assert_same_bits(&here, &other, format!("gemm {m}x{n}x{k} on binary16 values"));
        }

        for (i, &(r, p)) in conv_geometries.iter().enumerate() {
            let mut rng = exaclim_tensor::init::seeded_rng(40 + i as u64);
            let x = exaclim_tensor::init::randn([2, 8, 13, 17], DType::F16, 1.0, &mut rng);
            let w = exaclim_tensor::init::randn([12, 8, r, r], DType::F16, 0.5, &mut rng);
            let y_shape = ops::conv2d_forward(&x, &w, p, ConvAlgo::Auto).shape().clone();
            let gy = exaclim_tensor::init::randn(y_shape, DType::F16, 1.0, &mut rng);
            let conv = |x: &Tensor, w: &Tensor, gy: &Tensor| {
                let g = ops::conv2d_backward(x, w, gy, p);
                [ops::conv2d_forward(x, w, p, ConvAlgo::Auto), g.grad_input, g.grad_weight]
            };
            check(&format!("conv {r}x{r} {p:?}"), simd, [&x, &w, &gy], conv);
        }

        for (i, &p) in deconv_geometries.iter().enumerate() {
            let mut rng = exaclim_tensor::init::seeded_rng(60 + i as u64);
            let x = exaclim_tensor::init::randn([2, 8, 7, 9], DType::F16, 1.0, &mut rng);
            let w = exaclim_tensor::init::randn([8, 6, 3, 3], DType::F16, 0.5, &mut rng);
            let y_shape = ops::deconv2d_forward(&x, &w, p).shape().clone();
            let gy = exaclim_tensor::init::randn(y_shape, DType::F16, 1.0, &mut rng);
            let deconv = |x: &Tensor, w: &Tensor, gy: &Tensor| {
                let g = ops::deconv2d_backward(x, w, gy, p);
                [ops::deconv2d_forward(x, w, p), g.grad_input, g.grad_weight]
            };
            check(&format!("deconv {p:?}"), simd, [&x, &w, &gy], deconv);
        }

        exaclim_tensor::set_simd_enabled(prev_simd);
    }
}
