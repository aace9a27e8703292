//! Runtime-dispatched SIMD kernels (x86-64 AVX2) with bit-identical scalar
//! fallbacks, selected by `is_x86_feature_detected!` and switchable off
//! in-process with [`set_simd_enabled`]: our CPU substrate's analogue of
//! the paper's hand-scheduled tensor-core kernels.
//!
//! **Bit-identity contract.** Every function here produces the same bits on
//! every dispatch level. Each of the three kinds of kernel keeps it its own
//! way:
//!
//! 1. *One-body maps* ([`vadd`], [`vrelu`], [`vbn_apply`], [`vsgd_update`],
//!    …): one scalar loop over independent elements, whose AVX2 level is
//!    the compiler's build of that same loop. Rust never contracts
//!    `a * b + c` into an FMA and never reassociates, and a vectorized
//!    compare-and-select keeps the scalar NaN and −0.0 semantics, so the
//!    bits agree by construction. ([`vadam_update`] keeps a hand-written
//!    AVX2 body, which measured faster; it issues the scalar loop's
//!    operations in the same order, one intrinsic each.)
//! 2. *The hand-written GEMM tile and packers* ([`microkernel`],
//!    [`vpack_rows`], [`tile_accumulate`]): the tile's `vfmadd231ps` and
//!    its scalar twin's `f32::mul_add` both round once per depth step, in
//!    the same `k` order; the packers copy, and the accumulate adds once
//!    per element. No other kernel uses FMA.
//! 3. *Fixed lane-split reductions* ([`sum_f64`], [`sum_f32`], …): N lane
//!    accumulators combined in a fixed tree, plus a sequential tail — an
//!    order fixed by the length alone, never by thread count or level. The
//!    compiler's build of the scalar lane loop runs 1.5–5× slower, so an
//!    AVX2 body with one vector accumulator implements the same order.
//!
//! Comparisons follow `maxps`'s `a > b ? a : b` (the second operand on ties
//! and NaNs), spelled out rather than calling `f32::max`.

/// Rows of a packed GEMM A micro-panel (register tile height).
pub const MR: usize = 8;
/// Columns of a packed GEMM B micro-panel (register tile width).
pub const NR: usize = 8;

use std::sync::atomic::{AtomicBool, Ordering};

/// Instruction set selected for the current call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// 256-bit AVX2 paths, with FMA in the GEMM micro-kernel.
    Avx2Fma,
    /// Pure scalar loops (hosts without AVX2 or FMA, and the reference
    /// [`set_simd_enabled`]`(false)` selects).
    Scalar,
}

impl SimdLevel {
    /// Short label for benchmark output ("avx2+fma" / "scalar").
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Avx2Fma => "avx2+fma",
            SimdLevel::Scalar => "scalar",
        }
    }
}

/// The best level this host supports (`is_x86_feature_detected!` caches
/// its probe).
#[cfg(target_arch = "x86_64")]
fn hw_level() -> SimdLevel {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        SimdLevel::Avx2Fma
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn hw_level() -> SimdLevel {
    SimdLevel::Scalar
}

/// Set by [`set_simd_enabled`]`(false)`: every kernel takes its scalar
/// path. Off at process start.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Enables or disables the vector paths at runtime (tests compare both in
/// one process; the scalar level is the reference). Results are
/// bit-identical either way — this trades wall time, never numerics.
pub fn set_simd_enabled(on: bool) {
    FORCE_SCALAR.store(!on, Ordering::Relaxed);
}

/// True when vector paths are active (hardware supports them and
/// [`set_simd_enabled`]`(false)` did not force scalar).
pub fn simd_enabled() -> bool {
    !FORCE_SCALAR.load(Ordering::Relaxed) && hw_level() != SimdLevel::Scalar
}

/// The dispatch level subsequent kernels will use.
pub fn active_level() -> SimdLevel {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SimdLevel::Scalar
    } else {
        hw_level()
    }
}

// ---------------------------------------------------------------------------
// GEMM register micro-kernel, packers and tile accumulate (hand-written)
// ---------------------------------------------------------------------------

/// `acc[MR][NR] += ap ⊗ bp` over `kc` depths: the 8×8 register tile of
/// the blocked GEMM. Each depth step is one fused multiply-add per element
/// (`vfmadd231ps`, or `f32::mul_add` on the scalar level), rounded once.
/// Vectorized across the `NR` output columns, so each element's k-order
/// accumulation — and therefore every bit — matches the scalar loop
/// exactly.
///
/// `ap` holds `kc` groups of `MR` A-values, `bp` `kc` groups of `NR`
/// B-values (zero-padded at matrix edges by the packers).
#[inline]
pub fn microkernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { microkernel_avx2(kc, ap, bp, acc) };
        return;
    }
    tile_scalar(&ap[..kc * MR], bp.chunks_exact(NR).take(kc), acc);
}

/// [`microkernel`] with `B` read where it lies instead of from a packed
/// panel: depth row `p` is the `NR` contiguous floats at `src[offs[p]..]`.
/// The same values meet the same `A` values in the same order, so the bits
/// are those of `microkernel` on a panel packed from those rows.
///
/// The offsets ascend with depth, so one bound on the last row bounds
/// every row: there is no per-row check.
///
/// # Safety
/// `offs[..kc]` must be non-decreasing (checked in debug builds only).
#[inline]
pub(crate) unsafe fn microkernel_in_place(kc: usize, ap: &[f32], src: &[f32], offs: &[usize], acc: &mut [[f32; NR]; MR]) {
    assert!(ap.len() >= kc * MR && offs.len() >= kc);
    assert!(kc == 0 || offs[kc - 1] + NR <= src.len(), "in-place B rows run past the source");
    debug_assert!(offs[..kc].windows(2).all(|w| w[0] <= w[1]), "in-place depth offsets must ascend");
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { microkernel_in_place_avx2(kc, ap, src, offs, acc) };
        return;
    }
    tile_scalar(&ap[..kc * MR], offs[..kc].iter().map(|&o| &src[o..o + NR]), acc);
}

/// The scalar register tile over any sequence of `NR`-wide `B` depth rows:
/// the reference both micro-kernels' vector bodies are bit-compared with.
/// `mul_add` rounds once, as `vfmadd231ps` does.
fn tile_scalar<'a>(ap: &[f32], b_rows: impl Iterator<Item = &'a [f32]>, acc: &mut [[f32; NR]; MR]) {
    for (a_col, b_row) in ap.chunks_exact(MR).zip(b_rows) {
        for (i, &av) in a_col.iter().enumerate() {
            for (j, &bv) in b_row.iter().enumerate() {
                acc[i][j] = av.mul_add(bv, acc[i][j]);
            }
        }
    }
}

/// The AVX2 register tile: `acc += ap ⊗ B` over `kc` depths, where depth
/// row `p` of `B` is the `NR` floats at the pointer `$row` (an expression
/// in `$p`). One `vfmadd231ps` per row and depth into eight accumulators —
/// eight independent FMA chains, enough to cover the instruction's latency
/// on both FMA ports. Each element sees the same k-ascending sequence of
/// singly rounded multiply-adds as [`tile_scalar`]'s `mul_add`, so the bits
/// match exactly. The 4× unroll only trims loop control; it does not
/// reorder any accumulation.
#[cfg(target_arch = "x86_64")]
macro_rules! avx2_tile {
    ($kc:expr, $ap:expr, $acc:expr, |$p:ident| $row:expr) => {{
        use std::arch::x86_64::*;
        let (kc, a, acc): (usize, *const f32, &mut [[f32; NR]; MR]) = ($kc, $ap.as_ptr(), $acc);
        let mut r = [_mm256_setzero_ps(); MR];
        for (ri, row) in r.iter_mut().zip(acc.iter()) {
            *ri = _mm256_loadu_ps(row.as_ptr());
        }
        let [mut r0, mut r1, mut r2, mut r3, mut r4, mut r5, mut r6, mut r7] = r;
        let mut $p = 0usize;
        macro_rules! kstep {
            () => {{
                let bv = _mm256_loadu_ps($row);
                let ac = a.add($p * MR);
                r0 = _mm256_fmadd_ps(_mm256_set1_ps(*ac), bv, r0);
                r1 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(1)), bv, r1);
                r2 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(2)), bv, r2);
                r3 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(3)), bv, r3);
                r4 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(4)), bv, r4);
                r5 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(5)), bv, r5);
                r6 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(6)), bv, r6);
                r7 = _mm256_fmadd_ps(_mm256_set1_ps(*ac.add(7)), bv, r7);
                $p += 1;
            }};
        }
        while $p + 4 <= kc {
            kstep!();
            kstep!();
            kstep!();
            kstep!();
        }
        while $p < kc {
            kstep!();
        }
        for (row, ri) in acc.iter_mut().zip([r0, r1, r2, r3, r4, r5, r6, r7]) {
            _mm256_storeu_ps(row.as_mut_ptr(), ri);
        }
    }};
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    let b = bp.as_ptr();
    avx2_tile!(kc, ap, acc, |p| b.add(p * NR));
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_in_place_avx2(kc: usize, ap: &[f32], src: &[f32], offs: &[usize], acc: &mut [[f32; NR]; MR]) {
    let (b, o) = (src.as_ptr(), offs.as_ptr());
    avx2_tile!(kc, ap, acc, |p| b.add(*o.add(p)));
}

/// Packs `kc` groups of `NR` contiguous floats from rows of a strided
/// matrix into a dense panel: `dst[p·NR + j] = src[p·ld + j]`. This is the
/// interior-panel fast path of B packing — the caller handles edge panels
/// (where zero-padding applies) element-wise. Pure copies, so every level
/// is trivially bit-identical.
pub fn vpack_rows(kc: usize, src: &[f32], ld: usize, dst: &mut [f32]) {
    assert!(dst.len() >= kc * NR);
    assert!(kc == 0 || src.len() >= (kc - 1) * ld + NR);
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vpack_rows_avx2(kc, src, ld, dst) };
        return;
    }
    for p in 0..kc {
        for j in 0..NR {
            dst[p * NR + j] = src[p * ld + j];
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vpack_rows_avx2(kc: usize, src: &[f32], ld: usize, dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let s = src.as_ptr();
    let d = dst.as_mut_ptr();
    for p in 0..kc {
        _mm256_storeu_ps(d.add(p * NR), _mm256_loadu_ps(s.add(p * ld)));
    }
}

/// Packs `MR` strided rows of `kc` contiguous floats into a dense panel of
/// `kc` groups of `MR`: `dst[p·MR + r] = src[r·ld + p]`. This is the
/// full-panel path of row-major `A` packing, whose depth runs along a row;
/// the AVX2 level moves eight depths at a time through one 8×8 register
/// transpose. Pure copies, so every level is trivially bit-identical.
pub(crate) fn vpack_transpose(kc: usize, src: &[f32], ld: usize, dst: &mut [f32]) {
    assert!(dst.len() >= kc * MR);
    assert!(kc == 0 || src.len() >= (MR - 1) * ld + kc);
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        // SAFETY: AVX2 is present, and the asserts above bound every read
        // (`r·ld + p` with `r < MR`, `p < kc`) and write (`< kc·MR`).
        unsafe { vpack_transpose_avx2(kc, src, ld, dst) };
        return;
    }
    for p in 0..kc {
        for r in 0..MR {
            dst[p * MR + r] = src[r * ld + p];
        }
    }
}

/// # Safety
/// The host has AVX2; `src` covers `(MR − 1)·ld + kc` floats and `dst`
/// `kc·MR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vpack_transpose_avx2(kc: usize, src: &[f32], ld: usize, dst: &mut [f32]) {
    use std::arch::x86_64::*;
    let s = src.as_ptr();
    let d = dst.as_mut_ptr();
    let mut p = 0;
    while p + 8 <= kc {
        let r: [__m256; MR] = std::array::from_fn(|r| _mm256_loadu_ps(s.add(r * ld + p)));
        // Interleave pairs of rows, then pairs of pairs: each 128-bit half
        // of lo[j] (rows 0-3) and hi[j] (rows 4-7) is one depth's column,
        // depth p + j in the low half and p + 4 + j in the high half.
        let (a0, a1) = (_mm256_unpacklo_ps(r[0], r[1]), _mm256_unpackhi_ps(r[0], r[1]));
        let (a2, a3) = (_mm256_unpacklo_ps(r[2], r[3]), _mm256_unpackhi_ps(r[2], r[3]));
        let (a4, a5) = (_mm256_unpacklo_ps(r[4], r[5]), _mm256_unpackhi_ps(r[4], r[5]));
        let (a6, a7) = (_mm256_unpacklo_ps(r[6], r[7]), _mm256_unpackhi_ps(r[6], r[7]));
        let lo = [
            _mm256_shuffle_ps::<0x44>(a0, a2),
            _mm256_shuffle_ps::<0xEE>(a0, a2),
            _mm256_shuffle_ps::<0x44>(a1, a3),
            _mm256_shuffle_ps::<0xEE>(a1, a3),
        ];
        let hi = [
            _mm256_shuffle_ps::<0x44>(a4, a6),
            _mm256_shuffle_ps::<0xEE>(a4, a6),
            _mm256_shuffle_ps::<0x44>(a5, a7),
            _mm256_shuffle_ps::<0xEE>(a5, a7),
        ];
        for j in 0..4 {
            _mm256_storeu_ps(d.add((p + j) * MR), _mm256_permute2f128_ps::<0x20>(lo[j], hi[j]));
            _mm256_storeu_ps(d.add((p + 4 + j) * MR), _mm256_permute2f128_ps::<0x31>(lo[j], hi[j]));
        }
        p += 8;
    }
    while p < kc {
        for r in 0..MR {
            *d.add(p * MR + r) = *s.add(r * ld + p);
        }
        p += 1;
    }
}

/// Adds the `MR`×`NR` accumulator tile into `C`: row `r` of `acc` lands at
/// `c + r * ldc`, `nr_eff` columns wide. One call per micro-tile (rather
/// than per row) keeps dispatch and call overhead off the GEMM inner loop.
/// Every element receives exactly one `+=` of the same value on every
/// level, so the paths are bit-identical.
///
/// # Safety
/// For each `r < mr_eff`, `c + r * ldc` must be valid for reads and writes
/// of `nr_eff` consecutive `f32`s.
pub unsafe fn tile_accumulate(
    acc: &[[f32; NR]; MR],
    mr_eff: usize,
    nr_eff: usize,
    c: *mut f32,
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if nr_eff == NR && active_level() == SimdLevel::Avx2Fma {
        unsafe { tile_accumulate_avx2(acc, mr_eff, c, ldc) };
        return;
    }
    for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let row = unsafe { std::slice::from_raw_parts_mut(c.add(r * ldc), nr_eff) };
        for (o, &v) in row.iter_mut().zip(acc_row.iter()) {
            *o += v;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_accumulate_avx2(acc: &[[f32; NR]; MR], mr_eff: usize, c: *mut f32, ldc: usize) {
    use std::arch::x86_64::*;
    for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let p = c.add(r * ldc);
        let v = _mm256_add_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(acc_row.as_ptr()));
        _mm256_storeu_ps(p, v);
    }
}

// ---------------------------------------------------------------------------
// One-body maps (the AVX2 level is the compiler's build of the scalar loop)
// ---------------------------------------------------------------------------

/// Defines a kernel from one loop body, compiled for the baseline target
/// (the scalar level) and again under `#[target_feature(enable = "avx2")]`,
/// which runs when [`active_level`] is [`SimdLevel::Avx2Fma`]. The module
/// doc's rule 1 says why both builds give the same bits.
macro_rules! dispatch_avx2 {
    ($(#[$attr:meta])* pub fn $name:ident($($arg:ident: $ty:ty),*) $body:block) => {
        $(#[$attr])*
        #[inline]
        pub fn $name($($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if active_level() == SimdLevel::Avx2Fma {
                // SAFETY: `active_level` reports `Avx2Fma` only on a host
                // with AVX2.
                unsafe { avx2($($arg),*) };
                return;
            }
            body($($arg),*)
        }
    };
}

macro_rules! elementwise2 {
    ($(#[$doc:meta])* $name:ident, |$x:ident, $y:ident| $expr:expr) => {
        dispatch_avx2! {
            $(#[$doc])*
            pub fn $name(dst: &mut [f32], a: &[f32], b: &[f32]) {
                debug_assert!(dst.len() == a.len() && dst.len() == b.len());
                for ((o, &$x), &$y) in dst.iter_mut().zip(a).zip(b) {
                    *o = $expr;
                }
            }
        }
    };
}

elementwise2!(
    /// `dst[i] = a[i] + b[i]`.
    vadd, |x, y| x + y
);
elementwise2!(
    /// `dst[i] = a[i] * b[i]`.
    vmul, |x, y| x * y
);
elementwise2!(
    /// `dst[i] = a[i] - b[i]`.
    vsub, |x, y| x - y
);
elementwise2!(
    /// `dst[i] = a[i] / b[i]`.
    vdiv, |x, y| x / y
);

dispatch_avx2! {
    /// In-place `x[i] += b` (per-channel bias broadcast).
    pub fn vadd_scalar_(x: &mut [f32], b: f32) {
        for v in x.iter_mut() {
            *v += b;
        }
    }
}

dispatch_avx2! {
    /// In-place `dst[i] += a[i]` (reduction across rows, e.g. softmax `z`).
    pub fn vadd_(dst: &mut [f32], a: &[f32]) {
        debug_assert_eq!(dst.len(), a.len());
        for (o, &x) in dst.iter_mut().zip(a) {
            *o += x;
        }
    }
}

dispatch_avx2! {
    /// `dst[i] = a[i] > 0 ? a[i] : 0` — ReLU with `maxps(a, 0)` semantics
    /// (−0.0 and NaN map to +0.0 on every level).
    pub fn vrelu(dst: &mut [f32], a: &[f32]) {
        debug_assert_eq!(dst.len(), a.len());
        for (o, &x) in dst.iter_mut().zip(a) {
            *o = if x > 0.0 { x } else { 0.0 };
        }
    }
}

dispatch_avx2! {
    /// `dst[i] = m[i] > 0 ? g[i] : 0` — the ReLU gradient gate.
    pub fn vrelu_mask(dst: &mut [f32], m: &[f32], g: &[f32]) {
        debug_assert!(dst.len() == m.len() && dst.len() == g.len());
        for ((o, &mv), &gv) in dst.iter_mut().zip(m).zip(g) {
            *o = if mv > 0.0 { gv } else { 0.0 };
        }
    }
}

dispatch_avx2! {
    /// In-place running max: `mx[i] = row[i] > mx[i] ? row[i] : mx[i]`
    /// (the channel-max pass of softmax). The running value survives ties
    /// and a NaN in `row`.
    pub fn vmax_(mx: &mut [f32], row: &[f32]) {
        debug_assert_eq!(mx.len(), row.len());
        for (m, &x) in mx.iter_mut().zip(row) {
            *m = if x > *m { x } else { *m };
        }
    }
}

// ---------------------------------------------------------------------------
// Batch-norm fused passes
// ---------------------------------------------------------------------------

dispatch_avx2! {
    /// Batch-norm normalize + scale/shift over one plane:
    /// `xh[i] = (x[i] − mu) · is; y[i] = g · xh[i] + b`.
    pub fn vbn_apply(x: &[f32], mu: f32, is: f32, g: f32, b: f32, xh: &mut [f32], y: &mut [f32]) {
        debug_assert!(x.len() == xh.len() && x.len() == y.len());
        for ((&v, xo), yo) in x.iter().zip(xh.iter_mut()).zip(y.iter_mut()) {
            let xn = (v - mu) * is;
            *xo = xn;
            *yo = g * xn + b;
        }
    }
}

dispatch_avx2! {
    /// Batch-norm input-gradient pass over one plane:
    /// `gx[i] = k · (m · go[i] − sg − xh[i] · sgx)`.
    pub fn vbn_backward(go: &[f32], xh: &[f32], k: f32, sg: f32, sgx: f32, m: f32, gx: &mut [f32]) {
        debug_assert!(go.len() == xh.len() && go.len() == gx.len());
        for ((&g, &x), o) in go.iter().zip(xh).zip(gx.iter_mut()) {
            *o = k * (m * g - sg - x * sgx);
        }
    }
}

// ---------------------------------------------------------------------------
// Reductions (canonical lane-split order, identical on every level;
// hand-written: the compiled lane loops run 1.5–5× slower)
// ---------------------------------------------------------------------------

/// Σ `x[i] as f64` in the canonical 4-lane order: lane `j` accumulates
/// elements `j, j+4, j+8, …`; lanes combine as `(l0+l1) + (l2+l3)`; the
/// `len % 4` tail adds sequentially at the end.
#[inline]
pub fn sum_f64(x: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        return unsafe { sum_f64_avx2(x) };
    }
    let mut lanes = [0.0f64; 4];
    let chunks = x.chunks_exact(4);
    let rem = chunks.remainder();
    for ch in chunks {
        for (l, &v) in lanes.iter_mut().zip(ch.iter()) {
            *l += v as f64;
        }
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for &v in rem {
        acc += v as f64;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_f64_avx2(x: &[f32]) -> f64 {
    use std::arch::x86_64::*;
    let n = x.len();
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr().add(i)));
        acc = _mm256_add_pd(acc, v);
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while i < n {
        total += *x.get_unchecked(i) as f64;
        i += 1;
    }
    total
}

/// Σ `((x[i] − mu)²) as f64` (difference and square in `f32`, widened to
/// `f64` for the accumulate) in the canonical 4-lane order.
#[inline]
pub fn sum_sqdiff_f64(x: &[f32], mu: f32) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        return unsafe { sum_sqdiff_f64_avx2(x, mu) };
    }
    let mut lanes = [0.0f64; 4];
    let chunks = x.chunks_exact(4);
    let rem = chunks.remainder();
    for ch in chunks {
        for (l, &v) in lanes.iter_mut().zip(ch.iter()) {
            let d = v - mu;
            *l += (d * d) as f64;
        }
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for &v in rem {
        let d = v - mu;
        acc += (d * d) as f64;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_sqdiff_f64_avx2(x: &[f32], mu: f32) -> f64 {
    use std::arch::x86_64::*;
    let n = x.len();
    let vmu = _mm_set1_ps(mu);
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let d = _mm_sub_ps(_mm_loadu_ps(x.as_ptr().add(i)), vmu);
        let dd = _mm_mul_ps(d, d);
        acc = _mm256_add_pd(acc, _mm256_cvtps_pd(dd));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while i < n {
        let d = *x.get_unchecked(i) - mu;
        total += (d * d) as f64;
        i += 1;
    }
    total
}

/// `(Σ g[i] as f64, Σ (g[i]·xh[i]) as f64)` — the two batch-norm backward
/// sums in one pass, both in the canonical 4-lane order (the product is
/// taken in `f32`, then widened).
#[inline]
pub fn sum2_f64(g: &[f32], xh: &[f32]) -> (f64, f64) {
    // Hard check: the AVX2 body reads `xh` unchecked for `g.len()` floats.
    assert_eq!(g.len(), xh.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        return unsafe { sum2_f64_avx2(g, xh) };
    }
    let mut la = [0.0f64; 4];
    let mut lb = [0.0f64; 4];
    let n4 = g.len() / 4 * 4;
    for base in (0..n4).step_by(4) {
        for j in 0..4 {
            let gv = g[base + j];
            la[j] += gv as f64;
            lb[j] += (gv * xh[base + j]) as f64;
        }
    }
    let mut a = (la[0] + la[1]) + (la[2] + la[3]);
    let mut b = (lb[0] + lb[1]) + (lb[2] + lb[3]);
    for i in n4..g.len() {
        a += g[i] as f64;
        b += (g[i] * xh[i]) as f64;
    }
    (a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum2_f64_avx2(g: &[f32], xh: &[f32]) -> (f64, f64) {
    use std::arch::x86_64::*;
    let n = g.len();
    let mut acc_a = _mm256_setzero_pd();
    let mut acc_b = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let gv = _mm_loadu_ps(g.as_ptr().add(i));
        let xv = _mm_loadu_ps(xh.as_ptr().add(i));
        acc_a = _mm256_add_pd(acc_a, _mm256_cvtps_pd(gv));
        acc_b = _mm256_add_pd(acc_b, _mm256_cvtps_pd(_mm_mul_ps(gv, xv)));
        i += 4;
    }
    let mut la = [0.0f64; 4];
    let mut lb = [0.0f64; 4];
    _mm256_storeu_pd(la.as_mut_ptr(), acc_a);
    _mm256_storeu_pd(lb.as_mut_ptr(), acc_b);
    let mut a = (la[0] + la[1]) + (la[2] + la[3]);
    let mut b = (lb[0] + lb[1]) + (lb[2] + lb[3]);
    while i < n {
        let gv = *g.get_unchecked(i);
        a += gv as f64;
        b += (gv * *xh.get_unchecked(i)) as f64;
        i += 1;
    }
    (a, b)
}

/// Σ `(x[i] as f64)²` in the canonical 4-lane order (widen to `f64`,
/// *then* square — the precision [`crate::Tensor::l2_norm`] has always
/// used). This is the one reduction the LARC/LARS per-tensor norms ride,
/// so the lane-split order here is the canonical norm order for the
/// whole stack: legacy serial steps and fused bucket-applies compute
/// identical `‖w‖`/`‖g‖` bits because they share this kernel.
#[inline]
pub fn sum_sq_f64(x: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        return unsafe { sum_sq_f64_avx2(x) };
    }
    let mut lanes = [0.0f64; 4];
    let chunks = x.chunks_exact(4);
    let rem = chunks.remainder();
    for ch in chunks {
        for (l, &v) in lanes.iter_mut().zip(ch.iter()) {
            let d = v as f64;
            *l += d * d;
        }
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for &v in rem {
        let d = v as f64;
        acc += d * d;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_sq_f64_avx2(x: &[f32]) -> f64 {
    use std::arch::x86_64::*;
    let n = x.len();
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr().add(i)));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while i < n {
        let d = *x.get_unchecked(i) as f64;
        total += d * d;
        i += 1;
    }
    total
}

/// Σ `x[i]` in `f32` in the canonical 8-lane order: lane `j` accumulates
/// elements `j, j+8, …`; lanes combine `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`;
/// the tail adds sequentially.
#[inline]
pub fn sum_f32(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        return unsafe { sum_f32_avx2(x) };
    }
    let mut lanes = [0.0f32; 8];
    let chunks = x.chunks_exact(8);
    let rem = chunks.remainder();
    for ch in chunks {
        for (l, &v) in lanes.iter_mut().zip(ch.iter()) {
            *l += v;
        }
    }
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for &v in rem {
        acc += v;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_f32_avx2(x: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = x.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(x.as_ptr().add(i)));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    while i < n {
        total += *x.get_unchecked(i);
        i += 1;
    }
    total
}

// ---------------------------------------------------------------------------
// Fused optimizer updates (one read-modify-write pass per parameter tensor)
// ---------------------------------------------------------------------------

/// Coefficients for the fused SGD-momentum / LARC update pass.
#[derive(Debug, Clone, Copy)]
pub struct SgdCoeffs {
    /// Global learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// FP16 loss-scale compensation divisor (gradients are *divided* by
    /// it — never multiplied by a reciprocal, which would change bits).
    pub grad_scale: f32,
    /// Optional pre-division gradient rescale: the LARC/LARS local-rate
    /// ratio folded into the single pass. `None` skips the multiply
    /// entirely (a `×1.0` is *not* a no-op for NaN payloads and signed
    /// zeros, and the legacy rescale pass was conditional too).
    pub grad_mul: Option<f32>,
}

dispatch_avx2! {
    /// Fused SGD-momentum update, one pass:
    /// `gi = (g[i]·grad_mul?) / gs + wd·w[i]; v[i] = mom·v[i] + gi;
    /// w[i] -= lr·v[i]` — grad-scale division, weight decay, momentum and
    /// the parameter write in a single read-modify-write sweep. Every
    /// element sees the same IEEE op sequence on both levels (no FMA) — and
    /// as the pre-fusion multi-pass code.
    pub fn vsgd_update(w: &mut [f32], v: &mut [f32], g: &[f32], k: SgdCoeffs) {
        // Hard check: a mis-sized optimizer state buffer must fail, not
        // update a prefix.
        assert!(w.len() == v.len() && w.len() == g.len());
        let (lr, mom, wd, gs) = (k.lr, k.momentum, k.weight_decay, k.grad_scale);
        let wvg = w.iter_mut().zip(v.iter_mut()).zip(g);
        match k.grad_mul {
            Some(r) => {
                for ((wi, vi), &gv) in wvg {
                    let gi = (gv * r) / gs + wd * *wi;
                    *vi = mom * *vi + gi;
                    *wi -= lr * *vi;
                }
            }
            None => {
                for ((wi, vi), &gv) in wvg {
                    let gi = gv / gs + wd * *wi;
                    *vi = mom * *vi + gi;
                    *wi -= lr * *vi;
                }
            }
        }
    }
}

/// Coefficients for the fused Adam update pass. `bias1`/`bias2` are the
/// step-dependent corrections `1 − βᵗ`, computed once per step by the
/// caller so the kernel stays a pure elementwise map.
#[derive(Debug, Clone, Copy)]
pub struct AdamCoeffs {
    /// Global learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// FP16 loss-scale compensation divisor.
    pub grad_scale: f32,
    /// `1 − β₁ᵗ`.
    pub bias1: f32,
    /// `1 − β₂ᵗ`.
    pub bias2: f32,
}

/// Fused Adam update, one pass: moment updates, bias correction and the
/// parameter write in a single sweep. Per element (including the
/// `((1−β₂)·gi)·gi` association):
/// `gi = g[i]/gs; m = β₁·m + (1−β₁)·gi; v = β₂·v + (1−β₂)·gi·gi;
/// w -= (lr·(m/b₁)) / (√(v/b₂) + ε)`. Square root and division are
/// correctly rounded at every vector width, so both levels agree.
///
/// The one map that keeps a hand-written AVX2 body: the compiler's build
/// of its scalar loop ran about 10 % slower than it on L2-resident tensors
/// (EXPERIMENTS.md, "One body per elementwise kernel").
#[inline]
pub fn vadam_update(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], k: AdamCoeffs) {
    // Hard check, as in `vsgd_update`: unchecked lanes below.
    assert!(w.len() == m.len() && w.len() == v.len() && w.len() == g.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        // SAFETY: the host has AVX2, and the assert above sizes all four
        // slices alike.
        unsafe { vadam_update_avx2(w, m, v, g, k) };
        return;
    }
    adam_scalar(w, m, v, g, k);
}

/// The scalar Adam loop: the reference level, and the AVX2 body's tail.
fn adam_scalar(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], k: AdamCoeffs) {
    let (lr, b1, b2, eps, gs) = (k.lr, k.beta1, k.beta2, k.eps, k.grad_scale);
    for (((wi, mi), vi), &gv) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
        let gi = gv / gs;
        *mi = b1 * *mi + (1.0 - b1) * gi;
        *vi = b2 * *vi + (1.0 - b2) * gi * gi;
        let mhat = *mi / k.bias1;
        let vhat = *vi / k.bias2;
        *wi -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// # Safety
/// The host has AVX2, and `m`, `v` and `g` are at least as long as `w`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vadam_update_avx2(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], k: AdamCoeffs) {
    use std::arch::x86_64::*;
    let n = w.len();
    let vlr = _mm256_set1_ps(k.lr);
    let vb1 = _mm256_set1_ps(k.beta1);
    let vb2 = _mm256_set1_ps(k.beta2);
    let vomb1 = _mm256_set1_ps(1.0 - k.beta1);
    let vomb2 = _mm256_set1_ps(1.0 - k.beta2);
    let veps = _mm256_set1_ps(k.eps);
    let vgs = _mm256_set1_ps(k.grad_scale);
    let vbc1 = _mm256_set1_ps(k.bias1);
    let vbc2 = _mm256_set1_ps(k.bias2);
    let mut i = 0;
    while i + 8 <= n {
        let gi = _mm256_div_ps(_mm256_loadu_ps(g.as_ptr().add(i)), vgs);
        let mv = _mm256_add_ps(
            _mm256_mul_ps(vb1, _mm256_loadu_ps(m.as_ptr().add(i))),
            _mm256_mul_ps(vomb1, gi),
        );
        // ((1−β₂)·gi)·gi — left-associated like the scalar expression.
        let vv = _mm256_add_ps(
            _mm256_mul_ps(vb2, _mm256_loadu_ps(v.as_ptr().add(i))),
            _mm256_mul_ps(_mm256_mul_ps(vomb2, gi), gi),
        );
        _mm256_storeu_ps(m.as_mut_ptr().add(i), mv);
        _mm256_storeu_ps(v.as_mut_ptr().add(i), vv);
        let mhat = _mm256_div_ps(mv, vbc1);
        let vhat = _mm256_div_ps(vv, vbc2);
        let denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
        let upd = _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom);
        let wv = _mm256_loadu_ps(w.as_ptr().add(i));
        _mm256_storeu_ps(w.as_mut_ptr().add(i), _mm256_sub_ps(wv, upd));
        i += 8;
    }
    adam_scalar(&mut w[i..], &mut m[i..], &mut v[i..], &g[i..], k);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, seed: u32) -> Vec<f32> {
        (0..n).map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 * 0.013 - 6.5).collect()
    }

    /// Runs `f` with SIMD on, then off, and asserts both results are
    /// bit-identical. Leaves the switch as it found it.
    fn bitwise_on_off<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
        let was = !FORCE_SCALAR.load(Ordering::Relaxed);
        set_simd_enabled(true);
        let fast = f();
        set_simd_enabled(false);
        let slow = f();
        set_simd_enabled(was);
        assert_eq!(fast, slow);
    }

    /// NaN, ±0.0, ±∞ and a subnormal: the values whose handling a
    /// vectorized loop could change.
    const SPECIALS: [f32; 6] = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1e-40];

    /// `v` with every seventh element from `phase` on replaced by the next
    /// special value. The inputs of one kernel take distinct phases, so no
    /// element combines two NaNs (whose payload order is unspecified).
    fn sprinkle(mut v: Vec<f32>, phase: usize) -> Vec<f32> {
        for (i, s) in v.iter_mut().skip(phase).step_by(7).zip(SPECIALS.iter().cycle()) {
            *i = *s;
        }
        v
    }

    /// Every length from 0 to 70 — a compiled map's unrolled body, its
    /// 8-wide remainder and its scalar tail, alone and in every
    /// combination — plus 1023.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=70).chain([1023])
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The register tile and its two helpers: the interior B-panel packer
    /// and the tile's accumulate into `C`, on full and edge tiles.
    #[test]
    fn microkernel_simd_matches_scalar_bitwise() {
        let (ld, ldc) = (NR + 5, NR + 3);
        let c0 = data(MR * ldc, 30);
        for kc in [1usize, 3, 8, 17, 256] {
            let ap = data(kc * MR, 1);
            let bp = data(kc * NR, 2);
            let tile = || {
                let mut acc = [[0.0f32; NR]; MR];
                microkernel(kc, &ap, &bp, &mut acc);
                acc
            };
            bitwise_on_off(tile);
            let src = data((kc - 1) * ld + NR, 21);
            bitwise_on_off(|| {
                let mut dst = vec![0.0f32; kc * NR];
                vpack_rows(kc, &src, ld, &mut dst);
                dst
            });
            let acc = tile();
            for (mr_eff, nr_eff) in [(MR, NR), (3, NR), (MR, 5), (1, 1)] {
                bitwise_on_off(|| {
                    let mut c = c0.clone();
                    unsafe { tile_accumulate(&acc, mr_eff, nr_eff, c.as_mut_ptr(), ldc) };
                    c
                });
            }
        }
    }

    /// The row-major `A` packer: depth counts around the 8-wide register
    /// transpose (none, a remainder only, whole blocks, blocks plus a
    /// remainder) and rows longer than the depths packed from them.
    #[test]
    fn vpack_transpose_matches_scalar_bitwise() {
        for kc in [0usize, 1, 7, 8, 9, 255, 256, 257] {
            let ld = kc + 5;
            let src = data((MR - 1) * ld + kc, 22);
            bitwise_on_off(|| {
                let mut dst = vec![0.0f32; kc * MR];
                vpack_transpose(kc, &src, ld, &mut dst);
                dst
            });
        }
    }

    /// `microkernel_in_place` on rows scattered through a source, with gaps
    /// between them as a patch row's taps have, is `microkernel` on the
    /// panel packed from the same rows — on both dispatch levels.
    #[test]
    fn microkernel_in_place_is_microkernel_on_a_packed_copy() {
        for kc in [1usize, 3, 256] {
            let ap = data(kc * MR, 3);
            let offs: Vec<usize> = (0..kc).map(|p| p * 11 + p / 3 * 29 + p % 2).collect();
            let src = data(offs[kc - 1] + NR + 5, 4);
            let bp: Vec<f32> = offs.iter().flat_map(|&o| src[o..o + NR].iter().copied()).collect();
            let was = !FORCE_SCALAR.load(Ordering::Relaxed);
            for on in [true, false] {
                set_simd_enabled(on);
                let (mut packed, mut in_place) = ([[0.5f32; NR]; MR], [[0.5f32; NR]; MR]);
                microkernel(kc, &ap, &bp, &mut packed);
                unsafe { microkernel_in_place(kc, &ap, &src, &offs, &mut in_place) };
                let bits = |t: &[[f32; NR]; MR]| t.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&in_place), bits(&packed), "kc {kc} simd {on}");
            }
            set_simd_enabled(was);
        }
    }

    #[test]
    fn elementwise_maps_match_bitwise_on_odd_lengths() {
        for n in lengths() {
            let a = sprinkle(data(n, 5), 0);
            let b = sprinkle(data(n, 6).iter().map(|v| v + 0.25).collect(), 3);
            type Map2 = fn(&mut [f32], &[f32], &[f32]);
            for f in [vadd as Map2, vsub, vmul, vdiv, vrelu_mask] {
                bitwise_on_off(|| {
                    let mut d = vec![0.0f32; n];
                    f(&mut d, &a, &b);
                    bits(&d)
                });
            }
            bitwise_on_off(|| {
                let mut d = a.clone();
                vadd_(&mut d, &b);
                bits(&d)
            });
            bitwise_on_off(|| {
                let mut d = a.clone();
                vadd_scalar_(&mut d, 0.37);
                bits(&d)
            });
            // ReLU maps −0.0 and NaN to +0.0 on both levels.
            bitwise_on_off(|| {
                let mut d = vec![1.0f32; n];
                vrelu(&mut d, &a);
                bits(&d)
            });
            // The running max keeps its value on ties (`data` repeats
            // values), +0.0 against −0.0 included, and against a NaN row.
            let mut row = sprinkle(data(n, 5).iter().rev().copied().collect(), 3);
            let mut start = a.clone();
            if n > 0 {
                (start[0], row[0]) = (0.0, -0.0);
            }
            bitwise_on_off(|| {
                let mut mx = start.clone();
                vmax_(&mut mx, &row);
                bits(&mx)
            });
        }
    }

    #[test]
    fn reductions_match_bitwise_on_odd_lengths() {
        for n in [1usize, 3, 4, 5, 8, 100, 1023] {
            let a = data(n, 7);
            let b = data(n, 8);
            bitwise_on_off(|| sum_f64(&a).to_bits());
            bitwise_on_off(|| sum_sq_f64(&a).to_bits());
            bitwise_on_off(|| sum_sqdiff_f64(&a, 0.37).to_bits());
            bitwise_on_off(|| {
                let (x, y) = sum2_f64(&a, &b);
                (x.to_bits(), y.to_bits())
            });
            bitwise_on_off(|| sum_f32(&a).to_bits());
        }
    }

    #[test]
    fn bn_passes_match_bitwise() {
        for n in lengths() {
            let x = sprinkle(data(n, 9), 0);
            let g = sprinkle(data(n, 10), 3);
            bitwise_on_off(|| {
                let mut xh = vec![0.0f32; n];
                let mut y = vec![0.0f32; n];
                vbn_apply(&x, 0.1, 1.7, 0.9, -0.2, &mut xh, &mut y);
                (bits(&xh), bits(&y))
            });
            bitwise_on_off(|| {
                let mut gx = vec![0.0f32; n];
                vbn_backward(&g, &x, 0.01, 1.3, -0.4, 77.0, &mut gx);
                bits(&gx)
            });
        }
    }

    #[test]
    fn fused_sgd_update_matches_bitwise_on_odd_lengths() {
        for n in lengths() {
            for grad_mul in [None, Some(0.37f32)] {
                let w0 = sprinkle(data(n, 11), 0);
                let v0 = sprinkle(data(n, 12), 2);
                let g = sprinkle(data(n, 13), 4);
                let k = SgdCoeffs {
                    lr: 0.05,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                    grad_scale: 128.0,
                    grad_mul,
                };
                bitwise_on_off(|| {
                    let mut w = w0.clone();
                    let mut v = v0.clone();
                    vsgd_update(&mut w, &mut v, &g, k);
                    (bits(&w), bits(&v))
                });
            }
        }
    }

    #[test]
    fn fused_sgd_update_matches_legacy_multipass_bitwise() {
        // The fused kernel must reproduce the pre-fusion op sequence
        // exactly: a separate `g *= ratio` rescale pass followed by the
        // scalar momentum loop.
        let n = 217;
        let w0 = data(n, 14);
        let v0 = data(n, 15);
        let g0 = data(n, 16);
        let (lr, mom, wd, gs, ratio) = (0.1f32, 0.9f32, 3e-4f32, 64.0f32, 0.213f32);
        let mut w_legacy = w0.clone();
        let mut v_legacy = v0.clone();
        let mut g = g0.clone();
        for x in g.iter_mut() {
            *x *= ratio;
        }
        for i in 0..n {
            let gi = g[i] / gs + wd * w_legacy[i];
            v_legacy[i] = mom * v_legacy[i] + gi;
            w_legacy[i] -= lr * v_legacy[i];
        }
        let was = !FORCE_SCALAR.load(Ordering::Relaxed);
        for on in [true, false] {
            set_simd_enabled(on);
            let mut w = w0.clone();
            let mut v = v0.clone();
            let k = SgdCoeffs {
                lr,
                momentum: mom,
                weight_decay: wd,
                grad_scale: gs,
                grad_mul: Some(ratio),
            };
            vsgd_update(&mut w, &mut v, &g0, k);
            assert_eq!(w, w_legacy, "simd={on}");
            assert_eq!(v, v_legacy, "simd={on}");
        }
        set_simd_enabled(was);
    }

    #[test]
    fn fused_adam_update_matches_bitwise_on_odd_lengths() {
        for n in lengths() {
            let w0 = sprinkle(data(n, 17), 0);
            let m0 = sprinkle(data(n, 18).iter().map(|v| v * 0.01).collect(), 2);
            // Second moments stay non-negative: −0.0 and −∞ become +0.0
            // and +∞.
            let v0: Vec<f32> = sprinkle(data(n, 19).iter().map(|v| v * v * 1e-4).collect(), 4)
                .into_iter()
                .map(f32::abs)
                .collect();
            let g = sprinkle(data(n, 20), 6);
            let k = AdamCoeffs {
                lr: 0.001,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                grad_scale: 32.0,
                bias1: 1.0 - 0.9f32.powi(7),
                bias2: 1.0 - 0.999f32.powi(7),
            };
            bitwise_on_off(|| {
                let mut w = w0.clone();
                let mut m = m0.clone();
                let mut v = v0.clone();
                vadam_update(&mut w, &mut m, &mut v, &g, k);
                (bits(&w), bits(&m), bits(&v))
            });
        }
    }

    #[test]
    fn active_level_has_a_known_label() {
        // Whatever the switch's state, the label is one of the known levels.
        assert!(["avx2+fma", "scalar"].contains(&active_level().label()));
    }
}
