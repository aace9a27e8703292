//! Runtime-dispatched SIMD micro-kernels (x86-64 AVX2) with bit-identical
//! scalar fallbacks.
//!
//! The paper's single-GPU numbers rest on hand-scheduled tensor-core
//! kernels; our CPU substrate gets the analogous treatment here: explicit
//! `std::arch` vector code for the hot inner loops (the GEMM register tile,
//! the pointwise family, the batch-norm reductions), selected at runtime by
//! `is_x86_feature_detected!` and switchable off in-process with
//! [`set_simd_enabled`].
//!
//! **Bit-identity contract.** Every function in this module produces the
//! same bits on every dispatch level. Two rules make that possible:
//!
//! 1. *FMA in the GEMM micro-kernel only.* The register tile accumulates
//!    with `vfmadd231ps`, and its scalar twin with `f32::mul_add`: both
//!    round once per depth step, so each output element sees the same
//!    operations in the same `k` order on every level. Every other kernel
//!    keeps separate multiply and add intrinsics, matching Rust's scalar
//!    `a * b + c` (which never contracts).
//! 2. *Vectorize across outputs, or fix the lane split.* Elementwise maps
//!    and the GEMM micro-kernel vectorize across independent output
//!    elements — per-element operation order is untouched. Reductions
//!    ([`sum_f64`], [`sum_f32`], …) define a *canonical lane-split order*
//!    (N independent lane accumulators combined in a fixed tree, plus a
//!    sequential tail) that the scalar fallback implements with ordinary
//!    loops. The canonical order is a function of the data length only —
//!    never of thread count or dispatch level.
//!
//! Comparisons follow the vector-instruction convention `a > b ? a : b`
//! (`maxps` returns the second operand on ties and NaNs); the scalar
//! fallbacks spell out the same expression instead of calling `f32::max`.

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
// GEMM register micro-kernel
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

// ---------------------------------------------------------------------------
// Elementwise maps (exact per element: any dispatch level is bit-identical)
// ---------------------------------------------------------------------------

macro_rules! elementwise2 {
    ($(#[$doc:meta])* $name:ident, $avx_name:ident, |$x:ident, $y:ident| $expr:expr, $intr:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(dst: &mut [f32], a: &[f32], b: &[f32]) {
            debug_assert!(dst.len() == a.len() && dst.len() == b.len());
            #[cfg(target_arch = "x86_64")]
            if active_level() == SimdLevel::Avx2Fma {
                unsafe { $avx_name(dst, a, b) };
                return;
            }
            for ((o, &$x), &$y) in dst.iter_mut().zip(a.iter()).zip(b.iter()) {
                *o = $expr;
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx_name(dst: &mut [f32], a: &[f32], b: &[f32]) {
            use std::arch::x86_64::*;
            let n = dst.len();
            let mut i = 0;
            while i + 8 <= n {
                let va = _mm256_loadu_ps(a.as_ptr().add(i));
                let vb = _mm256_loadu_ps(b.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), $intr(va, vb));
                i += 8;
            }
            while i < n {
                let $x = *a.get_unchecked(i);
                let $y = *b.get_unchecked(i);
                *dst.get_unchecked_mut(i) = $expr;
                i += 1;
            }
        }
    };
}

elementwise2!(
    /// `dst[i] = a[i] + b[i]`.
    vadd, vadd_avx2, |x, y| x + y, _mm256_add_ps
);
elementwise2!(
    /// `dst[i] = a[i] * b[i]`.
    vmul, vmul_avx2, |x, y| x * y, _mm256_mul_ps
);
elementwise2!(
    /// `dst[i] = a[i] - b[i]`.
    vsub, vsub_avx2, |x, y| x - y, _mm256_sub_ps
);
elementwise2!(
    /// `dst[i] = a[i] / b[i]`.
    vdiv, vdiv_avx2, |x, y| x / y, _mm256_div_ps
);

/// In-place `x[i] += b` (per-channel bias broadcast).
#[inline]
pub fn vadd_scalar_(x: &mut [f32], b: f32) {
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vadd_scalar_avx2(x, b) };
        return;
    }
    for v in x.iter_mut() {
        *v += b;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vadd_scalar_avx2(x: &mut [f32], b: f32) {
    use std::arch::x86_64::*;
    let n = x.len();
    let vb = _mm256_set1_ps(b);
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_add_ps(v, vb));
        i += 8;
    }
    while i < n {
        *x.get_unchecked_mut(i) += b;
        i += 1;
    }
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

/// In-place `dst[i] += a[i]` (reduction across rows, e.g. softmax `z`).
#[inline]
pub fn vadd_(dst: &mut [f32], a: &[f32]) {
    debug_assert_eq!(dst.len(), a.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vadd_assign_avx2(dst, a) };
        return;
    }
    for (o, &x) in dst.iter_mut().zip(a.iter()) {
        *o += x;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vadd_assign_avx2(dst: &mut [f32], a: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let mut i = 0;
    while i + 8 <= n {
        let vd = _mm256_loadu_ps(dst.as_ptr().add(i));
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(vd, va));
        i += 8;
    }
    while i < n {
        *dst.get_unchecked_mut(i) += *a.get_unchecked(i);
        i += 1;
    }
}

/// `dst[i] = a[i] > 0 ? a[i] : 0` — ReLU with `maxps(a, 0)` semantics
/// (−0.0 and NaN map to +0.0 on every level).
#[inline]
pub fn vrelu(dst: &mut [f32], a: &[f32]) {
    debug_assert_eq!(dst.len(), a.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vrelu_avx2(dst, a) };
        return;
    }
    for (o, &x) in dst.iter_mut().zip(a.iter()) {
        *o = if x > 0.0 { x } else { 0.0 };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vrelu_avx2(dst: &mut [f32], a: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(a.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_max_ps(v, zero));
        i += 8;
    }
    while i < n {
        let x = *a.get_unchecked(i);
        *dst.get_unchecked_mut(i) = if x > 0.0 { x } else { 0.0 };
        i += 1;
    }
}

/// `dst[i] = m[i] > 0 ? g[i] : 0` — the ReLU gradient gate.
#[inline]
pub fn vrelu_mask(dst: &mut [f32], m: &[f32], g: &[f32]) {
    debug_assert!(dst.len() == m.len() && dst.len() == g.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vrelu_mask_avx2(dst, m, g) };
        return;
    }
    for ((o, &mv), &gv) in dst.iter_mut().zip(m.iter()).zip(g.iter()) {
        *o = if mv > 0.0 { gv } else { 0.0 };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vrelu_mask_avx2(dst: &mut [f32], m: &[f32], g: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let vm = _mm256_loadu_ps(m.as_ptr().add(i));
        let vg = _mm256_loadu_ps(g.as_ptr().add(i));
        let mask = _mm256_cmp_ps::<{ _CMP_GT_OQ }>(vm, zero);
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_and_ps(vg, mask));
        i += 8;
    }
    while i < n {
        let mv = *m.get_unchecked(i);
        *dst.get_unchecked_mut(i) = if mv > 0.0 { *g.get_unchecked(i) } else { 0.0 };
        i += 1;
    }
}

/// In-place running max: `mx[i] = row[i] > mx[i] ? row[i] : mx[i]`
/// (the channel-max pass of softmax).
#[inline]
pub fn vmax_(mx: &mut [f32], row: &[f32]) {
    debug_assert_eq!(mx.len(), row.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vmax_avx2(mx, row) };
        return;
    }
    for (m, &x) in mx.iter_mut().zip(row.iter()) {
        *m = if x > *m { x } else { *m };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vmax_avx2(mx: &mut [f32], row: &[f32]) {
    use std::arch::x86_64::*;
    let n = mx.len();
    let mut i = 0;
    while i + 8 <= n {
        let vm = _mm256_loadu_ps(mx.as_ptr().add(i));
        let vr = _mm256_loadu_ps(row.as_ptr().add(i));
        // maxps(a, b) = a > b ? a : b — arguments ordered so the running
        // value survives ties.
        _mm256_storeu_ps(mx.as_mut_ptr().add(i), _mm256_max_ps(vr, vm));
        i += 8;
    }
    while i < n {
        let m = mx.get_unchecked_mut(i);
        let x = *row.get_unchecked(i);
        *m = if x > *m { x } else { *m };
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Batch-norm fused passes
// ---------------------------------------------------------------------------

/// Batch-norm normalize + scale/shift over one plane:
/// `xh[i] = (x[i] − mu) · is; y[i] = g · xh[i] + b`.
#[inline]
pub fn vbn_apply(x: &[f32], mu: f32, is: f32, g: f32, b: f32, xh: &mut [f32], y: &mut [f32]) {
    debug_assert!(x.len() == xh.len() && x.len() == y.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vbn_apply_avx2(x, mu, is, g, b, xh, y) };
        return;
    }
    for ((&v, xo), yo) in x.iter().zip(xh.iter_mut()).zip(y.iter_mut()) {
        let xn = (v - mu) * is;
        *xo = xn;
        *yo = g * xn + b;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vbn_apply_avx2(x: &[f32], mu: f32, is: f32, g: f32, b: f32, xh: &mut [f32], y: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = x.len();
    let vmu = _mm256_set1_ps(mu);
    let vis = _mm256_set1_ps(is);
    let vg = _mm256_set1_ps(g);
    let vb = _mm256_set1_ps(b);
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        let xn = _mm256_mul_ps(_mm256_sub_ps(v, vmu), vis);
        _mm256_storeu_ps(xh.as_mut_ptr().add(i), xn);
        _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_add_ps(_mm256_mul_ps(vg, xn), vb));
        i += 8;
    }
    while i < n {
        let xn = (*x.get_unchecked(i) - mu) * is;
        *xh.get_unchecked_mut(i) = xn;
        *y.get_unchecked_mut(i) = g * xn + b;
        i += 1;
    }
}

/// Batch-norm input-gradient pass over one plane:
/// `gx[i] = k · (m · go[i] − sg − xh[i] · sgx)`.
#[inline]
pub fn vbn_backward(go: &[f32], xh: &[f32], k: f32, sg: f32, sgx: f32, m: f32, gx: &mut [f32]) {
    debug_assert!(go.len() == xh.len() && go.len() == gx.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vbn_backward_avx2(go, xh, k, sg, sgx, m, gx) };
        return;
    }
    for ((&g, &x), o) in go.iter().zip(xh.iter()).zip(gx.iter_mut()) {
        *o = k * (m * g - sg - x * sgx);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vbn_backward_avx2(go: &[f32], xh: &[f32], k: f32, sg: f32, sgx: f32, m: f32, gx: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = go.len();
    let vk = _mm256_set1_ps(k);
    let vsg = _mm256_set1_ps(sg);
    let vsgx = _mm256_set1_ps(sgx);
    let vm = _mm256_set1_ps(m);
    let mut i = 0;
    while i + 8 <= n {
        let g = _mm256_loadu_ps(go.as_ptr().add(i));
        let x = _mm256_loadu_ps(xh.as_ptr().add(i));
        // Same evaluation order as `k * (m*g - sg - x*sgx)`:
        // ((m·g) − sg) − (x·sgx), then ·k.
        let t = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(vm, g), vsg), _mm256_mul_ps(x, vsgx));
        _mm256_storeu_ps(gx.as_mut_ptr().add(i), _mm256_mul_ps(vk, t));
        i += 8;
    }
    while i < n {
        let g = *go.get_unchecked(i);
        let x = *xh.get_unchecked(i);
        *gx.get_unchecked_mut(i) = k * (m * g - sg - x * sgx);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Reductions (canonical lane-split order, identical on every level)
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
    debug_assert_eq!(g.len(), xh.len());
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

/// Fused SGD-momentum update, one pass:
/// `gi = (g[i]·grad_mul?) / gs + wd·w[i]; v[i] = mom·v[i] + gi;
/// w[i] -= lr·v[i]` — grad-scale division, weight decay, momentum and
/// the parameter write in a single read-modify-write sweep. Vectorized
/// across independent elements with separate mul/add/div intrinsics
/// (no FMA), so every element sees the identical IEEE op sequence as the
/// scalar fallback — and as the pre-fusion multi-pass code.
#[inline]
pub fn vsgd_update(w: &mut [f32], v: &mut [f32], g: &[f32], k: SgdCoeffs) {
    // Hard check: the AVX2 body indexes all three slices unchecked, and a
    // mis-sized optimizer state buffer must not become UB.
    assert!(w.len() == v.len() && w.len() == g.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vsgd_update_avx2(w, v, g, k) };
        return;
    }
    let (lr, mom, wd, gs) = (k.lr, k.momentum, k.weight_decay, k.grad_scale);
    match k.grad_mul {
        Some(r) => {
            for i in 0..w.len() {
                let gi = (g[i] * r) / gs + wd * w[i];
                v[i] = mom * v[i] + gi;
                w[i] -= lr * v[i];
            }
        }
        None => {
            for i in 0..w.len() {
                let gi = g[i] / gs + wd * w[i];
                v[i] = mom * v[i] + gi;
                w[i] -= lr * v[i];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn vsgd_update_avx2(w: &mut [f32], v: &mut [f32], g: &[f32], k: SgdCoeffs) {
    use std::arch::x86_64::*;
    let n = w.len();
    let vlr = _mm256_set1_ps(k.lr);
    let vmom = _mm256_set1_ps(k.momentum);
    let vwd = _mm256_set1_ps(k.weight_decay);
    let vgs = _mm256_set1_ps(k.grad_scale);
    let vr = _mm256_set1_ps(k.grad_mul.unwrap_or(1.0));
    let scaled = k.grad_mul.is_some();
    let mut i = 0;
    while i + 8 <= n {
        let wv = _mm256_loadu_ps(w.as_ptr().add(i));
        let mut gv = _mm256_loadu_ps(g.as_ptr().add(i));
        if scaled {
            gv = _mm256_mul_ps(gv, vr);
        }
        // gi = g/gs + wd·w, v = mom·v + gi, w = w − lr·v — div, mul,
        // add, mul, add, mul, sub: the scalar sequence exactly.
        let gi = _mm256_add_ps(_mm256_div_ps(gv, vgs), _mm256_mul_ps(vwd, wv));
        let vv = _mm256_add_ps(_mm256_mul_ps(vmom, _mm256_loadu_ps(v.as_ptr().add(i))), gi);
        _mm256_storeu_ps(v.as_mut_ptr().add(i), vv);
        _mm256_storeu_ps(w.as_mut_ptr().add(i), _mm256_sub_ps(wv, _mm256_mul_ps(vlr, vv)));
        i += 8;
    }
    let (lr, mom, wd, gs) = (k.lr, k.momentum, k.weight_decay, k.grad_scale);
    while i < n {
        let mut gv = *g.get_unchecked(i);
        if let Some(r) = k.grad_mul {
            gv *= r;
        }
        let wi = w.get_unchecked_mut(i);
        let vi = v.get_unchecked_mut(i);
        let gi = gv / gs + wd * *wi;
        *vi = mom * *vi + gi;
        *wi -= lr * *vi;
        i += 1;
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
/// parameter write in a single sweep. Per element (matching the scalar
/// parse exactly, including `((1−β₂)·gi)·gi` association):
/// `gi = g[i]/gs; m = β₁·m + (1−β₁)·gi; v = β₂·v + (1−β₂)·gi·gi;
/// w -= (lr·(m/b₁)) / (√(v/b₂) + ε)`. `_mm256_sqrt_ps` and
/// `_mm256_div_ps` are correctly rounded, so vector and scalar bits
/// agree.
#[inline]
pub fn vadam_update(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], k: AdamCoeffs) {
    // Hard check, as in `vsgd_update`: unchecked lanes below.
    assert!(w.len() == m.len() && w.len() == v.len() && w.len() == g.len());
    #[cfg(target_arch = "x86_64")]
    if active_level() == SimdLevel::Avx2Fma {
        unsafe { vadam_update_avx2(w, m, v, g, k) };
        return;
    }
    let (lr, b1, b2, eps, gs) = (k.lr, k.beta1, k.beta2, k.eps, k.grad_scale);
    for i in 0..w.len() {
        let gi = g[i] / gs;
        m[i] = b1 * m[i] + (1.0 - b1) * gi;
        v[i] = b2 * v[i] + (1.0 - b2) * gi * gi;
        let mhat = m[i] / k.bias1;
        let vhat = v[i] / k.bias2;
        w[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

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
    let (lr, b1, b2, eps, gs) = (k.lr, k.beta1, k.beta2, k.eps, k.grad_scale);
    while i < n {
        let gi = *g.get_unchecked(i) / gs;
        let mi = m.get_unchecked_mut(i);
        let vi = v.get_unchecked_mut(i);
        *mi = b1 * *mi + (1.0 - b1) * gi;
        *vi = b2 * *vi + (1.0 - b2) * gi * gi;
        let mhat = *mi / k.bias1;
        let vhat = *vi / k.bias2;
        *w.get_unchecked_mut(i) -= lr * mhat / (vhat.sqrt() + eps);
        i += 1;
    }
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
        for n in [1usize, 7, 8, 9, 31, 64, 100] {
            let a = data(n, 5);
            let b: Vec<f32> = data(n, 6).iter().map(|v| v + 0.25).collect();
            bitwise_on_off(|| {
                let mut d = vec![0.0f32; n];
                vadd(&mut d, &a, &b);
                d
            });
            bitwise_on_off(|| {
                let mut d = vec![0.0f32; n];
                vdiv(&mut d, &a, &b);
                d
            });
            bitwise_on_off(|| {
                let mut d = vec![0.0f32; n];
                vrelu_mask(&mut d, &a, &b);
                d
            });
            bitwise_on_off(|| {
                let mut d = vec![0.0f32; n];
                vmul(&mut d, &a, &b);
                d
            });
            bitwise_on_off(|| {
                let mut d = vec![0.0f32; n];
                vsub(&mut d, &a, &b);
                d
            });
            bitwise_on_off(|| {
                let mut d = a.clone();
                vadd_(&mut d, &b);
                d
            });
            bitwise_on_off(|| {
                let mut d = a.clone();
                vadd_scalar_(&mut d, 0.37);
                d
            });
            // ReLU maps −0.0 and NaN to +0.0 on both levels.
            let mut signed = a.clone();
            signed[0] = -0.0;
            signed[n / 2] = f32::NAN;
            bitwise_on_off(|| {
                let mut d = vec![1.0f32; n];
                vrelu(&mut d, &signed);
                d.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            // The running max keeps its value on ties (`data` repeats
            // values), +0.0 against −0.0 included.
            let mut row = data(n, 5).iter().rev().copied().collect::<Vec<_>>();
            let mut start = a.clone();
            (start[0], row[0]) = (0.0, -0.0);
            bitwise_on_off(|| {
                let mut mx = start.clone();
                vmax_(&mut mx, &row);
                mx.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
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
        let n = 77;
        let x = data(n, 9);
        let g = data(n, 10);
        bitwise_on_off(|| {
            let mut xh = vec![0.0f32; n];
            let mut y = vec![0.0f32; n];
            vbn_apply(&x, 0.1, 1.7, 0.9, -0.2, &mut xh, &mut y);
            (xh, y)
        });
        bitwise_on_off(|| {
            let mut gx = vec![0.0f32; n];
            vbn_backward(&g, &x, 0.01, 1.3, -0.4, 77.0, &mut gx);
            gx
        });
    }

    #[test]
    fn fused_sgd_update_matches_bitwise_on_odd_lengths() {
        for n in [1usize, 7, 8, 9, 31, 100, 1023] {
            for grad_mul in [None, Some(0.37f32)] {
                let w0 = data(n, 11);
                let v0 = data(n, 12);
                let g = data(n, 13);
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
                    (w, v)
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
        for n in [1usize, 7, 8, 9, 31, 100, 1023] {
            let w0 = data(n, 17);
            let m0: Vec<f32> = data(n, 18).iter().map(|v| v * 0.01).collect();
            // Second moments must be non-negative for the sqrt.
            let v0: Vec<f32> = data(n, 19).iter().map(|v| v * v * 1e-4).collect();
            let g = data(n, 20);
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
                (w, m, v)
            });
        }
    }

    #[test]
    fn active_level_has_a_known_label() {
        // Whatever the switch's state, the label is one of the known levels.
        assert!(["avx2+fma", "scalar"].contains(&active_level().label()));
    }
}
