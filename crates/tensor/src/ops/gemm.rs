//! Cache-blocked, panel-packed, pool-parallel GEMM.
//!
//! cuDNN lowers most of the paper's convolutions to implicit GEMMs; our
//! im2col convolution path does the same explicitly through this kernel.
//! The implementation follows the classic three-level blocking scheme
//! (Goto/BLIS): the `k` dimension is cut into `KC`-deep panels, `A` is
//! packed into `MR`-row micro-panels and `B` into `NR`-column micro-panels,
//! and a register-tiled `MR×NR` micro-kernel ([`crate::simd`], AVX2 with
//! a bit-identical scalar fallback) accumulates each output tile while
//! both operand panels stay cache-resident. All three storage layouts
//! (`A·B`, `Aᵀ·B`, `A·Bᵀ`) share the same compute path — only the packing
//! routines differ — and the `B` side is abstracted behind [`PanelSource`]
//! so convolution can pack im2col patches straight into `B` micro-panels
//! without ever materializing the column matrix, or, where a panel's depth
//! rows are contiguous runs of its input, skip the pack and let the
//! micro-kernel read them in place.
//!
//! Parallelism: the `(row-block × column-block)` tile grid of `C` is
//! dispatched across the kernel thread pool once the problem is large
//! enough to amortize it. Every tile owns a disjoint region of `C` and
//! accumulates its `k`-panels in a fixed order that does not depend on the
//! thread count, so results are **bit-identical** for any
//! `EXACLIM_NUM_THREADS` (and for any `EXACLIM_SIMD` setting).
//!
//! Reduced-precision compute (the paper's tensor-core recipe, §IV): when
//! the thread's [`ComputePrecision`] is `F16` or `Bf16`, every packed
//! operand panel is rounded to that precision in place (`round_panel`)
//! and the one FP32 micro-kernel runs on it, keeping **all accumulation in
//! FP32** — operands lose precision, sums never do. Widening a half value
//! to `f32` is exact, so this *is* the tensor-core contract, and a
//! half-precision product is bit for bit the FP32 product of rounded
//! operands. Master weights stay FP32 in the optimizer, so this mirrors
//! mixed-precision training, not a half-float library.

use crate::profile::{self, KernelKind};
use crate::simd::{self, MR, NR};
use rayon::prelude::*;
use std::cell::Cell;

/// Depth of one packed `k`-panel (`A`/`B` micro-panels stay L1-resident).
const KC: usize = 256;
/// Rows of `C` per parallel tile (`A` panel of `MC·KC` floats is L2-sized).
const MC: usize = 128;
/// Columns of `C` per parallel tile (bounds the per-task packed-`B` buffer).
const NC: usize = 512;
/// Below this `m·n·k` volume the packing overhead dominates; use the plain
/// streaming kernel instead. Shape-dependent only, so the choice is
/// identical at every thread count.
const BLOCKED_MIN_VOLUME: usize = 64 * 64 * 64;
/// Below this `m·n·k` volume the blocked kernel runs its tile grid on the
/// caller thread: pool dispatch costs more than it buys. Tiles are
/// disjoint, so serial vs parallel execution is bit-identical — this
/// threshold trades wall time only.
const PAR_MIN_VOLUME: usize = 128 * 128 * 128;

/// Operand element type for GEMM compute (the paper's fp16 tensor-core
/// path and its bf16 cousin). Selected per thread via
/// [`set_compute_precision`]; read once at each GEMM entry on the caller
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputePrecision {
    /// Full-precision operands (the default).
    #[default]
    F32,
    /// IEEE binary16 operand panels, FP32 accumulation.
    F16,
    /// bfloat16 operand panels, FP32 accumulation.
    Bf16,
}

impl ComputePrecision {
    /// Short label for census/bench output.
    pub fn label(self) -> &'static str {
        match self {
            ComputePrecision::F32 => "f32",
            ComputePrecision::F16 => "f16",
            ComputePrecision::Bf16 => "bf16",
        }
    }
}

thread_local! {
    static COMPUTE: Cell<ComputePrecision> = const { Cell::new(ComputePrecision::F32) };
}

/// The calling thread's GEMM operand precision.
pub fn compute_precision() -> ComputePrecision {
    COMPUTE.with(|c| c.get())
}

/// Sets the calling thread's GEMM operand precision and returns the
/// previous value (callers restore it guard-style around an op).
pub fn set_compute_precision(p: ComputePrecision) -> ComputePrecision {
    COMPUTE.with(|c| c.replace(p))
}

/// How an operand is laid out in memory relative to its logical role.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Stored exactly as its logical `rows×cols` row-major shape.
    Normal,
    /// Stored transposed: logical element `(i, j)` lives at `(j, i)`.
    Transposed,
}

/// A provider of `B` micro-panels: anything that can write the `NR`-column
/// panel covering logical columns `[j0, j0+NR)` and depths `[pc, pc+kc)`
/// into a `kc·NR` buffer (layout: `kc` groups of `NR` column-values,
/// zero-padded past the matrix edge). Convolution implements this with
/// on-the-fly im2col so the column matrix never exists in memory.
///
/// A source may also let the GEMM skip the pack (default off): when every
/// depth row of a panel is `NR` contiguous floats of some source slice, the
/// micro-kernel reads them where they lie ([`simd::microkernel_in_place`]).
/// [`PanelSource::in_place_rows`] gives, once per depth slice, each row's
/// offset from a panel's first float; [`PanelSource::in_place_panel`] says
/// which panels qualify and where they start. Only used for `F32` compute:
/// the half precisions round at pack time.
pub(crate) trait PanelSource: Sync {
    fn pack_panel(&self, j0: usize, pc: usize, kc: usize, panel: &mut [f32]);

    /// When this source serves panels in place, writes the offset of depth
    /// row `pc + p` from a panel's first float into `offs[p]` for `p < kc`
    /// (ascending with `p`) and returns the slice the panels lie in.
    fn in_place_rows(&self, _pc: usize, _kc: usize, _offs: &mut [usize]) -> Option<&[f32]> {
        None
    }

    /// Where panel `j0` starts in the [`PanelSource::in_place_rows`] slice,
    /// if it can be read in place: row `p` is then the `NR` floats at
    /// `start + offs[p]`, each equal to what `pack_panel` would write.
    fn in_place_panel(&self, _j0: usize) -> Option<usize> {
        None
    }
}

/// [`PanelSource`] over a dense slice: logical element `(p, j)` lives at
/// `b[p·ld + j]` (`Normal`) or `b[j·ld + p]` (`Transposed`). `ld` is the
/// stored row stride, which may exceed the logical width — that is how
/// strip-wise convolution reads a column window of a wider matrix.
pub(crate) struct SliceB<'a> {
    pub b: &'a [f32],
    pub layout: Layout,
    /// Logical column count of `B` (panel columns past it are zero-padded).
    pub n: usize,
    /// Stored row stride.
    pub ld: usize,
}

impl PanelSource for SliceB<'_> {
    fn pack_panel(&self, j0: usize, pc: usize, kc: usize, panel: &mut [f32]) {
        debug_assert!(panel.len() >= kc * NR);
        match self.layout {
            Layout::Normal => {
                if j0 + NR <= self.n {
                    // Interior panel: each k-row contributes NR contiguous
                    // source floats — the hot copy of the packed GEMM.
                    simd::vpack_rows(kc, &self.b[pc * self.ld + j0..], self.ld, panel);
                } else {
                    for p in 0..kc {
                        let row = &self.b[(pc + p) * self.ld..];
                        for j in 0..NR {
                            panel[p * NR + j] = if j0 + j < self.n { row[j0 + j] } else { 0.0 };
                        }
                    }
                }
            }
            Layout::Transposed => {
                // Stored n×k: logical column j is a contiguous stored row.
                for j in 0..NR {
                    if j0 + j < self.n {
                        let col = &self.b[(j0 + j) * self.ld + pc..];
                        for p in 0..kc {
                            panel[p * NR + j] = col[p];
                        }
                    } else {
                        for p in 0..kc {
                            panel[p * NR + j] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Shared raw pointer to `C`, handed to tile tasks.
///
/// Safety: every tile task writes only its own `[i0..i0+mc) × [j0..j0+nc)`
/// region (disjoint by construction of the tile grid), so concurrent access
/// never aliases.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than direct field access) so closures capture the
    /// Sync wrapper itself — 2021 precise capture would otherwise reach
    /// through to the non-Sync `*mut` field.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// `c[m×n] += a[m×k] · b[k×n]`, all row-major dense slices.
///
/// Parallelized over output tiles on the kernel pool. Records a census
/// entry of `2·m·n·k` FLOPs when invoked directly (the convolution
/// wrappers record at the op level instead and call [`gemm_noprofile`]).
/// The census name carries the operand precision (`gemm`, `gemm_f16`,
/// `gemm_bf16`).
///
/// # Panics
/// Panics if slice lengths do not match the given dimensions.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let name = match compute_precision() {
        ComputePrecision::F32 => "gemm",
        ComputePrecision::F16 => "gemm_f16",
        ComputePrecision::Bf16 => "gemm_bf16",
    };
    profile::record(
        KernelKind::Conv,
        name,
        2 * (m * n * k) as u64,
        4 * (m * k + k * n) as u64,
        4 * (m * n) as u64,
    );
    gemm_noprofile(m, n, k, a, b, c);
}

/// [`gemm`] without the census entry; used internally by convolution
/// kernels that account their FLOPs at the op level.
pub fn gemm_noprofile(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    gemm_dispatch(m, n, k, a, Layout::Normal, b, Layout::Normal, c, n);
}

/// `c[m×n] += aᵀ[m×k] · b[k×n]` where `a` is stored as `k×m` row-major.
///
/// Used by the im2col weight-gradient kernel, which needs `Wᵍ = Gᵒᵘᵗ · colᵀ`
/// style contractions without materializing a transpose.
pub fn gemm_at_b(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A must be k×m (transposed)");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    gemm_dispatch(m, n, k, a, Layout::Transposed, b, Layout::Normal, c, n);
}

/// `c[m×n] += a[m×k] · bᵀ[k×n]` where `b` is stored as `n×k` row-major.
pub fn gemm_a_bt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), n * k, "B must be n×k (transposed)");
    assert_eq!(c.len(), m * n, "C must be m×n");
    gemm_dispatch(m, n, k, a, Layout::Normal, b, Layout::Transposed, c, n);
}

/// `c[i·ldc + j] += Σ a[i,·]·b[·,j]` over an `m×n` sub-matrix of a larger
/// row-major buffer with leading dimension `ldc ≥ n`. Lets strip-wise
/// callers accumulate directly into column slices of their output without
/// a copy.
///
/// `c` must start at the sub-matrix origin and cover its last element.
/// Test-only: production strided output goes through [`gemm_panels`]; this
/// is the dense entry its strided accumulation is checked with.
#[cfg(test)]
pub(crate) fn gemm_strided(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    assert!(ldc >= n, "leading dimension must cover the row width");
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert!(
        m == 0 || n == 0 || c.len() >= (m - 1) * ldc + n,
        "C must cover the strided m×n sub-matrix"
    );
    gemm_dispatch(m, n, k, a, Layout::Normal, b, Layout::Normal, c, ldc);
}

/// The generalized blocked entry for convolution: `A` is a dense slice,
/// `B` is any [`PanelSource`] (typically on-the-fly im2col), `C` is a
/// strided `m×n` output window, and `prec` selects the operand precision
/// (read once by the caller so the whole op uses one setting).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_panels(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    bsrc: &impl PanelSource,
    c: &mut [f32],
    ldc: usize,
    prec: ComputePrecision,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(ldc >= n, "leading dimension must cover the row width");
    assert!(
        c.len() >= (m - 1) * ldc + n,
        "C must cover the strided m×n sub-matrix"
    );
    gemm_blocked(m, n, k, a, a_layout, bsrc, c, ldc, prec);
}

#[allow(clippy::too_many_arguments)]
fn gemm_dispatch(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let prec = compute_precision();
    let ld = match b_layout {
        Layout::Normal => n,
        Layout::Transposed => k,
    };
    let bsrc = SliceB { b, layout: b_layout, n, ld };
    // The half precisions take the blocked route at every shape: rounding
    // happens at pack time, and the streaming kernel packs nothing.
    if prec == ComputePrecision::F32 && m * n * k < BLOCKED_MIN_VOLUME {
        gemm_small(m, n, k, a, a_layout, b, b_layout, c, ldc);
    } else {
        gemm_blocked(m, n, k, a, a_layout, &bsrc, c, ldc, prec);
    }
}

/// Streaming i-k-j kernel for shapes too small to amortize packing. The
/// `B` row is read contiguously and the compiler vectorizes the update of
/// a contiguous `C` row.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    ldc: usize,
) {
    for i in 0..m {
        let c_row = &mut c[i * ldc..i * ldc + n];
        match b_layout {
            Layout::Normal => {
                for kk in 0..k {
                    let a_ik = match a_layout {
                        Layout::Normal => a[i * k + kk],
                        Layout::Transposed => a[kk * m + i],
                    };
                    if a_ik == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                        *c_ij += a_ik * b_kj;
                    }
                }
            }
            Layout::Transposed => {
                // B stored n×k: dot products over contiguous B rows.
                for (j, c_ij) in c_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    match a_layout {
                        Layout::Normal => {
                            let a_row = &a[i * k..(i + 1) * k];
                            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                                acc += x * y;
                            }
                        }
                        Layout::Transposed => {
                            for (kk, &y) in b_row.iter().enumerate() {
                                acc += a[kk * m + i] * y;
                            }
                        }
                    }
                    *c_ij += acc;
                }
            }
        }
    }
}

/// Packs the `MR`-row micro-panel of `A` covering logical rows
/// `[i0, i0+MR)` and depths `[pc, pc+kc)` into `panel` (layout:
/// `kc` groups of `MR` row-values; short row blocks are zero-padded, which
/// contributes exact `+0.0` terms to lanes that are never written back).
#[allow(clippy::too_many_arguments)]
fn pack_a_panel(a: &[f32], layout: Layout, m: usize, k: usize, i0: usize, pc: usize, kc: usize, panel: &mut [f32]) {
    debug_assert_eq!(panel.len(), kc * MR);
    for p in 0..kc {
        for r in 0..MR {
            let i = i0 + r;
            panel[p * MR + r] = if i < m {
                match layout {
                    Layout::Normal => a[i * k + pc + p],
                    Layout::Transposed => a[(pc + p) * m + i],
                }
            } else {
                0.0
            };
        }
    }
}

/// Rounds a packed operand panel to the compute precision in place:
/// software round-to-nearest-even, so panel contents are identical no
/// matter which SIMD level later consumes them. `F32` leaves it untouched.
fn round_panel(panel: &mut [f32], prec: ComputePrecision) {
    match prec {
        ComputePrecision::F32 => {}
        ComputePrecision::F16 => crate::half::quantize_f16_slice(panel),
        ComputePrecision::Bf16 => panel.iter_mut().for_each(|v| *v = crate::half::quantize_bf16(*v)),
    }
}

/// Tile descriptors for the parallel grid: (row-block, col-block).
fn tile_grid(m: usize, n: usize) -> Vec<(usize, usize)> {
    let m_tiles = m.div_ceil(MC);
    let n_tiles = n.div_ceil(NC);
    (0..m_tiles)
        .flat_map(|mt| (0..n_tiles).map(move |nt| (mt, nt)))
        .collect()
}

/// Hardware threads available to the process, cached once. On a
/// single-core host pool dispatch can only add overhead, so the tile loop
/// stays on the caller thread regardless of the configured pool width.
fn hw_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `body` over the tile grid — on the pool when the problem is big
/// enough to amortize dispatch and the machine can actually run tiles
/// concurrently, on the caller thread otherwise. Tiles are disjoint, so
/// both routes produce identical bits.
fn for_each_tile(tiles: &[(usize, usize)], volume: usize, body: impl Fn(&(usize, usize)) + Sync) {
    if tiles.len() > 1 && volume >= PAR_MIN_VOLUME && hw_parallelism() > 1 {
        tiles.par_iter().for_each(body);
    } else {
        tiles.iter().for_each(body);
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    bsrc: &impl PanelSource,
    c: &mut [f32],
    ldc: usize,
    prec: ComputePrecision,
) {
    let m_panels = m.div_ceil(MR);
    let tiles = tile_grid(m, n);
    let c_ptr = SendPtr(c.as_mut_ptr());

    // One packed-A buffer for the whole kc-panel, shared read-only by all
    // tiles. Packed serially: the pack is a tiny fraction of the FLOPs and
    // pool dispatch here costs more than it buys.
    let mut ap = crate::pool::take_scratch(m_panels * MR * KC);
    // Depth-row offsets of the B panels read in place, per kc-panel.
    let mut offs = [0usize; KC];

    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for (panel, buf) in ap.chunks_mut(MR * KC).enumerate() {
            pack_a_panel(a, a_layout, m, k, panel * MR, pc, kc, &mut buf[..kc * MR]);
            round_panel(&mut buf[..kc * MR], prec);
        }
        let in_place = match prec {
            ComputePrecision::F32 => bsrc.in_place_rows(pc, kc, &mut offs[..kc]),
            _ => None,
        };
        let offs = &offs[..kc];

        for_each_tile(&tiles, m * n * k, |&(mt, nt)| {
            let c_raw = c_ptr.get();
            let i0 = mt * MC;
            let mc = MC.min(m - i0);
            let j0 = nt * NC;
            let nc = NC.min(n - j0);
            // This column block's B panels: read in place where the source
            // allows, else packed into a per-task buffer. Re-packed per
            // row-block task; redundant for multi-row-block shapes but keeps
            // every task independent (content is tile-invariant, so numerics
            // are unaffected).
            let nr_panels = nc.div_ceil(NR);
            let mut rows_in_place: [Option<&[f32]>; NC / NR] = [None; NC / NR];
            for (panel, rows) in rows_in_place[..nr_panels].iter_mut().enumerate() {
                *rows = in_place.and_then(|src| bsrc.in_place_panel(j0 + panel * NR).map(|at| &src[at..]));
            }
            let packed = rows_in_place[..nr_panels].iter().filter(|r| r.is_none()).count();
            let mut bp = crate::pool::take_scratch(packed * NR * kc);
            let to_pack = rows_in_place[..nr_panels].iter().enumerate().filter(|(_, r)| r.is_none());
            for ((panel, _), buf) in to_pack.zip(bp.chunks_exact_mut(NR * kc)) {
                bsrc.pack_panel(j0 + panel * NR, pc, kc, buf);
                round_panel(buf, prec);
            }

            for ir in (0..mc).step_by(MR) {
                let i = i0 + ir;
                let mr_eff = MR.min(m - i);
                let ap_panel = &ap[(i / MR) * MR * KC..(i / MR) * MR * KC + kc * MR];
                let mut bp_panels = bp.chunks_exact(NR * kc);
                for (panel, rows) in rows_in_place[..nr_panels].iter().enumerate() {
                    let j = j0 + panel * NR;
                    let nr_eff = NR.min(n - j);
                    let mut acc = [[0.0f32; NR]; MR];
                    match rows {
                        // Safety: `in_place_rows` offsets ascend.
                        Some(src) => unsafe { simd::microkernel_in_place(kc, ap_panel, src, offs, &mut acc) },
                        None => simd::microkernel(kc, ap_panel, bp_panels.next().unwrap(), &mut acc),
                    }
                    // Safety: rows [i, i+mr_eff) × cols [j, j+nr_eff) lie
                    // inside this task's tile; tiles are disjoint.
                    unsafe {
                        simd::tile_accumulate(&acc, mr_eff, nr_eff, c_raw.add(i * ldc + j), ldc)
                    };
                }
            }
            crate::pool::recycle(bp);
        });
    }
    crate::pool::recycle(ap);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matches_naive() {
        let (m, n, k) = (5, 7, 9);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.5).collect();
        let mut c = vec![0.0; m * n];
        gemm_noprofile(m, n, k, &a, &b, &mut c);
        let expect = naive(m, n, k, &a, &b);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_path_matches_naive() {
        // Dimensions chosen to exceed BLOCKED_MIN_VOLUME and to exercise
        // ragged MR/NR/KC/MC/NC edges.
        let (m, n, k) = (131, 73, 301);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.5).collect();
        let mut c = vec![0.0; m * n];
        gemm_noprofile(m, n, k, &a, &b, &mut c);
        let expect = naive(m, n, k, &a, &b);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 2e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn simd_and_scalar_blocked_are_bit_identical() {
        let (m, n, k) = (131, 73, 301);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.5).collect();
        crate::simd::set_simd_enabled(true);
        let mut c_fast = vec![0.0; m * n];
        gemm_noprofile(m, n, k, &a, &b, &mut c_fast);
        crate::simd::set_simd_enabled(false);
        let mut c_slow = vec![0.0; m * n];
        gemm_noprofile(m, n, k, &a, &b, &mut c_slow);
        crate::simd::set_simd_enabled(true);
        assert_eq!(
            c_fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c_slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn half_precision_gemm_tracks_f32_within_tolerance() {
        let (m, n, k) = (33, 29, 70);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.03).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.05).collect();
        let mut c32 = vec![0.0; m * n];
        gemm_noprofile(m, n, k, &a, &b, &mut c32);
        for prec in [ComputePrecision::F16, ComputePrecision::Bf16] {
            let prev = set_compute_precision(prec);
            let mut ch = vec![0.0; m * n];
            gemm_noprofile(m, n, k, &a, &b, &mut ch);
            set_compute_precision(prev);
            let tol: f32 = match prec {
                ComputePrecision::F16 => 0.05,
                _ => 0.3, // bf16 has 8 mantissa bits
            };
            for (x, y) in ch.iter().zip(c32.iter()) {
                assert!((x - y).abs() < tol.max(y.abs() * tol), "{prec:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn half_precision_gemm_is_bit_identical_across_simd_levels() {
        let (m, n, k) = (37, 41, 90);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 29 % 13) as f32 - 6.0) * 0.06).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 23 % 9) as f32 - 4.0) * 0.04).collect();
        for prec in [ComputePrecision::F16, ComputePrecision::Bf16] {
            let prev = set_compute_precision(prec);
            crate::simd::set_simd_enabled(true);
            let mut c_fast = vec![0.0; m * n];
            gemm_noprofile(m, n, k, &a, &b, &mut c_fast);
            crate::simd::set_simd_enabled(false);
            let mut c_slow = vec![0.0; m * n];
            gemm_noprofile(m, n, k, &a, &b, &mut c_slow);
            crate::simd::set_simd_enabled(true);
            set_compute_precision(prev);
            assert_eq!(
                c_fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                c_slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{prec:?}"
            );
        }
    }

    #[test]
    fn accumulates_into_c() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let mut c = vec![10.0];
        gemm_noprofile(1, 1, 2, &a, &b, &mut c);
        assert_eq!(c[0], 10.0 + 3.0 + 8.0);
    }

    #[test]
    fn transposed_variants_match() {
        let (m, n, k) = (4, 6, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32).cos()).collect();
        let expect = naive(m, n, k, &a, &b);

        // a stored transposed (k×m)
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c1 = vec![0.0; m * n];
        gemm_at_b(m, n, k, &at, &b, &mut c1);

        // b stored transposed (n×k)
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c2 = vec![0.0; m * n];
        gemm_a_bt(m, n, k, &a, &bt, &mut c2);

        for ((x, y), z) in c1.iter().zip(c2.iter()).zip(expect.iter()) {
            assert!((x - z).abs() < 1e-4);
            assert!((y - z).abs() < 1e-4);
        }
    }

    #[test]
    fn transposed_variants_match_on_blocked_shapes() {
        let (m, n, k) = (67, 129, 200);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 31 % 23) as f32 - 11.0) * 0.1).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 17 % 19) as f32 - 9.0) * 0.1).collect();
        let expect = naive(m, n, k, &a, &b);

        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c1 = vec![0.0; m * n];
        gemm_at_b(m, n, k, &at, &b, &mut c1);

        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c2 = vec![0.0; m * n];
        gemm_a_bt(m, n, k, &a, &bt, &mut c2);

        for ((x, y), z) in c1.iter().zip(c2.iter()).zip(expect.iter()) {
            assert!((x - z).abs() < 2e-2, "{x} vs {z}");
            assert!((y - z).abs() < 2e-2, "{y} vs {z}");
        }
    }

    #[test]
    fn strided_accumulation_hits_only_the_submatrix() {
        // C is a 6×10 buffer; accumulate a 4×3 product at column offset 5.
        let (m, n, k) = (4, 3, 2);
        let ldc = 10;
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 + 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.5).collect();
        let mut c = vec![1.0f32; 6 * ldc];
        let expect = naive(m, n, k, &a, &b);
        gemm_strided(m, n, k, &a, &b, &mut c[5..], ldc);
        for i in 0..6 {
            for j in 0..ldc {
                let v = c[i * ldc + j];
                if i < m && (5..5 + n).contains(&j) {
                    assert!((v - 1.0 - expect[i * n + (j - 5)]).abs() < 1e-5, "({i},{j}) = {v}");
                } else {
                    assert_eq!(v, 1.0, "({i},{j}) must be untouched");
                }
            }
        }
    }

    #[test]
    fn gemm_panels_matches_dense_on_strided_output() {
        // Same product through gemm_panels (blocked, PanelSource) and the
        // plain dense entry must agree; output goes through a wider buffer.
        let (m, n, k) = (23, 19, 35);
        let ldc = 31;
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 11 % 29) as f32 - 14.0) * 0.07).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 5 % 31) as f32 - 15.0) * 0.05).collect();
        let expect = naive(m, n, k, &a, &b);
        let src = SliceB { b: &b, layout: Layout::Normal, n, ld: n };
        let mut c = vec![0.0f32; m * ldc];
        gemm_panels(m, n, k, &a, Layout::Normal, &src, &mut c, ldc, ComputePrecision::F32);
        for i in 0..m {
            for j in 0..n {
                let got = c[i * ldc + j];
                let want = expect[i * n + j];
                assert!((got - want).abs() < 1e-3, "({i},{j}): {got} vs {want}");
            }
            for j in n..ldc {
                assert_eq!(c[i * ldc + j], 0.0, "({i},{j}) must be untouched");
            }
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm_noprofile(0, 0, 0, &[], &[], &mut c);
        let mut c2 = vec![5.0; 4];
        gemm_noprofile(2, 2, 0, &[], &[], &mut c2);
        assert_eq!(c2, vec![5.0; 4]);
    }
}
