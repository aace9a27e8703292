//! 2-D convolution (forward and backward), with stride, padding and
//! dilation.
//!
//! Dilation ("atrous convolution") is what lets DeepLabv3+'s encoder and
//! ASPP block see large receptive fields without downsampling — the green
//! layers of the paper's Figure 1 use dilations 2, 4, 12, 24 and 36.
//!
//! Two algorithms are provided, mirroring the paper's observation (§VI)
//! that cuDNN executed all convolutions as either *direct* convolutions or
//! *implicit GEMMs*: [`ConvAlgo::Direct`] and [`ConvAlgo::Auto`], the
//! implicit GEMM. Both count the same `2·N·K·C·R·S·Ho·Wo` FLOPs. The
//! implicit GEMM is the route every layer takes, at every shape; the direct
//! loop nest is the reference route that tests name explicitly.
//!
//! The im2col-GEMM path is a true *implicit* GEMM: the patch matrix is
//! never materialized, and at unit stride most of it is never even
//! packed. A `B` micro-panel of eight pixels on one output row is, for
//! each patch row `(ci, ri, si)`, eight contiguous floats of the input —
//! so once a padded convolution is rewritten as the unpadded one over a
//! zero-bordered copy of each image (`im2col_gemm` stages it, once per
//! image), the micro-kernel reads those rows where they lie
//! (`PanelSource::in_place_panel`). The remaining panels — those that
//! straddle output rows, strided convolutions and the weight-gradient
//! orientation — are packed by `Im2colB`, computing each element straight from the input,
//! so the only intermediate storage is the cache-resident panel itself.
//! Parallelism comes from the GEMM's own output-tile grid (disjoint `C`
//! regions, fixed accumulation order — bit-identical at any thread count),
//! not from a separate pack phase.
//!
//! Backward runs through the same machinery. The weight gradient is
//! `∂y·colᵀ` with the patch matrix again packed on the fly. The data
//! gradient takes one of two routes, chosen by the shape alone:
//! * **stride 1, square kernel, `pad ≤ dilation·(r−1)`** — every stride-1
//!   layer of both networks: `∂x` is the forward convolution of `∂y` with
//!   the flipped kernel at pad `dilation·(r−1) − pad`, the very
//!   `im2col_gemm` the forward runs; a 1×1 kernel reads `W` transposed in
//!   place instead of copying it;
//! * **everything else** — strided convolutions, and pads past
//!   `dilation·(r−1)`, where the flipped convolution would need a negative
//!   pad: `Wᵀ·∂y` per pixel strip followed by a col2im scatter
//!   (`transposed_gemm_col2im`, which is also the whole of a transposed
//!   convolution's forward pass).
//!
//! The strip route is the slower one wherever both apply: its GEMM is only
//! `K` deep (6–32 in the tiny networks) and writes a `C·R·S`-row column
//! strip, nine times the input at 3×3, that col2im then reads back. Median
//! of 41 on a 2-vCPU host, 32→32 3×3 on 48×72: the strip route's `∂x` took
//! 2.03 ms against the forward's 1.19 ms for the same FLOPs; at Tiramisu's
//! 30→6 3×3, 1.27 ms against 0.56 ms. The two
//! routes sum each `∂x` element's `K·R·S` products in different orders (one
//! GEMM chain against `R·S` partial sums), so they agree to rounding; the
//! 1×1 route is bit-identical to the strip route.
//!
//! The packers and the scatter walk output rows, not elements: a panel's
//! pixels (or a patch row's tap) are decomposed once, bounds are resolved
//! per row stretch, and the inner loops are contiguous copies and adds —
//! no division and no branch per element. With that the GEMM route costs
//! what its GEMM costs (forward within 1.0–1.8× of the dense product of
//! the same shape, best of 30 on a 2-vCPU host), which is why the direct
//! route lost at every shape measured: 17–18× slower at 32→32 and 64→32
//! channels on 48×72, 8–13× for the 6- to 16-wide 3×3 and 7×7 layers of
//! the tiny networks, and still 3–8× for narrow inputs (1→4 and 4→4 on
//! 8×8, 3→16 and 12→6 on 48×72). Both routes accumulate each output with
//! one fused multiply-add per `(ci, ri, si)` tap, in that order; the GEMM
//! restarts its sum at every `KC`-deep panel of patch rows, so the two
//! agree bit for bit where `C·R·S ≤ KC` and to rounding beyond.

use crate::ops::gemm::{gemm_panels, Layout, PanelSource, SliceB};
use crate::pool;
use crate::profile::{self, KernelKind};
use crate::shape::conv_out_dim;
use crate::simd::NR;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Spatial stride (same in H and W).
    pub stride: usize,
    /// Zero padding (same in H and W).
    pub pad: usize,
    /// Dilation factor (1 = ordinary convolution).
    pub dilation: usize,
}

impl Conv2dParams {
    /// Unit-stride convolution with the given padding.
    pub fn padded(pad: usize) -> Conv2dParams {
        Conv2dParams { stride: 1, pad, dilation: 1 }
    }

    /// `same`-size 3×3-style convolution with dilation `d` (pad = d).
    pub fn atrous(d: usize) -> Conv2dParams {
        Conv2dParams { stride: 1, pad: d, dilation: d }
    }

    /// Strided convolution with the given padding.
    pub fn strided(stride: usize, pad: usize) -> Conv2dParams {
        Conv2dParams { stride, pad, dilation: 1 }
    }
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams { stride: 1, pad: 0, dilation: 1 }
    }
}

/// Convolution algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvAlgo {
    /// What every layer passes: the implicit GEMM — the blocked GEMM with
    /// im2col patches read in place or packed straight into its `B`
    /// micro-panels (`Im2colB`), so the patch matrix is never
    /// materialized — for every shape. There is no per-shape choice left
    /// to make: the direct route measured 3–18× slower on every shape
    /// tried, narrow inputs included (see the module doc).
    Auto,
    /// Seven-loop direct convolution: the reference route, with the
    /// GEMM's fused multiply-add as its arithmetic. Tests compare the GEMM
    /// route against it; no layer, model, trainer or server selects it.
    Direct,
}

/// FLOPs of one convolution pass per the paper's Section VI convention.
pub fn conv_flops(n: usize, k: usize, c: usize, r: usize, s: usize, ho: usize, wo: usize) -> u64 {
    2 * (n as u64) * (k as u64) * (c as u64) * (r as u64) * (s as u64) * (ho as u64) * (wo as u64)
}

fn record_conv(name: &'static str, flops: u64, read: &[&Tensor], written: &Tensor) {
    profile::record(
        KernelKind::Conv,
        name,
        flops,
        read.iter().map(|t| t.storage_bytes() as u64).sum(),
        written.storage_bytes() as u64,
    );
}

/// Forward convolution.
///
/// * `x`: input `[N, C, H, W]`
/// * `w`: weights `[K, C, R, S]`
///
/// Returns `[N, K, Ho, Wo]` in `x`'s precision.
///
/// # Panics
/// Panics if channel counts disagree or the kernel does not fit the padded
/// input.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, p: Conv2dParams, algo: ConvAlgo) -> Tensor {
    let (n, c, h, wd) = x.shape().nchw();
    let (k, cw, r, s) = w.shape().nchw();
    assert_eq!(c, cw, "conv2d: input has {c} channels but weight expects {cw}");
    let ho = conv_out_dim(h, r, p.stride, p.pad, p.dilation);
    let wo = conv_out_dim(wd, s, p.stride, p.pad, p.dilation);
    let mut y = Tensor::zeros([n, k, ho, wo], x.dtype());

    match algo {
        ConvAlgo::Auto => im2col_gemm(
            x.as_slice(),
            (n, c, h, wd),
            w.as_slice(),
            k,
            (r, s),
            (ho * wo, wo),
            p,
            y.as_mut_slice(),
        ),
        ConvAlgo::Direct => forward_direct(x, w, p, &mut y),
    }
    y.requantize();
    record_conv("conv2d_fwd", conv_flops(n, k, c, r, s, ho, wo), &[x, w], &y);
    y
}

fn forward_direct(x: &Tensor, w: &Tensor, p: Conv2dParams, y: &mut Tensor) {
    let (_n, c, h, wd) = x.shape().nchw();
    let (k, _, r, s) = w.shape().nchw();
    let (_, _, ho, wo) = y.shape().nchw();
    let xs = x.as_slice();
    let ws = w.as_slice();
    let ys = y.as_mut_slice();
    // Each (n, k) output plane is written by exactly one task.
    ys.par_chunks_mut(ho * wo).enumerate().for_each(|(plane, yp)| {
        let ni = plane / k;
        let ki = plane % k;
        for ci in 0..c {
            let xbase = (ni * c + ci) * h * wd;
            let wbase = ((ki * c + ci) * r) * s;
            for ri in 0..r {
                for si in 0..s {
                    let wv = ws[wbase + ri * s + si];
                    if wv == 0.0 {
                        continue;
                    }
                    for hoi in 0..ho {
                        let hi = (hoi * p.stride + ri * p.dilation) as isize - p.pad as isize;
                        if hi < 0 || hi >= h as isize {
                            continue;
                        }
                        let xrow = xbase + hi as usize * wd;
                        let yrow = hoi * wo;
                        for woi in 0..wo {
                            let wi = (woi * p.stride + si * p.dilation) as isize - p.pad as isize;
                            if wi < 0 || wi >= wd as isize {
                                continue;
                            }
                            yp[yrow + woi] = wv.mul_add(xs[xrow + wi as usize], yp[yrow + woi]);
                        }
                    }
                }
            }
        }
    });
}

/// Scatters the receptive field of image `ni` into `col[C·R·S, Ho·Wo]`.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn im2col(
    xs: &[f32],
    ni: usize,
    c: usize,
    h: usize,
    wd: usize,
    r: usize,
    s: usize,
    ho: usize,
    wo: usize,
    p: Conv2dParams,
    col: &mut [f32],
) {
    col.iter_mut().for_each(|v| *v = 0.0);
    for ci in 0..c {
        let xbase = (ni * c + ci) * h * wd;
        for ri in 0..r {
            for si in 0..s {
                let crow = ((ci * r + ri) * s + si) * ho * wo;
                for hoi in 0..ho {
                    let hi = (hoi * p.stride + ri * p.dilation) as isize - p.pad as isize;
                    if hi < 0 || hi >= h as isize {
                        continue;
                    }
                    let xrow = xbase + hi as usize * wd;
                    for woi in 0..wo {
                        let wi = (woi * p.stride + si * p.dilation) as isize - p.pad as isize;
                        if wi < 0 || wi >= wd as isize {
                            continue;
                        }
                        col[crow + hoi * wo + woi] = xs[xrow + wi as usize];
                    }
                }
            }
        }
    }
}

/// Pixels per strip of `transposed_gemm_col2im` (the data gradient of a
/// strided convolution or of one padded past `dilation·(r−1)`, and the
/// transposed-convolution forward). Bounds the column buffer at
/// `C·R·S·COL_STRIP` floats regardless of image size — a full 1152×768
/// paper tile with 48·3·3 patch rows would otherwise need a ~1.5 GB
/// buffer. Fixed (not thread-count-dependent), so the strip partitioning
/// and hence the floating-point evaluation order never change. (The
/// convolution forward and the stride-1 data gradient need no strip: both
/// are `im2col_gemm`, whose patch matrix is packed on the fly.)
pub(crate) const COL_STRIP: usize = 8192;

/// [`PanelSource`] that packs im2col patch values straight into GEMM `B`
/// micro-panels, or lets the GEMM read them in place — the patch matrix
/// `col[C·R·S, Ho·Wo]` is never stored.
///
/// Two orientations cover both convolution GEMMs:
/// * forward / data-gradient shape (`by_pixel_depth = false`): logical
///   `B = col` — depth index is the patch row `(ci, ri, si)`, columns are
///   output pixels;
/// * weight-gradient shape (`by_pixel_depth = true`): logical `B = colᵀ` —
///   depth index is the output pixel, columns are patch rows.
///
/// `h`/`wd` and `wo` are independent: transposed-convolution backward reads
/// an `h×wd` map through an output grid that no forward convolution of it
/// would produce, so every bound is tested against the map itself.
pub(crate) struct Im2colB<'a> {
    /// Backing tensor data (whole batch).
    pub(crate) xs: &'a [f32],
    /// Offset of this image's first element.
    pub(crate) xbase: usize,
    pub(crate) h: usize,
    pub(crate) wd: usize,
    pub(crate) r: usize,
    pub(crate) s: usize,
    /// Output width (decomposes a pixel index into `(hoi, woi)`).
    pub(crate) wo: usize,
    /// Logical column count (pixels, or `C·R·S` when `by_pixel_depth`).
    pub(crate) ncols: usize,
    pub(crate) p: Conv2dParams,
    pub(crate) by_pixel_depth: bool,
}

/// One kernel tap `(ri, si)` seen from the output grid: output pixel
/// `(hoi, woi)` reads (im2col) or scatters to (col2im) the map position
/// `(hoi·stride + dh, woi·stride + dw)`, which lies inside the `h×wd` map
/// for `woi` in `[t_lo, t_hi)` on the output rows whose `hi` is in range.
/// Resolving the column bounds here, once per tap, is what lets both the
/// weight-gradient pack and the col2im scatter run branch-free inner loops.
struct Tap {
    h: usize,
    wd: usize,
    wo: usize,
    stride: usize,
    dh: isize,
    dw: isize,
    t_lo: usize,
    t_hi: usize,
}

impl Tap {
    fn new(h: usize, wd: usize, wo: usize, p: Conv2dParams, ri: usize, si: usize) -> Tap {
        let dh = (ri * p.dilation) as isize - p.pad as isize;
        let dw = (si * p.dilation) as isize - p.pad as isize;
        // 0 ≤ t·stride + dw < wd, clamped to the output row.
        let t_lo = ((-dw).max(0) as usize).div_ceil(p.stride).min(wo);
        let t_hi = ((wd as isize - dw).max(0) as usize).div_ceil(p.stride).min(wo);
        Tap { h, wd, wo, stride: p.stride, dh, dw, t_lo, t_hi }
    }

    /// Walks the `len` consecutive output pixels starting at `(hoi, woi)`
    /// one output row at a time and calls `f(off, at, run)` for each
    /// stretch whose tap is inside the map: `off` is the stretch's first
    /// pixel counted from the start of the walk, `at` the plane offset
    /// `hi·wd + wi` it maps to, `run` its length; successive pixels of a
    /// stretch are `stride` apart in the plane. Pixels not visited have
    /// their tap in the padding.
    #[inline]
    fn for_each_run(&self, mut hoi: usize, mut woi: usize, len: usize, mut f: impl FnMut(usize, usize, usize)) {
        let mut off = 0;
        while off < len {
            let seg = (self.wo - woi).min(len - off);
            let hi = (hoi * self.stride) as isize + self.dh;
            let (t0, t1) = (self.t_lo.max(woi), self.t_hi.min(woi + seg));
            if hi >= 0 && hi < self.h as isize && t0 < t1 {
                let wi = (t0 * self.stride) as isize + self.dw;
                f(off + (t0 - woi), hi as usize * self.wd + wi as usize, t1 - t0);
            }
            off += seg;
            woi = 0;
            hoi += 1;
        }
    }
}

impl Im2colB<'_> {
    /// The im2col element at (patch row `crow`, output pixel `pixel`),
    /// zero for receptive-field positions that fall in the padding. The
    /// definition the row-wise packers below are tested against.
    #[cfg(test)]
    fn patch(&self, crow: usize, pixel: usize) -> f32 {
        let si = crow % self.s;
        let ri = (crow / self.s) % self.r;
        let ci = crow / (self.r * self.s);
        let hoi = pixel / self.wo;
        let woi = pixel % self.wo;
        let hi = (hoi * self.p.stride + ri * self.p.dilation) as isize - self.p.pad as isize;
        let wi = (woi * self.p.stride + si * self.p.dilation) as isize - self.p.pad as isize;
        if hi >= 0 && hi < self.h as isize && wi >= 0 && wi < self.wd as isize {
            self.xs[self.xbase + ci * self.h * self.wd + hi as usize * self.wd + wi as usize]
        } else {
            0.0
        }
    }

    /// Patch row `crow` as its `(ci, ri, si)`.
    fn tap_of(&self, crow: usize) -> (usize, usize, usize) {
        (crow / (self.r * self.s), crow / self.s % self.r, crow % self.s)
    }

    /// The `(ci, ri, si)` of patch rows `crow, crow+1, …`, advanced
    /// incrementally: no division per row.
    fn taps_from(&self, crow: usize) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        std::iter::successors(Some(self.tap_of(crow)), |&(ci, ri, si)| {
            Some(match (si + 1 == self.s, ri + 1 == self.r) {
                (false, _) => (ci, ri, si + 1),
                (true, false) => (ci, ri + 1, 0),
                (true, true) => (ci + 1, 0, 0),
            })
        })
    }

    /// Whether panels may be read in place: the forward orientation at
    /// unit stride over an unpadded map (a padded convolution reads a
    /// zero-bordered copy instead, see `im2col_gemm`).
    fn reads_in_place(&self) -> bool {
        !self.by_pixel_depth && self.p.stride == 1 && self.p.pad == 0
    }

    /// Depth = patch rows `[pc, pc+kc)`, columns = the `NR` pixels from
    /// `j0` (logical `col`). The pixels are decomposed once per panel and
    /// `(ci, ri, si)` advances incrementally down the depth rows, so no
    /// element costs a division; a panel of eight live pixels on one
    /// output row at unit stride takes each tap row as one contiguous copy.
    fn pack_pixels(&self, j0: usize, pc: usize, kc: usize, panel: &mut [f32]) {
        let (st, dil) = (self.p.stride, self.p.dilation);
        let pad = self.p.pad as isize;
        let live = NR.min(self.ncols.saturating_sub(j0));
        // Map position of each live pixel's (ri, si) = (0, 0) tap.
        let (mut hoi, mut woi) = (j0 / self.wo, j0 % self.wo);
        let one_row = live == NR && st == 1 && woi + NR <= self.wo;
        let (mut h0, mut w0) = ([0isize; NR], [0isize; NR]);
        for j in 0..live {
            h0[j] = (hoi * st) as isize - pad;
            w0[j] = (woi * st) as isize - pad;
            woi += 1;
            if woi == self.wo {
                woi = 0;
                hoi += 1;
            }
        }
        let (h, wd) = (self.h as isize, self.wd as isize);
        for (row, (ci, ri, si)) in panel[..kc * NR].chunks_exact_mut(NR).zip(self.taps_from(pc)) {
            let plane = &self.xs[self.xbase + ci * self.h * self.wd..][..self.h * self.wd];
            let (dh, dw) = ((ri * dil) as isize, (si * dil) as isize);
            let (hi, wi) = (h0[0] + dh, w0[0] + dw);
            if one_row && (hi < 0 || hi >= h) {
                row.fill(0.0);
            } else if one_row && wi >= 0 && wi + NR as isize <= wd {
                let at = (hi * wd + wi) as usize;
                row.copy_from_slice(&plane[at..at + NR]);
            } else {
                for j in 0..NR {
                    let (hi, wi) = (h0[j] + dh, w0[j] + dw);
                    let inside = j < live && hi >= 0 && hi < h && wi >= 0 && wi < wd;
                    row[j] = if inside { plane[(hi * wd + wi) as usize] } else { 0.0 };
                }
            }
        }
    }

    /// Depth = output pixels `[pc, pc+kc)`, columns = the `NR` patch rows
    /// from `j0` (logical `colᵀ`). Each patch row is decomposed once and
    /// its pixels are walked by output-row stretches ([`Tap::for_each_run`]).
    fn pack_patch_rows(&self, j0: usize, pc: usize, kc: usize, panel: &mut [f32]) {
        let panel = &mut panel[..kc * NR];
        // Padding taps and columns past `ncols` are never visited below.
        panel.fill(0.0);
        let (hoi, woi) = (pc / self.wo, pc % self.wo);
        let st = self.p.stride;
        for j in 0..NR.min(self.ncols.saturating_sub(j0)) {
            let (ci, ri, si) = self.tap_of(j0 + j);
            let plane = &self.xs[self.xbase + ci * self.h * self.wd..][..self.h * self.wd];
            let tap = Tap::new(self.h, self.wd, self.wo, self.p, ri, si);
            tap.for_each_run(hoi, woi, kc, |off, at, run| {
                let rows = panel[off * NR..(off + run) * NR].chunks_exact_mut(NR);
                if st == 1 {
                    for (row, &v) in rows.zip(&plane[at..at + run]) {
                        row[j] = v;
                    }
                } else {
                    for (row, &v) in rows.zip(plane[at..].iter().step_by(st)) {
                        row[j] = v;
                    }
                }
            });
        }
    }
}

impl PanelSource for Im2colB<'_> {
    fn pack_panel(&self, j0: usize, pc: usize, kc: usize, panel: &mut [f32]) {
        debug_assert!(panel.len() >= kc * NR);
        if self.by_pixel_depth {
            self.pack_patch_rows(j0, pc, kc, panel);
        } else {
            self.pack_pixels(j0, pc, kc, panel);
        }
    }

    /// Patch row `(ci, ri, si)` of a panel whose pixels start at map
    /// position `(hoi, woi)` is the `NR` floats at `(hoi + ri·dil,
    /// woi + si·dil)` of plane `ci`: its offset from the panel's first
    /// float depends on the row alone, and ascends with it.
    fn in_place_rows(&self, pc: usize, kc: usize, offs: &mut [usize]) -> Option<&[f32]> {
        if !self.reads_in_place() {
            return None;
        }
        let dil = self.p.dilation;
        for (o, (ci, ri, si)) in offs[..kc].iter_mut().zip(self.taps_from(pc)) {
            *o = ci * self.h * self.wd + ri * dil * self.wd + si * dil;
        }
        Some(self.xs)
    }

    /// Eight live pixels on one output row, every tap row of which lies
    /// inside the map: the rows no bound clips, so in place they are
    /// exactly what [`Im2colB::pack_pixels`] copies.
    fn in_place_panel(&self, j0: usize) -> Option<usize> {
        let (hoi, woi) = (j0 / self.wo, j0 % self.wo);
        let dil = self.p.dilation;
        let fits = self.reads_in_place()
            && j0 + NR <= self.ncols
            && woi + NR <= self.wo
            && hoi + (self.r - 1) * dil < self.h
            && woi + (self.s - 1) * dil + NR <= self.wd;
        fits.then(|| self.xbase + hoi * self.wd + woi)
    }
}

/// `dst_n[M, npix] += A[M, C·R·S] · col(src_n)` for each of the `n` images
/// `src_n[C, h·wd]`: the implicit-GEMM convolution, `col` being the patches
/// of `src_n` read through a `wo`-wide output grid of `npix` pixels, and
/// never stored.
///
/// Three products are this one: a convolution's forward (`src = x`,
/// `A = W`), a stride-1 convolution's data gradient (`src = ∂y`, `A` the
/// flipped kernel, see [`conv2d_backward`]) and a transposed convolution's
/// data gradient (`src = ∂y`, `A = W`).
///
/// At unit stride a padded convolution is the unpadded
/// one over a zero-bordered copy of each image, staged once per image in
/// one scratch: over that copy, every `B` panel whose eight pixels lie on
/// one output row is read in place by the micro-kernel
/// (`PanelSource::in_place_panel`) and never packed. The copy's border is
/// the same `+0.0` the packer writes for padding, so the bits do not
/// change. Other panels and strided convolutions are packed by
/// `Im2colB`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_gemm(
    src: &[f32],
    (n, c, h, wd): (usize, usize, usize, usize),
    a: &[f32],
    m: usize,
    (r, s): (usize, usize),
    (npix, wo): (usize, usize),
    p: Conv2dParams,
    dst: &mut [f32],
) {
    let crs = c * r * s;
    let pad = p.pad;
    let stage = p.stride == 1 && pad > 0;
    let (hs, ws) = (h + 2 * pad, wd + 2 * pad);
    let mut staged = if stage { pool::take_zeroed(c * hs * ws) } else { Vec::new() };
    // Images run serially; all parallelism is the GEMM's output-tile grid,
    // which partitions the (M × npix) output — not the pack — so wide
    // images scale with threads and small shapes stay on one thread.
    for ni in 0..n {
        let xbase = ni * c * h * wd;
        let mut col = Im2colB { xs: src, xbase, h, wd, r, s, wo, ncols: npix, p, by_pixel_depth: false };
        if stage {
            stage_padded(&src[xbase..xbase + c * h * wd], (h, wd), pad, &mut staged);
            col = Im2colB { xs: &staged, xbase: 0, h: hs, wd: ws, p: Conv2dParams { pad: 0, ..p }, ..col };
        }
        let dst_n = &mut dst[ni * m * npix..(ni + 1) * m * npix];
        gemm_panels(m, npix, crs, a, Layout::Normal, &col, dst_n, npix);
    }
    pool::recycle(staged);
}

/// Copies each `h×wd` plane of `image` into the interior of the
/// `(h+2·pad)×(wd+2·pad)` planes of `staged`; the zero border is never
/// written, so it stays zero from image to image.
fn stage_padded(image: &[f32], (h, wd): (usize, usize), pad: usize, staged: &mut [f32]) {
    let ws = wd + 2 * pad;
    for (plane, splane) in image.chunks_exact(h * wd).zip(staged.chunks_exact_mut((h + 2 * pad) * ws)) {
        for (row, srow) in plane.chunks_exact(wd).zip(splane[pad * ws..].chunks_exact_mut(ws)) {
            srow[pad..pad + wd].copy_from_slice(row);
        }
    }
}

/// col2im: scatter-adds the column-gradient strip `strip[C·R·S, sw]`
/// (output pixels `[p0, p0+sw)`) into the image gradient `gxn[C, h·wd]`.
///
/// One task per input channel — each owns patch rows `(ci·r+ri)·s+si` and
/// the `ci` plane, so writes are disjoint and the per-element order (strips
/// ascending, then `ri`, `si`, pixel) is thread-independent. Within one
/// patch row every pixel lands on a different element, so a stretch of an
/// output row is a plain `dst += src` over a contiguous (unit stride) or
/// strided destination.
#[allow(clippy::too_many_arguments)]
fn col2im_add(
    strip: &[f32],
    p0: usize,
    sw: usize,
    gxn: &mut [f32],
    (h, wd): (usize, usize),
    (r, s): (usize, usize),
    wo: usize,
    p: Conv2dParams,
) {
    let (hoi, woi) = (p0 / wo, p0 % wo);
    gxn.par_chunks_mut(h * wd).enumerate().for_each(|(ci, gxp)| {
        for ri in 0..r {
            for si in 0..s {
                let rowbase = ((ci * r + ri) * s + si) * sw;
                let src = &strip[rowbase..rowbase + sw];
                Tap::new(h, wd, wo, p, ri, si).for_each_run(hoi, woi, sw, |off, at, run| {
                    let src = &src[off..off + run];
                    if p.stride == 1 {
                        for (d, &g) in gxp[at..at + run].iter_mut().zip(src) {
                            *d += g;
                        }
                    } else {
                        for (d, &g) in gxp[at..].iter_mut().step_by(p.stride).zip(src) {
                            *d += g;
                        }
                    }
                });
            }
        }
    });
}

/// `dst_n[C, h·wd] += col2im(Wᵀ[C·R·S, K] · src_n[K, npix])` for each of
/// the `n` images: the transpose of a convolution's forward GEMM, one
/// [`COL_STRIP`] of `src` pixels at a time, each strip scattered by
/// [`col2im_add`] through the `wo`-wide pixel grid `src` is laid out on.
///
/// This one product is both the data gradient of the convolutions the
/// flipped-kernel route cannot take (`src = ∂y`, `dst = ∂x`: strided
/// convolutions, and pads past `dilation·(r−1)`; see [`conv2d_backward`])
/// and a transposed convolution's forward pass (`src = x`, `dst = y` — the
/// deconv weight `[C_in, K_out, R, S]` is already the `[K, C·R·S]` matrix
/// read here). The scratch is `C·R·S·min(npix, COL_STRIP)` floats; the
/// result depends on `COL_STRIP`, never on the thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transposed_gemm_col2im(
    src: &[f32],
    (n, k, npix): (usize, usize, usize),
    ws: &[f32],
    dst: &mut [f32],
    (c, h, wd): (usize, usize, usize),
    (r, s): (usize, usize),
    wo: usize,
    p: Conv2dParams,
) {
    let crs = c * r * s;
    let mut col = pool::take_zeroed(crs * COL_STRIP.min(npix.max(1)));
    for ni in 0..n {
        let dst_n = &mut dst[ni * c * h * wd..(ni + 1) * c * h * wd];
        for p0 in (0..npix).step_by(COL_STRIP) {
            let sw = COL_STRIP.min(npix - p0);
            let strip = &mut col[..crs * sw];
            strip.fill(0.0);
            // col[C·R·S, sw] = Wᵀ[C·R·S, K] · src_n[K, p0..p0+sw]
            let src_n = SliceB {
                b: &src[ni * k * npix + p0..],
                layout: Layout::Normal,
                n: sw,
                ld: npix,
            };
            gemm_panels(crs, sw, k, ws, Layout::Transposed, &src_n, strip, sw);
            col2im_add(strip, p0, sw, dst_n, (h, wd), (r, s), wo, p);
        }
    }
    pool::recycle(col);
}

/// The flipped kernel `W̃[C, K, R, S]` of `W[K, C, R, S]`:
/// `W̃[c, k, R−1−ri, S−1−si] = W[k, c, ri, si]`, in a pool scratch the
/// caller recycles. Flipping both tap axes reverses the `R·S` taps of each
/// `(k, c)` filter, so each filter is one reversed copy.
fn flipped_kernel(ws: &[f32], (k, c, rs): (usize, usize, usize)) -> Vec<f32> {
    let mut flipped = pool::take_zeroed(k * c * rs);
    for (ki, filters) in ws.chunks_exact(c * rs).enumerate() {
        for (ci, taps) in filters.chunks_exact(rs).enumerate() {
            let dst = &mut flipped[(ci * k + ki) * rs..(ci * k + ki + 1) * rs];
            for (d, &v) in dst.iter_mut().zip(taps.iter().rev()) {
                *d = v;
            }
        }
    }
    flipped
}

/// Gradients of a convolution.
#[derive(Debug)]
pub struct ConvGrads {
    /// `∂L/∂x`, same shape as the input.
    pub grad_input: Tensor,
    /// `∂L/∂w`, same shape as the weights.
    pub grad_weight: Tensor,
}

/// Backward convolution: given `grad_out = ∂L/∂y`, computes input and
/// weight gradients.
///
/// Both gradients run through the packed blocked GEMM (inheriting its
/// blocking and SIMD micro-kernel). The weight
/// gradient is `∂y · colᵀ` with the patch matrix packed on the fly by
/// `Im2colB`. The data gradient's route follows from the shape alone:
/// * stride 1, `r == s` and `pad ≤ dilation·(r−1)`: the forward
///   convolution of `∂y` with the flipped kernel,
///   `∂x_n[C, H·W] = W̃[C, K·R·S] · col(∂y_n)` with
///   `W̃[c, k, R−1−ri, S−1−si] = W[k, c, ri, si]`, at stride 1, dilation
///   `dilation` and pad `dilation·(r−1) − pad` (`im2col_gemm`). `W̃` is
///   one `K·C·R·S` scratch per call. A 1×1 kernel (whose pad is then 0)
///   skips the copy: `∂x_n = Wᵀ · ∂y_n` with `W` read transposed.
/// * otherwise (strided convolutions; a pad the flipped convolution would
///   need to be negative; `r ≠ s`): `colᵍ = Wᵀ · ∂y` per pixel strip,
///   then a col2im scatter-add (`transposed_gemm_col2im`).
///
/// Image order, GEMM tiles, strip boundaries and scatter order are all
/// shape-derived, so results are bit-identical at any thread count.
pub fn conv2d_backward(x: &Tensor, w: &Tensor, grad_out: &Tensor, p: Conv2dParams) -> ConvGrads {
    let (n, c, h, wd) = x.shape().nchw();
    let (k, _, r, s) = w.shape().nchw();
    let (gn, gk, ho, wo) = grad_out.shape().nchw();
    assert_eq!((gn, gk), (n, k), "grad_out batch/channel mismatch");
    let crs = c * r * s;
    let hw = ho * wo;

    // --- grad wrt input -------------------------------------------------
    let mut gx = Tensor::zeros([n, c, h, wd], x.dtype());
    let (gos, ws, gxs) = (grad_out.as_slice(), w.as_slice(), gx.as_mut_slice());
    if p.stride == 1 && (r, s, p.pad) == (1, 1, 0) {
        for ni in 0..n {
            let gy_n = SliceB { b: &gos[ni * k * hw..(ni + 1) * k * hw], layout: Layout::Normal, n: hw, ld: hw };
            // ∂x_n[C, H·W] += Wᵀ[C, K] · ∂y_n[K, H·W]
            gemm_panels(c, hw, k, ws, Layout::Transposed, &gy_n, &mut gxs[ni * c * hw..(ni + 1) * c * hw], hw);
        }
    } else if p.stride == 1 && r == s && p.pad <= p.dilation * (r - 1) {
        let flipped = flipped_kernel(ws, (k, c, r * s));
        let full = Conv2dParams { stride: 1, pad: p.dilation * (r - 1) - p.pad, dilation: p.dilation };
        im2col_gemm(gos, (n, k, ho, wo), &flipped, c, (r, s), (h * wd, wd), full, gxs);
        pool::recycle(flipped);
    } else {
        transposed_gemm_col2im(gos, (n, k, hw), ws, gxs, (c, h, wd), (r, s), wo, p);
    }
    gx.requantize();
    record_conv(
        "conv2d_bwd_data",
        conv_flops(n, k, c, r, s, ho, wo),
        &[grad_out, w],
        &gx,
    );

    // --- grad wrt weights (always f32 master precision) ------------------
    let mut gw = Tensor::zeros([k, c, r, s], crate::tensor::DType::F32);
    {
        let gos = grad_out.as_slice();
        let xs = x.as_slice();
        let gws = gw.as_mut_slice();
        for ni in 0..n {
            let src = Im2colB {
                xs,
                xbase: ni * c * h * wd,
                h,
                wd,
                r,
                s,
                wo,
                ncols: crs,
                p,
                by_pixel_depth: true,
            };
            // Wᵍ[K, C·R·S] += ∂y_n[K, Ho·Wo] · col[C·R·S, Ho·Wo]ᵀ
            gemm_panels(k, crs, hw, &gos[ni * k * hw..(ni + 1) * k * hw], Layout::Normal, &src, gws, crs);
        }
    }
    record_conv(
        "conv2d_bwd_weight",
        conv_flops(n, k, c, r, s, ho, wo),
        &[grad_out, x],
        &gw,
    );

    ConvGrads { grad_input: gx, grad_weight: gw }
}

/// Weight gradient through the materialized patch matrix and a dense
/// `gemm_a_bt`: the oracle the implicit (packed on the fly) route is tested
/// against.
#[cfg(test)]
fn conv2d_weight_grad_gemm(x: &Tensor, grad_out: &Tensor, kshape: (usize, usize, usize, usize), p: Conv2dParams) -> Tensor {
    let (n, c, h, wd) = x.shape().nchw();
    let (k, ck, r, s) = kshape;
    assert_eq!(c, ck);
    let (_, _, ho, wo) = grad_out.shape().nchw();
    let crs = c * r * s;
    let mut gw = pool::take_zeroed(k * crs);
    let xs = x.as_slice();
    let gos = grad_out.as_slice();
    let mut col = pool::take_zeroed(crs * ho * wo);
    for ni in 0..n {
        im2col(xs, ni, c, h, wd, r, s, ho, wo, p, &mut col);
        // gw[k, crs] += gout_n[k, howo] · col[crs, howo]ᵀ
        crate::ops::gemm::gemm_a_bt(k, crs, ho * wo, &gos[ni * k * ho * wo..(ni + 1) * k * ho * wo], &col, &mut gw);
    }
    pool::recycle(col);
    Tensor::from_pool([k, c, r, s], crate::tensor::DType::F32, gw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use crate::tensor::DType;

    fn small_case() -> (Tensor, Tensor) {
        let mut rng = seeded_rng(100);
        let x = randn([2, 3, 6, 5], DType::F32, 1.0, &mut rng);
        let w = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);
        (x, w)
    }

    #[test]
    fn hand_computed_1x1() {
        // 1 image, 2 channels, 2×2; 1 output channel with weights [2, -1].
        let x = Tensor::from_vec([1, 2, 2, 2], DType::F32, vec![
            1.0, 2.0, 3.0, 4.0, // channel 0
            5.0, 6.0, 7.0, 8.0, // channel 1
        ]);
        let w = Tensor::from_vec([1, 2, 1, 1], DType::F32, vec![2.0, -1.0]);
        let y = conv2d_forward(&x, &w, Conv2dParams::default(), ConvAlgo::Direct);
        assert_eq!(y.as_slice(), &[-3.0, -2.0, -1.0, 0.0]);
    }

    #[test]
    fn hand_computed_3x3_valid() {
        // 3×3 ones kernel over 4×4 ramp, no padding → sums of 3×3 windows.
        let x = Tensor::from_vec([1, 1, 4, 4], DType::F32, (0..16).map(|i| i as f32).collect());
        let w = Tensor::full([1, 1, 3, 3], DType::F32, 1.0);
        let y = conv2d_forward(&x, &w, Conv2dParams::default(), ConvAlgo::Direct);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[45.0, 54.0, 81.0, 90.0]);
    }

    #[test]
    fn direct_and_im2col_agree() {
        let (x, w) = small_case();
        for p in [
            Conv2dParams::default(),
            Conv2dParams::padded(1),
            Conv2dParams::strided(2, 1),
            Conv2dParams::atrous(2),
        ] {
            let a = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
            let b = conv2d_forward(&x, &w, p, ConvAlgo::Auto);
            assert_eq!(a.shape(), b.shape());
            for (u, v) in a.as_slice().iter().zip(b.as_slice().iter()) {
                assert!((u - v).abs() < 1e-4, "{u} vs {v} under {p:?}");
            }
        }
    }

    /// `Auto` is the implicit GEMM at every shape — including the narrow
    /// inputs it used to send down the direct route — and the direct route
    /// stays within rounding of it.
    #[test]
    fn auto_is_the_gemm_route_at_every_shape() {
        let (xs, ws) = (noise(12 * 48 * 72, 5), noise(16 * 12 * 3 * 3, 6));
        for ((c, k), (h, wd), p) in [
            ((1, 4), (8, 8), Conv2dParams::padded(1)),
            ((3, 16), (48, 72), Conv2dParams::padded(1)),
            ((12, 6), (48, 72), Conv2dParams::padded(1)),
            ((8, 8), (12, 18), Conv2dParams::atrous(2)),
        ] {
            let x = Tensor::from_vec([1, c, h, wd], DType::F32, xs[..c * h * wd].to_vec());
            let w = Tensor::from_vec([k, c, 3, 3], DType::F32, ws[..k * c * 9].to_vec());
            let auto = conv2d_forward(&x, &w, p, ConvAlgo::Auto);
            let mut gemm = vec![0.0f32; k * h * wd];
            im2col_gemm(x.as_slice(), (1, c, h, wd), w.as_slice(), k, (3, 3), (h * wd, wd), p, &mut gemm);
            let direct = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
            assert_eq!(auto.shape().dims(), &[1, k, h, wd]);
            for (i, ((a, g), d)) in auto.as_slice().iter().zip(&gemm).zip(direct.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), g.to_bits(), "element {i} of {c}→{k} on {h}x{wd}: Auto {a} vs im2col_gemm {g}");
                assert!((a - d).abs() <= 1e-5 * d.abs().max(1.0), "element {i} of {c}→{k} on {h}x{wd}: Auto {a} vs Direct {d}");
            }
        }
    }

    /// The implicit GEMM against the explicit one: the patch matrix
    /// materialized by `im2col`, then the same blocked GEMM reading it as a
    /// dense [`SliceB`]. The same values meet the same `A` panels in the
    /// same depth order, so the two agree bit for bit, with the SIMD
    /// micro-kernels on and off — however the implicit route gets its `B`
    /// values (packed patches, a zero-bordered copy, rows read in place).
    /// Tiramisu and DeepLab shapes: `M` 3/6/16/64, output widths 72/36/18/4,
    /// 1×1, 3×3 and 5×5 kernels, dilation 1/2/4, a pad past
    /// `dilation·(r−1)` and a strided case; `dst` starts non-zero, as the
    /// product accumulates into it.
    #[test]
    fn implicit_gemm_is_explicit_im2col_bit_for_bit() {
        let _pool_quiet = pool::TEST_GUARD.lock();
        let (xs, ws, before) = (noise(2 * 32 * 48 * 72, 80), noise(64 * 32 * 25, 81), noise(2 * 64 * 48 * 72, 82));
        let same = |k: usize, d: usize| Conv2dParams { stride: 1, pad: d * (k / 2), dilation: d };
        // (n, c, m, (h, wd), kernel, p)
        let cases = [
            (1, 12, 6, (48, 72), 3, same(3, 1)),
            (2, 24, 6, (24, 36), 3, same(3, 1)),
            (1, 30, 6, (12, 18), 3, same(3, 1)),
            (1, 18, 3, (48, 72), 1, same(1, 1)),
            (1, 4, 16, (48, 72), 3, same(3, 1)),
            (1, 32, 64, (6, 4), 3, same(3, 2)),
            (1, 16, 64, (12, 18), 3, same(3, 4)),
            (2, 6, 16, (24, 36), 5, same(5, 1)),
            (1, 4, 6, (12, 18), 5, same(5, 2)),
            (1, 8, 6, (12, 18), 1, Conv2dParams::padded(1)),
            (1, 16, 16, (24, 36), 3, Conv2dParams::strided(2, 1)),
        ];
        let simd_before = crate::simd::simd_enabled();
        for simd in [true, false] {
            crate::simd::set_simd_enabled(simd);
            for (n, c, m, (h, wd), kernel, p) in cases {
                let ho = conv_out_dim(h, kernel, p.stride, p.pad, p.dilation);
                let wo = conv_out_dim(wd, kernel, p.stride, p.pad, p.dilation);
                let (crs, npix) = (c * kernel * kernel, ho * wo);
                let (xs, ws) = (&xs[..n * c * h * wd], &ws[..m * crs]);
                let mut got = before[..n * m * npix].to_vec();
                im2col_gemm(xs, (n, c, h, wd), ws, m, (kernel, kernel), (npix, wo), p, &mut got);
                let mut want = before[..n * m * npix].to_vec();
                let mut col = vec![0.0f32; crs * npix];
                for (ni, want_n) in want.chunks_mut(m * npix).enumerate() {
                    im2col(xs, ni, c, h, wd, kernel, kernel, ho, wo, p, &mut col);
                    let b = SliceB { b: &col, layout: Layout::Normal, n: npix, ld: npix };
                    gemm_panels(m, npix, crs, ws, Layout::Normal, &b, want_n, npix);
                }
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "element {i}: {g} vs {w}; {n}x{c}x{h}x{wd} → {m}, kernel {kernel} {p:?} simd {simd}");
                }
            }
        }
        crate::simd::set_simd_enabled(simd_before);
    }

    #[test]
    fn atrous_preserves_spatial_size() {
        let (x, _) = small_case();
        let mut rng = seeded_rng(8);
        let w = randn([2, 3, 3, 3], DType::F32, 0.3, &mut rng);
        for d in [1, 2] {
            let y = conv2d_forward(&x, &w, Conv2dParams::atrous(d), ConvAlgo::Direct);
            assert_eq!(y.shape().dims(), &[2, 2, 6, 5], "dilation {d}");
        }
    }

    /// Central finite difference over *every* input and weight element, at
    /// stride 1–3 × dilation 1/2 × kernel 1/3/5 × pad 0 and "same" — every
    /// data-gradient route: the flipped-kernel forward, the transposed 1×1
    /// and the strip GEMM + col2im — with the SIMD micro-kernels on and
    /// off. The op is bilinear and the loss linear in `y`, so the
    /// difference quotient is exact up to rounding. The loss runs the direct
    /// route, so the oracle shares no code with the GEMM route it checks.
    #[test]
    fn gradient_check() {
        let data = noise(1024, 42);
        // One entry per (kernel, p): the sweep repeats each for six widths.
        let geometries: Vec<(usize, Conv2dParams)> = geometry_sweep()
            .into_iter()
            .filter(|&(k, wo, p)| wo == 1 && k <= 5 && p.dilation <= 2 && (p.pad == 0 || p.pad == p.dilation * (k / 2)))
            .map(|(k, _, p)| (k, p))
            .collect();
        assert_eq!(geometries.len(), 3 * 2 * (1 + 2 + 2));
        let _pool_quiet = pool::TEST_GUARD.lock();
        let simd_before = crate::simd::simd_enabled();
        for simd in [true, false] {
            crate::simd::set_simd_enabled(simd);
            for &(kernel, p) in &geometries {
                let (h, wd) = (in_dim(2, kernel, p), in_dim(3, kernel, p));
                let mut x = Tensor::from_vec([1, 2, h, wd], DType::F32, data[..2 * h * wd].to_vec());
                let wlen = 3 * 2 * kernel * kernel;
                let mut w = Tensor::from_vec([3, 2, kernel, kernel], DType::F32, data[512..512 + wlen].iter().map(|v| v * 0.5).collect());
                let y0 = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
                let coeff: Vec<f32> = (0..y0.numel()).map(|i| ((i * 31 % 13) as f32 - 6.0) * 0.1).collect();
                let loss = |x: &Tensor, w: &Tensor| -> f64 {
                    let y = conv2d_forward(x, w, p, ConvAlgo::Direct);
                    y.as_slice().iter().zip(&coeff).map(|(a, b)| *a as f64 * *b as f64).sum()
                };
                let go = Tensor::from_vec(y0.shape().clone(), DType::F32, coeff.clone());
                let grads = conv2d_backward(&x, &w, &go, p);
                let eps = 1e-2f32;
                let what = format!("x 1x2x{h}x{wd} kernel {kernel} {p:?} simd {simd}");
                for i in 0..x.numel() {
                    let x0 = x.as_slice()[i];
                    x.as_mut_slice()[i] = x0 + eps;
                    let up = loss(&x, &w);
                    x.as_mut_slice()[i] = x0 - eps;
                    let num = ((up - loss(&x, &w)) / (2.0 * eps as f64)) as f32;
                    x.as_mut_slice()[i] = x0;
                    let ana = grads.grad_input.as_slice()[i];
                    assert!((num - ana).abs() < 5e-3, "input grad {i}: {num} vs {ana}; {what}");
                }
                for i in 0..w.numel() {
                    let w0 = w.as_slice()[i];
                    w.as_mut_slice()[i] = w0 + eps;
                    let up = loss(&x, &w);
                    w.as_mut_slice()[i] = w0 - eps;
                    let num = ((up - loss(&x, &w)) / (2.0 * eps as f64)) as f32;
                    w.as_mut_slice()[i] = w0;
                    let ana = grads.grad_weight.as_slice()[i];
                    assert!((num - ana).abs() < 5e-3, "weight grad {i}: {num} vs {ana}; {what}");
                }
            }
        }
        crate::simd::set_simd_enabled(simd_before);
    }

    #[test]
    fn weight_grad_direct_matches_gemm_reference() {
        let mut rng = seeded_rng(9);
        let x = randn([2, 3, 6, 6], DType::F32, 1.0, &mut rng);
        let w = randn([4, 3, 3, 3], DType::F32, 0.5, &mut rng);
        let p = Conv2dParams::atrous(2);
        let y = conv2d_forward(&x, &w, p, ConvAlgo::Direct);
        let go = randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
        let direct = conv2d_backward(&x, &w, &go, p).grad_weight;
        let viagemm = conv2d_weight_grad_gemm(&x, &go, (4, 3, 3, 3), p);
        for (a, b) in direct.as_slice().iter().zip(viagemm.as_slice().iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn flop_count_matches_section_vi_example() {
        // Paper §VI: 3×3 direct convolution on 1152×768, 48 in / 32 out
        // channels, batch 2 → 48.9e9 FLOPs ("same" conv: Ho×Wo = H×W).
        let flops = conv_flops(2, 32, 48, 3, 3, 1152, 768);
        assert_eq!(flops, 48_922_361_856);
        assert!((flops as f64 / 1e9 - 48.9).abs() < 0.05);
    }

    // --- oracles for the row-wise packers and the col2im scatter -------------

    /// The col2im scatter as it was written before the row-wise walk: one
    /// `pixel / wo`, `pixel % wo` and two bounds tests per element.
    #[allow(clippy::too_many_arguments)]
    fn col2im_add_reference(
        strip: &[f32],
        p0: usize,
        sw: usize,
        gxn: &mut [f32],
        (h, wd): (usize, usize),
        (r, s): (usize, usize),
        wo: usize,
        p: Conv2dParams,
    ) {
        for (ci, gxp) in gxn.chunks_mut(h * wd).enumerate() {
            for ri in 0..r {
                for si in 0..s {
                    let rowbase = ((ci * r + ri) * s + si) * sw;
                    for (j, &g) in strip[rowbase..rowbase + sw].iter().enumerate() {
                        let pixel = p0 + j;
                        let hoi = pixel / wo;
                        let woi = pixel % wo;
                        let hi = (hoi * p.stride + ri * p.dilation) as isize - p.pad as isize;
                        if hi < 0 || hi >= h as isize {
                            continue;
                        }
                        let wi = (woi * p.stride + si * p.dilation) as isize - p.pad as isize;
                        if wi < 0 || wi >= wd as isize {
                            continue;
                        }
                        gxp[hi as usize * wd + wi as usize] += g;
                    }
                }
            }
        }
    }

    /// Packs depths `[pc, pc+kc)` of every panel of `src` into a
    /// NaN-poisoned buffer and compares each slot with `want`'s
    /// [`Im2colB::patch`] bit for bit (padding and columns past `ncols`
    /// must be `+0.0`). Every panel `src` reports as read in place is also
    /// compared, row by row where the micro-kernel would read it. `want` is
    /// `src` itself, or the unpadded view's original when `src` reads a
    /// zero-bordered copy. Returns the number of in-place panels checked.
    fn assert_panels_match_patch(src: &Im2colB, want: &Im2colB, pc: usize, kc: usize) -> usize {
        let what = |depth: usize, col: usize| {
            format!(
                "depth {depth} col {col} (by_pixel_depth {}): map {}x{} kernel {}x{} wo {} {:?} j0 {} pc {pc} kc {kc}",
                src.by_pixel_depth, src.h, src.wd, src.r, src.s, src.wo, src.p, col / NR * NR,
            )
        };
        let want_at = |depth: usize, col: usize| match (col < want.ncols, want.by_pixel_depth) {
            (false, _) => 0.0,
            (true, false) => want.patch(depth, col),
            (true, true) => want.patch(col, depth),
        };
        let mut panel = vec![f32::NAN; kc * NR];
        let mut offs = vec![usize::MAX; kc];
        let in_place = src.in_place_rows(pc, kc, &mut offs);
        assert!(offs.windows(2).all(|w| w[0] <= w[1]), "in-place offsets must ascend: {}", what(pc, 0));
        let mut checked = 0;
        for j0 in (0..src.ncols).step_by(NR) {
            panel.fill(f32::NAN);
            src.pack_panel(j0, pc, kc, &mut panel);
            for (i, got) in panel.iter().enumerate() {
                let (depth, col) = (pc + i / NR, j0 + i % NR);
                let want = want_at(depth, col);
                assert_eq!(got.to_bits(), want.to_bits(), "packed {got} vs {want}; {}", what(depth, col));
            }
            let Some(at) = src.in_place_panel(j0) else { continue };
            let xs = in_place.expect("a panel is in place only when the rows are");
            for (p, &o) in offs.iter().enumerate() {
                for (j, got) in xs[at + o..at + o + NR].iter().enumerate() {
                    let (depth, col) = (pc + p, j0 + j);
                    let want = want_at(depth, col);
                    assert_eq!(got.to_bits(), want.to_bits(), "in place {got} vs {want}; {}", what(depth, col));
                }
            }
            checked += 1;
        }
        checked
    }

    /// Test data as a plain vector: the sweeps below slice one of these
    /// instead of allocating a tensor per geometry, so they put no traffic
    /// on the process-global pool whose counters `pool::tests` assert on.
    fn noise(len: usize, seed: u64) -> Vec<f32> {
        randn([len], DType::F32, 1.0, &mut seeded_rng(seed)).as_slice().to_vec()
    }

    /// Both orientations of the packer over the second of two `c`-channel
    /// `h×wd` maps at the head of `xs` (so `xbase` is not zero), read through
    /// an `ho×wo` output grid, on whole-depth, mid-channel and single-row
    /// depth slices — directly, and as the unpadded view of a zero-bordered
    /// copy of the map (the layout `im2col_gemm` stages), against the
    /// original's patches. Returns the number of in-place panels checked.
    fn check_packers(xs: &[f32], c: usize, (h, wd): (usize, usize), k: usize, (ho, wo): (usize, usize), p: Conv2dParams) -> usize {
        let (crs, npix) = (c * k * k, ho * wo);
        let (hs, ws) = (h + 2 * p.pad, wd + 2 * p.pad);
        let mut staged = vec![0.0f32; 2 * c * hs * ws];
        stage_padded(&xs[c * h * wd..2 * c * h * wd], (h, wd), p.pad, &mut staged[c * hs * ws..]);
        let mut checked = 0;
        for by_pixel_depth in [false, true] {
            let (ncols, depth) = if by_pixel_depth { (crs, npix) } else { (npix, crs) };
            let src = Im2colB {
                xs: &xs[..2 * c * h * wd],
                xbase: c * h * wd,
                h,
                wd,
                r: k,
                s: k,
                wo,
                ncols,
                p,
                by_pixel_depth,
            };
            let unpadded = Im2colB { xs: &staged, xbase: c * hs * ws, h: hs, wd: ws, p: Conv2dParams { pad: 0, ..p }, ..src };
            // A slice start that is neither a channel nor an output-row
            // boundary whenever the depth allows one.
            let mid = ((depth / 2) | 1).min(depth - 1);
            for (pc, kc) in [(0, depth), (mid, depth - mid), (depth - 1, 1)] {
                checked += assert_panels_match_patch(&src, &src, pc, kc);
                checked += assert_panels_match_patch(&unpadded, &src, pc, kc);
            }
        }
        checked
    }

    /// Kernel 1/3/5/7 × stride 1–3 × dilation 1/2/4/6 × every pad up to one
    /// past "same" × output widths around the panel width: `(k, wo, p)`.
    fn geometry_sweep() -> Vec<(usize, usize, Conv2dParams)> {
        let mut out = Vec::new();
        for k in [1usize, 3, 5, 7] {
            for stride in 1..=3 {
                for dilation in [1usize, 2, 4, 6] {
                    for pad in 0..=dilation * (k / 2) + 1 {
                        for wo in [1usize, 3, 7, 8, 9, 17] {
                            out.push((k, wo, Conv2dParams { stride, pad, dilation }));
                        }
                    }
                }
            }
        }
        out
    }

    /// The input extent a convolution needs to produce `out` outputs (at
    /// least 1: the packer takes any map, however far the taps overhang).
    fn in_dim(out: usize, k: usize, p: Conv2dParams) -> usize {
        ((out - 1) * p.stride + p.dilation * (k - 1) + 1).saturating_sub(2 * p.pad).max(1)
    }

    #[test]
    fn packers_match_patch_over_the_geometry_sweep() {
        let xs = noise(1 << 14, 1);
        let mut in_place = 0;
        for (k, wo, p) in geometry_sweep() {
            // Three output rows: panels span rows for wo < 8 and wo = 9, 17,
            // and 3·wo is a multiple of 8 only at wo = 8.
            in_place += check_packers(&xs, 2, (in_dim(3, k, p), in_dim(wo, k, p)), k, (3, wo), p);
        }
        assert!(in_place > 0, "the sweep must reach the in-place panels");
    }

    #[test]
    fn packers_match_patch_on_deep_slices_and_empty_taps() {
        let xs = noise(64 * 6 * 9, 2);
        // 64·9 = 576 patch rows: a full KC slice that starts mid-channel
        // (256 mod 9 ≠ 0) and the ragged one after it.
        let mut src = Im2colB {
            xs: &xs,
            xbase: 0,
            h: 6,
            wd: 9,
            r: 3,
            s: 3,
            wo: 9,
            ncols: 54,
            p: Conv2dParams::padded(1),
            by_pixel_depth: false,
        };
        // The same slices over the zero-bordered copy, whose one-row
        // panels are read in place.
        let mut staged = vec![0.0f32; 64 * 8 * 11];
        stage_padded(&xs, (6, 9), 1, &mut staged);
        let unpadded = Im2colB { xs: &staged, h: 8, wd: 11, p: Conv2dParams::default(), ..src };
        for (pc, kc) in [(0, 256), (256, 256), (512, 64), (575, 1)] {
            assert_panels_match_patch(&src, &src, pc, kc);
            assert!(assert_panels_match_patch(&unpadded, &src, pc, kc) > 0);
        }
        // 17×17 outputs: pixel-depth slices of 256 starting on and off an
        // output-row boundary.
        src = Im2colB { h: 17, wd: 17, wo: 17, ncols: 27, by_pixel_depth: true, ..src };
        for (pc, kc) in [(0, 256), (33, 256), (256, 33)] {
            assert_panels_match_patch(&src, &src, pc, kc);
        }
        // Dilation 6 on a 6×9 map: the outer tap rows never touch the image.
        check_packers(&xs, 3, (6, 9), 3, (6, 9), Conv2dParams::atrous(6));
        // A transposed convolution's backward view: the 8×10 gradient read
        // through the 4×5 grid of the deconv's input, stride 2.
        check_packers(&xs, 3, (8, 10), 3, (4, 5), Conv2dParams::strided(2, 1));
        // Stride-1 grids that do not fit their map. Narrower: a panel's map
        // rows run on past the grid's row end, so panels that straddle grid
        // rows must still be packed. Taller: the bottom rows' taps leave the
        // map, so those panels must be packed too.
        assert!(check_packers(&xs, 3, (8, 20), 3, (4, 9), Conv2dParams::padded(1)) > 0);
        assert!(check_packers(&xs, 3, (4, 20), 3, (6, 18), Conv2dParams::padded(1)) > 0);
    }

    #[test]
    fn col2im_matches_the_per_element_scatter() {
        let (strips, before) = (noise(1 << 13, 3), noise(1 << 13, 4));
        for (k, wo, p) in geometry_sweep() {
            let (c, h, wd) = (2, in_dim(3, k, p), in_dim(wo, k, p));
            // Strips that start on a row boundary, mid-row, and on the last
            // pixel of a row; lengths that end mid-row.
            for (p0, sw) in [(0, 3 * wo), (wo / 2, 2 * wo), (wo - 1, wo + 1)] {
                let strip = &strips[..c * k * k * sw];
                let mut fast = before[..c * h * wd].to_vec();
                let mut slow = fast.clone();
                col2im_add(strip, p0, sw, &mut fast, (h, wd), (k, k), wo, p);
                col2im_add_reference(strip, p0, sw, &mut slow, (h, wd), (k, k), wo, p);
                assert_eq!(
                    fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "map {h}x{wd} kernel {k} wo {wo} {p:?} p0 {p0} sw {sw}"
                );
            }
        }
    }

    /// The data gradient as the strip route computes it, on plain slices:
    /// the strip GEMM of `transposed_gemm_col2im`, then the per-element
    /// scatter.
    fn grad_input_by_scatter(
        gos: &[f32],
        (n, k, ho, wo): (usize, usize, usize, usize),
        ws: &[f32],
        (c, h, wd): (usize, usize, usize),
        kernel: usize,
        p: Conv2dParams,
    ) -> Vec<f32> {
        let (crs, hw) = (c * kernel * kernel, ho * wo);
        let mut gx = vec![0.0f32; n * c * h * wd];
        for (ni, gxn) in gx.chunks_mut(c * h * wd).enumerate() {
            for p0 in (0..hw).step_by(COL_STRIP) {
                let sw = COL_STRIP.min(hw - p0);
                let mut strip = vec![0.0f32; crs * sw];
                let go_src = SliceB { b: &gos[ni * k * hw + p0..], layout: Layout::Normal, n: sw, ld: hw };
                gemm_panels(crs, sw, k, ws, Layout::Transposed, &go_src, &mut strip, sw);
                col2im_add_reference(&strip, p0, sw, gxn, (h, wd), (kernel, kernel), wo, p);
            }
        }
        gx
    }

    /// `conv2d_backward`'s data gradient against [`grad_input_by_scatter`]
    /// over hand-picked cases — among them a 96×97 map, wider than one
    /// `COL_STRIP`, whose strip boundary falls mid-row — and the geometry
    /// sweep.
    /// * Bit for bit where the strip route still runs: stride > 1, and the
    ///   1×1 pad-1 boundary case, whose pad is past `dilation·(r−1)`. Also
    ///   bit for bit for a 1×1 at stride 1 and pad 0, which is the strip
    ///   GEMM without the scatter.
    /// * Every other stride-1 geometry takes the flipped-kernel forward,
    ///   which sums each element's `K·R·S` products in one GEMM chain where
    ///   the strip route adds `R·S` partial sums of `K`. Any two summation
    ///   orders of `N` rounded products differ by at most
    ///   `(N + 1)·ε·Σ|products|` (`ε = 2⁻²³`); asserted with `2·K·R·S·ε`,
    ///   where `Σ|w·∂y|` is the strip route run on `|w|` and `|∂y|`.
    #[test]
    fn grad_input_matches_the_per_element_scatter() {
        let _pool_quiet = pool::TEST_GUARD.lock();
        let (gs, ws) = (noise(2 * 4 * 96 * 97, 78), noise(4 * 3 * 7 * 7, 79));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let abs = |v: &[f32]| v.iter().map(|x| x.abs()).collect::<Vec<_>>();
        let mut cases = vec![
            ((2, 3, 9, 11), 4, 3, Conv2dParams::padded(1)),
            ((1, 2, 9, 11), 3, 3, Conv2dParams::strided(2, 1)),
            ((1, 2, 11, 13), 3, 3, Conv2dParams::atrous(2)),
            ((1, 2, 10, 7), 2, 5, Conv2dParams { stride: 3, pad: 2, dilation: 1 }),
            ((1, 1, 96, 97), 2, 3, Conv2dParams::padded(1)),
            ((2, 3, 5, 6), 4, 1, Conv2dParams::padded(1)),
            ((2, 3, 5, 6), 4, 1, Conv2dParams::default()),
        ];
        cases.extend(geometry_sweep().into_iter().map(|(k, wo, p)| ((1, 2, in_dim(3, k, p), in_dim(wo, k, p)), 3, k, p)));
        for ((n, c, h, wd), k_out, kernel, p) in cases {
            let ho = conv_out_dim(h, kernel, p.stride, p.pad, p.dilation);
            let wo = conv_out_dim(wd, kernel, p.stride, p.pad, p.dilation);
            let (gs, ws) = (&gs[..n * k_out * ho * wo], &ws[..k_out * c * kernel * kernel]);
            let x = Tensor::zeros([n, c, h, wd], DType::F32);
            let w = Tensor::from_vec([k_out, c, kernel, kernel], DType::F32, ws.to_vec());
            let go = Tensor::from_vec([n, k_out, ho, wo], DType::F32, gs.to_vec());
            let got = conv2d_backward(&x, &w, &go, p).grad_input;
            let want = grad_input_by_scatter(gs, (n, k_out, ho, wo), ws, (c, h, wd), kernel, p);
            let what = format!("x {n}x{c}x{h}x{wd} kernel {kernel} {p:?}");
            if p.stride > 1 || kernel == 1 || p.pad > p.dilation * (kernel - 1) {
                assert_eq!(bits(got.as_slice()), bits(&want), "{what}");
                continue;
            }
            let mag = grad_input_by_scatter(&abs(gs), (n, k_out, ho, wo), &abs(ws), (c, h, wd), kernel, p);
            let tol = 2.0 * (k_out * kernel * kernel) as f32 * f32::EPSILON;
            for (i, ((g, v), m)) in got.as_slice().iter().zip(&want).zip(&mag).enumerate() {
                assert!((g - v).abs() <= tol * m, "element {i}: {g} vs {v} (Σ|w·∂y| {m}); {what}");
            }
        }
    }

    #[test]
    fn fp16_output_is_quantized() {
        let x = Tensor::from_vec([1, 1, 1, 2], DType::F16, vec![2048.0, 2048.0]);
        let w = Tensor::from_vec([1, 1, 1, 2], DType::F16, vec![1.0, 1.0]);
        // 2048 + 2048 = 4096 exactly representable; but 2048*1 + 2048*1 + 1 wouldn't be.
        let y = conv2d_forward(&x, &w, Conv2dParams::default(), ConvAlgo::Direct);
        assert_eq!(y.dtype(), DType::F16);
        assert_eq!(y.as_slice(), &[4096.0]);
    }
}
