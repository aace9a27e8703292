//! Halo-overlapped tiled inference for full climate frames.
//!
//! A full 1152×768 frame doesn't need to go through the network in one
//! piece: [`infer_tiled`] cuts it into a fixed grid of core tiles, crops
//! each with a halo of surrounding context, pushes every window through
//! the serving queue (so tiles from one frame batch together on the
//! replicas like any other requests), and blends the returned windows
//! back into a frame.
//!
//! ## Halo and blend math
//!
//! Core tiles of `tile_h × tile_w` partition the frame exactly; each
//! tile's *window* extends the core by `halo` pixels on every side,
//! clamped to the frame. Inside a window, a pixel's weight is a
//! separable ramp `w(y, x) = wy(dy) · wx(dx)`, where `d` counts pixels
//! (1-based) from the nearest *interior* window edge and
//!
//! ```text
//!   w(d) = clamp(d - halo/2, 0, halo + 1 - halo/2)
//! ```
//!
//! The outer `halo/2` pixels at an interior cut are pure context — the
//! most padding-contaminated part of the window — and are discarded
//! (weight 0); the inner half ramps linearly, so adjacent windows hand
//! off smoothly across the overlap before the final per-pixel division
//! by the accumulated weight. A window edge flush with the frame
//! boundary is no cut at all: there the network saw exactly the zero
//! padding the full frame would have seen, so no trim applies.
//!
//! Consequence: every contribution to a pixel comes from a window where
//! that pixel sits at least `halo/2 + 1` pixels from any interior edge,
//! so tiled inference is *exact* (to blend-arithmetic rounding) whenever
//! `halo ≥ 2 ×` the network's receptive-field radius, and degrades
//! gracefully — not with hard seams — below that.
//!
//! Determinism: the tile grid, submission order, and accumulation order
//! are fixed functions of the frame shape and [`TileConfig`], so tiled
//! inference is bit-stable run to run and — because per-window outputs
//! are themselves batch-invariant — independent of how the batcher
//! groups the windows.

use crate::server::{PendingResponse, ServeHandle};
use exaclim_tensor::ops::crop_spatial;
use exaclim_tensor::{pool, Tensor};

/// Tiled-inference geometry.
#[derive(Clone, Copy, Debug)]
pub struct TileConfig {
    /// Core tile height.
    pub tile_h: usize,
    /// Core tile width.
    pub tile_w: usize,
    /// Context pixels added on every side of a core tile.
    pub halo: usize,
}

impl TileConfig {
    /// Square tiles with a halo.
    pub fn new(tile: usize, halo: usize) -> TileConfig {
        TileConfig { tile_h: tile, tile_w: tile, halo }
    }
}

/// One planned tile: the core region it owns and the haloed window that
/// is actually cropped and sent through the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Core origin (row).
    pub y0: usize,
    /// Core origin (column).
    pub x0: usize,
    /// Core height.
    pub h: usize,
    /// Core width.
    pub w: usize,
    /// Window origin (row), `y0` minus up to `halo`.
    pub wy0: usize,
    /// Window origin (column).
    pub wx0: usize,
    /// Window height.
    pub wh: usize,
    /// Window width.
    pub ww: usize,
}

/// Plans the fixed tile grid for an `h × w` frame. Core tiles partition
/// the frame (edge tiles shrink); windows clamp to the frame bounds.
pub fn plan_tiles(h: usize, w: usize, cfg: &TileConfig) -> Vec<Tile> {
    assert!(cfg.tile_h > 0 && cfg.tile_w > 0, "tile dims must be positive");
    let mut tiles = Vec::new();
    let mut y0 = 0;
    while y0 < h {
        let th = cfg.tile_h.min(h - y0);
        let wy0 = y0.saturating_sub(cfg.halo);
        let wy1 = (y0 + th + cfg.halo).min(h);
        let mut x0 = 0;
        while x0 < w {
            let tw = cfg.tile_w.min(w - x0);
            let wx0 = x0.saturating_sub(cfg.halo);
            let wx1 = (x0 + tw + cfg.halo).min(w);
            tiles.push(Tile {
                y0,
                x0,
                h: th,
                w: tw,
                wy0,
                wx0,
                wh: wy1 - wy0,
                ww: wx1 - wx0,
            });
            x0 += tw;
        }
        y0 += th;
    }
    tiles
}

/// Separable blend weight for position `i` in a window of length `len`.
///
/// `d` is the 1-based distance from the nearest *interior* window edge —
/// an edge flush with the frame boundary (`lo_cut`/`hi_cut` false) is no
/// cut at all: the network saw the same frame-edge padding it would have
/// seen on the whole frame, so nothing near it is contaminated. The
/// outer `halo/2` pixels of an interior edge are pure context and get
/// weight zero; the remaining depth ramps linearly up to the cap, so
/// adjacent windows hand off smoothly across the inner halo.
fn ramp(i: usize, len: usize, halo: usize, lo_cut: bool, hi_cut: bool) -> f32 {
    let trim = halo / 2;
    let cap = halo + 1 - trim;
    let d_lo = if lo_cut { i + 1 } else { usize::MAX };
    let d_hi = if hi_cut { len - i } else { usize::MAX };
    let d = d_lo.min(d_hi);
    d.saturating_sub(trim).min(cap) as f32
}

/// Runs a spatial-resolution-preserving model over a full NCHW frame by
/// haloed tiles, all submitted through `handle` before any result is
/// awaited so the dynamic batcher can fuse them. Returns the blended
/// frame; the channel count follows the model's output.
pub fn infer_tiled(handle: &ServeHandle, frame: &Tensor, cfg: &TileConfig) -> Tensor {
    let (n, _c_in, h, w) = frame.shape().nchw();
    let tiles = plan_tiles(h, w, cfg);
    let pending: Vec<(Tile, PendingResponse)> = tiles
        .into_iter()
        .map(|t| {
            let window = crop_spatial(frame, t.wy0, t.wx0, t.wh, t.ww);
            (t, handle.submit(window))
        })
        .collect();

    let mut acc: Vec<f32> = Vec::new();
    let mut wsum = vec![0.0f32; h * w];
    let mut c_out = 0usize;
    let mut dtype = frame.dtype();
    for (t, p) in pending {
        let out = p.wait();
        let (on, oc, oh, ow) = out.shape().nchw();
        assert_eq!(on, n, "tile output batch mismatch");
        assert!(
            oh == t.wh && ow == t.ww,
            "model must preserve spatial dims for tiling: window {}×{} → {oh}×{ow}",
            t.wh,
            t.ww
        );
        if acc.is_empty() {
            c_out = oc;
            dtype = out.dtype();
            acc = vec![0.0f32; n * c_out * h * w];
        }
        assert_eq!(oc, c_out, "tile output channel mismatch");
        let os = out.as_slice();
        let (y_cut_lo, y_cut_hi) = (t.wy0 > 0, t.wy0 + t.wh < h);
        let (x_cut_lo, x_cut_hi) = (t.wx0 > 0, t.wx0 + t.ww < w);
        for row in 0..t.wh {
            let gy = t.wy0 + row;
            let wy = ramp(row, t.wh, cfg.halo, y_cut_lo, y_cut_hi);
            if wy == 0.0 {
                continue;
            }
            for col in 0..t.ww {
                let gx = t.wx0 + col;
                let weight = wy * ramp(col, t.ww, cfg.halo, x_cut_lo, x_cut_hi);
                if weight == 0.0 {
                    continue;
                }
                wsum[gy * w + gx] += weight;
                for ni in 0..n {
                    for ci in 0..c_out {
                        let src = ((ni * c_out + ci) * t.wh + row) * t.ww + col;
                        let dst = ((ni * c_out + ci) * h + gy) * w + gx;
                        acc[dst] += weight * os[src];
                    }
                }
            }
        }
    }

    let mut data = pool::take_with_capacity(n * c_out * h * w);
    for ni in 0..n {
        for ci in 0..c_out {
            for gy in 0..h {
                for gx in 0..w {
                    let idx = ((ni * c_out + ci) * h + gy) * w + gx;
                    data.push(acc[idx] / wsum[gy * w + gx]);
                }
            }
        }
    }
    Tensor::from_pool([n, c_out, h, w], dtype, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{InferenceServer, ServeConfig};
    use exaclim_nn::layers::{Conv2d, ReLU};
    use exaclim_nn::{Ctx, Layer, Sequential};
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::ops::Conv2dParams;
    use exaclim_tensor::DType;
    use std::time::Duration;

    /// Two padded 3×3 convs + ReLU: receptive-field radius 2, spatial
    /// dims preserved — tiling with halo >= 2 sees every real input a
    /// core pixel depends on.
    fn conv_stack(seed: u64) -> Box<dyn Layer> {
        let mut rng = seeded_rng(seed);
        Box::new(
            Sequential::new("stack")
                .push(Conv2d::new("c1", 2, 5, 3, Conv2dParams::padded(1), true, &mut rng))
                .push(ReLU::new())
                .push(Conv2d::new("c2", 5, 3, 3, Conv2dParams::padded(1), true, &mut rng)),
        )
    }

    #[test]
    fn plan_partitions_the_frame() {
        let cfg = TileConfig::new(10, 3);
        let tiles = plan_tiles(25, 17, &cfg);
        // Every pixel is owned by exactly one core.
        let mut owned = vec![0u8; 25 * 17];
        for t in &tiles {
            assert!(t.wy0 <= t.y0 && t.wx0 <= t.x0);
            assert!(t.wy0 + t.wh <= 25 && t.wx0 + t.ww <= 17);
            for y in t.y0..t.y0 + t.h {
                for x in t.x0..t.x0 + t.w {
                    owned[y * 17 + x] += 1;
                }
            }
        }
        assert!(owned.iter().all(|&c| c == 1), "cores must partition the frame");
    }

    #[test]
    fn tiled_matches_full_frame_with_sufficient_halo() {
        // The stack's receptive-field radius is 2, so halo = 4 = 2×RF
        // must reproduce the full-frame result to rounding, and smaller
        // halos must degrade monotonically instead of falling off a seam.
        let mut reference = conv_stack(11);
        let mut rng = seeded_rng(3);
        let frame = randn([1, 2, 20, 14], DType::F32, 1.0, &mut rng);
        let mut ctx = Ctx::eval();
        let want = reference.forward(&frame, &mut ctx);

        let max_err = |halo: usize| {
            let server = InferenceServer::launch(
                ServeConfig { replicas: 1, max_batch: 4, ..ServeConfig::default() },
                vec![conv_stack(11)],
            );
            let h = server.handle();
            let got = infer_tiled(&h, &frame, &TileConfig::new(8, halo));
            drop(h);
            server.shutdown();
            assert_eq!(got.shape(), want.shape());
            got.as_slice()
                .iter()
                .zip(want.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        let exact = max_err(4);
        assert!(exact < 1e-5, "halo 2×RF must be exact, got max abs err {exact}");
        let (e0, e2) = (max_err(0), max_err(2));
        assert!(e2 < e0 * 0.5, "halo must suppress seam error: halo0 {e0} vs halo2 {e2}");
    }

    #[test]
    fn tiling_is_batch_invariant_bitwise() {
        [DType::F32, DType::F16].into_iter().for_each(tiling_is_batch_invariant_for);
    }

    fn tiling_is_batch_invariant_for(dtype: DType) {
        let mut rng = seeded_rng(9);
        // Four windows a row, the middle two alike and adjacent: flushes hold fusable groups.
        let frame = randn([1, 2, 20, 30], dtype, 1.0, &mut rng);
        let run = |max_batch: usize| {
            let cfg = ServeConfig {
                replicas: 1,
                max_batch,
                max_delay: Duration::from_millis(20),
                queue_cap: 64,
            };
            let server = InferenceServer::launch(cfg, vec![conv_stack(11)]);
            let h = server.handle();
            let out = infer_tiled(&h, &frame, &TileConfig::new(8, 2));
            drop(h);
            server.shutdown();
            out.bit_hash()
        };
        assert_eq!(run(1), run(6), "{dtype:?}: batcher grouping changed tiled output bits");
        assert_eq!(run(6), run(6), "tiled inference must be bit-stable run to run");
    }
}
