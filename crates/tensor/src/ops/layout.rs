//! Spatial crops, the copy kernel behind tiled inference.
//!
//! Copies are the "Copies/Transposes" rows of the paper's kernel census
//! (§VI); §VII-A's layout transposes have no counterpart here, because
//! every kernel in this crate reads and writes NCHW.

use crate::profile::{self, KernelKind};
use crate::tensor::Tensor;

/// Crops a spatial window `[y0, y0+ch) × [x0, x0+cw)` out of every image
/// and channel of an NCHW tensor, into pooled storage. This is the slicing
/// primitive behind tiled inference: the serving tier cuts halo-padded
/// tiles out of a full frame with it, runs each tile through the network,
/// and blends the results back (`exaclim-serve`).
///
/// # Panics
/// Panics if the window exceeds the spatial bounds.
pub fn crop_spatial(x: &Tensor, y0: usize, x0: usize, ch: usize, cw: usize) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    assert!(
        y0 + ch <= h && x0 + cw <= w,
        "crop window {y0}+{ch}×{x0}+{cw} exceeds {h}×{w}"
    );
    let xs = x.as_slice();
    let mut out = crate::pool::take_with_capacity(n * c * ch * cw);
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            for row in 0..ch {
                let src = plane + (y0 + row) * w + x0;
                out.extend_from_slice(&xs[src..src + cw]);
            }
        }
    }
    let out = Tensor::from_pool([n, c, ch, cw], x.dtype(), out);
    profile::record(
        KernelKind::CopyTranspose,
        "crop_spatial",
        0,
        out.storage_bytes() as u64,
        out.storage_bytes() as u64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use crate::DType;

    #[test]
    fn crop_copies_the_window() {
        let mut rng = seeded_rng(9);
        let x = randn([2, 3, 6, 7], DType::F32, 1.0, &mut rng);
        let tile = crop_spatial(&x, 1, 2, 4, 5);
        assert_eq!(tile.shape().dims(), &[2, 3, 4, 5]);
        // Element check: tile(n,c,r,s) == x(n,c,1+r,2+s).
        for ni in 0..2 {
            for ci in 0..3 {
                for r in 0..4 {
                    for s in 0..5 {
                        assert_eq!(tile.at(&[ni, ci, r, s]), x.at(&[ni, ci, 1 + r, 2 + s]));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn crop_out_of_bounds_panics() {
        crop_spatial(&Tensor::zeros([1, 1, 4, 4], DType::F32), 2, 0, 3, 4);
    }
}
