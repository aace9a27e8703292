//! Physically-valid data augmentation for global climate fields.
//!
//! §VIII-B anticipates "processing at the storage layer ... to aid in data
//! processing and augmentation". For a lat/lon globe two augmentations are
//! exactly label-preserving:
//!
//! * **longitude roll** — the domain is periodic in longitude, so any
//!   cyclic shift is another valid snapshot;
//! * **latitude mirror** — flipping hemispheres is valid *if* the
//!   meridional wind components (V850, VBOT) flip sign, because cyclone
//!   rotation reverses across the equator.
//!
//! Both transform fields and label masks congruently, so segmentation
//! training sees more variety from the same staged shard.

/// Channels whose sign flips under a latitude mirror (meridional winds).
pub const MERIDIONAL_CHANNELS: [&str; 2] = ["V850", "VBOT"];

/// An augmentation decision, made once per sample and applied to its
/// fields and labels together ([`Augmentation::apply_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Augmentation {
    /// Cyclic longitude shift in pixels.
    pub roll: usize,
    /// Mirror the latitude axis.
    pub flip_lat: bool,
}

impl Augmentation {
    /// Deterministic augmentation for position `p` of epoch `e` under
    /// `seed`, derived by hashing rather than RNG draw history — the same
    /// `(seed, epoch, position)` always yields the same transform, no
    /// matter which ingest worker computes it.
    pub fn at_position(w: usize, seed: u64, epoch: u64, position: u64) -> Augmentation {
        let h = crate::sampler::mix64(seed ^ 0xA06_3E27)
            ^ crate::sampler::mix64(epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ position);
        let h = crate::sampler::mix64(h);
        Augmentation { roll: (h as usize) % w.max(1), flip_lat: (h >> 63) & 1 == 1 }
    }

    /// Appends `src` (row-major `h×w`) moved by this transform to `out`,
    /// each value passed through `map`.
    fn move_into<T: Copy>(&self, src: &[T], h: usize, w: usize, map: impl Fn(T) -> T, out: &mut Vec<T>) {
        assert_eq!(src.len(), h * w);
        out.reserve(h * w);
        for y in 0..h {
            let src_y = if self.flip_lat { h - 1 - y } else { y };
            for x in 0..w {
                let src_x = (x + w - self.roll % w) % w;
                out.push(map(src[src_y * w + src_x]));
            }
        }
    }

    /// Applies to one scalar field, flipping sign when `flip_sign`
    /// (meridional winds under a latitude mirror).
    fn apply_field_into(&self, field: &[f32], h: usize, w: usize, flip_sign: bool, out: &mut Vec<f32>) {
        let sign = if self.flip_lat && flip_sign { -1.0 } else { 1.0 };
        self.move_into(field, h, w, |v| sign * v, out);
    }

    /// Applies to one sample: its channel-major fields (`channels × h ×
    /// w`; the `meridional` channel indices flip sign under a latitude
    /// mirror) and its label mask move together, into caller-provided
    /// buffers (cleared and filled) — the labels always follow their
    /// fields.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_into(
        &self,
        fields: &[f32],
        mask: &[u8],
        channels: usize,
        h: usize,
        w: usize,
        meridional: &[usize],
        out_fields: &mut Vec<f32>,
        out_mask: &mut Vec<u8>,
    ) {
        assert_eq!(fields.len(), channels * h * w);
        out_fields.clear();
        for c in 0..channels {
            let flip_sign = meridional.contains(&c);
            self.apply_field_into(&fields[c * h * w..(c + 1) * h * w], h, w, flip_sign, out_fields);
        }
        out_mask.clear();
        self.move_into(mask, h, w, |l| l, out_mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(a: &Augmentation, f: &[f32], h: usize, w: usize, flip_sign: bool) -> Vec<f32> {
        let mut out = Vec::new();
        a.apply_field_into(f, h, w, flip_sign, &mut out);
        out
    }

    fn mask(a: &Augmentation, m: &[u8], h: usize, w: usize) -> Vec<u8> {
        let mut out = Vec::new();
        a.move_into(m, h, w, |l| l, &mut out);
        out
    }

    /// `a` applied to a `c`-channel sample and its mask, into fresh buffers.
    fn sample(
        a: &Augmentation,
        f: &[f32],
        m: &[u8],
        c: usize,
        h: usize,
        w: usize,
        meridional: &[usize],
    ) -> (Vec<f32>, Vec<u8>) {
        let (mut fields, mut labels) = (Vec::new(), Vec::new());
        a.apply_into(f, m, c, h, w, meridional, &mut fields, &mut labels);
        (fields, labels)
    }

    #[test]
    fn identity_is_identity() {
        let f: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let a = Augmentation { roll: 0, flip_lat: false };
        assert_eq!(field(&a, &f, 3, 4, true), f);
        let m: Vec<u8> = (0..12).map(|i| (i % 3) as u8).collect();
        assert_eq!(mask(&a, &m, 3, 4), m);
    }

    #[test]
    fn roll_is_cyclic_and_invertible() {
        let f: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let a = Augmentation { roll: 1, flip_lat: false };
        let rolled = field(&a, &f, 3, 4, false);
        // Row 0: [0,1,2,3] rolled right by 1 → [3,0,1,2].
        assert_eq!(&rolled[0..4], &[3.0, 0.0, 1.0, 2.0]);
        // Rolling by w-1 more returns the original.
        let b = Augmentation { roll: 3, flip_lat: false };
        assert_eq!(field(&b, &rolled, 3, 4, false), f);
    }

    #[test]
    fn lat_flip_mirrors_rows_and_flips_meridional_sign() {
        let f: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 rows × 2
        let a = Augmentation { roll: 0, flip_lat: true };
        assert_eq!(field(&a, &f, 3, 2, false), vec![5.0, 6.0, 3.0, 4.0, 1.0, 2.0]);
        assert_eq!(field(&a, &f, 3, 2, true), vec![-5.0, -6.0, -3.0, -4.0, -1.0, -2.0]);
    }

    #[test]
    fn mask_and_fields_stay_congruent() {
        let (c, h, w) = (2, 6, 8);
        // Both channels equal the mask value, so congruence is directly
        // checkable on the one call that moves fields and labels.
        let m: Vec<u8> = (0..h * w).map(|i| ((i * 7) % 3) as u8).collect();
        let f: Vec<f32> = m.iter().chain(&m).map(|&l| l as f32).collect();
        for p in 0..8 {
            let a = Augmentation::at_position(w, 4, 0, p);
            let (fm, mm) = sample(&a, &f, &m, c, h, w, &[]);
            for (k, x) in fm.iter().enumerate() {
                assert_eq!(*x, mm[k % (h * w)] as f32, "{a:?}");
            }
        }
    }

    #[test]
    fn sample_applies_per_channel_signs() {
        let (c, h, w) = (3, 2, 2);
        let fields: Vec<f32> = (0..c * h * w).map(|i| i as f32 + 1.0).collect();
        let a = Augmentation { roll: 0, flip_lat: true };
        let (out, _) = sample(&a, &fields, &[0; 4], c, h, w, &[1]); // channel 1 is meridional
        // Channel 0 mirrored, positive.
        assert_eq!(&out[0..4], &[3.0, 4.0, 1.0, 2.0]);
        // Channel 1 mirrored, negated.
        assert_eq!(&out[4..8], &[-7.0, -8.0, -5.0, -6.0]);
        // Channel 2 mirrored, positive.
        assert_eq!(&out[8..12], &[11.0, 12.0, 9.0, 10.0]);
    }

    #[test]
    fn position_hash_is_deterministic_and_varies() {
        let a = Augmentation::at_position(64, 5, 0, 0);
        assert_eq!(a, Augmentation::at_position(64, 5, 0, 0));
        let others: Vec<Augmentation> = (0..16).map(|p| Augmentation::at_position(64, 5, 0, p)).collect();
        assert!(others.iter().any(|b| *b != a), "positions should vary transforms");
        assert_ne!(
            Augmentation::at_position(64, 5, 1, 0),
            Augmentation::at_position(64, 5, 2, 0),
            "epochs should vary transforms (probabilistically; fixed seeds here)"
        );
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let (c, h, w) = (3, 4, 6);
        let fields: Vec<f32> = (0..c * h * w).map(|i| i as f32 * 0.25 - 3.0).collect();
        let m: Vec<u8> = (0..h * w).map(|i| (i % 3) as u8).collect();
        let a = Augmentation { roll: 2, flip_lat: true };
        // Stale contents must be discarded.
        let (mut out, mut out_mask) = (vec![99.0; 5], vec![7u8; 100]);
        a.apply_into(&fields, &m, c, h, w, &[1], &mut out, &mut out_mask);
        assert_eq!((out, out_mask), sample(&a, &fields, &m, c, h, w, &[1]));
    }

    #[test]
    fn class_frequencies_are_preserved() {
        let (h, w) = (10, 12);
        let m: Vec<u8> = (0..h * w).map(|i| ((i * 13) % 3) as u8).collect();
        let count = |m: &[u8]| {
            let mut c = [0usize; 3];
            for &v in m {
                c[v as usize] += 1;
            }
            c
        };
        let before = count(&m);
        for p in 0..5 {
            let a = Augmentation::at_position(w, 9, 0, p);
            assert_eq!(count(&mask(&a, &m, h, w)), before, "{a:?}");
        }
    }
}
