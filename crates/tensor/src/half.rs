//! Software IEEE 754 binary16 ("half precision", FP16).
//!
//! The paper's FP16 runs exercise Volta tensor cores; we reproduce the
//! *numerics* of half precision in software: 10-bit mantissa, 5-bit
//! exponent, max finite value 65504, gradual underflow, overflow to
//! infinity. This is what makes the weighted-loss stability study
//! (Section V-B1) reproducible: inverse-class-frequency pixel weights
//! (≈ 1000× for tropical cyclones) push per-pixel losses past the FP16
//! dynamic range, while inverse-square-root weights do not.

/// An IEEE 754 binary16 value stored in a `u16`.
///
/// Arithmetic is performed by converting to `f32`, operating, and rounding
/// the result back to binary16 (round-to-nearest-even), matching hardware
/// FP16 ALU semantics for a single operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values whose magnitude after rounding exceeds 65504 (the largest
    /// finite binary16) become infinity; values below half the smallest
    /// subnormal flush to zero.
    #[inline]
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let man = bits & 0x007f_ffff;

        if exp == 0xff {
            // Infinity or NaN. Preserve NaN-ness with a quiet bit.
            return if man == 0 {
                F16(sign | 0x7c00)
            } else {
                F16(sign | 0x7c00 | 0x0200 | ((man >> 13) as u16 & 0x3ff))
            };
        }

        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity. (unbiased == 15 may still overflow via
            // rounding; handled below.)
            return F16(sign | 0x7c00);
        }

        if unbiased >= -14 {
            // Normal range for binary16.
            let mut half_exp = (unbiased + 15) as u32;
            let mut half_man = man >> 13;
            let round = man & 0x1fff;
            if round > 0x1000 || (round == 0x1000 && half_man & 1 == 1) {
                half_man += 1;
                if half_man == 0x400 {
                    half_man = 0;
                    half_exp += 1;
                    if half_exp >= 31 {
                        return F16(sign | 0x7c00);
                    }
                }
            }
            return F16(sign | ((half_exp as u16) << 10) | half_man as u16);
        }

        // Subnormal or zero.
        if unbiased < -25 {
            return F16(sign);
        }
        let man = man | 0x0080_0000; // restore implicit leading 1
        let shift = (13 - 14 - unbiased) as u32; // bits shifted out
        let mut half_man = man >> shift;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if rem > halfway || (rem == halfway && half_man & 1 == 1) {
            half_man += 1; // may carry into the exponent field, which is correct
        }
        F16(sign | half_man as u16)
    }

    /// Converts this binary16 value to `f32` exactly (binary16 ⊂ binary32).
    #[inline]
    pub fn to_f32(self) -> f32 {
        let h = self.0;
        let sign = if h & 0x8000 != 0 { -1.0f32 } else { 1.0f32 };
        let exp = (h >> 10) & 0x1f;
        let man = (h & 0x3ff) as f32;
        match exp {
            0 => sign * man * 5.960_464_5e-8, // man * 2^-24 (exact in f32)
            31 => {
                if man == 0.0 {
                    sign * f32::INFINITY
                } else {
                    f32::NAN
                }
            }
            _ => sign * (1.0 + man / 1024.0) * (exp as i32 - 15).exp2f32(),
        }
    }

    /// Returns true if this value is infinite.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0 & 0x7fff == 0x7c00
    }

    /// Returns true if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.0 & 0x7c00 == 0x7c00 && self.0 & 0x3ff != 0
    }

    /// Returns true if this value is finite (neither infinite nor NaN).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0 & 0x7c00 != 0x7c00
    }
}

trait Exp2 {
    fn exp2f32(self) -> f32;
}

impl Exp2 for i32 {
    #[inline]
    fn exp2f32(self) -> f32 {
        f32::from_bits(((self + 127) as u32) << 23)
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> F16 {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl std::ops::Add for F16 {
    type Output = F16;
    fn add(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl std::ops::Sub for F16 {
    type Output = F16;
    fn sub(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl std::ops::Mul for F16 {
    type Output = F16;
    fn mul(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl std::ops::Div for F16 {
    type Output = F16;
    fn div(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl std::ops::Neg for F16 {
    type Output = F16;
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Rounds an `f32` through binary16 and back: `f16(x) as f32`.
///
/// This is the storage-quantization primitive used by FP16 tensors.
#[inline]
pub fn quantize_f16(x: f32) -> f32 {
    F16::from_f32(x).to_f32()
}

/// Quantizes a whole slice through binary16 in place.
pub fn quantize_f16_slice(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = quantize_f16(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(quantize_f16(x), x, "integer {i} must be exact in f16");
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::from_f32(1.0), F16::ONE);
        assert_eq!(F16::from_f32(65504.0).to_f32(), 65504.0);
        assert_eq!(F16::from_f32(0.5).to_f32(), 0.5);
        assert_eq!(F16::from_f32(-0.25).to_f32(), -0.25);
        assert_eq!(F16::from_f32(2.0f32.powi(-14)).to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::from_f32(2.0f32.powi(-24)).to_f32(), 2.0f32.powi(-24));
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite()); // rounds past 65504
        assert!(F16::from_f32(1.0e6).is_infinite());
        assert!(F16::from_f32(-1.0e6).to_f32().is_infinite());
        assert_eq!(F16::from_f32(65519.0).to_f32(), 65504.0); // rounds down to max
    }

    #[test]
    fn underflow_to_zero_and_subnormals() {
        assert_eq!(F16::from_f32(1.0e-10).to_f32(), 0.0);
        let sub = 3.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
        // Halfway between 0 and the smallest subnormal rounds to even (zero).
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_f32(), 0.0);
        // Just above halfway rounds up.
        assert!(F16::from_f32(1.1 * 2.0f32.powi(-25)).to_f32() > 0.0);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1 and 1 + 2^-10; ties to even → 1.
        assert_eq!(quantize_f16(1.0 + 2.0f32.powi(-11)), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; ties to even → 1+2^-9.
        assert_eq!(
            quantize_f16(1.0 + 3.0 * 2.0f32.powi(-11)),
            1.0 + 2.0f32.powi(-9)
        );
    }

    #[test]
    fn arithmetic_rounds_per_operation() {
        // 2048 + 1 is not representable (spacing is 2 at that magnitude).
        assert_eq!((F16::from_f32(2048.0) + F16::ONE).to_f32(), 2048.0);
        let a = F16::from_f32(300.0);
        assert!((a * a).is_infinite(), "300^2 = 90000 overflows f16");
    }

    #[test]
    fn negation_flips_sign_bit() {
        assert_eq!((-F16::ONE).to_f32(), -1.0);
        assert_eq!((-F16::ZERO).0, 0x8000);
    }
}
