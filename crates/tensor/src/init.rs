//! Weight initializers.
//!
//! Data-parallel training requires every rank to build an *identical*
//! replica (Section V-A3: "assuming consistent initialization … identical
//! updates"). All initializers therefore take an explicit seeded RNG so the
//! distributed trainer can hand every rank the same stream.

use crate::tensor::{DType, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG suitable for reproducible initialization.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn sample_standard_normal(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if u1 > f32::MIN_POSITIVE {
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (2.0 * std::f32::consts::PI * u2).cos();
        }
    }
}

/// Tensor of i.i.d. normal samples with the given std deviation.
pub fn randn(shape: impl Into<crate::Shape>, dtype: DType, std: f32, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.numel())
        .map(|_| sample_standard_normal(rng) * std)
        .collect();
    Tensor::from_vec(shape, dtype, data)
}

/// He (Kaiming) normal initialization for a conv weight `[K, C, R, S]`:
/// `std = sqrt(2 / fan_in)`, `fan_in = C*R*S`. The ReLU-friendly default
/// for both Tiramisu and the ResNet-50 core of DeepLabv3+.
pub fn he_normal(shape: impl Into<crate::Shape>, dtype: DType, rng: &mut StdRng) -> Tensor {
    let shape = shape.into();
    let dims = shape.dims();
    let fan_in: usize = if dims.len() >= 2 {
        dims[1..].iter().product()
    } else {
        dims.iter().product()
    };
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    randn(shape, dtype, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        let ta = randn([64], DType::F32, 1.0, &mut a);
        let tb = randn([64], DType::F32, 1.0, &mut b);
        assert_eq!(ta.as_slice(), tb.as_slice());
    }

    #[test]
    fn he_normal_std_is_plausible() {
        let mut rng = seeded_rng(7);
        // fan_in = 64*3*3 = 576 → std ≈ 0.0589
        let t = he_normal([32, 64, 3, 3], DType::F32, &mut rng);
        let mean = t.mean();
        let var = t.as_slice().iter().map(|&x| (x - mean).powi(2)).sum::<f32>()
            / (t.numel() - 1) as f32;
        let expected = 2.0 / 576.0;
        assert!((var - expected).abs() < expected * 0.15, "var {var} vs {expected}");
    }

    #[test]
    fn normal_samples_have_unit_variance() {
        let mut rng = seeded_rng(11);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
