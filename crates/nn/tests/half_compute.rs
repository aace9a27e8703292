//! Convergence smoke for half-precision compute: a small conv/ReLU stack
//! trained for a few SGD steps on `F16` activations must track the FP32
//! loss curve. The layers cast their FP32 master weights to the activation
//! dtype, so every GEMM reads binary16 operands and accumulates in FP32;
//! master weights stay FP32, so the curves should agree closely but not
//! bit-exactly.

use exaclim_nn::layers::{Conv2d, ReLU};
use exaclim_nn::loss::{Labels, WeightedCrossEntropy};
use exaclim_nn::optim::{Optimizer, Sgd};
use exaclim_nn::{Ctx, Layer, Sequential};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::Conv2dParams;
use exaclim_tensor::DType;

const STEPS: usize = 5;

/// Trains the fixed stack for [`STEPS`] SGD steps on activations of
/// `dtype`, returning the per-step losses.
fn train(dtype: DType) -> Vec<f32> {
    let mut rng = seeded_rng(2024);
    let mut model = Sequential::new("half-smoke")
        .push(Conv2d::new("c1", 4, 8, 3, Conv2dParams::padded(1), true, &mut rng))
        .push(ReLU::new())
        .push(Conv2d::new("c2", 8, 3, 3, Conv2dParams::padded(1), true, &mut rng));
    let x = randn([2, 4, 8, 8], DType::F32, 1.0, &mut rng).cast(dtype);
    let labels = Labels::new(2, 8, 8, (0..2 * 8 * 8).map(|i| (i % 3) as u8).collect());
    let weights = vec![1.0f32; 2 * 8 * 8];
    let ce = WeightedCrossEntropy::default();
    let mut opt = Sgd::new(0.05);

    let mut losses = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        let mut ctx = Ctx::train(0);
        let logits = model.forward(&x, &mut ctx);
        assert_eq!(logits.dtype(), dtype, "activations keep the input's dtype");
        let out = ce.forward(&logits, &labels, &weights);
        model.backward(&out.grad_logits);
        opt.step(&model.params());
        losses.push(out.loss);
    }
    losses
}

#[test]
fn f16_compute_tracks_fp32_loss_curve() {
    let fp32 = train(DType::F32);
    let half = train(DType::F16);
    assert!(half.iter().all(|l| l.is_finite()), "F16 loss diverged: {half:?}");
    // Training must make progress in half precision too.
    assert!(half[STEPS - 1] < half[0], "F16 loss did not decrease: {half:?}");
    // Parity with the FP32 curve at every step: binary16 activations and
    // weight copies perturb the loss by far less than a training step
    // moves it.
    for (s, (h, f)) in half.iter().zip(fp32.iter()).enumerate() {
        let tol = 0.05 * f.abs().max(1e-3);
        assert!((h - f).abs() <= tol, "step {s}: F16 loss {h} vs fp32 {f} (tol {tol})");
    }
}

#[test]
fn half_compute_actually_engages_the_half_path() {
    // The F16 curve must differ from FP32 somewhere — if the two were
    // bit-identical, the dtype would not be reaching the GEMM operands.
    assert_ne!(train(DType::F32), train(DType::F16), "F16 activations produced bit-identical losses to FP32");
}
