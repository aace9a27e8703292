//! Integration: FP16 mixed-precision numerics end to end — the §V-B1
//! stability story on the real training stack.

use exaclim_core::experiment::{run_experiment, ExperimentConfig, ModelKind};
use exaclim_core::prelude::*;
use exaclim_nn::loss::{class_weights, pixel_weight_map, Labels, WeightedCrossEntropy};
use exaclim_tensor::half::quantize_f16;

#[test]
fn fp16_training_with_sqrt_weights_is_stable() {
    let mut cfg = ExperimentConfig::quick(ModelKind::Tiramisu);
    cfg.trainer.steps = 8;
    cfg.trainer.precision = DType::F16;
    cfg.weighting = ClassWeighting::InverseSqrtFrequency;
    let result = run_experiment(&cfg).expect("fp16 experiment");
    assert!(result.report.consistent);
    assert!(!result.report.diverged, "inverse-sqrt weights must stay finite in FP16");
    for s in &result.report.steps {
        assert!(s.mean_loss.is_finite(), "step {} loss {}", s.step, s.mean_loss);
    }
}

#[test]
fn fp16_storage_quantizes_activations() {
    // Every activation value in an FP16 run must be exactly representable
    // in binary16.
    let mut cfg = ExperimentConfig::quick(ModelKind::Tiramisu);
    cfg.trainer.steps = 1;
    cfg.trainer.precision = DType::F16;
    let mut result = run_experiment(&cfg).expect("experiment");
    let ds = result.dataset.clone();
    let stored = ds.sample(0).expect("sample");
    let (h, w) = (ds.h, ds.w);
    let mut data = Vec::new();
    for c in 0..16 {
        for &v in &stored.fields[c * h * w..(c + 1) * h * w] {
            data.push(result.stats.normalize(c, v));
        }
    }
    let input = Tensor::from_vec([1, 16, h, w], DType::F16, data);
    let mut ctx = Ctx::eval();
    let out = result.model.forward(&input, &mut ctx);
    assert_eq!(out.dtype(), DType::F16);
    for &v in out.as_slice() {
        assert_eq!(v, quantize_f16(v), "output {v} must be f16-exact");
    }
}

#[test]
fn inverse_frequency_weights_overflow_fp16_loss_path() {
    // Direct §V-B1 reproduction at the loss level with an extreme (but
    // paper-realistic) class mix and a production loss scale.
    let freqs = [0.982f32, 0.001, 0.017];
    let labels = Labels::new(1, 8, 8, vec![1u8; 64]); // a TC-dense tile
    let logits = Tensor::zeros([1, 3, 8, 8], DType::F16);
    let ce = WeightedCrossEntropy::with_scale(8192.0);

    let w_inv = pixel_weight_map(&labels, &class_weights(&freqs, ClassWeighting::InverseFrequency));
    let bad = ce.forward(&logits, &labels, &w_inv);
    assert!(
        bad.loss.is_infinite() || bad.grad_logits.has_non_finite(),
        "inverse-frequency weights must break FP16"
    );

    let w_sqrt = pixel_weight_map(
        &labels,
        &class_weights(&freqs, ClassWeighting::InverseSqrtFrequency),
    );
    let good = ce.forward(&logits, &labels, &w_sqrt);
    assert!(good.loss.is_finite());
    assert!(!good.grad_logits.has_non_finite());
}

#[test]
fn fp32_and_fp16_runs_agree_at_early_steps() {
    // With FP16's modest loss scale (128), FP16 training should track FP32
    // closely for the first few steps (§VII-C: both precisions converge).
    let mk = |precision| {
        let mut cfg = ExperimentConfig::quick(ModelKind::Tiramisu);
        cfg.trainer.steps = 5;
        cfg.trainer.precision = precision;
        run_experiment(&cfg).expect("run")
    };
    let r32 = mk(DType::F32);
    let r16 = mk(DType::F16);
    for (a, b) in r32.report.steps.iter().zip(r16.report.steps.iter()) {
        let rel = (a.mean_loss - b.mean_loss).abs() / a.mean_loss.abs().max(1e-3);
        assert!(
            rel < 0.25,
            "step {}: FP32 loss {} vs FP16 {} (rel {rel})",
            a.step,
            a.mean_loss,
            b.mean_loss
        );
    }
}
