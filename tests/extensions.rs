//! Integration: an outlook feature (§VIII-A storm analytics) and a
//! robustness extension (checkpointing) on the full stack.

use exaclim_core::experiment::{evaluate_model, run_experiment, ExperimentConfig, ModelKind};
use exaclim_core::prelude::*;
use exaclim_nn::checkpoint;

#[test]
fn checkpoint_roundtrip_preserves_evaluation() {
    let mut cfg = ExperimentConfig::quick(ModelKind::Tiramisu);
    cfg.trainer.steps = 6;
    let mut result = run_experiment(&cfg).expect("train");
    let path = std::env::temp_dir().join(format!("exaclim_ext_ckpt_{}.exck", std::process::id()));
    // Full state = params + batch-norm running stats: required for exact
    // eval-mode restoration.
    checkpoint::save(&checkpoint::full_state(result.model.as_ref()), &path).expect("save");

    // Fresh, differently-seeded model: restore must make it identical.
    let mut other_cfg = cfg.clone();
    other_cfg.trainer.steps = 0;
    other_cfg.trainer.seed = 999; // different init
    let mut fresh = run_experiment(&other_cfg).expect("fresh");
    assert_ne!(
        checkpoint::full_state(fresh.model.as_ref()).state_hash(),
        checkpoint::full_state(result.model.as_ref()).state_hash()
    );
    checkpoint::load_into(&checkpoint::full_state(fresh.model.as_ref()), &path).expect("load");
    assert_eq!(
        checkpoint::full_state(fresh.model.as_ref()).state_hash(),
        checkpoint::full_state(result.model.as_ref()).state_hash(),
        "restored replica (incl. BN buffers) must be bitwise identical"
    );

    // And evaluation must agree exactly.
    let a = evaluate_model(
        result.model.as_mut(),
        &result.dataset,
        Split::Validation,
        &result.stats,
        &cfg.channels,
        DType::F32,
    )
    .expect("eval a");
    let b = evaluate_model(
        fresh.model.as_mut(),
        &result.dataset,
        Split::Validation,
        &result.stats,
        &cfg.channels,
        DType::F32,
    )
    .expect("eval b");
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.mean_iou, b.mean_iou);
    std::fs::remove_file(&path).ok();
}

#[test]
fn storm_analytics_works_on_network_predictions() {
    use exaclim_core::climsim::storms::{analyze_storms, summarize};
    use exaclim_core::climsim::FieldGenerator;
    use exaclim_nn::metrics::argmax_channels;

    let cfg = ExperimentConfig::study(ModelKind::DeepLab, 2, 40);
    let mut result = run_experiment(&cfg).expect("train");
    let generator = FieldGenerator::new(cfg.dataset.generator.clone());
    // Regenerate a validation sample to get its full ClimateSample fields.
    let idx = result.dataset.indices(Split::Validation)[0];
    let sample = generator.generate(idx as u64);
    let (h, w) = (result.dataset.h, result.dataset.w);
    let mut data = Vec::new();
    for c in 0..16 {
        for &v in &sample.data[c * h * w..(c + 1) * h * w] {
            data.push(result.stats.normalize(c, v));
        }
    }
    let input = Tensor::from_vec([1, 16, h, w], DType::F32, data);
    let mut ctx = Ctx::eval();
    let logits = result.model.forward(&input, &mut ctx);
    let pred = argmax_channels(&logits);
    // The analytics pipeline must run on *predicted* masks (the §VIII-A
    // use case) without panicking, and produce in-range statistics.
    let storms = analyze_storms(&sample, &pred.data, 4);
    let summary = summarize(&storms);
    for s in &storms {
        assert!(s.area >= 4);
        assert!(s.latitude.abs() <= 90.0);
        assert!(s.max_wind.is_finite());
    }
    // Not asserting exact counts: a 40-step network is noisy. The truth
    // mask must be analyzable too.
    let truth = summarize(&analyze_storms(&sample, &sample.true_mask, 4));
    assert!(truth.tc_count + truth.ar_count >= 1);
    let _ = summary;
}
