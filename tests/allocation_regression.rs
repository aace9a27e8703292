//! Allocation-regression pin: the buffer-recycling pool must absorb the
//! steady-state allocation traffic of a training step, and turning it on
//! must not change a single bit of the arithmetic.
//!
//! The whole scenario lives in one `#[test]` because the pool and its
//! counters are process-global: parallel test threads would interleave
//! their allocator deltas.

use exaclim_models::{DeepLabConfig, DeepLabV3Plus, Tiramisu, TiramisuConfig};
use exaclim_nn::optim::{Optimizer, Sgd};
use exaclim_nn::{Ctx, Layer};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::{kernel_threads, pool, set_kernel_threads, set_simd_enabled, simd_enabled, DType, Tensor};

fn build_net(seed: u64) -> Tiramisu {
    let mut rng = seeded_rng(seed);
    Tiramisu::new(TiramisuConfig::tiny(4), &mut rng)
}

/// One forward + backward + SGD step on a fixed synthetic batch.
fn train_step(net: &mut dyn Layer, opt: &mut Sgd, x: &Tensor, ctx: &mut Ctx) -> u64 {
    let y = net.forward(x, ctx);
    let scale = 1.0 / y.numel() as f32;
    let g = Tensor::full(y.shape().clone(), DType::F32, scale);
    net.backward(&g);
    opt.step(&net.params());
    y.bit_hash()
}

#[test]
fn pool_absorbs_steady_state_training_allocations() {
    let mut rng = seeded_rng(300);
    let x = randn([1, 4, 16, 16], DType::F32, 1.0, &mut rng);

    // --- Reference run with the pool disabled: every request is fresh.
    pool::set_enabled(false);
    let mut net_off = build_net(7);
    let mut opt_off = Sgd::new(0.05);
    let mut ctx_off = Ctx::train(0);
    train_step(&mut net_off, &mut opt_off, &x, &mut ctx_off);
    let before_off = pool::stats();
    train_step(&mut net_off, &mut opt_off, &x, &mut ctx_off);
    let off = pool::stats().since(&before_off);
    assert_eq!(off.pool_served, 0, "disabled pool must never serve");
    assert!(off.fresh_allocs > 0, "a train step allocates");
    train_step(&mut net_off, &mut opt_off, &x, &mut ctx_off); // 3rd step

    // --- Pooled run: warm one step, then pin the steady state.
    pool::set_enabled(true);
    pool::trim();
    let mut net_on = build_net(7);
    let mut opt_on = Sgd::new(0.05);
    let mut ctx_on = Ctx::train(0);
    train_step(&mut net_on, &mut opt_on, &x, &mut ctx_on); // warm-up fills the free lists
    let before_on = pool::stats();
    train_step(&mut net_on, &mut opt_on, &x, &mut ctx_on);
    let on = pool::stats().since(&before_on);

    assert!(
        on.pool_served > on.fresh_allocs,
        "steady state must be pool-dominated: {} served vs {} fresh",
        on.pool_served,
        on.fresh_allocs
    );
    assert!(
        on.fresh_allocs * 10 <= off.fresh_allocs,
        "pool must cut heap allocations >= 10x: {} fresh pooled vs {} unpooled",
        on.fresh_allocs,
        off.fresh_allocs
    );
    assert!(on.bytes_reused > 0, "recycled bytes must flow");

    // High water must be stable across steady-state steps (no leak of
    // outstanding buffers step over step).
    let hw_after_2 = on.high_water_bytes;
    train_step(&mut net_on, &mut opt_on, &x, &mut ctx_on);
    let hw_after_3 = pool::stats().high_water_bytes;
    assert!(
        hw_after_3 as f64 <= hw_after_2 as f64 * 1.10,
        "high water must not creep: {hw_after_2} -> {hw_after_3}"
    );

    // --- The optimizer step alone must be allocation-FREE in steady
    // state — index-addressed pool-backed momentum, in-place fused
    // updates, in-place grad zeroing. Not merely pool-dominated: zero.
    let y = net_on.forward(&x, &mut ctx_on);
    let scale = 1.0 / y.numel() as f32;
    let g = Tensor::full(y.shape().clone(), DType::F32, scale);
    net_on.backward(&g);
    let params = net_on.params();
    let before_step = pool::stats();
    opt_on.step(&params);
    let step_delta = pool::stats().since(&before_step);
    assert_eq!(
        step_delta.fresh_allocs, 0,
        "steady-state optimizer.step must not touch the allocator"
    );

    // --- Bit-identity: four steps pooled == four steps unpooled.
    train_step(&mut net_off, &mut opt_off, &x, &mut ctx_off); // 4th unpooled step
    let hash_off = net_off.params().state_hash();
    let hash_on = net_on.params().state_hash();
    assert_eq!(hash_on, hash_off, "pooling must not change parameter bits");
    // ... and for both networks, with the kernel pool 1 and 4 wide, and
    // on the scalar kernels (the reference the SIMD paths are bit-compared
    // against).
    let (ambient, ambient_simd) = (kernel_threads(), simd_enabled());
    for deeplab in [false, true] {
        let rows = [(false, 4, true), (true, 4, true), (true, 1, true), (true, 4, false)];
        let hashes = rows.map(|(pooled, threads, simd)| {
            pool::set_enabled(pooled);
            set_kernel_threads(threads);
            set_simd_enabled(simd);
            let mut net: Box<dyn Layer> = match deeplab {
                true => Box::new(DeepLabV3Plus::new(DeepLabConfig::tiny(4), &mut seeded_rng(7))),
                false => Box::new(build_net(7)),
            };
            let (mut opt, mut ctx) = (Sgd::new(0.05), Ctx::train(0));
            let out = (0..3).map(|_| train_step(net.as_mut(), &mut opt, &x, &mut ctx)).last();
            (out, net.params().state_hash())
        });
        set_kernel_threads(ambient);
        set_simd_enabled(ambient_simd);
        assert_eq!(
            hashes,
            [hashes[0]; 4],
            "deeplab={deeplab}: (pool off, on, on at 1 thread, on with SIMD off)"
        );
    }

    // Restore the environment default for any later process reuse.
    pool::set_enabled(true);
    pool::trim();
}
