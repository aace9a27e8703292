//! Allocation pin for the optimizers: once state is bound, a step makes
//! zero fresh pool allocations.
//!
//! One `#[test]` in a binary of its own, like the workspace's
//! `tests/allocation_regression.rs`: `pool::stats()` is process-global, so
//! any neighbouring test thread that touches the pool inside the measured
//! window would be counted against the optimizer.

use exaclim_nn::optim::{Adam, Lagged, LarcSgd, Optimizer, Sgd};
use exaclim_nn::{Param, ParamSet};
use exaclim_tensor::{pool, DType, Tensor};

/// A small multi-tensor set with odd lengths (SIMD remainder lanes). The
/// values are arbitrary: only the allocator is watched.
fn toy_set() -> ParamSet {
    let mut set = ParamSet::new();
    for (i, n) in [37usize, 8, 129, 5].into_iter().enumerate() {
        let vals = (0..n).map(|j| 0.01 * j as f32 - 0.3).collect();
        set.push(Param::new(format!("p{i}"), Tensor::from_vec([n], DType::F32, vals)));
    }
    set
}

fn seed_grads(set: &ParamSet, step: u32) {
    for p in set.iter() {
        let n = p.numel();
        let vals = (0..n).map(|j| 0.004 * (j as f32 - step as f32)).collect();
        p.set_grad(Tensor::from_vec([n], DType::F32, vals));
    }
}

type Build = fn() -> Box<dyn Optimizer>;

fn builders() -> Vec<(&'static str, Build)> {
    vec![
        ("sgd", || Box::new(Sgd::new(0.05))),
        ("adam", || Box::new(Adam::new(0.01))),
        ("larc", || {
            let mut o = LarcSgd::new(0.05, 0.01);
            o.sgd_mut().weight_decay = 1e-4;
            Box::new(o)
        }),
        ("lagged", || Box::new(Lagged::new(Sgd::new(0.05)))),
    ]
}

/// The hot step path performs zero fresh pool allocations once state
/// is bound.
#[test]
fn steady_state_step_is_allocation_free() {
    for (tag, build) in builders() {
        let set = toy_set();
        let mut opt = build();
        for s in 0..3u32 {
            seed_grads(&set, s);
            opt.step(&set);
        }
        seed_grads(&set, 100);
        let before = pool::stats();
        opt.step(&set);
        let delta = pool::stats().since(&before);
        assert_eq!(delta.fresh_allocs, 0, "{tag}: optimizer step allocated");
    }
}
