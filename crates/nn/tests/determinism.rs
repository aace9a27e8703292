//! End-to-end thread-count invariance at the layer level: a small
//! conv/batch-norm/ReLU stack must produce bit-identical activations and
//! parameter gradients whether the kernel pool runs 1, 3 or 4 threads.

use exaclim_nn::layers::{BatchNorm2d, Conv2d, ReLU};
use exaclim_nn::{Ctx, Layer, Sequential};
use exaclim_tensor::init::{randn, seeded_rng};
use exaclim_tensor::ops::Conv2dParams;
use exaclim_tensor::{kernel_threads, set_kernel_threads, DType, Tensor};
use std::sync::Mutex;

static WIDTH_GUARD: Mutex<()> = Mutex::new(());

fn build_model() -> Sequential {
    let mut rng = seeded_rng(31337);
    Sequential::new("stack")
        .push(Conv2d::new("c1", 16, 8, 3, Conv2dParams::padded(1), true, &mut rng))
        .push(BatchNorm2d::new("bn1", 8))
        .push(ReLU::new())
        .push(Conv2d::new("c2", 8, 4, 3, Conv2dParams::padded(1), false, &mut rng))
}

fn run_once() -> (Tensor, Tensor, Vec<(String, Vec<f32>)>) {
    let mut rng = seeded_rng(90);
    let x = randn([2, 16, 24, 24], DType::F32, 1.0, &mut rng);
    let mut model = build_model();
    let mut ctx = Ctx::train(7);
    let y = model.forward(&x, &mut ctx);
    let go = randn(y.shape().clone(), DType::F32, 1.0, &mut rng);
    let gx = model.backward(&go);
    let grads = model
        .params()
        .iter()
        .map(|p| (p.name(), p.grad().as_slice().to_vec()))
        .collect();
    (y, gx, grads)
}

#[test]
fn layer_stack_bit_identical_across_widths() {
    let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let ambient = kernel_threads();
    let runs = [1, 3, 4].map(|w| {
        set_kernel_threads(w);
        (w, run_once())
    });
    set_kernel_threads(ambient);

    let (y1, gx1, grads1) = &runs[0].1;
    for (w, (y, gx, grads)) in &runs[1..] {
        assert_eq!(y1.as_slice(), y.as_slice(), "activations differ at {w} threads");
        assert_eq!(gx1.as_slice(), gx.as_slice(), "input grads differ at {w} threads");
        assert_eq!(grads1.len(), grads.len());
        for ((n1, g1), (n, g)) in grads1.iter().zip(grads.iter()) {
            assert_eq!(n1, n);
            assert_eq!(g1, g, "parameter grad {n1} differs at {w} threads");
        }
    }
}
