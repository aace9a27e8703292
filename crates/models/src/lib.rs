//! # exaclim-models
//!
//! The two segmentation architectures of *Exascale Deep Learning for
//! Climate Analytics* (Kurth et al., SC'18):
//!
//! * [`tiramisu`] — the modified Tiramisu / FC-DenseNet (§III-A1, §V-B5):
//!   dense blocks with concatenation skips, a down path, bottleneck and up
//!   path, with the paper's modification of growth-rate 32 + 5×5
//!   convolutions (vs the original 16 + 3×3) available as a config knob.
//! * [`deeplab`] — the modified DeepLabv3+ of Figure 1: ResNet-50 encoder
//!   with atrous stages, an ASPP block with dilations 12/24/36, and the
//!   paper's **full-resolution decoder** built from learned 3×3
//!   deconvolutions (the standard ¼-resolution bilinear decoder is kept as
//!   an ablation baseline).
//!
//! Every architecture is scale-parameterized: `paper()` configs reproduce
//! the exact shapes of Figure 1 (1152×768×16 inputs) for the *analytic*
//! paths (FLOP counting, roofline timing), while `tiny()` configs train for
//! real on synthetic data in seconds. [`spec`] emits the per-layer
//! [`OpSpec`] list that `exaclim-perfmodel` consumes; its
//! equality with the executed kernel census is enforced by tests.

pub mod blocks;
pub mod deeplab;
pub mod spec;
pub mod tiramisu;

pub use deeplab::{DeepLabConfig, DeepLabV3Plus};
pub use spec::{ArchSpec, OpKind, OpSpec};
pub use tiramisu::{Tiramisu, TiramisuConfig};

/// Number of segmentation classes: background, tropical cyclone,
/// atmospheric river.
pub const NUM_CLASSES: usize = 3;

/// Number of CAM5 input variables used on Summit (§V-B3).
pub const NUM_CHANNELS_FULL: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_nn::{Ctx, Layer};
    use exaclim_tensor::init::{randn, seeded_rng};
    use exaclim_tensor::{DType, Tensor};
    use std::sync::{Arc, Mutex};

    /// Runs one forward and backward with a ready hook on every trainable
    /// parameter. Each hook records the bit hash of its gradient at the
    /// moment it fires, so the test sees both how often it fired and
    /// whether the gradient it announced was already final.
    fn assert_each_param_fires_once_with_its_final_grad(net: &mut dyn Layer, x: &Tensor) {
        let params = net.params();
        let fired: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(vec![Vec::new(); params.len()]));
        for (i, p) in params.iter().enumerate() {
            let (fired, q) = (fired.clone(), p.clone());
            p.set_ready_hook(Arc::new(move || fired.lock().unwrap()[i].push(q.grad().bit_hash())));
        }
        let y = net.forward(x, &mut Ctx::train(0));
        net.backward(&Tensor::full(y.shape().clone(), DType::F32, 0.1));
        // Each hook holds its own parameter: clearing breaks the cycle.
        params.iter().for_each(|p| p.clear_ready_hook());

        let fired = fired.lock().unwrap();
        for (p, hashes) in params.iter().zip(fired.iter()) {
            assert_eq!(hashes.len(), 1, "{} fired {} times", p.name(), hashes.len());
            assert_eq!(hashes[0], p.grad().bit_hash(), "{} fired before its gradient was final", p.name());
        }
    }

    #[test]
    fn every_parameter_fires_its_ready_hook_once_per_backward() {
        let mut rng = seeded_rng(80);
        let mut deeplab = DeepLabV3Plus::new(DeepLabConfig::tiny(4), &mut rng);
        let x = randn([1, 4, 16, 16], DType::F32, 1.0, &mut rng);
        assert_each_param_fires_once_with_its_final_grad(&mut deeplab, &x);

        let mut tiramisu = Tiramisu::new(TiramisuConfig::tiny(4), &mut rng);
        let x = randn([1, 4, 8, 8], DType::F32, 1.0, &mut rng);
        assert_each_param_fires_once_with_its_final_grad(&mut tiramisu, &x);
    }
}
