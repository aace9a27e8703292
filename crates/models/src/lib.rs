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
//! [`OpSpec`](spec::OpSpec) list that `exaclim-perfmodel` consumes; its
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
