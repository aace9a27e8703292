//! # exaclim-nn
//!
//! Neural-network building blocks for the exaclim reproduction of
//! *Exascale Deep Learning for Climate Analytics* (Kurth et al., SC'18):
//!
//! * [`layer`] — the [`Layer`] trait and the convolution,
//!   batch-norm, activation, pooling, upsampling and dropout layers that
//!   compose Tiramisu and DeepLabv3+.
//! * [`loss`] — the paper's **weighted softmax cross-entropy** (§V-B1)
//!   with the three class-weighting schemes it studies: unweighted,
//!   inverse class frequency (numerically unstable in FP16), and inverse
//!   *square-root* frequency (the one the paper ships).
//! * [`optim`] — SGD with momentum, Adam, the **LARC** layer-wise adaptive
//!   rate controller (§V-B2) and the **gradient-lag** wrapper (§V-B4).
//! * [`metrics`] — confusion matrices and the intersection-over-union
//!   scores reported in §VII-D.
//! * [`checkpoint`] — parameter save/restore.

pub mod checkpoint;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod param;

pub use layer::{Ctx, Layer, Sequential};
pub use optim::{OptState, Optimizer};
pub use param::{Param, ParamSet, ReadyHook};
