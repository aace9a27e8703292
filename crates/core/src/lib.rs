//! # exaclim
//!
//! A from-scratch Rust reproduction of *Exascale Deep Learning for Climate
//! Analytics* (Kurth et al., SC'18 — the 2018 Gordon Bell Prize winner):
//! pixel-level segmentation of tropical cyclones and atmospheric rivers in
//! CAM5 climate snapshots, and the system stack that scaled its training
//! to 27 360 GPUs.
//!
//! This facade crate wires the subsystem crates together:
//!
//! | crate | paper section | role |
//! |---|---|---|
//! | `exaclim-tensor` | §VI | tensor kernels + kernel census |
//! | `exaclim-nn` | §V-B | layers, weighted loss, LARC, gradient lag |
//! | `exaclim-models` | §III-A1, Fig 1 | Tiramisu and DeepLabv3+ |
//! | `exaclim-climsim` | §III-A2 | synthetic CAM5 data + TECA-like labels |
//! | `exaclim-comm` | §V-A3 | collectives incl. hybrid all-reduce |
//! | `exaclim-distrib` | §V-A3 | Horovod-like runtime + control plane |
//! | `exaclim-pipeline` | §V-A2 | prefetch queue, reader workers |
//! | `exaclim-staging` | §V-A1 | distributed data staging |
//! | `exaclim-hpcsim` | §VI-A | Summit / Piz Daint machine models |
//! | `exaclim-perfmodel` | §VI, §VII | FLOP census → Figures 2–5 |
//!
//! [`experiment`] runs end-to-end segmentation training (the real
//! algorithm on synthetic data, scaled to laptop size) and evaluation;
//! [`viz`] renders segmentation masks (Figure 7-style).
//!
//! ## Quickstart
//!
//! ```
//! use exaclim_core::experiment::{ExperimentConfig, ModelKind, run_experiment};
//!
//! let mut cfg = ExperimentConfig::quick(ModelKind::DeepLab);
//! cfg.trainer.steps = 2; // doc-test speed
//! let result = run_experiment(&cfg).expect("experiment runs");
//! assert!(result.report.consistent, "replicas stayed identical");
//! ```

pub mod experiment;
pub mod viz;

pub use exaclim_climsim as climsim;
pub use exaclim_comm as comm;
pub use exaclim_distrib as distrib;
pub use exaclim_hpcsim as hpcsim;
pub use exaclim_models as models;
pub use exaclim_nn as nn;
pub use exaclim_perfmodel as perfmodel;
pub use exaclim_pipeline as pipeline;
pub use exaclim_staging as staging;
pub use exaclim_tensor as tensor;

/// Commonly-used items.
pub mod prelude {
    pub use crate::experiment::{run_experiment, EvalResult, ExperimentConfig, ExperimentResult, ModelKind};
    pub use exaclim_climsim::{ClimateDataset, DatasetConfig, Split};
    pub use exaclim_distrib::{OptimizerKind, TrainerConfig};
    pub use exaclim_models::{DeepLabConfig, DeepLabV3Plus, Tiramisu, TiramisuConfig};
    pub use exaclim_nn::loss::ClassWeighting;
    pub use exaclim_nn::{Ctx, Layer};
    pub use exaclim_tensor::{DType, Tensor};
}
