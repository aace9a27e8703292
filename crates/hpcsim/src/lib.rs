//! # exaclim-hpcsim
//!
//! Analytic + discrete-event models of the two machines the paper runs on,
//! standing in for hardware we do not have (27 360 V100s, dual-rail EDR
//! InfiniBand, a 250 PB GPFS installation):
//!
//! * [`gpu`] — roofline GPU models (P100, V100 in FP32 and tensor-core
//!   FP16) that turn a kernel census into per-category execution times,
//!   with per-category efficiency factors calibrated against the paper's
//!   own single-node profiles (Figures 8/9).
//! * [`net`] — interconnect models and collective cost functions: ring,
//!   recursive doubling, binomial tree, and the paper's hierarchical
//!   NCCL+MPI hybrid (§V-A3).
//! * [`fs`] — shared parallel-filesystem contention (Lustre on Piz Daint,
//!   GPFS on Summit) and node-local burst buffers (NVMe / tmpfs), plus the
//!   multi-threaded-reader scaling the paper measured (1.79 → 11.98 GB/s
//!   from 1 → 8 threads, §V-A1).
//! * [`machine`] — `summit()` and `piz_daint()` with the paper's published
//!   system parameters.
//! * [`event`] — a small discrete-event engine used by the staging
//!   simulator.
//! * [`TrainingJobModel`] — the weak-scaling training-step model behind Figures 4
//!   and 5: per-rank compute jitter (synchronous all-reduce waits for the
//!   slowest of N ranks), overlapped gradient all-reduce with and without
//!   gradient lag, and the input-pipeline exposure under staged vs global
//!   filesystem feeds.
//!
//! All bandwidths are bytes/second and times are seconds unless noted.

mod cluster;
pub mod event;
pub mod fs;
pub mod gpu;
pub mod machine;
pub mod net;

pub use cluster::{ScalePoint, TrainingJobModel, WorkloadModel};
pub use event::{Faulted, Simulator};
pub use fs::{BurstBuffer, SharedFilesystem};
pub use gpu::{GpuModel, KernelWork, Precision, WorkCategory};
pub use machine::MachineSpec;
pub use net::{CollectiveAlgo, LinkModel};
