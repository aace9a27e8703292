//! # exaclim-distrib
//!
//! The Horovod-like distributed training runtime of §V-A3, with OS threads
//! standing in for MPI ranks:
//!
//! * [`Coordinator`] — Horovod's readiness coordination protocol, measured
//!   standalone. TensorFlow's dynamic scheduler may finish gradient
//!   tensors in a different order on every rank; without agreement on a
//!   single total order, collective all-reduces deadlock.
//!   [`Centralized`](ControlPlane::Centralized) is Horovod's
//!   original design (every rank reports to rank 0 — millions of messages
//!   per second at 27 k ranks); the
//!   [`hierarchical`](ControlPlane::Hierarchical) radix-r tree is
//!   the paper's fix. A round sends one message per tensor per tree edge
//!   each way over blocking receives, so every rank exchanges exactly
//!   `2·T·(children + has-parent)` messages, whatever the thread timing:
//!   `2(N−1)·T` at the centralized root, at most `2(r+1)·T` at any tree
//!   rank. The trainer does not run it per step: its fusion buckets are
//!   canonical and fixed when the replica is built, so every rank already
//!   reduces in the same order.
//! * [`fusion`] — Horovod's tensor-fusion buffer: coalesces small
//!   gradients into few large all-reduces.
//! * [`trainer`] — synchronous data-parallel SGD over real model replicas:
//!   identical initialization, per-step gradient averaging through the
//!   hybrid hierarchical all-reduce, LARC / Adam / gradient-lag options,
//!   and bitwise replica-consistency verification. One step
//!   (`step.rs`), two drivers: plain and [`elastic`].
//! * [`elastic`] — generation-numbered membership: ranks join and leave at
//!   step boundaries without a full restart, and survivors of a crash
//!   carry on from the live model, replaying no completed step.

mod control;
pub mod elastic;
pub mod fusion;
mod overlap;
mod step;
pub mod trainer;

pub use control::{ControlPlane, Coordinator};
pub use elastic::{train_data_parallel_elastic, ElasticConfig, ElasticReport, GenerationRecord};
pub use fusion::{fuse, FusionBucket};
pub use trainer::{
    train_data_parallel, BatchSource, OptimizerKind, StepRecord, TrainerConfig, TrainingReport,
};
