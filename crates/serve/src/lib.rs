//! # exaclim-serve
//!
//! The inference serving tier: the paper's trained climate-segmentation
//! networks, turned around to answer requests instead of consume batches.
//!
//! The tier is built from three pieces:
//!
//! 1. [`batch`] — batch-axis concat/split. NCHW batching is buffer
//!    concatenation, which is what makes the serving tier's central
//!    contract cheap to uphold: a fused forward over a dynamic batch is
//!    **bit-identical** per sample to running each sample alone, because
//!    every kernel reduces over non-batch axes in a canonical order and
//!    eval-mode normalization is pointwise (running statistics, no batch
//!    coupling).
//! 2. [`server`] — N model replicas loaded from one EXCK checkpoint and
//!    pinned to eval mode, pulling from a shared MPMC request queue. Each
//!    replica runs the dynamic batcher: collect requests until the batch
//!    is full *or* a latency deadline (measured from the first queued
//!    request) fires, then run one fused forward and demultiplex results
//!    to the callers. Replicas share the process-global recycling
//!    [`exaclim_tensor::pool`], so steady-state serving does no heap
//!    allocation.
//! 3. [`tile`] — full-frame (1152×768) inference by halo-overlapped
//!    tiling: crop ramp-weighted overlapping windows, push them through
//!    the same batcher, and blend. Deterministic by fixed tile order.

pub mod batch;
pub mod server;
pub mod tile;

pub use batch::{concat_batch, split_batch};
pub use server::{
    replicas_from_checkpoint, InferenceServer, PendingResponse, ReplicaReport, ServeConfig,
    ServeHandle, ServeTelemetry,
};
pub use tile::{infer_tiled, plan_tiles, Tile, TileConfig};
