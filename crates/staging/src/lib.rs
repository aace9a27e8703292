//! # exaclim-staging
//!
//! High-speed parallel data staging (§V-A1).
//!
//! Training at scale needs every node to hold a local shard of the
//! dataset (250 samples per GPU, 1500 per Summit node). The paper found
//! that the *naive* approach — every node copying its own (overlapping)
//! subset straight from the parallel filesystem — took 10–20 minutes at
//! 1024 nodes and "rendered the global file system nearly unusable",
//! because each file was read ≈23 times. Their fix:
//!
//! 1. partition the dataset into **disjoint** pieces, each read from the
//!    filesystem exactly once (with multi-threaded readers: 1.79 →
//!    11.98 GB/s per node from 1 → 8 threads),
//! 2. redistribute copies **node-to-node over InfiniBand**, which is far
//!    faster than the filesystem and puts no load on it.
//!
//! This crate provides:
//!
//! * [`assign`] — deterministic sample→node assignments (who needs what,
//!   who reads what). A node's needs are a pure function of
//!   `(seed, node)` ([`StagingPlan::node_needs`]), which is also the shard
//!   its training stream reads; ownership moves only off a reader that
//!   died mid-staging.
//! * [`sim`] — a discrete-event simulation of both staging strategies on
//!   the machine models, reproducing the §V-A1 timings.
//! * [`real`] — a *real* miniature staging system: thread "nodes", CDF5
//!   files on local disk, crossbeam channels as the interconnect — used to
//!   verify the protocol delivers bit-identical shards, with or without
//!   reader deaths.

pub mod assign;
pub mod real;
pub mod sim;

pub use assign::StagingPlan;
pub use sim::{
    simulate_distributed_staging, simulate_distributed_staging_faulty, simulate_naive_staging,
    StagingConfig, StagingOutcome,
};
