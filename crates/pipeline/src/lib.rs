//! # exaclim-pipeline
//!
//! The optimized input pipeline of §V-A2, grown into a streaming,
//! backpressured, bit-reproducible ingest subsystem.
//!
//! TensorFlow's default placement puts input processing on the training
//! critical path; the paper's fixes — reproduced here — are:
//!
//! * a **prefetch queue** deep enough to absorb input-rate variability
//!   ([`stream::StreamConfig::depth`]),
//! * **parallel worker processes** instead of threads, because the HDF5
//!   library serializes all reads behind one global lock. The
//!   [`prefetch::ReaderMode`] knob reproduces both worlds: `SharedLocked`
//!   (one mutex around a shared reader — the HDF5 pathology) and
//!   `PerWorker` (each worker owns an independent reader, the
//!   `multiprocessing` fix).
//!
//! The engine is [`stream::StreamingIngest`], configured by one
//! [`stream::StreamConfig`]: sharded reader tasks stream whole CDF5 chunks
//! through bounded per-worker channels, decode into pool-recycled buffers
//! (zero steady-state allocations), and follow the pure hierarchical
//! shuffle of [`sampler::epoch_permutation`] — so the consumed sample
//! sequence is bit-identical at any worker count and across elastic
//! re-shards. The stream starts with one reader; the
//! [`prefetch::ReaderAutoscaler`] resizes the set from step timings.
//! [`decode`] turns raw sample buffers into normalized training tensors
//! with the per-pixel loss-weight map computed CPU-side (§V-B1), and
//! [`augment`] adds the two label-preserving global-field augmentations
//! (longitude roll, latitude mirror with meridional-wind sign flips). The
//! node-local shard a stream reads comes from the staging plan
//! (`exaclim_staging::IngestFeed`, §V-A1).

pub mod augment;
pub mod decode;
pub mod prefetch;
pub mod sampler;
pub mod stream;

pub use augment::Augmentation;
pub use decode::{ChannelStats, DecodedSample};
pub use prefetch::{ReaderAutoscaler, ReaderMode};
pub use sampler::epoch_permutation;
pub use stream::{StreamConfig, StreamingIngest};
