//! Kernel census recorder.
//!
//! Section VI of the paper determines FLOP rates by traversing the
//! TensorFlow operation graph and counting the floating-point work of every
//! kernel, then groups kernels into eight categories for the roofline-style
//! analysis of Figures 3, 8 and 9. This module is the equivalent
//! instrument: every kernel in [`crate::ops`] reports `(kind, flops,
//! bytes_read, bytes_written)` here, and the execution *phase*
//! (forward / backward / optimizer) set by the training loop maps the kind
//! onto the paper's category rows.
//!
//! Recording is off by default and costs a single relaxed atomic load per
//! kernel when disabled.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a kernel does, independent of when it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Convolution, transposed convolution, or the GEMM backing one.
    Conv,
    /// Elementwise / small-reduction work: bias, activations, batch norm,
    /// pooling, losses, dropout.
    Pointwise,
    /// Buffer copies and layout transposes (e.g. im2col scatter/gather,
    /// concatenation).
    CopyTranspose,
    /// Precision conversion kernels.
    TypeConversion,
    /// Gradient all-reduce traffic.
    Allreduce,
}

/// When a kernel runs. Set by the training loop around each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
    /// Optimizer / weight-update pass.
    Optimizer,
}

/// The paper's kernel categories (rows of Figures 3/8/9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Forward-pass convolutions.
    ForwardConv,
    /// Forward-pass pointwise kernels.
    ForwardPointwise,
    /// Backward-pass convolutions.
    BackwardConv,
    /// Backward-pass pointwise kernels.
    BackwardPointwise,
    /// Optimizer kernels.
    Optimizer,
    /// Copies and transposes (any phase).
    CopiesTransposes,
    /// All-reduce (NCCL-equivalent) kernels.
    Allreduce,
    /// Type conversions (any phase).
    TypeConversions,
}

impl Category {
    /// All categories in the paper's table order.
    pub const ALL: [Category; 8] = [
        Category::ForwardConv,
        Category::ForwardPointwise,
        Category::BackwardConv,
        Category::BackwardPointwise,
        Category::Optimizer,
        Category::CopiesTransposes,
        Category::Allreduce,
        Category::TypeConversions,
    ];

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Category::ForwardConv => "Forward Convolutions",
            Category::ForwardPointwise => "Forward Point-wise",
            Category::BackwardConv => "Backward Convolutions",
            Category::BackwardPointwise => "Backward Point-wise",
            Category::Optimizer => "Optimizer",
            Category::CopiesTransposes => "Copies/Transposes",
            Category::Allreduce => "Allreduce (NCCL)",
            Category::TypeConversions => "Type Conversions",
        }
    }
}

fn categorize(phase: Phase, kind: KernelKind) -> Category {
    match (kind, phase) {
        (KernelKind::Conv, Phase::Forward) => Category::ForwardConv,
        (KernelKind::Conv, _) => Category::BackwardConv,
        (KernelKind::Pointwise, Phase::Forward) => Category::ForwardPointwise,
        (KernelKind::Pointwise, Phase::Backward) => Category::BackwardPointwise,
        (KernelKind::Pointwise, Phase::Optimizer) => Category::Optimizer,
        (KernelKind::CopyTranspose, _) => Category::CopiesTransposes,
        (KernelKind::Allreduce, _) => Category::Allreduce,
        (KernelKind::TypeConversion, _) => Category::TypeConversions,
    }
}

/// One recorded kernel launch.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Category (phase × kind).
    pub category: Category,
    /// Kernel name, e.g. `"conv2d_fwd_direct"`.
    pub name: &'static str,
    /// Floating-point operations (2 per multiply-add, per Section VI).
    pub flops: u64,
    /// Bytes read from "device memory".
    pub bytes_read: u64,
    /// Bytes written to "device memory".
    pub bytes_written: u64,
}

/// Allocator traffic over a recorded region — the census's memory column.
///
/// Filled from [`crate::pool`] statistics deltas taken at [`start`] and
/// [`stop`], so it covers exactly the same region as the kernel records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTraffic {
    /// Buffer requests that hit the system allocator.
    pub fresh_allocs: u64,
    /// Buffer requests served from the recycling pool.
    pub pool_served: u64,
    /// Bytes obtained as fresh heap allocations.
    pub bytes_fresh: u64,
    /// Bytes obtained from recycled buffers.
    pub bytes_reused: u64,
    /// Pool high-water mark (absolute, at `stop` time).
    pub high_water_bytes: u64,
}

impl AllocTraffic {
    /// Total buffer requests in the region.
    pub fn total_allocs(&self) -> u64 {
        self.fresh_allocs + self.pool_served
    }
}

/// Aggregate census over a recorded region.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Every kernel launch in order.
    pub records: Vec<KernelRecord>,
    /// Allocator traffic during the region.
    pub alloc: AllocTraffic,
}

/// Per-category aggregate of a [`Profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategoryTotals {
    /// Number of kernel launches.
    pub kernels: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Total bytes moved (read + written).
    pub bytes: u64,
}

impl Profile {
    /// Sums records per category.
    pub fn by_category(&self) -> Vec<(Category, CategoryTotals)> {
        let mut out: Vec<(Category, CategoryTotals)> = Category::ALL
            .iter()
            .map(|&c| (c, CategoryTotals::default()))
            .collect();
        for r in &self.records {
            let slot = out.iter_mut().find(|(c, _)| *c == r.category).expect("known category");
            slot.1.kernels += 1;
            slot.1.flops += r.flops;
            slot.1.bytes += r.bytes_read + r.bytes_written;
        }
        out
    }

    /// Total FLOPs over all records.
    pub fn total_flops(&self) -> u64 {
        self.records.iter().map(|r| r.flops).sum()
    }

    /// Total bytes over all records.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes_read + r.bytes_written).sum()
    }

    /// Total kernel launches.
    pub fn total_kernels(&self) -> usize {
        self.records.len()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PHASE: AtomicU8 = AtomicU8::new(0);

/// One thread's private record buffer. `record()` only ever locks its own
/// shard (uncontended in steady state), so profiling no longer serializes
/// concurrently running kernels through one global mutex.
type Shard = Arc<Mutex<Vec<KernelRecord>>>;

/// All shards ever created, in thread-registration order. `start()` clears
/// them; `stop()` drains them in this (stable) order so repeated censuses
/// of the same single-threaded region produce identical record sequences.
static SHARDS: Mutex<Vec<Shard>> = Mutex::new(Vec::new());

thread_local! {
    static MY_SHARD: Shard = {
        let shard: Shard = Arc::new(Mutex::new(Vec::new()));
        SHARDS.lock().push(shard.clone());
        shard
    };
}

/// Pool-statistics snapshot taken at [`start`], consumed by [`stop`] to
/// report the region's allocator-traffic delta.
static POOL_AT_START: Mutex<Option<crate::pool::PoolStats>> = Mutex::new(None);

/// Begins recording. Any previous un-collected profile is discarded.
pub fn start() {
    for shard in SHARDS.lock().iter() {
        shard.lock().clear();
    }
    *POOL_AT_START.lock() = Some(crate::pool::stats());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording and returns the collected census.
///
/// Shards are drained in thread-registration order; within a shard,
/// records keep their recording order. Kernels record at the op level (on
/// the thread that invoked the op), so a single-threaded census region
/// yields exactly the sequential record order.
pub fn stop() -> Profile {
    ENABLED.store(false, Ordering::Relaxed);
    let mut prof = Profile::default();
    for shard in SHARDS.lock().iter() {
        prof.records.append(&mut shard.lock());
    }
    let now = crate::pool::stats();
    let delta = match POOL_AT_START.lock().take() {
        Some(at_start) => now.since(&at_start),
        None => now,
    };
    prof.alloc = AllocTraffic {
        fresh_allocs: delta.fresh_allocs,
        pool_served: delta.pool_served,
        bytes_fresh: delta.bytes_fresh,
        bytes_reused: delta.bytes_reused,
        high_water_bytes: delta.high_water_bytes,
    };
    prof
}

/// True while a census is being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the current execution phase (global; the census is intended for
/// single-rank analysis runs, mirroring the paper's single-node profiling).
pub fn set_phase(phase: Phase) {
    PHASE.store(
        match phase {
            Phase::Forward => 0,
            Phase::Backward => 1,
            Phase::Optimizer => 2,
        },
        Ordering::Relaxed,
    );
}

/// The current execution phase.
fn phase() -> Phase {
    match PHASE.load(Ordering::Relaxed) {
        0 => Phase::Forward,
        1 => Phase::Backward,
        _ => Phase::Optimizer,
    }
}

/// Records one kernel launch if a census is active.
#[inline]
pub fn record(kind: KernelKind, name: &'static str, flops: u64, bytes_read: u64, bytes_written: u64) {
    if !enabled() {
        return;
    }
    let category = categorize(phase(), kind);
    MY_SHARD.with(|shard| {
        shard.lock().push(KernelRecord {
            category,
            name,
            flops,
            bytes_read,
            bytes_written,
        });
    });
}

/// Records a caller-built kernel record verbatim, category included (the
/// optimizer files its updates under `Optimizer` whatever the phase).
pub fn record_raw(record: KernelRecord) {
    if !enabled() {
        return;
    }
    MY_SHARD.with(|shard| shard.lock().push(record));
}

/// Runs `f` with recording active and returns its result plus the census.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Profile) {
    start();
    let out = f();
    let prof = stop();
    (out, prof)
}

// ---------------------------------------------------------------------------
// Step timeline: wall-clock phase spans for the overlap analysis.
// ---------------------------------------------------------------------------

/// What a training-step wall-clock span covers. Unlike [`Phase`] (which
/// classifies *kernels*), span kinds mark the step's timeline so the
/// overlap report can compute how much communication the backward pass
/// hid: `CommBusy` is time a thread spent packing/all-reducing/scattering
/// a gradient bucket, `CommExposed` is the slice of that which the rank's
/// critical path actually waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Model forward pass.
    Forward,
    /// Loss + model backward pass.
    Backward,
    /// A gradient bucket being packed, all-reduced and scattered back
    /// (wherever that work runs — rank thread or comm progress thread).
    CommBusy,
    /// Gradient-reduction time on the rank thread's critical path: the
    /// whole reduce loop when communication is serial, or the join on the
    /// comm progress thread when it is overlapped.
    CommExposed,
    /// Optimizer step.
    Optimizer,
    /// Time the rank's critical path waited on the input pipeline (the
    /// blocking pull of the next batch) — the exposed-I/O number the
    /// prefetch autoscaler feeds on.
    Ingest,
}

impl SpanKind {
    /// Display label for timeline tables.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::CommBusy => "comm-busy",
            SpanKind::CommExposed => "comm-exposed",
            SpanKind::Optimizer => "optimizer",
            SpanKind::Ingest => "ingest",
        }
    }
}

/// One wall-clock span on a rank's step timeline.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// The rank whose timeline this span belongs to.
    pub rank: usize,
    /// Training step index.
    pub step: usize,
    /// What the span covers.
    pub kind: SpanKind,
    /// Start time in seconds since [`timeline_start`].
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

static TIMELINE_ON: AtomicBool = AtomicBool::new(false);
static TIMELINE: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static TIMELINE_EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

/// Begins timeline recording. Any previous un-collected spans are
/// discarded. Independent of the kernel census ([`start`]/[`stop`]).
pub fn timeline_start() {
    TIMELINE.lock().clear();
    *TIMELINE_EPOCH.lock() = Some(Instant::now());
    TIMELINE_ON.store(true, Ordering::Relaxed);
}

/// True while a timeline is being recorded.
#[inline]
fn timeline_active() -> bool {
    TIMELINE_ON.load(Ordering::Relaxed)
}

/// Stops timeline recording and returns the collected spans (in recording
/// order per thread; sort by `start_s` for a global view).
pub fn timeline_stop() -> Vec<SpanRecord> {
    TIMELINE_ON.store(false, Ordering::Relaxed);
    *TIMELINE_EPOCH.lock() = None;
    std::mem::take(&mut TIMELINE.lock())
}

/// Records one span if a timeline is active. `started` is the span's
/// starting instant (must be after [`timeline_start`]); `dur_s` its
/// duration in seconds.
pub fn record_span(rank: usize, step: usize, kind: SpanKind, started: Instant, dur_s: f64) {
    if !timeline_active() {
        return;
    }
    let start_s = match *TIMELINE_EPOCH.lock() {
        Some(epoch) => started.checked_duration_since(epoch).map_or(0.0, |d| d.as_secs_f64()),
        None => return, // stopped between the check and the lock
    };
    TIMELINE.lock().push(SpanRecord { rank, step, kind, start_s, dur_s });
}

/// Serializes tests that exercise the global census recorder (parallel
/// test threads would interleave records and corrupt exact-count
/// assertions). Test-support only.
#[doc(hidden)]
pub fn census_test_guard() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}
