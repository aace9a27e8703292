//! Buffer-recycling tensor memory pool.
//!
//! §VII-A of the paper names "improve the memory management" as half of
//! its single-node optimization path (the other half is pointwise fusion,
//! which this crate does not represent). This module supplies that half for
//! the CPU backend: a process-wide, thread-safe pool of `Vec<f32>` buffers
//! organized into power-of-two size classes. Dropped tensors return their
//! storage here instead of to the system allocator, so a steady-state
//! training step performs almost no heap allocation.
//!
//! Design rules (see DESIGN.md "Memory management"):
//!
//! * **Determinism** — a buffer leaving the pool is always fully
//!   initialized (zeroed, filled, or copied) before any kernel reads it,
//!   so results are bit-identical with the pool on or off and at any
//!   thread-pool width. The pool trades allocator traffic, never numerics.
//! * **No unsafe** — recycled buffers are `clear()`ed and `resize()`d;
//!   lengths never point at uninitialized memory.
//! * **Bounded retention** — each size class keeps at most
//!   [`MAX_PER_CLASS`] buffers; excess recycles fall through to the system
//!   allocator's `free`.
//!
//! The pool is always on in production; tests switch it off and on in one
//! process via [`set_enabled`] to compare both modes. Telemetry — allocations
//! served from the pool vs. fresh, bytes reused, high-water mark — feeds
//! the allocation-traffic column of the kernel census
//! ([`crate::profile::AllocTraffic`]).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Maximum buffers retained per size class; beyond this, recycled buffers
/// are freed. 32 buffers × the largest live class bounds idle footprint
/// while covering the deepest concat fan-in the models produce.
const MAX_PER_CLASS: usize = 32;

/// One free list per power-of-two capacity class (`usize` has at most 64
/// bit positions; f32 counts above 2^48 are unreachable in practice).
const NUM_CLASSES: usize = 48;

struct FreeLists {
    classes: Vec<Mutex<Vec<Vec<f32>>>>,
}

fn free_lists() -> &'static FreeLists {
    static LISTS: OnceLock<FreeLists> = OnceLock::new();
    LISTS.get_or_init(|| FreeLists {
        classes: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
    })
}

// --- telemetry --------------------------------------------------------------

static POOL_SERVED: AtomicU64 = AtomicU64::new(0);
static FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_REUSED: AtomicU64 = AtomicU64::new(0);
static BYTES_FRESH: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static OUTSTANDING_BYTES: AtomicU64 = AtomicU64::new(0);
static HIGH_WATER_BYTES: AtomicU64 = AtomicU64::new(0);

/// Pool telemetry counters (monotonic since process start, except
/// `outstanding_bytes` which tracks the current balance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffer requests satisfied from a free list.
    pub pool_served: u64,
    /// Buffer requests that went to the system allocator.
    pub fresh_allocs: u64,
    /// Bytes handed out from recycled buffers.
    pub bytes_reused: u64,
    /// Bytes handed out as fresh heap allocations.
    pub bytes_fresh: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Returned buffers freed instead of retained (class full or pool off).
    pub dropped: u64,
    /// Bytes currently checked out of the pool.
    pub outstanding_bytes: u64,
    /// Maximum simultaneous checked-out bytes observed.
    pub high_water_bytes: u64,
}

impl PoolStats {
    /// Counter delta since an earlier snapshot (`high_water_bytes` and
    /// `outstanding_bytes` report the later absolute values).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            pool_served: self.pool_served.saturating_sub(earlier.pool_served),
            fresh_allocs: self.fresh_allocs.saturating_sub(earlier.fresh_allocs),
            bytes_reused: self.bytes_reused.saturating_sub(earlier.bytes_reused),
            bytes_fresh: self.bytes_fresh.saturating_sub(earlier.bytes_fresh),
            recycled: self.recycled.saturating_sub(earlier.recycled),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            outstanding_bytes: self.outstanding_bytes,
            high_water_bytes: self.high_water_bytes,
        }
    }
}

/// Snapshot of the pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        pool_served: POOL_SERVED.load(Ordering::Relaxed),
        fresh_allocs: FRESH_ALLOCS.load(Ordering::Relaxed),
        bytes_reused: BYTES_REUSED.load(Ordering::Relaxed),
        bytes_fresh: BYTES_FRESH.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        outstanding_bytes: OUTSTANDING_BYTES.load(Ordering::Relaxed),
        high_water_bytes: HIGH_WATER_BYTES.load(Ordering::Relaxed),
    }
}

// --- enable gate ------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// True if buffer recycling is active (on unless [`set_enabled`] turned it
/// off). When off, every request is a fresh heap allocation and every
/// recycle is a free — numerics are unaffected.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switches buffer recycling on or off in-process (for tests that compare
/// pooled vs. unpooled behaviour in one run). Turning it off frees every
/// retained buffer.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if !on {
        trim();
    }
}

/// Frees every retained buffer, f32 and byte lists alike (the counters
/// are preserved).
pub fn trim() {
    for class in &free_lists().classes {
        class.lock().clear();
    }
    for class in &byte_free_lists().classes {
        class.lock().clear();
    }
}

// --- size classes -----------------------------------------------------------

/// Class a request of `n` elements draws from: the smallest power of two
/// ≥ `n`, so any buffer in the class has sufficient capacity.
#[inline]
fn class_for_request(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Class a buffer of capacity `cap` is filed under: the largest power of
/// two ≤ `cap`, so every resident satisfies the class's request bound.
#[inline]
fn class_for_buffer(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

fn note_taken(n: usize) {
    let bytes = (n * 4) as u64;
    let out = OUTSTANDING_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    HIGH_WATER_BYTES.fetch_max(out, Ordering::Relaxed);
}

/// Fresh empty buffer whose capacity is rounded up to the request
/// class's power of two, so that when it is later recycled it files into
/// exactly the class requests of this size draw from. Without the
/// round-up, a 1700-element fresh buffer (capacity 1700, class 10) could
/// never serve another 1700-element request (class 11) and the pool would
/// miss on that shape forever.
fn fresh_with_class_capacity(n: usize) -> Vec<f32> {
    let class = class_for_request(n);
    let cap = if class < usize::BITS as usize { (1usize << class).max(n) } else { n };
    Vec::with_capacity(cap)
}

fn pop(n: usize) -> Option<Vec<f32>> {
    if n == 0 || !enabled() {
        return None;
    }
    let class = class_for_request(n);
    if class >= NUM_CLASSES {
        return None;
    }
    free_lists().classes[class].lock().pop()
}

// --- public take/recycle API ------------------------------------------------

/// A buffer of `n` zeros (recycled if possible).
pub fn take_zeroed(n: usize) -> Vec<f32> {
    take_filled(n, 0.0)
}

/// A buffer of `n` copies of `fill` (recycled if possible).
pub fn take_filled(n: usize, fill: f32) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    note_taken(n);
    match pop(n) {
        Some(mut v) => {
            POOL_SERVED.fetch_add(1, Ordering::Relaxed);
            BYTES_REUSED.fetch_add((n * 4) as u64, Ordering::Relaxed);
            v.clear();
            v.resize(n, fill);
            v
        }
        None => {
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES_FRESH.fetch_add((n * 4) as u64, Ordering::Relaxed);
            let mut v = fresh_with_class_capacity(n);
            v.resize(n, fill);
            v
        }
    }
}

/// Scratch buffer of `n` zeros for kernel-internal workspaces (im2col
/// strips, GEMM packing panels). Identical to [`take_zeroed`]; the name
/// documents intent at call sites that must recycle explicitly.
pub fn take_scratch(n: usize) -> Vec<f32> {
    take_zeroed(n)
}

/// An empty buffer with capacity for at least `n` elements, for
/// `extend`-style fills (gradient-bucket flattening, dropout masks).
pub fn take_with_capacity(n: usize) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    note_taken(n);
    match pop(n) {
        Some(mut v) => {
            POOL_SERVED.fetch_add(1, Ordering::Relaxed);
            BYTES_REUSED.fetch_add((n * 4) as u64, Ordering::Relaxed);
            v.clear();
            v
        }
        None => {
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES_FRESH.fetch_add((n * 4) as u64, Ordering::Relaxed);
            fresh_with_class_capacity(n)
        }
    }
}

/// A buffer holding a copy of `src` (recycled if possible).
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take_with_capacity(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a buffer to its size-class free list (or frees it if the class
/// is full, the buffer is trivial, or the pool is disabled).
pub fn recycle(mut v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 {
        return;
    }
    let bytes = (v.len() * 4) as u64;
    let _ = OUTSTANDING_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
        Some(cur.saturating_sub(bytes))
    });
    if !enabled() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let class = class_for_buffer(cap);
    if class >= NUM_CLASSES {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut list = free_lists().classes[class].lock();
    if list.len() >= MAX_PER_CLASS {
        drop(list);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    v.clear();
    list.push(v);
    drop(list);
    RECYCLED.fetch_add(1, Ordering::Relaxed);
}

// --- byte-buffer pool (ingest labels / raw CDF5 chunks) ---------------------

/// The streaming ingest path recycles `Vec<u8>` buffers (label masks, raw
/// CDF5 chunk bytes) through size-class free lists mirroring the `f32`
/// pool. Separate lists — byte buffers never alias tensor storage — with
/// their own telemetry, so the pipeline's `stream_alloc` test can assert the data
/// plane performs zero steady-state fresh allocations on *both* element
/// types.
struct ByteFreeLists {
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
}

fn byte_free_lists() -> &'static ByteFreeLists {
    static LISTS: OnceLock<ByteFreeLists> = OnceLock::new();
    LISTS.get_or_init(|| ByteFreeLists {
        classes: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
    })
}

static BYTE_POOL_SERVED: AtomicU64 = AtomicU64::new(0);
static BYTE_FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTE_RECYCLED: AtomicU64 = AtomicU64::new(0);
static BYTE_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Telemetry for the byte-buffer pool (monotonic since process start) —
/// the ingest side of the allocation story.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BytePoolStats {
    /// Requests satisfied from a free list.
    pub pool_served: u64,
    /// Requests that went to the system allocator.
    pub fresh_allocs: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Returned buffers freed instead of retained.
    pub dropped: u64,
}

impl BytePoolStats {
    /// Counter delta since an earlier snapshot.
    pub fn since(&self, earlier: &BytePoolStats) -> BytePoolStats {
        BytePoolStats {
            pool_served: self.pool_served.saturating_sub(earlier.pool_served),
            fresh_allocs: self.fresh_allocs.saturating_sub(earlier.fresh_allocs),
            recycled: self.recycled.saturating_sub(earlier.recycled),
            dropped: self.dropped.saturating_sub(earlier.dropped),
        }
    }
}

/// Snapshot of the byte-pool counters.
pub fn byte_stats() -> BytePoolStats {
    BytePoolStats {
        pool_served: BYTE_POOL_SERVED.load(Ordering::Relaxed),
        fresh_allocs: BYTE_FRESH_ALLOCS.load(Ordering::Relaxed),
        recycled: BYTE_RECYCLED.load(Ordering::Relaxed),
        dropped: BYTE_DROPPED.load(Ordering::Relaxed),
    }
}

fn byte_pop(n: usize) -> Option<Vec<u8>> {
    if n == 0 || !enabled() {
        return None;
    }
    let class = class_for_request(n);
    if class >= NUM_CLASSES {
        return None;
    }
    byte_free_lists().classes[class].lock().pop()
}

/// An empty byte buffer with capacity for at least `n` elements (recycled
/// if possible), for `extend`-style fills.
fn take_bytes_with_capacity(n: usize) -> Vec<u8> {
    if n == 0 {
        return Vec::new();
    }
    match byte_pop(n) {
        Some(mut v) => {
            BYTE_POOL_SERVED.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v
        }
        None => {
            BYTE_FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            let class = class_for_request(n);
            let cap = if class < usize::BITS as usize { (1usize << class).max(n) } else { n };
            Vec::with_capacity(cap)
        }
    }
}

/// A byte buffer of `n` zeros (recycled if possible, fully initialized).
#[cfg(test)]
fn take_bytes_zeroed(n: usize) -> Vec<u8> {
    let mut v = take_bytes_with_capacity(n);
    v.resize(n, 0);
    v
}

/// A byte buffer holding a copy of `src` (recycled if possible).
fn take_bytes_copy(src: &[u8]) -> Vec<u8> {
    let mut v = take_bytes_with_capacity(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a byte buffer to its size-class free list (or frees it).
fn recycle_bytes(mut v: Vec<u8>) {
    let cap = v.capacity();
    if cap == 0 {
        return;
    }
    if !enabled() {
        BYTE_DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let class = class_for_buffer(cap);
    if class >= NUM_CLASSES {
        BYTE_DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut list = byte_free_lists().classes[class].lock();
    if list.len() >= MAX_PER_CLASS {
        drop(list);
        BYTE_DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    v.clear();
    list.push(v);
    drop(list);
    BYTE_RECYCLED.fetch_add(1, Ordering::Relaxed);
}

/// A pooled `u8` buffer: label masks and raw chunk bytes that return to
/// the byte pool on drop — the `u8` counterpart of [`PoolBuf`].
pub struct PooledBytes {
    data: Vec<u8>,
}

impl PooledBytes {
    /// Adopts an existing buffer (it will be recycled on drop).
    #[inline]
    pub fn from_vec(data: Vec<u8>) -> PooledBytes {
        PooledBytes { data }
    }

    /// A pooled copy of `src`.
    #[inline]
    pub fn copy_of(src: &[u8]) -> PooledBytes {
        PooledBytes { data: take_bytes_copy(src) }
    }

    /// Read-only view.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Drop for PooledBytes {
    fn drop(&mut self) {
        recycle_bytes(std::mem::take(&mut self.data));
    }
}

impl Clone for PooledBytes {
    fn clone(&self) -> PooledBytes {
        PooledBytes::copy_of(&self.data)
    }
}

impl std::ops::Deref for PooledBytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl PartialEq for PooledBytes {
    fn eq(&self, other: &PooledBytes) -> bool {
        self.data == other.data
    }
}

impl PartialEq<[u8]> for PooledBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.data.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PooledBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.data == other
    }
}

impl std::fmt::Debug for PooledBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.data.fmt(f)
    }
}

// --- pooled tensor storage --------------------------------------------------

/// A pooled `f32` buffer: tensor storage that returns itself to the pool
/// on drop. [`crate::Tensor`] holds its data as `Arc<PoolBuf>`, so tensor
/// clones are copy-on-write buffer shares — activation caches alias live
/// activations at zero cost — and the last owner recycles the storage.
pub struct PoolBuf {
    data: Vec<f32>,
}

impl PoolBuf {
    /// Adopts an existing buffer (it will be recycled on drop).
    #[inline]
    pub fn from_vec(data: Vec<f32>) -> PoolBuf {
        PoolBuf { data }
    }

    /// Read-only view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view (callers reach this through `Arc::make_mut`, which
    /// copies first if the buffer is shared).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Consumes the wrapper, returning the raw buffer without recycling it
    /// (the subsequent `Drop` sees an empty vec and does nothing).
    #[inline]
    pub fn take_data(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.data));
    }
}

impl Clone for PoolBuf {
    /// Copy-on-write backing: cloning draws a pooled copy of the contents.
    fn clone(&self) -> PoolBuf {
        PoolBuf { data: take_copy(&self.data) }
    }
}

impl std::ops::Deref for PoolBuf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl PartialEq for PoolBuf {
    fn eq(&self, other: &PoolBuf) -> bool {
        self.data == other.data
    }
}

impl std::fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.data.fmt(f)
    }
}

/// The pool and its counters are process-global: the tests below that
/// assert on them hold this, and so does any unit test that puts sustained
/// traffic on the pool (thousands of takes and recycles in a row, e.g. the
/// convolution gradient sweeps), so the two never overlap.
#[cfg(test)]
pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use super::TEST_GUARD as GUARD;

    #[test]
    fn round_trip_reuses_buffer() {
        let _g = GUARD.lock();
        set_enabled(true);
        trim();
        let v = take_zeroed(1024);
        let cap = v.capacity();
        recycle(v);
        let before = stats();
        let w = take_zeroed(900); // same class (1024): must reuse
        assert_eq!(w.len(), 900);
        assert_eq!(w.capacity(), cap);
        let after = stats();
        assert_eq!(after.pool_served - before.pool_served, 1);
        assert_eq!(after.fresh_allocs, before.fresh_allocs);
        recycle(w);
    }

    #[test]
    fn pooled_buffers_are_fully_initialized() {
        let _g = GUARD.lock();
        set_enabled(true);
        trim();
        let mut v = take_filled(64, 7.0);
        v.iter_mut().for_each(|x| *x = f32::NAN);
        recycle(v);
        let w = take_filled(64, 3.0);
        assert!(w.iter().all(|&x| x == 3.0), "recycled garbage must never leak");
        let z = {
            recycle(w);
            take_zeroed(64)
        };
        assert!(z.iter().all(|&x| x == 0.0));
        recycle(z);
    }

    #[test]
    fn class_math_guarantees_capacity() {
        for n in [1usize, 2, 3, 7, 8, 9, 1023, 1024, 1025] {
            let req = class_for_request(n);
            assert!(1usize << req >= n, "class {req} too small for {n}");
        }
        assert_eq!(class_for_buffer(1024), 10);
        assert_eq!(class_for_buffer(1025), 10);
        assert_eq!(class_for_buffer(2047), 10);
        assert_eq!(class_for_buffer(2048), 11);
        // A buffer filed under class_for_buffer(cap) always satisfies any
        // request routed to that class.
        for cap in [8usize, 12, 1024, 3000] {
            let fclass = class_for_buffer(cap);
            assert!(cap >= 1 << fclass);
        }
    }

    #[test]
    fn disabled_pool_always_allocates_fresh() {
        let _g = GUARD.lock();
        set_enabled(false);
        let v = take_zeroed(512);
        recycle(v);
        let before = stats();
        let w = take_zeroed(512);
        let after = stats();
        assert_eq!(after.fresh_allocs - before.fresh_allocs, 1);
        assert_eq!(after.pool_served, before.pool_served);
        recycle(w);
        set_enabled(true);
    }

    #[test]
    fn high_water_tracks_outstanding() {
        let _g = GUARD.lock();
        set_enabled(true);
        trim();
        let before = stats();
        let a = take_zeroed(1 << 16);
        let b = take_zeroed(1 << 16);
        let mid = stats();
        assert!(mid.high_water_bytes >= before.outstanding_bytes + (2 << 16) * 4);
        recycle(a);
        recycle(b);
        let after = stats();
        assert!(after.outstanding_bytes <= mid.outstanding_bytes);
    }

    #[test]
    fn retention_is_bounded() {
        let _g = GUARD.lock();
        set_enabled(true);
        trim();
        let bufs: Vec<Vec<f32>> = (0..MAX_PER_CLASS + 5).map(|_| vec![0.0f32; 256]).collect();
        let before = stats();
        for b in bufs {
            recycle(b);
        }
        let after = stats();
        assert_eq!(after.recycled - before.recycled, MAX_PER_CLASS as u64);
        assert_eq!(after.dropped - before.dropped, 5);
        trim();
    }

    #[test]
    fn poolbuf_drop_recycles_and_clone_copies() {
        let _g = GUARD.lock();
        set_enabled(true);
        trim();
        let buf = PoolBuf::from_vec(take_copy(&[1.0, 2.0, 3.0]));
        let copy = buf.clone();
        assert_eq!(buf, copy);
        let before = stats();
        drop(buf);
        let after = stats();
        assert_eq!(after.recycled - before.recycled, 1);
        assert_eq!(copy.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn byte_pool_round_trip_reuses_buffer() {
        let _g = GUARD.lock();
        set_enabled(true);
        trim();
        let v = take_bytes_zeroed(512);
        assert!(v.iter().all(|&b| b == 0));
        let cap = v.capacity();
        recycle_bytes(v);
        let before = byte_stats();
        let w = take_bytes_copy(&[7u8; 400]); // same class (512): must reuse
        assert_eq!(w.len(), 400);
        assert_eq!(w.capacity(), cap);
        let after = byte_stats();
        assert_eq!(after.pool_served - before.pool_served, 1);
        assert_eq!(after.fresh_allocs, before.fresh_allocs);
        recycle_bytes(w);
    }

    #[test]
    fn pooled_bytes_drop_recycles() {
        let _g = GUARD.lock();
        set_enabled(true);
        trim();
        let b = PooledBytes::copy_of(&[1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b, [1u8, 2, 3][..]);
        let before = byte_stats();
        drop(b);
        let after = byte_stats();
        assert_eq!(after.recycled - before.recycled, 1);
        assert_eq!(c.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn disabled_pool_drops_byte_buffers() {
        let _g = GUARD.lock();
        set_enabled(false);
        let v = take_bytes_zeroed(64);
        let before = byte_stats();
        recycle_bytes(v);
        let w = take_bytes_zeroed(64);
        let after = byte_stats();
        assert_eq!(after.dropped - before.dropped, 1);
        assert_eq!(after.fresh_allocs - before.fresh_allocs, 1);
        recycle_bytes(w);
        set_enabled(true);
    }
}
