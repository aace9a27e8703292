//! Buffer-recycling memory pool.
//!
//! §VII-A of the paper names "improve the memory management" as half of
//! its single-node optimization path (the other half is pointwise fusion,
//! which this crate does not represent). This module supplies that half for
//! the CPU backend: a process-wide, thread-safe pool of buffers organized
//! into power-of-two size classes. Dropped tensors return their storage
//! here instead of to the system allocator, so a steady-state training step
//! performs almost no heap allocation.
//!
//! One implementation, [`SizeClassPool`], serves two element types, each
//! from its own pool: `f32` (tensor storage, kernel scratch, optimizer
//! state) and `u8` (the streaming ingest's label masks and raw chunk
//! bytes). Byte buffers never alias tensor storage, and each pool keeps
//! its own counters, so the pipeline's allocation tests can assert zero
//! steady-state fresh allocations on both.
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
//!   `MAX_PER_CLASS` (32) buffers; excess recycles fall through to the system
//!   allocator's `free`.
//!
//! The pool is always on in production; tests switch it off and on in one
//! process via [`set_enabled`] to compare both modes. Telemetry — allocations
//! served from the pool vs. fresh, bytes reused, high-water mark — feeds
//! the allocation-traffic column of the kernel census
//! ([`crate::profile::AllocTraffic`]).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Maximum buffers retained per size class; beyond this, recycled buffers
/// are freed. 32 buffers × the largest live class bounds idle footprint
/// while covering the deepest concat fan-in the models produce.
const MAX_PER_CLASS: usize = 32;

/// One free list per power-of-two capacity class (`usize` has at most 64
/// bit positions; element counts above 2^48 are unreachable in practice).
const NUM_CLASSES: usize = 48;

/// A size-class pool of `Vec<T>` buffers: one free list per power-of-two
/// capacity class, and the pool's counters.
pub struct SizeClassPool<T> {
    classes: [Mutex<Vec<Vec<T>>>; NUM_CLASSES],
    served: AtomicU64,
    fresh: AtomicU64,
    bytes_reused: AtomicU64,
    bytes_fresh: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
    outstanding_bytes: AtomicU64,
    high_water_bytes: AtomicU64,
}

static F32_POOL: SizeClassPool<f32> = SizeClassPool::new();
static U8_POOL: SizeClassPool<u8> = SizeClassPool::new();

/// An element type with a process-wide size-class pool of its own.
pub trait Element: Copy + 'static {
    /// The pool buffers of this type are drawn from and retire to.
    fn pool() -> &'static SizeClassPool<Self>;
}

impl Element for f32 {
    #[inline]
    fn pool() -> &'static SizeClassPool<f32> {
        &F32_POOL
    }
}

impl Element for u8 {
    #[inline]
    fn pool() -> &'static SizeClassPool<u8> {
        &U8_POOL
    }
}

// --- telemetry --------------------------------------------------------------

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

/// Snapshot of the `f32` pool's counters.
pub fn stats() -> PoolStats {
    F32_POOL.stats()
}

/// Snapshot of the `u8` pool's counters: the ingest side of the
/// allocation story.
pub fn byte_stats() -> PoolStats {
    U8_POOL.stats()
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

/// Frees every retained buffer of both pools (the counters are preserved).
pub fn trim() {
    F32_POOL.trim();
    U8_POOL.trim();
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

impl<T: Copy> SizeClassPool<T> {
    const fn new() -> SizeClassPool<T> {
        SizeClassPool {
            classes: [const { Mutex::new(Vec::new()) }; NUM_CLASSES],
            served: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            bytes_reused: AtomicU64::new(0),
            bytes_fresh: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            outstanding_bytes: AtomicU64::new(0),
            high_water_bytes: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            pool_served: self.served.load(Ordering::Relaxed),
            fresh_allocs: self.fresh.load(Ordering::Relaxed),
            bytes_reused: self.bytes_reused.load(Ordering::Relaxed),
            bytes_fresh: self.bytes_fresh.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            outstanding_bytes: self.outstanding_bytes.load(Ordering::Relaxed),
            high_water_bytes: self.high_water_bytes.load(Ordering::Relaxed),
        }
    }

    fn trim(&self) {
        for class in &self.classes {
            class.lock().clear();
        }
    }

    fn pop(&self, n: usize) -> Option<Vec<T>> {
        if !enabled() {
            return None;
        }
        let class = class_for_request(n);
        if class >= NUM_CLASSES {
            return None;
        }
        self.classes[class].lock().pop()
    }

    /// An empty buffer with capacity for at least `n` elements: recycled
    /// if possible, else fresh with its capacity rounded up to the request
    /// class's power of two, so that when it is later recycled it files
    /// into exactly the class requests of this size draw from. Without the
    /// round-up, a 1700-element fresh buffer (capacity 1700, class 10)
    /// could never serve another 1700-element request (class 11) and the
    /// pool would miss on that shape forever.
    fn take(&self, n: usize) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        let bytes = (n * size_of::<T>()) as u64;
        let out = self.outstanding_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.high_water_bytes.fetch_max(out, Ordering::Relaxed);
        match self.pop(n) {
            Some(mut v) => {
                self.served.fetch_add(1, Ordering::Relaxed);
                self.bytes_reused.fetch_add(bytes, Ordering::Relaxed);
                v.clear();
                v
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                self.bytes_fresh.fetch_add(bytes, Ordering::Relaxed);
                let class = class_for_request(n);
                let cap = if class < usize::BITS as usize { (1usize << class).max(n) } else { n };
                Vec::with_capacity(cap)
            }
        }
    }

    fn take_copy(&self, src: &[T]) -> Vec<T> {
        let mut v = self.take(src.len());
        v.extend_from_slice(src);
        v
    }

    /// Files a buffer under its size class (or frees it if the class is
    /// full, the buffer is trivial, or the pool is disabled).
    fn recycle(&self, mut v: Vec<T>) {
        let cap = v.capacity();
        if cap == 0 {
            return;
        }
        let bytes = (v.len() * size_of::<T>()) as u64;
        let _ = self.outstanding_bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(bytes))
        });
        if !enabled() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let class = class_for_buffer(cap);
        if class >= NUM_CLASSES {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut list = self.classes[class].lock();
        if list.len() >= MAX_PER_CLASS {
            drop(list);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        v.clear();
        list.push(v);
        drop(list);
        self.recycled.fetch_add(1, Ordering::Relaxed);
    }
}

// --- public take/recycle API (f32) ------------------------------------------

/// A buffer of `n` zeros (recycled if possible).
pub fn take_zeroed(n: usize) -> Vec<f32> {
    take_filled(n, 0.0)
}

/// A buffer of `n` copies of `fill` (recycled if possible).
pub fn take_filled(n: usize, fill: f32) -> Vec<f32> {
    let mut v = F32_POOL.take(n);
    v.resize(n, fill);
    v
}

/// An empty buffer with capacity for at least `n` elements, for
/// `extend`-style fills (gradient-bucket flattening, dropout masks).
pub fn take_with_capacity(n: usize) -> Vec<f32> {
    F32_POOL.take(n)
}

/// A buffer holding a copy of `src` (recycled if possible).
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    F32_POOL.take_copy(src)
}

/// Returns a buffer to its size-class free list (or frees it if the class
/// is full, the buffer is trivial, or the pool is disabled).
pub fn recycle(v: Vec<f32>) {
    F32_POOL.recycle(v)
}

// --- pooled storage ---------------------------------------------------------

/// A pooled buffer that returns itself to its element type's pool on drop.
/// [`crate::Tensor`] holds its data as `Arc<PoolBuf>`, so tensor clones
/// are copy-on-write buffer shares — activation caches alias live
/// activations at zero cost — and the last owner recycles the storage;
/// decoded samples carry their label masks as [`PooledBytes`].
pub struct Pooled<T: Element> {
    data: Vec<T>,
}

/// Pooled `f32` tensor storage.
pub type PoolBuf = Pooled<f32>;

/// Pooled `u8` buffer: label masks and raw chunk bytes.
pub type PooledBytes = Pooled<u8>;

impl<T: Element> Pooled<T> {
    /// Adopts an existing buffer (it will be recycled on drop).
    #[inline]
    pub fn from_vec(data: Vec<T>) -> Pooled<T> {
        Pooled { data }
    }

    /// A pooled copy of `src`.
    #[inline]
    pub fn copy_of(src: &[T]) -> Pooled<T> {
        Pooled { data: T::pool().take_copy(src) }
    }

    /// Read-only view.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view (tensors reach this through `Arc::make_mut`, which
    /// copies first if the buffer is shared).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
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
    pub fn take_data(mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }
}

impl<T: Element> Drop for Pooled<T> {
    fn drop(&mut self) {
        T::pool().recycle(std::mem::take(&mut self.data));
    }
}

impl<T: Element> Clone for Pooled<T> {
    /// Copy-on-write backing: cloning draws a pooled copy of the contents.
    fn clone(&self) -> Pooled<T> {
        Pooled::copy_of(&self.data)
    }
}

impl<T: Element> std::ops::Deref for Pooled<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Element + PartialEq> PartialEq for Pooled<T> {
    fn eq(&self, other: &Pooled<T>) -> bool {
        self.data == other.data
    }
}

impl<T: Element + std::fmt::Debug> std::fmt::Debug for Pooled<T> {
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
        let v = U8_POOL.take(512);
        let cap = v.capacity();
        U8_POOL.recycle(v);
        let before = byte_stats();
        let w = U8_POOL.take_copy(&[7u8; 400]); // same class (512): must reuse
        assert_eq!(w.len(), 400);
        assert_eq!(w.capacity(), cap);
        let after = byte_stats();
        assert_eq!(after.pool_served - before.pool_served, 1);
        assert_eq!(after.fresh_allocs, before.fresh_allocs);
        U8_POOL.recycle(w);
    }

    #[test]
    fn pooled_bytes_drop_recycles() {
        let _g = GUARD.lock();
        set_enabled(true);
        trim();
        let b = PooledBytes::copy_of(&[1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
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
        let v = U8_POOL.take(64);
        let before = byte_stats();
        U8_POOL.recycle(v);
        let w = U8_POOL.take(64);
        let after = byte_stats();
        assert_eq!(after.dropped - before.dropped, 1);
        assert_eq!(after.fresh_allocs - before.fresh_allocs, 1);
        U8_POOL.recycle(w);
        set_enabled(true);
    }
}
