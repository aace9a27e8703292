//! Offline stand-in for `rayon`, backed by a real thread pool.
//!
//! Unlike the original sequential shim, this version actually executes the
//! `par_*` entry points on a process-wide pool of `std::thread` workers:
//!
//! * The pool is spawned lazily, once, and sized by
//!   [`std::thread::available_parallelism`], which honours `taskset` and
//!   cgroup CPU quotas.
//! * Parallel iterators dispatch *chunk indices* through a shared atomic
//!   cursor: every participating thread (the caller included) repeatedly
//!   steals the next unclaimed chunk, so load balances dynamically without
//!   per-chunk channels or locks.
//! * Each chunk owns a disjoint region of the output, and the per-chunk
//!   computation never depends on which thread runs it or in what order
//!   chunks complete — results are **bit-identical at any thread count**.
//! * Nested `par_*` calls from inside a pool task run inline on the
//!   claiming thread (the outer dispatch already owns the machine), so
//!   kernels can freely compose without deadlock.
//!
//! The API surface mirrors exactly what this workspace uses of rayon 1
//! (`prelude::*` with `par_chunks[_mut]`, `par_iter[_mut]`, `enumerate`,
//! `zip`, `for_each`, and `current_num_threads`), plus one shim-only
//! extension: [`set_num_threads`], used by benches and determinism tests to
//! vary the pool width at runtime.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Hard ceiling on the pool width [`set_num_threads`] accepts.
const MAX_THREADS: usize = 512;

/// One fork-join dispatch: `total` chunk indices executed exactly once.
struct Job {
    /// The chunk body. Lifetime-erased to `'static`; sound because the
    /// submitting call blocks until `completed == total`, after which no
    /// thread dereferences it again.
    task: &'static (dyn Fn(usize) + Sync),
    /// Number of chunk indices.
    total: usize,
    /// Next unclaimed chunk index (the "steal" cursor).
    next: AtomicUsize,
    /// Chunks fully executed.
    completed: AtomicUsize,
    /// Set when any chunk panicked; the submitter re-panics.
    panicked: AtomicBool,
    /// Workers currently attached to this job (soft cap; the submitter is
    /// not counted).
    helpers: AtomicUsize,
    /// Maximum workers allowed to attach (`width - 1`).
    max_helpers: usize,
}

struct Shared {
    /// Jobs with potentially unclaimed chunks.
    queue: Mutex<Vec<Arc<Job>>>,
    /// Signals workers that a job was enqueued.
    work: Condvar,
    /// Signals submitters that a job may have completed.
    done: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Workers spawned so far (grows on demand up to `width - 1`).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();
/// Runtime width override; 0 means "use the default width".
static ACTIVE_WIDTH: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is executing a pool chunk; nested dispatches
    /// then run inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// A mutex poisoned by a panicking task is still structurally sound here
/// (all queue state is Arc'd and atomically counted), so keep going.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hardware threads this process may run on, cached: the default pool
/// width, and the gate on whether a dispatch actually fans out (see
/// [`parallel_for`]).
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Current pool width: the number of threads (callers included) that
/// participate in a parallel dispatch.
pub fn current_num_threads() -> usize {
    match ACTIVE_WIDTH.load(Ordering::Relaxed) {
        0 => host_parallelism(),
        n => n,
    }
}

/// Sets the pool width for subsequent `par_*` calls (shim-only extension;
/// the real rayon sizes its global pool via `ThreadPoolBuilder`). Extra
/// workers are spawned on demand; shrinking only caps how many may attach
/// to future jobs. Safe to call at any time: results are bit-identical at
/// every width, only scheduling changes.
pub fn set_num_threads(n: usize) {
    ACTIVE_WIDTH.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

impl Pool {
    fn new() -> Pool {
        Pool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Vec::new()),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            spawned: Mutex::new(0),
        }
    }

    /// Grows the worker set to at least `n` threads.
    fn ensure_workers(&self, n: usize) {
        let mut count = lock_ignore_poison(&self.spawned);
        while *count < n {
            let shared = self.shared.clone();
            let spawn = std::thread::Builder::new()
                .name(format!("exaclim-kernel-{count}"))
                .spawn(move || worker_loop(shared));
            if spawn.is_err() {
                // Degrade gracefully: submitters always self-execute, so a
                // short-handed pool is merely slower, never wrong.
                break;
            }
            *count += 1;
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock_ignore_poison(&shared.queue);
            loop {
                let candidate = queue.iter().find(|j| {
                    j.next.load(Ordering::Relaxed) < j.total
                        && j.helpers.load(Ordering::Relaxed) < j.max_helpers
                });
                if let Some(j) = candidate {
                    j.helpers.fetch_add(1, Ordering::Relaxed);
                    break j.clone();
                }
                queue = shared
                    .work
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        run_chunks(&job, &shared);
        job.helpers.fetch_sub(1, Ordering::Relaxed);
        let mut queue = lock_ignore_poison(&shared.queue);
        if job.next.load(Ordering::Relaxed) >= job.total {
            queue.retain(|j| !Arc::ptr_eq(j, &job));
        }
    }
}

/// Steals and executes chunk indices until the cursor is exhausted.
fn run_chunks(job: &Job, shared: &Shared) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            return;
        }
        IN_TASK.with(|c| c.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| (job.task)(i)));
        IN_TASK.with(|c| c.set(false));
        if result.is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        // AcqRel: the final increment acquires every earlier chunk's
        // release, so the submitter (woken under the queue mutex) observes
        // all chunk writes.
        if job.completed.fetch_add(1, Ordering::AcqRel) + 1 == job.total {
            let _queue = lock_ignore_poison(&shared.queue);
            shared.done.notify_all();
        }
    }
}

/// Executes `task(0..total)` across the pool, blocking until every index
/// has run exactly once. The backbone of every parallel iterator below.
fn parallel_for(total: usize, task: &(dyn Fn(usize) + Sync)) {
    if total == 0 {
        return;
    }
    let width = current_num_threads().min(total);
    // On a single-hardware-thread host, fanning out can only add
    // scheduling overhead — run inline regardless of the configured
    // width. Chunk results are deterministic at any width, so this
    // changes timing only, never bits. (`current_num_threads` still
    // reports the configured width.)
    if width <= 1 || host_parallelism() <= 1 || IN_TASK.with(|c| c.get()) {
        for i in 0..total {
            task(i);
        }
        return;
    }
    let pool = POOL.get_or_init(Pool::new);
    pool.ensure_workers(width - 1);

    // Erase the task's lifetime. Sound: we do not return until
    // `completed == total`, and no thread calls `task` after the cursor
    // passes `total`, so the reference never outlives this frame's use.
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task: task_static,
        total,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        helpers: AtomicUsize::new(0),
        max_helpers: width - 1,
    });
    {
        let mut queue = lock_ignore_poison(&pool.shared.queue);
        queue.push(job.clone());
    }
    pool.shared.work.notify_all();

    // The submitter steals chunks too, which guarantees progress even if
    // every worker is busy elsewhere.
    run_chunks(&job, &pool.shared);

    let mut queue = lock_ignore_poison(&pool.shared.queue);
    while job.completed.load(Ordering::Acquire) < job.total {
        queue = pool
            .shared
            .done
            .wait(queue)
            .unwrap_or_else(|e| e.into_inner());
    }
    queue.retain(|j| !Arc::ptr_eq(j, &job));
    drop(queue);
    if job.panicked.load(Ordering::Relaxed) {
        panic!("a parallel kernel task panicked");
    }
}

pub mod prelude {
    //! `use rayon::prelude::*` surface.

    use std::marker::PhantomData;

    /// Core parallel-iterator contract: a fixed number of independent
    /// items, each materializable by index from any thread.
    ///
    /// `pi_len`/`pi_get` are shim internals (rayon drives its iterators
    /// differently); the adapters `enumerate`/`zip`/`for_each` match the
    /// rayon API used at the workspace's call sites.
    pub trait ParallelIterator: Sized + Sync {
        /// Item yielded for each index.
        type Item;

        /// Number of items.
        fn pi_len(&self) -> usize;

        /// Materializes item `index`. The dispatcher calls this at most
        /// once per index (possibly from different threads).
        fn pi_get(&self, index: usize) -> Self::Item;

        /// Pairs each item with its index.
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate { inner: self }
        }

        /// Zips two equal-shape parallel iterators.
        fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
            Zip { a: self, b: other }
        }

        /// Consumes every item on the pool. Blocks until all items ran.
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Sync,
        {
            super::parallel_for(self.pi_len(), &|i| f(self.pi_get(i)));
        }
    }

    /// See [`ParallelIterator::enumerate`].
    pub struct Enumerate<I> {
        inner: I,
    }

    impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
        type Item = (usize, I::Item);

        fn pi_len(&self) -> usize {
            self.inner.pi_len()
        }

        fn pi_get(&self, index: usize) -> (usize, I::Item) {
            (index, self.inner.pi_get(index))
        }
    }

    /// See [`ParallelIterator::zip`].
    pub struct Zip<A, B> {
        a: A,
        b: B,
    }

    impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
        type Item = (A::Item, B::Item);

        fn pi_len(&self) -> usize {
            self.a.pi_len().min(self.b.pi_len())
        }

        fn pi_get(&self, index: usize) -> (A::Item, B::Item) {
            (self.a.pi_get(index), self.b.pi_get(index))
        }
    }

    /// Parallel disjoint mutable chunks of a slice.
    pub struct ParChunksMut<'a, T> {
        ptr: *mut T,
        len: usize,
        chunk: usize,
        _marker: PhantomData<&'a mut [T]>,
    }

    // The raw pointer is only ever resolved into *disjoint* chunk slices
    // (one index claimed per chunk), so sharing across threads is sound
    // whenever the element type may move between threads.
    unsafe impl<T: Send> Send for ParChunksMut<'_, T> {}
    unsafe impl<T: Send> Sync for ParChunksMut<'_, T> {}

    impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
        type Item = &'a mut [T];

        fn pi_len(&self) -> usize {
            if self.len == 0 {
                0
            } else {
                self.len.div_ceil(self.chunk)
            }
        }

        fn pi_get(&self, index: usize) -> &'a mut [T] {
            let start = index * self.chunk;
            let end = (start + self.chunk).min(self.len);
            // Safety: each index is claimed exactly once, and chunk ranges
            // [start, end) never overlap between indices.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
        }
    }

    /// Parallel shared chunks of a slice.
    pub struct ParChunks<'a, T> {
        slice: &'a [T],
        chunk: usize,
    }

    impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
        type Item = &'a [T];

        fn pi_len(&self) -> usize {
            if self.slice.is_empty() {
                0
            } else {
                self.slice.len().div_ceil(self.chunk)
            }
        }

        fn pi_get(&self, index: usize) -> &'a [T] {
            let start = index * self.chunk;
            let end = (start + self.chunk).min(self.slice.len());
            &self.slice[start..end]
        }
    }

    /// Parallel shared per-element iteration.
    pub struct ParSliceIter<'a, T> {
        slice: &'a [T],
    }

    impl<'a, T: Sync> ParallelIterator for ParSliceIter<'a, T> {
        type Item = &'a T;

        fn pi_len(&self) -> usize {
            self.slice.len()
        }

        fn pi_get(&self, index: usize) -> &'a T {
            &self.slice[index]
        }
    }

    /// Parallel mutable per-element iteration.
    pub struct ParSliceIterMut<'a, T> {
        ptr: *mut T,
        len: usize,
        _marker: PhantomData<&'a mut [T]>,
    }

    unsafe impl<T: Send> Send for ParSliceIterMut<'_, T> {}
    unsafe impl<T: Send> Sync for ParSliceIterMut<'_, T> {}

    impl<'a, T: Send> ParallelIterator for ParSliceIterMut<'a, T> {
        type Item = &'a mut T;

        fn pi_len(&self) -> usize {
            self.len
        }

        fn pi_get(&self, index: usize) -> &'a mut T {
            assert!(index < self.len);
            // Safety: disjoint per-index access, as above.
            unsafe { &mut *self.ptr.add(index) }
        }
    }

    /// Parallel mutable slice chunking (`par_chunks_mut`).
    pub trait ParallelSliceMut<T: Send> {
        /// Disjoint mutable chunks, dispatched across the pool.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size != 0, "chunk size must be non-zero");
            ParChunksMut {
                ptr: self.as_mut_ptr(),
                len: self.len(),
                chunk: chunk_size,
                _marker: PhantomData,
            }
        }
    }

    /// Parallel shared slice chunking (`par_chunks`).
    pub trait ParallelSlice<T: Sync> {
        /// Shared chunks, dispatched across the pool.
        fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
            assert!(chunk_size != 0, "chunk size must be non-zero");
            ParChunks { slice: self, chunk: chunk_size }
        }
    }

    /// Parallel shared iteration (`par_iter`).
    pub trait IntoParallelRefIterator<'a> {
        /// Item type.
        type Item;
        /// Iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;

        /// Per-element parallel iteration.
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;
        type Iter = ParSliceIter<'a, T>;

        fn par_iter(&'a self) -> ParSliceIter<'a, T> {
            ParSliceIter { slice: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;
        type Iter = ParSliceIter<'a, T>;

        fn par_iter(&'a self) -> ParSliceIter<'a, T> {
            ParSliceIter { slice: self.as_slice() }
        }
    }

    /// Parallel mutable iteration (`par_iter_mut`).
    pub trait IntoParallelRefMutIterator<'a> {
        /// Item type.
        type Item;
        /// Iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;

        /// Per-element parallel mutable iteration.
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }

    impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
        type Item = &'a mut T;
        type Iter = ParSliceIterMut<'a, T>;

        fn par_iter_mut(&'a mut self) -> ParSliceIterMut<'a, T> {
            ParSliceIterMut {
                ptr: self.as_mut_ptr(),
                len: self.len(),
                _marker: PhantomData,
            }
        }
    }

    impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
        type Item = &'a mut T;
        type Iter = ParSliceIterMut<'a, T>;

        fn par_iter_mut(&'a mut self) -> ParSliceIterMut<'a, T> {
            self.as_mut_slice().par_iter_mut()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Mutex;

    // Pool width is process-global; serialize tests that change it.
    static WIDTH_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn par_chunks_mut_composes_like_rayon() {
        let mut v = vec![0u32; 12];
        v.par_chunks_mut(4).enumerate().for_each(|(i, chunk)| {
            for c in chunk {
                *c = i as u32;
            }
        });
        assert_eq!(v, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn zip_over_two_chunked_slices() {
        let mut a = vec![1u32; 8];
        let mut b = [2u32; 8];
        a.par_chunks_mut(4)
            .zip(b.par_chunks_mut(4))
            .for_each(|(xa, xb)| {
                for (u, v) in xa.iter_mut().zip(xb.iter_mut()) {
                    *u += *v;
                }
            });
        assert_eq!(a, vec![3u32; 8]);
    }

    #[test]
    fn wide_dispatch_covers_every_chunk_once() {
        let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        super::set_num_threads(4);
        let mut v = vec![0u64; 10_007];
        v.par_chunks_mut(13).enumerate().for_each(|(i, chunk)| {
            for (k, c) in chunk.iter_mut().enumerate() {
                *c += (i * 13 + k) as u64 + 1;
            }
        });
        super::set_num_threads(1);
        // Every element written exactly once with its own index + 1.
        for (k, &c) in v.iter().enumerate() {
            assert_eq!(c, k as u64 + 1);
        }
    }

    #[test]
    fn results_are_identical_across_widths() {
        let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let compute = || {
            let mut v = vec![0f32; 4096];
            v.par_chunks_mut(64).enumerate().for_each(|(i, chunk)| {
                let mut acc = 0.3f32 * i as f32;
                for c in chunk.iter_mut() {
                    acc = acc * 1.000_1 + 0.7;
                    *c = acc;
                }
            });
            v
        };
        super::set_num_threads(1);
        let seq = compute();
        super::set_num_threads(4);
        let par = compute();
        super::set_num_threads(1);
        assert!(seq.iter().zip(par.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn nested_dispatch_runs_inline_and_is_correct() {
        let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        super::set_num_threads(4);
        let mut v = vec![0u32; 64];
        v.par_chunks_mut(16).for_each(|outer| {
            outer.par_chunks_mut(4).for_each(|inner| {
                for c in inner {
                    *c += 1;
                }
            });
        });
        super::set_num_threads(1);
        assert_eq!(v, vec![1u32; 64]);
    }

    #[test]
    fn par_iter_mut_touches_every_element() {
        let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        super::set_num_threads(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.par_iter_mut().for_each(|x| *x *= 2);
        super::set_num_threads(1);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i as u32));
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        super::set_num_threads(2);
        let result = std::panic::catch_unwind(|| {
            let mut v = vec![0u32; 100];
            v.par_chunks_mut(10).enumerate().for_each(|(i, _)| {
                assert!(i != 5, "boom");
            });
        });
        super::set_num_threads(1);
        assert!(result.is_err(), "chunk panic must reach the caller");
    }

    #[test]
    fn reported_width_tracks_override() {
        let _g = WIDTH_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        super::set_num_threads(7);
        assert_eq!(super::current_num_threads(), 7);
        super::set_num_threads(1);
        assert_eq!(super::current_num_threads(), 1);
    }
}
