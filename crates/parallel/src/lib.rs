//! Data-parallel helpers over a persistent worker pool.
//!
//! The container this workspace builds in has no crates.io access, so
//! `rayon` is unavailable; this crate provides the small set of
//! deterministic-order primitives the tensor/nn/core hot paths need:
//!
//! * [`par_chunks_mut`] — split a mutable buffer into contiguous chunks and
//!   process them on worker threads (the backbone of the parallel matmul,
//!   `im2col`, pooling, and batch kernels),
//! * [`par_chunks2_mut`] — the two-buffer lockstep variant,
//! * [`par_map`] — an **order-preserving** parallel map of `0..n`
//!   (per-probe training).
//!
//! Work is always split into *contiguous* index blocks; which thread runs a
//! block never affects the data it touches, so any kernel whose per-element
//! computation is independent produces bitwise-identical results to its
//! serial counterpart.
//!
//! # Why a persistent pool
//!
//! On this project's sandboxed build/CI machines a `std::thread` spawn
//! costs ~1 ms and a condvar wakeup ~100 µs (hundreds of times their
//! bare-metal cost), so scoped per-call threads would make every kernel
//! *slower*. Instead, worker threads are spawned once on first use and then
//! claim blocks of each submitted batch via an atomic cursor. Workers spin
//! briefly between batches (cheap: they occupy an otherwise-idle core
//! during back-to-back kernel calls) and park on a condvar when no work
//! arrives; a parked worker that wakes late simply finds fewer unclaimed
//! blocks, while the submitting thread — which always participates — has
//! picked up the rest.
//!
//! Thread count comes from [`max_threads`]: the `DEEPMORPH_THREADS` env var
//! if set, otherwise [`std::thread::available_parallelism`]; the pool size
//! is fixed at first use. Nested `par_*` calls (from inside a worker) and
//! concurrent batches (from a second user thread while one is in flight)
//! run inline serially rather than oversubscribing cores.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Set on pool workers (and during inline batch execution); nested
    /// `par_*` calls then run serially instead of oversubscribing cores.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn run_as_worker<R>(f: impl FnOnce() -> R) -> R {
    let prev = IN_WORKER.with(|w| w.replace(true));
    let out = f();
    IN_WORKER.with(|w| w.set(prev));
    out
}

/// Spin iterations a worker burns waiting for the next batch before
/// parking. Back-to-back kernel calls (training loops, benches) land well
/// inside this window, so steady-state dispatch costs only a few atomic
/// operations.
const WORKER_SPIN: usize = 200_000;

/// Blocks per participant: oversplitting lets a worker that wakes mid-batch
/// still claim useful work, and improves load balance for ragged chunks.
const BLOCKS_PER_THREAD: usize = 4;

/// One submitted batch: `run(block_index)` for `0..total`, claimed via an
/// atomic cursor. The closure reference is lifetime-erased; soundness
/// argument in [`Pool::run_batch`].
struct Batch {
    run: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    total: usize,
    done: AtomicUsize,
    panicked: AtomicBool,
}

// SAFETY: `run` points at a `Sync` closure that outlives the batch (the
// submitter keeps it alive until `done == total`), and all counter fields
// are atomics.
unsafe impl Send for Batch {}
// SAFETY: shared access touches only the atomic counters and the closure
// behind `run`, which is `Sync` by the field's own bound.
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs blocks until the cursor is exhausted.
    fn participate(&self) {
        loop {
            let block = self.next.fetch_add(1, Ordering::Relaxed);
            if block >= self.total {
                return;
            }
            // SAFETY: the submitter keeps the closure alive until every
            // claimed block has bumped `done` (see `run_batch`).
            let run = unsafe { &*self.run };
            if catch_unwind(AssertUnwindSafe(|| run(block))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

struct Shared {
    /// Current batch (points into the submitting thread's stack; null when
    /// no batch is in flight). The `entered` counter keeps it alive: the
    /// submitter nulls the pointer and waits for `entered == 0` before its
    /// stack frame dies. No allocation crosses threads — on the sandboxed
    /// build machines a cross-thread `free` contends the malloc arena
    /// lock, which is a millisecond-class futex there.
    batch: AtomicPtr<Batch>,
    /// Number of workers currently between "about to read `batch`" and
    /// "done touching it".
    entered: AtomicUsize,
    /// Bumped on publish; workers spin on it.
    generation: AtomicU64,
    /// Mirror of `generation` guarded by `park_lock`, for parking.
    park: Mutex<u64>,
    park_cv: Condvar,
    sleepers: AtomicUsize,
}

struct Pool {
    shared: Arc<Shared>,
    workers: usize,
    /// Held for the duration of one batch; `try_lock` failure means another
    /// thread's batch is in flight and the caller runs inline instead.
    active: Mutex<()>,
}

fn worker_loop(shared: Arc<Shared>) {
    IN_WORKER.with(|w| w.set(true));
    let mut seen = 0u64;
    loop {
        // Spin, then park, until the generation moves.
        let mut spins = 0usize;
        loop {
            let g = shared.generation.load(Ordering::Acquire);
            if g != seen {
                seen = g;
                break;
            }
            spins += 1;
            if spins < WORKER_SPIN {
                std::hint::spin_loop();
                continue;
            }
            // ORDERING: Relaxed suffices — the publisher reads `sleepers`
            // while holding `park_lock`, and any increment that matters
            // (one whose worker will actually wait) happens-before this
            // worker's own lock acquisition, hence before the publisher's.
            // A worker that increments but loses the race observes the
            // fresh generation under the lock and never waits.
            shared.sleepers.fetch_add(1, Ordering::Relaxed);
            let mut guard = shared.park.lock().expect("park lock");
            // `park` always mirrors the latest published generation (the
            // publisher updates it under this lock on every batch), so
            // waiting on it can neither miss a wakeup nor observe a stale
            // generation.
            while *guard == seen {
                guard = shared.park_cv.wait(guard).expect("park wait");
            }
            seen = *guard;
            drop(guard);
            // ORDERING: Relaxed — see the fetch_add above; the counter
            // only gates a condvar notify, never data visibility.
            shared.sleepers.fetch_sub(1, Ordering::Relaxed);
            break;
        }
        // ORDERING: SeqCst store-load fence (Dekker). This increment and
        // the `batch` load below mirror the submitter's null-store →
        // `entered`-load retire sequence; all four must be SeqCst so that
        // either the submitter sees `entered > 0` and waits, or this
        // worker sees null. Release/Acquire cannot order a store before a
        // later load, so nothing weaker closes the race.
        shared.entered.fetch_add(1, Ordering::SeqCst);
        // ORDERING: SeqCst — the load half of the Dekker pattern above:
        // if the submitter saw entered == 0, this load is ordered after
        // its null-store and must see null.
        let ptr = shared.batch.load(Ordering::SeqCst);
        if !ptr.is_null() {
            // SAFETY: `entered` was incremented before the load, so the
            // submitter cannot retire the batch until this worker leaves.
            unsafe { (*ptr).participate() };
        }
        // ORDERING: Release — pairs with the submitter's SeqCst spin on
        // `entered == 0`, ordering this worker's last touch of the batch
        // before the submitter retires it. The departure is not part of
        // the Dekker race, so the full fence is unnecessary here.
        shared.entered.fetch_sub(1, Ordering::Release);
    }
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = max_threads().saturating_sub(1);
            let shared = Arc::new(Shared {
                batch: AtomicPtr::new(std::ptr::null_mut()),
                entered: AtomicUsize::new(0),
                generation: AtomicU64::new(0),
                park: Mutex::new(0),
                park_cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            });
            for i in 0..workers {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("deepmorph-par-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker");
            }
            Pool {
                shared,
                workers,
                active: Mutex::new(()),
            }
        })
    }

    /// Runs `run(0) … run(blocks-1)` across the pool, returning once all
    /// blocks completed. Falls back to an inline serial loop when the pool
    /// has no workers or another batch is in flight.
    ///
    /// # Panics
    ///
    /// Panics if any block panicked (after every block has finished, so
    /// borrowed data is never left aliased by a still-running worker).
    fn run_batch(&self, blocks: usize, run: &(dyn Fn(usize) + Sync)) {
        if blocks == 0 {
            return;
        }
        let inline = |run: &(dyn Fn(usize) + Sync)| {
            run_as_worker(|| {
                for b in 0..blocks {
                    run(b);
                }
            })
        };
        if self.workers == 0 || blocks == 1 {
            return inline(run);
        }
        // One batch at a time; a second concurrent submitter runs inline.
        let Ok(_active) = self.active.try_lock() else {
            return inline(run);
        };
        // SAFETY: lifetime erasure — the `Batch` lives on this stack frame
        // and holds a raw pointer to `run`, which only lives for this
        // call. Workers reach it exclusively through the `batch` pointer
        // slot, bracketed by the `entered` counter; this function nulls
        // the slot and waits for both `done == total` and `entered == 0`
        // before returning, so no worker can touch the batch or the
        // closure after either dies. Nothing here is heap-allocated, so no
        // `free` ever happens on a worker thread (cross-thread frees
        // contend the malloc arena lock, which is millisecond-class on the
        // sandboxed build machines).
        let erased = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(run as *const _)
        };
        let batch = Batch {
            run: erased,
            next: AtomicUsize::new(0),
            total: blocks,
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        };
        // ORDERING: Release publishes the fully initialized `Batch` to
        // any worker whose SeqCst load observes the pointer. Publishing
        // is not the racy half of the retire protocol, so SeqCst buys
        // nothing here.
        self.shared
            .batch
            .store(&batch as *const Batch as *mut Batch, Ordering::Release);
        let generation = self.shared.generation.fetch_add(1, Ordering::Release) + 1;
        // Mirror the generation under the park lock on *every* publish —
        // workers park against this value, so it must never lag the atomic
        // (a stale mirror would make the next park return immediately and
        // loop). Notify only when someone is actually parked.
        {
            let mut guard = self.shared.park.lock().expect("park lock");
            *guard = generation;
            // ORDERING: Relaxed — `park_lock` (held here and spanning
            // every parking worker's increment-then-wait) provides the
            // happens-before; see the worker-side ORDERING note.
            if self.shared.sleepers.load(Ordering::Relaxed) > 0 {
                self.shared.park_cv.notify_all();
            }
        }
        // The submitting thread works too, then spin-waits for the tail
        // blocks in flight on workers. Pure spinning (no `yield_now`): on
        // the sandboxed build machines a yield can deschedule this thread
        // for milliseconds, dwarfing the tail it is waiting for.
        run_as_worker(|| batch.participate());
        while batch.done.load(Ordering::Acquire) < blocks {
            std::hint::spin_loop();
        }
        // Retire the batch: unpublish, then wait for any worker still in
        // its read-participate window before the stack frame goes away.
        //
        // ORDERING: SeqCst store-load fence (Dekker) — this null-store
        // and the `entered` spin-load below mirror the worker's SeqCst
        // increment-then-load; with anything weaker, this thread's load
        // could be satisfied before its own null-store becomes visible,
        // letting a worker slip in (entered 0→1, loads the stale pointer)
        // while this frame is being torn down.
        self.shared
            .batch
            .store(std::ptr::null_mut(), Ordering::SeqCst);
        // ORDERING: SeqCst — the load half of the Dekker fence above; it
        // also carries the acquire edge pairing with the worker's Release
        // departure decrement, so the batch's memory can safely die.
        while self.shared.entered.load(Ordering::SeqCst) > 0 {
            std::hint::spin_loop();
        }
        assert!(
            !batch.panicked.load(Ordering::Acquire),
            "parallel worker panicked"
        );
    }
}

/// Maximum worker threads used by the `par_*` helpers.
///
/// Reads `DEEPMORPH_THREADS` (values `< 1` are treated as 1), falling back
/// to the machine's available parallelism. Returns 1 on threads that are
/// already executing a parallel region, so nesting stays serial.
///
/// The configured value is computed once and cached:
/// [`std::thread::available_parallelism`] re-reads cgroup files on every
/// call, which costs ~3 ms on the sandboxed build machines — far more
/// than the kernels this crate parallelizes.
pub fn max_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        if let Ok(v) = std::env::var("DEEPMORPH_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The `i`-th of `parts` contiguous, near-equal ranges that split `0..n`,
/// computed without allocating (`None` for an empty slot). The dispatch
/// paths use this so submitting a batch performs no heap allocation — a
/// requirement of the zero-allocation steady state the tensor workspace
/// provides (`tests/alloc_regression.rs`).
fn nth_range(n: usize, parts: usize, i: usize) -> Option<Range<usize>> {
    let base = n / parts;
    let rem = n % parts;
    let len = base + usize::from(i < rem);
    if len == 0 {
        return None;
    }
    let start = i * base + i.min(rem);
    Some(start..start + len)
}

/// How many blocks to split `n_items` into for the current pool.
fn block_count(n_items: usize) -> usize {
    (max_threads() * BLOCKS_PER_THREAD).min(n_items)
}

/// Raw pointer wrapper so disjoint sub-slices can be re-materialized inside
/// `Sync` block closures. Soundness relies on blocks covering disjoint
/// index ranges, which `nth_range` guarantees.
struct SendPtr<T>(*mut T);

// SAFETY: the wrapper is only constructed over slices whose blocks are
// handed to workers as disjoint index ranges, so sending the base
// pointer across threads cannot create aliased &mut access.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared references to the wrapper only yield the raw pointer;
// dereferencing stays confined to each block's disjoint range.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Splits `data` into contiguous chunks of `chunk_len` elements and calls
/// `f(chunk_index, chunk)` for each, distributing chunks over the pool.
///
/// `f` must only depend on its own chunk; chunk boundaries and contents are
/// identical to a serial `data.chunks_mut(chunk_len).enumerate()` loop.
///
/// # Panics
///
/// Panics if `chunk_len` is zero or `f` panics.
pub fn par_chunks_mut<T: Send, F>(data: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "par_chunks_mut: chunk_len must be positive");
    let len = data.len();
    let n_chunks = len.div_ceil(chunk_len);
    if max_threads() <= 1 || n_chunks <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let parts = block_count(n_chunks);
    let base = SendPtr(data.as_mut_ptr());
    Pool::global().run_batch(parts, &|bi| {
        let base = &base;
        let Some(range) = nth_range(n_chunks, parts, bi) else {
            return;
        };
        for chunk_idx in range {
            let start = chunk_idx * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: blocks hold disjoint chunk indexes, so these slices
            // never alias; `start..end` is in bounds by construction.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
            f(chunk_idx, chunk);
        }
    });
}

/// Like [`par_chunks_mut`], but splits two buffers in lockstep: chunk `i`
/// of `a` (length `a_chunk`) is processed together with chunk `i` of `b`
/// (length `b_chunk`). Used by kernels that fill a value buffer and an
/// index buffer side by side (e.g. max-pooling's output + argmax).
///
/// # Panics
///
/// Panics if either chunk length is zero, the buffers describe different
/// chunk counts, or `f` panics.
pub fn par_chunks2_mut<T: Send, U: Send, F>(
    a: &mut [T],
    a_chunk: usize,
    b: &mut [U],
    b_chunk: usize,
    f: F,
) where
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    assert!(
        a_chunk > 0 && b_chunk > 0,
        "par_chunks2_mut: chunk lengths must be positive"
    );
    let (a_len, b_len) = (a.len(), b.len());
    let n_chunks = a_len.div_ceil(a_chunk);
    assert_eq!(
        n_chunks,
        b_len.div_ceil(b_chunk),
        "par_chunks2_mut: buffers disagree on chunk count"
    );
    if max_threads() <= 1 || n_chunks <= 1 {
        for (i, (ca, cb)) in a.chunks_mut(a_chunk).zip(b.chunks_mut(b_chunk)).enumerate() {
            f(i, ca, cb);
        }
        return;
    }
    let parts = block_count(n_chunks);
    let base_a = SendPtr(a.as_mut_ptr());
    let base_b = SendPtr(b.as_mut_ptr());
    Pool::global().run_batch(parts, &|bi| {
        let (base_a, base_b) = (&base_a, &base_b);
        let Some(range) = nth_range(n_chunks, parts, bi) else {
            return;
        };
        for chunk_idx in range {
            let (sa, sb) = (chunk_idx * a_chunk, chunk_idx * b_chunk);
            let (ea, eb) = ((sa + a_chunk).min(a_len), (sb + b_chunk).min(b_len));
            // SAFETY: disjoint chunk indexes per block ⇒ no aliasing; both
            // ranges are in bounds by construction.
            let (ca, cb) = unsafe {
                (
                    std::slice::from_raw_parts_mut(base_a.0.add(sa), ea - sa),
                    std::slice::from_raw_parts_mut(base_b.0.add(sb), eb - sb),
                )
            };
            f(chunk_idx, ca, cb);
        }
    });
}

/// Computes `[f(0), f(1), …, f(n-1)]` in parallel, preserving order.
pub fn par_map<U: Send, F>(n: usize, f: F) -> Vec<U>
where
    F: Fn(usize) -> U + Sync,
{
    if max_threads() <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    par_chunks_mut(&mut slots, 1, |i, slot| slot[0] = Some(f(i)));
    slots
        .into_iter()
        .map(|s| s.expect("par_map filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_exactly() {
        for n in [0usize, 1, 2, 7, 64, 65] {
            for parts in [1usize, 2, 3, 8] {
                let ranges: Vec<Range<usize>> =
                    (0..parts).filter_map(|i| nth_range(n, parts, i)).collect();
                let total: usize = ranges.iter().map(|r| r.end - r.start).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }

    #[test]
    fn par_chunks_mut_matches_serial() {
        let mut a: Vec<u64> = (0..1003).collect();
        let mut b = a.clone();
        for (i, chunk) in a.chunks_mut(10).enumerate() {
            for v in chunk.iter_mut() {
                *v = v.wrapping_mul(i as u64 + 1);
            }
        }
        par_chunks_mut(&mut b, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = v.wrapping_mul(i as u64 + 1);
            }
        });
        assert_eq!(a, b);
    }

    #[test]
    fn par_chunks2_mut_stays_in_lockstep() {
        let mut vals: Vec<f32> = (0..120).map(|i| i as f32).collect();
        let mut idxs: Vec<usize> = vec![0; 40];
        par_chunks2_mut(&mut vals, 3, &mut idxs, 1, |i, va, ib| {
            ib[0] = i;
            for v in va.iter_mut() {
                *v += i as f32;
            }
        });
        assert_eq!(idxs, (0..40).collect::<Vec<_>>());
        assert_eq!(vals[3], 3.0 + 1.0);
        assert_eq!(vals[119], 119.0 + 39.0);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_regions_run_serially() {
        // Inside a par_map item, max_threads() must report 1 so nested
        // kernels don't try to re-enter the pool.
        use std::sync::atomic::{AtomicBool, Ordering};
        let saw_nested_parallel = AtomicBool::new(false);
        par_map(8, |_i| {
            if max_threads() != 1 {
                saw_nested_parallel.store(true, Ordering::Relaxed);
            }
            // A nested call must still complete correctly.
            let out = par_map(4, |i| i + 1);
            assert_eq!(out, vec![1, 2, 3, 4]);
        });
        assert!(!saw_nested_parallel.load(Ordering::Relaxed));
    }

    #[test]
    fn thread_count_follows_deepmorph_threads() {
        // `DEEPMORPH_THREADS=1` is the serial reference run. A value that
        // does not parse would silently fall back to every core and run
        // the parallel path instead, so it fails here.
        match std::env::var("DEEPMORPH_THREADS") {
            Ok(v) => {
                let n: usize = v
                    .trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("DEEPMORPH_THREADS={v:?} does not parse: {e}"));
                assert_eq!(max_threads(), n.max(1));
            }
            Err(_) => assert!(max_threads() >= 1),
        }
    }

    #[test]
    fn many_small_batches_complete() {
        for round in 0..200 {
            let mut data = vec![round as u64; 64];
            par_chunks_mut(&mut data, 4, |i, c| {
                for v in c.iter_mut() {
                    *v += i as u64;
                }
            });
            assert_eq!(data[63], round as u64 + 15);
        }
    }
}
