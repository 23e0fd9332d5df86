//! Minimal data-parallel helpers built on crossbeam scoped threads.
//!
//! Two callers use them: parallel Brandes betweenness
//! (`centrality`, through [`par_map_reduce_ranges`]) and the case-study
//! sweeps of `scdn_core::casestudy` (Fig. 3's (algorithm, k) cells and
//! the 100-run Random averages, through [`par_map_collect`]). The
//! runtime's requests and maintenance cycles run serially. Both patterns
//! are "map a function over indices and combine", which a chunked
//! scoped-thread map covers without a work-stealing runtime.

// The one module that runs threads: its work cursor and worker limit are
// atomics, exempt from the workspace's single-owner `disallowed-types`.
#![allow(clippy::disallowed_types)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker override: `0` means "use the hardware parallelism".
/// See [`set_worker_limit`].
static WORKER_LIMIT: AtomicUsize = AtomicUsize::new(0);

/// Override the number of worker threads every helper in this module uses.
///
/// `0` restores the default (hardware parallelism). A non-zero value is
/// taken literally — it may exceed the core count. The limit is
/// process-wide and racy by design (plain atomic store); its callers are
/// single-threaded at the point of the call: `benchmark/` pins one worker
/// (two for its `speedup_2w` probe), and `tests/placement_golden.rs` pins
/// two so Brandes' per-worker float partials sum the same way on every
/// host.
pub fn set_worker_limit(limit: usize) {
    WORKER_LIMIT.store(limit, Ordering::Relaxed);
}

/// Number of worker threads to use: the available parallelism (or the
/// [`set_worker_limit`] override), capped so tiny inputs don't pay spawn
/// overhead.
fn worker_count(items: usize) -> usize {
    let limit = WORKER_LIMIT.load(Ordering::Relaxed);
    // The host is asked only when no limit replaces its answer: the query
    // reads cgroup files.
    let hardware = match limit {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        _ => 0,
    };
    worker_cap(limit, hardware, items)
}

/// The capping rule of [`worker_count`]: a non-zero `limit` replaces
/// `hardware`, and no more workers than `items` (at least one) run.
fn worker_cap(limit: usize, hardware: usize, items: usize) -> usize {
    let workers = if limit == 0 { hardware } else { limit };
    workers.min(items.max(1))
}

/// Deterministic parallel map-reduce over `0..n`: worker `w` of `W` folds
/// the contiguous range `[w·n/W, (w+1)·n/W)` in index order and the
/// per-worker accumulators merge in worker order.
///
/// The index→worker assignment does not depend on scheduling, so for a
/// fixed machine (fixed `W`) the result is bit-reproducible even when
/// `merge` is not exactly associative (e.g. floating-point sums in
/// parallel Brandes betweenness).
pub fn par_map_reduce_ranges<A, M, I, R>(n: usize, init: I, map: M, merge: R) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    M: Fn(usize, &mut A) + Sync,
    R: Fn(A, A) -> A,
{
    let workers = worker_count(n);
    if workers <= 1 || n == 0 {
        let mut acc = init();
        for i in 0..n {
            map(i, &mut acc);
        }
        return acc;
    }
    let results = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let init = &init;
                let map = &map;
                s.spawn(move |_| {
                    let mut acc = init();
                    for i in (w * n / workers)..((w + 1) * n / workers) {
                        map(i, &mut acc);
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("scope panicked");
    let mut iter = results.into_iter();
    let first = iter.next().expect("at least one worker");
    iter.fold(first, merge)
}

/// Parallel for-each over `0..n` writing into disjoint output slots.
///
/// `f(i)` computes the value for slot `i`; outputs are collected in index
/// order. This is the "embarrassingly parallel over sources" pattern used by
/// the 100-run placement experiments. `T` needs no `Default`/`Clone`: each
/// slot is written exactly once into the vector's spare capacity.
pub fn par_map_collect<T, F>(n: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<T> = Vec::with_capacity(n);
    let workers = worker_count(n);
    if workers <= 1 || n == 0 {
        out.extend((0..n).map(&f));
        return out;
    }
    let chunk = chunk.max(1);
    let cursor = AtomicUsize::new(0);
    // Workers write results straight into the (uninitialized) spare
    // capacity; the length is only raised once every slot is filled.
    let out_ptr = SyncSlice(out.as_mut_ptr());
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            let out_ptr = &out_ptr;
            s.spawn(move |_| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for i in start..end {
                    // SAFETY: each index is claimed exactly once via the
                    // atomic cursor, `i < n <= capacity`, and the slot is
                    // uninitialized, so `write` (no drop of the
                    // destination) into the disjoint slot is sound. `out`
                    // outlives the scope.
                    unsafe { out_ptr.0.add(i).write(f(i)) };
                }
            });
        }
    })
    .expect("scope panicked");
    // SAFETY: the cursor handed out every index in `0..n` and each claimed
    // index was written before its worker exited (workers are joined by
    // the scope). If a worker panicked the scope propagates the panic
    // above and the length stays 0 — written slots leak, which is safe.
    unsafe { out.set_len(n) };
    out
}

/// Wrapper asserting it is safe to share the raw pointer across the scope:
/// all writes go to disjoint indices (enforced by the atomic cursor).
struct SyncSlice<T>(*mut T);
unsafe impl<T: Send> Sync for SyncSlice<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v = par_map_collect(257, 8, |i| i * 2);
        assert_eq!(v.len(), 257);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 2);
        }
    }

    #[test]
    fn map_collect_single_item() {
        let v = par_map_collect(1, 64, |i| i + 41);
        assert_eq!(v, vec![41]);
    }

    #[test]
    fn map_collect_without_default_or_clone() {
        // `NoDefault` is neither `Default` nor `Clone`: the slots must be
        // written in place, never pre-filled.
        struct NoDefault(String);
        let v = par_map_collect(123, 7, |i| NoDefault(format!("item-{i}")));
        assert_eq!(v.len(), 123);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(x.0, format!("item-{i}"));
        }
    }

    #[test]
    fn map_collect_drops_every_item() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        par_map_collect(64, 4, |_| Counted);
        assert_eq!(DROPS.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn map_reduce_ranges_sums_deterministically() {
        let total: u64 =
            par_map_reduce_ranges(1000, || 0u64, |i, acc| *acc += i as u64, |a, b| a + b);
        assert_eq!(total, 499_500);
        let empty: u64 = par_map_reduce_ranges(0, || 3u64, |_, _| unreachable!(), |a, _| a);
        assert_eq!(empty, 3);
    }

    #[test]
    fn worker_count_caps_at_items() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000_000) >= 1);
        assert_eq!(worker_cap(0, 8, 0), 1);
    }

    /// The rule alone: the process-wide limit stays untouched, so the
    /// bit-identity tests in this binary never see another worker count.
    #[test]
    fn worker_limit_overrides_hardware_count() {
        assert_eq!(worker_cap(3, 8, 1_000_000), 3);
        assert_eq!(worker_cap(3, 1, 1_000_000), 3); // may oversubscribe
        assert_eq!(worker_cap(3, 8, 2), 2); // still capped by item count
        assert_eq!(worker_cap(0, 8, 1_000_000), 8);
        assert_eq!(worker_cap(0, 8, 5), 5);
    }
}
