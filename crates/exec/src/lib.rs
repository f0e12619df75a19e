//! Deterministic parallel execution for the audit engine.
//!
//! The audit pipeline is embarrassingly parallel (13 independent persona
//! shards, independent permutation-test chunks, independent artifact
//! renders), but the repository's core invariant is that a fixed seed
//! produces byte-identical output. This crate provides the one primitive
//! that squares the two: an **order-preserving parallel map** whose result
//! is a pure function of its inputs — never of thread scheduling or worker
//! count.
//!
//! Work items are pulled off a shared counter by the calling thread and
//! `workers − 1` scoped threads, and results are reassembled in input
//! order, so `par_map(Some(1), ..)` and `par_map(Some(32), ..)` return
//! identical vectors as long as the mapped closure itself is deterministic
//! per item. The closure receives the item index, which callers use to
//! derive per-item seeds (`seed ^ index`-style).
//!
//! Built on `std::thread::scope` only — no dependency at all — because the
//! build must work fully offline.

#![deny(clippy::indexing_slicing)]
#![deny(unreachable_pub)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, recovering from poisoning.
///
/// A worker panic while holding one of the handoff locks poisons it; the
/// protected state (an `Option<T>` slot or the result vector) is still
/// structurally sound, and `std::thread::scope` re-raises the original panic
/// at join — so recovery here never masks a failure.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The host's hardware thread count (1 when unknown).
fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a `jobs` knob to a concrete worker count.
///
/// `None` means "all cores" ([`std::thread::available_parallelism`], falling
/// back to 1 if unknown); `Some(n)` is clamped to at least 1. Worker count is
/// a pure throughput knob: committed output is worker-count-independent.
pub fn effective_jobs(jobs: Option<usize>) -> usize {
    jobs.map_or_else(hardware_threads, |n| n.max(1))
}

/// [`effective_jobs`] capped at the host's hardware threads.
///
/// A CPU-bound fan-out cannot benefit from more workers than cores: on a
/// single-core host `--jobs 8` spawns eight threads contending for one core
/// and measurably *slows* the pass.
pub fn clamped_jobs(jobs: Option<usize>) -> usize {
    effective_jobs(jobs).min(hardware_threads())
}

/// Map `f` over `items` with up to `effective_jobs(jobs)` worker threads,
/// returning results **in input order**.
///
/// `f` is called exactly once per item with `(index, item)`. The calling
/// thread is one of the workers: it spawns `workers − 1` scoped threads and
/// pulls items off the same cursor as they do, so its allocations come from
/// the heap arena it already warmed rather than from one more fresh
/// thread's. With one worker (or one item) no threads are spawned and the
/// map runs inline — this is the sequential reference path the determinism
/// tests compare against.
///
/// A panic in any worker propagates to the caller once all workers have
/// stopped picking up new items.
pub fn par_map<T, U, F>(jobs: Option<usize>, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = effective_jobs(jobs).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Each slot is taken exactly once by exactly one worker via the atomic
    // cursor, so the mutexes are uncontended; they exist to make the slot
    // handoff safe without unsafe code.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));

    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else {
            break;
        };
        #[expect(
            clippy::expect_used,
            reason = "the atomic cursor hands each slot to exactly one worker"
        )]
        let item = locked(slot).take().expect("slot taken twice");
        let out = f(i, item);
        locked(&results).push((i, out));
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "this is the one sanctioned spawn site: every parallel stage in the workspace goes through par_map"
    )]
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });

    let mut tagged = results.into_inner().unwrap_or_else(|p| p.into_inner());
    assert_eq!(tagged.len(), n, "parallel map lost items");
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(Some(8), items, |i, x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let items: Vec<u64> = (0..257).collect();
        let run = |jobs| {
            par_map(jobs, items.clone(), |i, x| {
                x.wrapping_mul(31).wrapping_add(i as u64)
            })
        };
        let sequential = run(Some(1));
        assert_eq!(sequential, run(Some(2)));
        assert_eq!(sequential, run(Some(16)));
        assert_eq!(sequential, run(None));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(None, empty, |_, x: u8| x).is_empty());
        assert_eq!(par_map(Some(4), vec![9], |i, x: i32| x + i as i32), vec![9]);
    }

    #[test]
    fn effective_jobs_resolution() {
        assert_eq!(effective_jobs(Some(0)), 1);
        assert_eq!(effective_jobs(Some(5)), 5);
        assert!(effective_jobs(None) >= 1);
    }

    #[test]
    fn clamped_jobs_never_exceeds_hardware() {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(clamped_jobs(Some(0)), 1);
        assert_eq!(clamped_jobs(Some(hardware * 8)), hardware);
        assert!(clamped_jobs(None) <= hardware);
        assert!(clamped_jobs(Some(1)) == 1);
    }

    #[test]
    fn more_workers_than_items() {
        let out = par_map(Some(64), vec![1, 2, 3], |_, x: u32| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }
}
