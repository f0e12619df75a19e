//! Deterministic allocation accounting: a counting [`GlobalAlloc`] wrapper
//! around the system allocator, with thread-local meters.
//!
//! The meter answers one question per thread: *what did this thread
//! allocate between two points in time?* Each thread tracks monotone
//! totals (allocation count, allocated bytes), a windowed net-live /
//! peak-net-live pair, and a log2 histogram of allocation sizes. A shard
//! opens a window ([`ShardLog::alloc_open`]) when its work starts and seals
//! it when the work ends; the deltas land in the shard log and merge by
//! `(group, structural index)` exactly like spans. A serial stage on the
//! orchestrator thread meters itself the same way
//! ([`Recorder::metered_stage`]). Because every shard's and metered stage's
//! allocation sequence is a pure function of its input, the deltas are
//! byte-identical across `--jobs` values.
//!
//! Two rules keep that true:
//!
//! * **The observer never meters itself.** Bookkeeping inside the shared
//!   [`Recorder`] (aggregate-map inserts, stage records, volatile counters)
//!   allocates on whichever thread happens to touch a name first — a
//!   schedule artifact, not workload behaviour. Those paths run under a
//!   [`pause`] guard, so their allocations are invisible to the meter.
//!   Per-shard [`ShardLog`] recording stays metered: its allocation
//!   sequence is structural.
//! * **Windows are relative.** Peak live is measured as the high-water mark
//!   of *net bytes allocated minus freed on this thread since the window
//!   opened*, never as an absolute heap position, so a thread's prior
//!   history cannot leak into a shard's numbers.
//!
//! OS-level peak RSS (`VmHWM` from `/proc/self/status`) is the opposite
//! kind of number — schedule- and substrate-dependent — and is exposed only
//! through [`peak_rss_kb`] for the volatile channel. It must never reach a
//! committed surface.
//!
//! [`Recorder`]: crate::Recorder
//! [`Recorder::metered_stage`]: crate::Recorder::metered_stage
//! [`ShardLog`]: crate::ShardLog
//! [`ShardLog::alloc_open`]: crate::ShardLog::alloc_open
//! [`GlobalAlloc`]: std::alloc::GlobalAlloc

use crate::hist::{Histogram, BUCKETS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Monotone: allocations performed by this thread (unpaused).
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    /// Monotone: bytes requested by this thread (unpaused).
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Net bytes (allocated - freed on this thread) since the last
    /// [`window_reset`]; may go negative when this thread frees memory
    /// another thread allocated.
    static WINDOW_NET: Cell<i64> = const { Cell::new(0) };
    /// High-water mark of [`WINDOW_NET`] since the last reset.
    static WINDOW_PEAK: Cell<i64> = const { Cell::new(0) };
    /// Per-bucket allocation-size counts (monotone, unpaused).
    static SIZE_BUCKETS: [Cell<u64>; BUCKETS] = const { [const { Cell::new(0) }; BUCKETS] };
    /// When true, the meter ignores this thread's allocations.
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// The counting wrapper: delegates every operation to [`System`] and, when
/// the thread's meter is running, updates the thread-local counters. The
/// accounting itself never allocates.
pub struct CountingAlloc;

#[expect(unsafe_code, reason = "the GlobalAlloc contract is inherently unsafe")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            meter_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            meter_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            meter_realloc(layout.size(), new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        meter_dealloc(layout.size());
    }
}

/// The installed global allocator: every binary and test in the workspace
/// links `alexa-obs`, so every process meters allocations identically.
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

#[inline]
fn meter_alloc(size: usize) {
    if PAUSED.with(Cell::get) {
        return;
    }
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + size as u64));
    SIZE_BUCKETS.with(|b| {
        if let Some(cell) = b.get(Histogram::bucket_of(size as u64)) {
            cell.set(cell.get() + 1);
        }
    });
    WINDOW_NET.with(|n| {
        let net = n.get() + size as i64;
        n.set(net);
        WINDOW_PEAK.with(|p| {
            if net > p.get() {
                p.set(net);
            }
        });
    });
}

#[inline]
fn meter_realloc(old_size: usize, new_size: usize) {
    if PAUSED.with(Cell::get) {
        return;
    }
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + new_size as u64));
    SIZE_BUCKETS.with(|b| {
        if let Some(cell) = b.get(Histogram::bucket_of(new_size as u64)) {
            cell.set(cell.get() + 1);
        }
    });
    WINDOW_NET.with(|n| {
        let net = n.get() + new_size as i64 - old_size as i64;
        n.set(net);
        WINDOW_PEAK.with(|p| {
            if net > p.get() {
                p.set(net);
            }
        });
    });
}

#[inline]
fn meter_dealloc(size: usize) {
    if PAUSED.with(Cell::get) {
        return;
    }
    WINDOW_NET.with(|n| n.set(n.get() - size as i64));
}

/// A point-in-time reading of this thread's meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Monotone allocation count at the time of the snapshot.
    pub count: u64,
    /// Monotone allocated-bytes total at the time of the snapshot.
    pub bytes: u64,
}

/// Read this thread's monotone counters (count, bytes).
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        count: ALLOC_COUNT.with(Cell::get),
        bytes: ALLOC_BYTES.with(Cell::get),
    }
}

/// Copy this thread's allocation-size histogram.
pub fn size_histogram() -> Histogram {
    let mut counts = [0u64; BUCKETS];
    SIZE_BUCKETS.with(|b| {
        for (dst, cell) in counts.iter_mut().zip(b.iter()) {
            *dst = cell.get();
        }
    });
    Histogram::from_counts(counts)
}

/// Zero this thread's windowed net/peak meters. Call when a shard's work
/// begins; pair with [`window_peak`] when it ends.
pub fn window_reset() {
    WINDOW_NET.with(|n| n.set(0));
    WINDOW_PEAK.with(|p| p.set(0));
}

/// The high-water mark of net live bytes since [`window_reset`], clamped to
/// zero (a window that only freed memory peaked at its starting point).
pub fn window_peak() -> u64 {
    WINDOW_PEAK.with(Cell::get).max(0) as u64
}

/// RAII guard that hides the current thread's allocations from the meter.
///
/// Held by the [`Recorder`](crate::Recorder)'s internal bookkeeping so that
/// schedule-dependent allocations (who first inserts an aggregate name, who
/// extends the shared stage vector) never perturb the deterministic
/// workload counters. Nests: the guard restores the previous state.
pub struct PauseGuard {
    was: bool,
}

/// Pause the meter on this thread until the guard drops.
pub fn pause() -> PauseGuard {
    let was = PAUSED.with(|p| p.replace(true));
    PauseGuard { was }
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        PAUSED.with(|p| p.set(self.was));
    }
}

/// Hand the allocator's free pages back to the OS.
///
/// glibc keeps freed memory in the arena it came from, and every thread
/// that allocates may get an arena of its own, so a process that runs one
/// heavy unit of work after another on changing threads (a campaign's
/// cells) sees its resident set climb to the sum of the arenas' high-water
/// marks. `malloc_trim(0)` releases the free pages of every arena; calling
/// it between units bounds the resident set to one unit's. A no-op on
/// other C libraries, whose allocators manage this themselves or not at all.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[expect(
        unsafe_code,
        reason = "FFI into glibc: malloc_trim takes a byte count, touches no Rust memory and is safe to call from any thread"
    )]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // The return value only says whether any page was released.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// This process's peak resident set size in kilobytes, from the `VmHWM`
/// line of `/proc/self/status`. Returns 0 when never available (non-Linux).
///
/// The kernel folds the current RSS into its high-water mark lazily, so
/// two successive `VmHWM` readings can decrease. Every reading goes
/// through one process-wide running maximum, which makes successive calls
/// never decrease: stage samples and per-cell figures stay monotone.
///
/// This is an OS-level, schedule-dependent number: it depends on worker
/// count, allocator behaviour, and what the process did before the call.
/// It belongs on the volatile channel only — never in a committed surface.
pub fn peak_rss_kb() -> u64 {
    static PEAK_KB: AtomicU64 = AtomicU64::new(0);
    let hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            rest.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or(0);
    PEAK_KB.fetch_max(hwm, Ordering::Relaxed).max(hwm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_this_threads_allocations() {
        let before = snapshot();
        let v: Vec<u64> = (0..1000).collect();
        let after = snapshot();
        assert!(after.count > before.count);
        assert!(after.bytes >= before.bytes + 8 * 1000);
        drop(v);
        // Frees never rewind the monotone counters.
        let end = snapshot();
        assert!(end.count >= after.count);
        assert!(end.bytes >= after.bytes);
    }

    #[test]
    fn pause_guard_hides_allocations_and_nests() {
        let before = snapshot();
        {
            let _outer = pause();
            {
                let _inner = pause();
                let _hidden: Vec<u64> = (0..100).collect();
            }
            // Still paused after the inner guard drops.
            let _also_hidden: Vec<u64> = (0..100).collect();
        }
        let after = snapshot();
        assert_eq!(before, after, "paused allocations must be invisible");
        // Unpaused again after the outer guard drops.
        let _visible: Vec<u64> = (0..100).collect();
        assert!(snapshot().count > after.count);
    }

    #[test]
    fn window_peak_tracks_net_high_water_mark() {
        window_reset();
        let big: Vec<u8> = vec![7; 1 << 16];
        drop(big);
        let peak = window_peak();
        assert!(peak >= 1 << 16, "peak {peak} must cover the 64 KiB spike");
        // After the spike is freed, a fresh window starts back at zero.
        window_reset();
        assert_eq!(window_peak(), 0);
    }

    #[test]
    fn size_histogram_buckets_grow() {
        let before = size_histogram();
        let _boxes: Vec<Box<[u8; 512]>> = (0..10).map(|_| Box::new([0u8; 512])).collect();
        let after = size_histogram();
        assert!(after.total() > before.total());
    }

    #[test]
    fn identical_workloads_meter_identically() {
        // The determinism contract in miniature: the same allocation
        // sequence produces the same deltas, wherever the window starts.
        let work = || {
            let mut v: Vec<String> = Vec::new();
            for i in 0..64 {
                v.push(format!("item-{i}"));
            }
            v.len()
        };
        let a0 = snapshot();
        work();
        let a1 = snapshot();
        work();
        let a2 = snapshot();
        assert_eq!(a1.count - a0.count, a2.count - a1.count);
        assert_eq!(a1.bytes - a0.bytes, a2.bytes - a1.bytes);
    }

    #[test]
    fn peak_rss_reads_proc_status() {
        // On Linux this must be a real, nonzero reading.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn peak_rss_never_decreases_across_calls() {
        let mut last = peak_rss_kb();
        for round in 0..64 {
            // Grow and free some memory between readings, so the kernel's
            // high-water mark has something to lag behind.
            let block = vec![round as u8; 1 << 20];
            std::hint::black_box(&block);
            drop(block);
            let now = peak_rss_kb();
            assert!(now >= last, "peak rss fell from {last} to {now} kB");
            last = now;
        }
    }
}
