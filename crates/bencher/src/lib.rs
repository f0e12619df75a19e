//! Minimal offline benchmark harness with a `criterion`-0.5-shaped surface.
//!
//! The workspace's benches were written against crates.io `criterion`; this
//! package is aliased to that dependency name so they compile and run without
//! network access. It measures with plain [`std::time::Instant`] — median of a
//! fixed number of timed samples after a warm-up pass — and prints one line
//! per benchmark. No plotting, no statistical regression analysis; the point
//! is that `cargo bench` keeps working and produces usable wall-clock
//! numbers.
//!
//! Supported surface: [`Criterion::benchmark_group`], `sample_size`,
//! `bench_function`, `bench_with_input`, [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BatchSize`], [`BenchmarkId`], [`black_box`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros.

#![expect(
    clippy::disallowed_types,
    reason = "a benchmark harness measures wall time by design"
)]

use std::time::{Duration, Instant};

/// Opaque value laundering to keep the optimiser from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How to amortise per-iteration setup in [`Bencher::iter_batched`].
///
/// Only the variants the workspace uses; the shim times each routine call
/// individually, so the variant does not change measurement, only intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state: setup cost is negligible next to routine.
    SmallInput,
    /// Larger per-iteration state.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// A benchmark identifier combining a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// The timing driver handed to each benchmark closure.
pub struct Bencher {
    samples: usize,
    /// Median per-call time of the collected samples.
    measured: Option<Duration>,
}

impl Bencher {
    /// Time `routine`, called once per sample after one warm-up call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            times.push(start.elapsed());
        }
        self.record(times);
    }

    /// Time `routine` on fresh input from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            times.push(start.elapsed());
        }
        self.record(times);
    }

    fn record(&mut self, mut times: Vec<Duration>) {
        times.sort_unstable();
        self.measured = Some(times[times.len() / 2]);
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher {
            samples: self.samples,
            measured: None,
        };
        f(&mut b);
        self.report(&id.id, b.measured);
        self
    }

    /// Run one benchmark parameterised by `input`.
    pub fn bench_with_input<I, P, F>(&mut self, id: I, input: &P, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher, &P),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: self.samples,
            measured: None,
        };
        f(&mut b, input);
        self.report(&id.id, b.measured);
        self
    }

    /// Finish the group (reporting happens per-benchmark; this is a no-op
    /// kept for criterion API compatibility).
    pub fn finish(&mut self) {}

    fn report(&self, id: &str, measured: Option<Duration>) {
        match measured {
            Some(t) => println!(
                "bench: {}/{:<40} median {:>12.3?} ({} samples)",
                self.name, id, t, self.samples
            ),
            None => println!("bench: {}/{:<40} (no measurement)", self.name, id),
        }
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of benchmarks (default 20 samples each).
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            samples: 20,
            _criterion: self,
        }
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $f(&mut c); )+
        }
    };
}

/// Produce `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.bench_function("sum", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_to", 500u64), &500u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.bench_function("batched", |b| {
            b.iter_batched(
                || vec![3u8; 64],
                |v| v.iter().map(|&x| x as u32).sum::<u32>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }

    criterion_group!(unit_group, sample_bench);

    #[test]
    fn group_runs_every_benchmark() {
        unit_group();
    }

    #[test]
    fn benchmark_id_renders_name_slash_param() {
        assert_eq!(BenchmarkId::new("exact", 25).id, "exact/25");
    }
}
