//! Offline stand-in for the `criterion` crate.
//!
//! The build container cannot reach crates.io, so this crate implements
//! the measurement surface the workspace's benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! `bench_with_input`, [`BenchmarkId`], the [`criterion_group!`] /
//! [`criterion_main!`] macros — over a simple wall-clock harness:
//! warm-up, then `sample_size` timed batches, reporting min/median/mean
//! nanoseconds per iteration on stdout. There is no statistical
//! regression analysis, HTML report, or saved baseline; for those, run
//! the same benches with real criterion outside the container.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Warm-up duration before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Total measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(self, &id.into(), &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into() }
    }
}

/// A named benchmark group.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark parameterised by an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        run_one(self.criterion, &full, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Ends the group (report flushing is a no-op here).
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self(format!("{function}/{parameter}"))
    }

    /// Identifier carrying only a parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self(parameter.to_string())
    }
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<f64>, // ns per iteration
    budget: Duration,
    sample_size: usize,
    warm_up: Duration,
}

impl Bencher {
    /// Measures a closure: warm-up, auto-calibrated batch size, then
    /// timed batches.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up and calibration: find an iteration count that makes a
        // single sample last roughly budget / sample_size.
        let warm_deadline = Instant::now() + self.warm_up;
        let mut calib_iters = 1u64;
        let mut per_iter = f64::INFINITY;
        while Instant::now() < warm_deadline {
            let t0 = Instant::now();
            for _ in 0..calib_iters {
                black_box(f());
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            per_iter = per_iter.min(elapsed / calib_iters as f64);
            if elapsed < 1_000_000.0 {
                calib_iters = calib_iters.saturating_mul(2);
            }
        }
        let target_sample_ns =
            (self.budget.as_nanos() as f64 / self.sample_size as f64).max(1_000.0);
        self.iters_per_sample =
            ((target_sample_ns / per_iter.max(0.1)) as u64).clamp(1, 1_000_000_000);

        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(f());
            }
            self.samples.push(t0.elapsed().as_nanos() as f64 / self.iters_per_sample as f64);
        }
    }
}

fn run_one(config: &Criterion, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        iters_per_sample: 1,
        samples: Vec::with_capacity(config.sample_size),
        budget: config.measurement,
        sample_size: config.sample_size,
        warm_up: config.warm_up,
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("{id:<48} (no samples: closure never called iter)");
        return;
    }
    let mut sorted = bencher.samples.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    let min = sorted[0];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    println!(
        "{id:<48} min {min:>12.1} ns/iter   median {median:>12.1} ns/iter   mean {mean:>12.1} ns/iter   ({} iters x {} samples)",
        bencher.iters_per_sample,
        sorted.len(),
    );
}

/// Declares a benchmark group function, in either the positional or the
/// `name = ..; config = ..; targets = ..` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generates `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_samples() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20));
        let mut calls = 0u64;
        c.bench_function("noop", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        assert!(calls > 0);
    }

    #[test]
    fn group_with_input_runs() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(10));
        let mut group = c.benchmark_group("g");
        group
            .bench_with_input(BenchmarkId::from_parameter(42u32), &42u32, |b, &x| b.iter(|| x * 2));
        group.finish();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 8).0, "f/8");
        assert_eq!(BenchmarkId::from_parameter(128).0, "128");
    }
}
