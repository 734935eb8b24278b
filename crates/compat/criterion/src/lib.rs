//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! Implements the subset of the criterion 0.5 API used by this workspace's
//! benches (`benchmark_group`, `bench_with_input`, `Bencher::iter`,
//! `Bencher::iter_batched`, `black_box`, the `criterion_group!` /
//! `criterion_main!` macros) with honest wall-clock measurement: every
//! benchmark is calibrated to a target sample duration, measured over
//! `sample_size` samples, and summarized by median ns/iteration.
//!
//! In addition to the textual report, the run's results are written as JSON to
//! the path named by the `BENCH_MICRO_JSON` environment variable (default
//! `BENCH_micro.json` in the current directory) so CI can track the
//! performance trajectory across commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How batched-setup benchmarks trade setup cost against measurement noise.
/// The stand-in times every batch individually, so the variants only influence
/// batch length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state: batches of many iterations.
    SmallInput,
    /// Large per-iteration state: one iteration per batch.
    LargeInput,
    /// Always exactly one iteration per batch.
    PerIteration,
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id made of a parameter only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// One measured benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Group name.
    pub group: String,
    /// Benchmark id within the group.
    pub bench: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration across samples.
    pub mean_ns: f64,
    /// Minimum nanoseconds per iteration across samples.
    pub min_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample used after calibration.
    pub iters_per_sample: u64,
}

/// The benchmark harness handle passed to benchmark functions.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut group = self.benchmark_group(id.clone());
        group.bench_with_input(BenchmarkId::from_parameter(""), &(), |b, _| f(b));
        group.finish();
    }

    /// All results measured so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Records a non-timing scalar measurement (e.g. a derived rounds/sec
    /// figure or a peak-RSS proxy) as a benchmark record, so it lands in
    /// `BENCH_micro.json` alongside the timings and is diffed by
    /// `sa bench-diff` like any other key. The value is stored in the
    /// `median_ns`/`mean_ns`/`min_ns` fields verbatim.
    pub fn record_measurement(
        &mut self,
        group: impl Into<String>,
        bench: impl Into<String>,
        value: f64,
    ) {
        let (group, bench) = (group.into(), bench.into());
        println!("{group:<28} {bench:<14} recorded {value:>12.1}");
        self.records.push(BenchRecord {
            group,
            bench,
            median_ns: value,
            mean_ns: value,
            min_ns: value,
            samples: 1,
            iters_per_sample: 1,
        });
    }

    /// Prints the final report and writes the JSON trajectory file. Called by
    /// [`criterion_main!`]; harmless to call again.
    pub fn final_summary(&self) {
        let path = std::env::var("BENCH_MICRO_JSON").unwrap_or_else(|_| "BENCH_micro.json".into());
        let json = records_to_json(&self.records);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            eprintln!("benchmark results written to {path}");
        }
    }
}

fn records_to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"group\": \"{}\", \"bench\": \"{}\", \"median_ns\": {:.1}, \
             \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            escape(&r.group),
            escape(&r.bench),
            r.median_ns,
            r.mean_ns,
            r.min_ns,
            r.samples,
            r.iters_per_sample,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A group of benchmarks sharing a name and a sample count.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark (criterion's default is 100;
    /// the stand-in uses 20 to keep offline runs quick).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Measures `f`, handing it `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher, input);
        let record = bencher.into_record(&self.name, &id.id);
        println!(
            "{:<28} {:<14} median {:>12.1} ns/iter   (mean {:.1}, min {:.1}, {} samples × {} iters)",
            self.name, id.id, record.median_ns, record.mean_ns, record.min_ns, record.samples,
            record.iters_per_sample,
        );
        self.criterion.records.push(record);
        self
    }

    /// Finishes the group (a no-op; results were recorded eagerly).
    pub fn finish(&mut self) {}
}

const TARGET_SAMPLE: Duration = Duration::from_millis(8);

/// Per-benchmark measurement driver.
pub struct Bencher {
    sample_size: usize,
    samples_ns_per_iter: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            samples_ns_per_iter: Vec::new(),
            iters_per_sample: 1,
        }
    }

    /// Benchmarks `routine` by running it repeatedly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Calibrate: find an iteration count filling the target sample time.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= TARGET_SAMPLE / 2 || iters >= 1 << 30 {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        self.iters_per_sample = iters;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let ns = start.elapsed().as_nanos() as f64;
            self.samples_ns_per_iter.push(ns / iters as f64);
        }
    }

    /// Benchmarks `routine` on fresh input produced by `setup`; only the
    /// routine is timed. Like the real criterion, the routine's outputs are
    /// collected during the batch and dropped *after* the timer stops, so
    /// teardown cost (e.g. freeing a benchmarked execution's buffers)
    /// does not pollute the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate on a single run (setup excluded from timing).
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u64;
        self.iters_per_sample = iters;
        for _ in 0..self.sample_size {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let mut outputs: Vec<O> = Vec::with_capacity(iters as usize);
            let start = Instant::now();
            for input in inputs {
                outputs.push(black_box(routine(input)));
            }
            let ns = start.elapsed().as_nanos() as f64;
            drop(outputs);
            self.samples_ns_per_iter.push(ns / iters as f64);
        }
    }

    fn into_record(mut self, group: &str, bench: &str) -> BenchRecord {
        if self.samples_ns_per_iter.is_empty() {
            self.samples_ns_per_iter.push(0.0);
        }
        self.samples_ns_per_iter
            .sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
        let n = self.samples_ns_per_iter.len();
        let median = self.samples_ns_per_iter[n / 2];
        let mean = self.samples_ns_per_iter.iter().sum::<f64>() / n as f64;
        BenchRecord {
            group: group.to_string(),
            bench: bench.to_string(),
            median_ns: median,
            mean_ns: mean,
            min_ns: self.samples_ns_per_iter[0],
            samples: n,
            iters_per_sample: self.iters_per_sample,
        }
    }
}

/// Groups benchmark functions under one name, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` running the given groups, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        group.bench_with_input(BenchmarkId::from_parameter(1), &1u64, |b, &x| {
            b.iter(|| black_box(x) + 1)
        });
        group.finish();
        assert_eq!(c.records().len(), 1);
        assert!(c.records()[0].median_ns >= 0.0);
    }

    #[test]
    fn iter_batched_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke-batched");
        group.sample_size(3);
        group.bench_with_input(BenchmarkId::new("sum", 8), &8usize, |b, &n| {
            b.iter_batched(
                || (0..n as u64).collect::<Vec<u64>>(),
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
        assert_eq!(c.records().len(), 1);
        assert_eq!(c.records()[0].bench, "sum/8");
    }

    #[test]
    fn json_rendering_is_well_formed_enough() {
        let records = vec![BenchRecord {
            group: "g".into(),
            bench: "b\"1".into(),
            median_ns: 1.5,
            mean_ns: 2.0,
            min_ns: 1.0,
            samples: 3,
            iters_per_sample: 10,
        }];
        let json = records_to_json(&records);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\\\"1"));
    }
}
