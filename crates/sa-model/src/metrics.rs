//! Summary statistics used by the experiment harness.
//!
//! The paper's randomized bounds hold "in expectation and with high probability"; the
//! experiments therefore repeat every configuration across many seeds and report
//! mean, max and percentiles. This module provides the small, dependency-free
//! statistics helpers those reports are built from.

use crate::json::JsonValue;
use crate::snapshot::u64_to_json;

/// Summary statistics of a sample of (round-count) measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Computes the summary of a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        let count = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            median: percentile_of_sorted(&sorted, 50.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            stddev: var.sqrt(),
        }
    }

    /// Computes the summary of integer samples (convenience for round counts).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of_u64(samples: &[u64]) -> Self {
        let floats: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Summary::of(&floats)
    }

    /// Serializes the summary as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("count".to_string(), JsonValue::Number(self.count as f64)),
            ("min".to_string(), JsonValue::Number(self.min)),
            ("max".to_string(), JsonValue::Number(self.max)),
            ("mean".to_string(), JsonValue::Number(self.mean)),
            ("median".to_string(), JsonValue::Number(self.median)),
            ("p95".to_string(), JsonValue::Number(self.p95)),
            ("stddev".to_string(), JsonValue::Number(self.stddev)),
        ])
    }

    /// Deserializes a summary from the JSON produced by [`Summary::to_json`].
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        Some(Summary {
            count: value.get("count")?.as_usize()?,
            min: value.get("min")?.as_f64()?,
            max: value.get("max")?.as_f64()?,
            mean: value.get("mean")?.as_f64()?,
            median: value.get("median")?.as_f64()?,
            p95: value.get("p95")?.as_f64()?,
            stddev: value.get("stddev")?.as_f64()?,
        })
    }
}

/// Per-node activity counters, maintained by the **account** stage of the
/// step pipeline (see [`crate::engine`]).
///
/// Tracks, for every node, how many steps activated it, how many of those
/// steps changed its state, and how many changed its *output value*
/// (transitions between output and non-output states count as changes).
/// Kept in one place so equivalence tests can compare whole-execution
/// metrics at once.
///
/// Two storage modes:
///
/// * **dense** (the default): one `u64` per node per counter — supports
///   per-node reads, liveness verification windows and exact
///   checkpoint/restore;
/// * **streaming** ([`NodeCounters::streaming`]): only the three running
///   totals — `O(1)` memory for million-node executions that never
///   checkpoint and never run a verification window. Per-node accessors
///   panic in this mode (a loud guard beats silently-empty verification).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCounters {
    store: CounterStore,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum CounterStore {
    Dense {
        activations: Vec<u64>,
        state_changes: Vec<u64>,
        output_changes: Vec<u64>,
    },
    Streaming {
        n: usize,
        activations: u64,
        state_changes: u64,
        output_changes: u64,
    },
}

impl NodeCounters {
    /// Zeroed counters for `n` nodes.
    pub fn new(n: usize) -> Self {
        NodeCounters {
            store: CounterStore::Dense {
                activations: vec![0; n],
                state_changes: vec![0; n],
                output_changes: vec![0; n],
            },
        }
    }

    /// Zeroed **streaming** counters for `n` nodes: only running totals are
    /// kept (see the type docs). Selected per execution via
    /// [`ExecutionBuilder::streaming_counters`](crate::executor::ExecutionBuilder::streaming_counters).
    pub fn streaming(n: usize) -> Self {
        NodeCounters {
            store: CounterStore::Streaming {
                n,
                activations: 0,
                state_changes: 0,
                output_changes: 0,
            },
        }
    }

    /// Whether these counters keep only running totals.
    pub fn is_streaming(&self) -> bool {
        matches!(self.store, CounterStore::Streaming { .. })
    }

    /// The number of nodes accounted for.
    pub fn node_count(&self) -> usize {
        match &self.store {
            CounterStore::Dense { activations, .. } => activations.len(),
            CounterStore::Streaming { n, .. } => *n,
        }
    }

    /// Total activations across all nodes (both modes).
    pub fn total_activations(&self) -> u64 {
        match &self.store {
            CounterStore::Dense { activations, .. } => activations.iter().sum(),
            CounterStore::Streaming { activations, .. } => *activations,
        }
    }

    /// Total state changes across all nodes (both modes).
    pub fn total_state_changes(&self) -> u64 {
        match &self.store {
            CounterStore::Dense { state_changes, .. } => state_changes.iter().sum(),
            CounterStore::Streaming { state_changes, .. } => *state_changes,
        }
    }

    /// Total output changes across all nodes (both modes).
    pub fn total_output_changes(&self) -> u64 {
        match &self.store {
            CounterStore::Dense { output_changes, .. } => output_changes.iter().sum(),
            CounterStore::Streaming { output_changes, .. } => *output_changes,
        }
    }

    /// Aggregates the three per-node distributions into sum/max/histogram
    /// digests for reports (`None` for streaming counters, which hold no
    /// per-node distribution).
    pub fn digest(&self) -> Option<CountersDigest> {
        match &self.store {
            CounterStore::Dense {
                activations,
                state_changes,
                output_changes,
            } => Some(CountersDigest {
                activations: CounterDigest::of(activations),
                state_changes: CounterDigest::of(state_changes),
                output_changes: CounterDigest::of(output_changes),
            }),
            CounterStore::Streaming { .. } => None,
        }
    }

    /// Rebuilds counters from their three per-node vectors (used when
    /// restoring an execution from a checkpoint snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_parts(
        activations: Vec<u64>,
        state_changes: Vec<u64>,
        output_changes: Vec<u64>,
    ) -> Self {
        assert!(
            activations.len() == state_changes.len() && state_changes.len() == output_changes.len(),
            "counter vectors must have equal lengths"
        );
        NodeCounters {
            store: CounterStore::Dense {
                activations,
                state_changes,
                output_changes,
            },
        }
    }

    /// Per-node activation counts.
    ///
    /// # Panics
    ///
    /// Panics for streaming counters, which hold no per-node data.
    pub fn activations(&self) -> &[u64] {
        match &self.store {
            CounterStore::Dense { activations, .. } => activations,
            CounterStore::Streaming { .. } => panic!("{STREAMING_NO_PER_NODE}"),
        }
    }

    /// Per-node counts of steps in which the node's state changed.
    ///
    /// # Panics
    ///
    /// Panics for streaming counters, which hold no per-node data.
    pub fn state_changes(&self) -> &[u64] {
        match &self.store {
            CounterStore::Dense { state_changes, .. } => state_changes,
            CounterStore::Streaming { .. } => panic!("{STREAMING_NO_PER_NODE}"),
        }
    }

    /// Per-node counts of steps in which the node's output value changed.
    ///
    /// # Panics
    ///
    /// Panics for streaming counters, which hold no per-node data.
    pub fn output_changes(&self) -> &[u64] {
        match &self.store {
            CounterStore::Dense { output_changes, .. } => output_changes,
            CounterStore::Streaming { .. } => panic!("{STREAMING_NO_PER_NODE}"),
        }
    }

    /// Records that node `v` was activated this step.
    #[inline]
    pub fn record_activation(&mut self, v: usize) {
        match &mut self.store {
            CounterStore::Dense { activations, .. } => activations[v] += 1,
            CounterStore::Streaming { activations, .. } => *activations += 1,
        }
    }

    /// Records that node `v` changed state this step.
    #[inline]
    pub fn record_state_change(&mut self, v: usize) {
        match &mut self.store {
            CounterStore::Dense { state_changes, .. } => state_changes[v] += 1,
            CounterStore::Streaming { state_changes, .. } => *state_changes += 1,
        }
    }

    /// Records that node `v` changed output value this step.
    #[inline]
    pub fn record_output_change(&mut self, v: usize) {
        match &mut self.store {
            CounterStore::Dense { output_changes, .. } => output_changes[v] += 1,
            CounterStore::Streaming { output_changes, .. } => *output_changes += 1,
        }
    }

    /// Bulk-records a full-activation step in which every node changed state
    /// (the executor's uniform-configuration fast path).
    pub fn record_uniform_change(&mut self, output_changed: bool) {
        match &mut self.store {
            CounterStore::Dense {
                activations,
                state_changes,
                output_changes,
            } => {
                for count in activations.iter_mut() {
                    *count += 1;
                }
                for count in state_changes.iter_mut() {
                    *count += 1;
                }
                if output_changed {
                    for count in output_changes.iter_mut() {
                        *count += 1;
                    }
                }
            }
            CounterStore::Streaming {
                n,
                activations,
                state_changes,
                output_changes,
            } => {
                *activations += *n as u64;
                *state_changes += *n as u64;
                if output_changed {
                    *output_changes += *n as u64;
                }
            }
        }
    }

    /// Bulk-records a full-activation step in which no node changed state.
    pub fn record_uniform_noop(&mut self) {
        match &mut self.store {
            CounterStore::Dense { activations, .. } => {
                for count in activations.iter_mut() {
                    *count += 1;
                }
            }
            CounterStore::Streaming { n, activations, .. } => *activations += *n as u64,
        }
    }

    /// Resets the output-change counters (used by liveness checkers that count
    /// clock increments over a window) and returns the previous values.
    ///
    /// # Panics
    ///
    /// Panics for streaming counters, which hold no per-node data.
    pub fn take_output_changes(&mut self) -> Vec<u64> {
        match &mut self.store {
            CounterStore::Dense {
                activations,
                output_changes,
                ..
            } => std::mem::replace(output_changes, vec![0; activations.len()]),
            CounterStore::Streaming { .. } => panic!("{STREAMING_NO_PER_NODE}"),
        }
    }
}

const STREAMING_NO_PER_NODE: &str = "streaming counters hold no per-node data; \
     use dense counters (the default) for verification windows and checkpoints";

/// The sum/max/histogram aggregate of one per-node counter distribution.
///
/// The histogram is logarithmic: bucket 0 counts nodes with count 0 and
/// bucket `k ≥ 1` counts nodes whose count has bit length `k` (i.e. lies in
/// `[2^(k-1), 2^k)`), with trailing empty buckets trimmed. Compact enough to
/// embed in a report for any `n`, detailed enough to spot skew (e.g. a
/// laggard scheduler starving one node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDigest {
    /// Sum over all nodes.
    pub sum: u64,
    /// Maximum per-node count.
    pub max: u64,
    /// Logarithmic buckets (see the type docs).
    pub histogram: Vec<u64>,
}

impl CounterDigest {
    /// Aggregates a per-node counter slice in one pass.
    pub fn of(counts: &[u64]) -> Self {
        let mut sum = 0u64;
        let mut max = 0u64;
        let mut buckets = [0u64; 65];
        for &c in counts {
            sum += c;
            max = max.max(c);
            buckets[(64 - c.leading_zeros()) as usize] += 1;
        }
        let used = 65 - buckets.iter().rev().take_while(|&&b| b == 0).count();
        CounterDigest {
            sum,
            max,
            histogram: buckets[..used].to_vec(),
        }
    }

    /// Renders the digest as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("sum".to_string(), u64_to_json(self.sum)),
            ("max".to_string(), u64_to_json(self.max)),
            (
                "histogram".to_string(),
                JsonValue::Array(self.histogram.iter().map(|&b| u64_to_json(b)).collect()),
            ),
        ])
    }
}

/// The three per-counter digests of a [`NodeCounters`] (see
/// [`NodeCounters::digest`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountersDigest {
    /// Digest of per-node activation counts.
    pub activations: CounterDigest,
    /// Digest of per-node state-change counts.
    pub state_changes: CounterDigest,
    /// Digest of per-node output-change counts.
    pub output_changes: CounterDigest,
}

impl CountersDigest {
    /// Renders the digests as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("activations".to_string(), self.activations.to_json()),
            ("state_changes".to_string(), self.state_changes.to_json()),
            ("output_changes".to_string(), self.output_changes.to_json()),
        ])
    }
}

/// Percentile (nearest-rank with linear interpolation) of an already-sorted sample.
fn percentile_of_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Ordinary least squares fit of `y = a + b·x`, returning `(a, b, r²)`.
///
/// Used by the experiments to check claimed growth shapes, e.g. regressing measured
/// stabilization rounds against `D³` (experiment E3) or `D·log n` (E6).
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than two points.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    assert!(xs.len() >= 2, "need at least two points to fit a line");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    let b = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let a = mean_y - b * mean_x;
    let r2 = if sxx == 0.0 || syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (a, b, r2)
}

/// A single row of an experiment table, serializable so the harness can persist raw
/// results as JSON alongside the rendered table.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRow {
    /// Experiment identifier (e.g. "E3").
    pub experiment: String,
    /// Topology label.
    pub topology: String,
    /// Number of nodes.
    pub n: usize,
    /// Diameter bound used by the algorithm.
    pub diameter_bound: usize,
    /// Scheduler label.
    pub scheduler: String,
    /// Label of the measured quantity (e.g. "rounds-to-good").
    pub metric: String,
    /// Summary over seeds.
    pub summary: Summary,
    /// Number of runs that failed to stabilize within the budget.
    pub failures: usize,
}

impl ExperimentRow {
    /// Serializes the row as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "experiment".to_string(),
                JsonValue::String(self.experiment.clone()),
            ),
            (
                "topology".to_string(),
                JsonValue::String(self.topology.clone()),
            ),
            ("n".to_string(), JsonValue::Number(self.n as f64)),
            (
                "diameter_bound".to_string(),
                JsonValue::Number(self.diameter_bound as f64),
            ),
            (
                "scheduler".to_string(),
                JsonValue::String(self.scheduler.clone()),
            ),
            ("metric".to_string(), JsonValue::String(self.metric.clone())),
            ("summary".to_string(), self.summary.to_json()),
            (
                "failures".to_string(),
                JsonValue::Number(self.failures as f64),
            ),
        ])
    }

    /// Deserializes a row from the JSON produced by [`ExperimentRow::to_json`].
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        Some(ExperimentRow {
            experiment: value.get("experiment")?.as_str()?.to_string(),
            topology: value.get("topology")?.as_str()?.to_string(),
            n: value.get("n")?.as_usize()?,
            diameter_bound: value.get("diameter_bound")?.as_usize()?,
            scheduler: value.get("scheduler")?.as_str()?.to_string(),
            metric: value.get("metric")?.as_str()?.to_string(),
            summary: Summary::from_json(value.get("summary")?)?,
            failures: value.get("failures")?.as_usize()?,
        })
    }
}

/// Serializes a slice of rows as a JSON array (the persisted experiment format).
pub fn rows_to_json(rows: &[ExperimentRow]) -> JsonValue {
    JsonValue::Array(rows.iter().map(ExperimentRow::to_json).collect())
}

/// Deserializes the JSON array produced by [`rows_to_json`].
pub fn rows_from_json(value: &JsonValue) -> Option<Vec<ExperimentRow>> {
    value
        .as_array()?
        .iter()
        .map(ExperimentRow::from_json)
        .collect()
}

/// Renders rows as a fixed-width text table (one line per row), suitable for
/// inclusion in EXPERIMENTS.md.
pub fn render_table(rows: &[ExperimentRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<20} {:>6} {:>4} {:<20} {:<22} {:>10} {:>10} {:>10} {:>8}\n",
        "exp", "topology", "n", "D", "scheduler", "metric", "mean", "max", "p95", "fail"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:<20} {:>6} {:>4} {:<20} {:<22} {:>10.1} {:>10.1} {:>10.1} {:>8}\n",
            r.experiment,
            r.topology,
            r.n,
            r.diameter_bound,
            r.scheduler,
            r.metric,
            r.summary.mean,
            r.summary.max,
            r.summary.p95,
            r.failures
        ));
    }
    out
}

/// Wall-clock observability for one measurement run: time spent stepping the
/// execution vs. time spent in legitimacy/safety checks, plus how many
/// round-boundary checks ran. Collected by the sweep runner's phase machine
/// and surfaced in EXPERIMENTS output when the spec opts in (`"timings":
/// true`).
///
/// Equality is intentionally vacuous: timings are nondeterministic
/// observability, not part of a result's identity, so two results that
/// differ only here still compare equal (the checkpoint-resume bit-identity
/// tests and CI byte-diffs rely on that).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// Nanoseconds spent inside `step_with` (the step pipeline).
    pub step_ns: u64,
    /// Nanoseconds spent in legitimacy checks, safety-snapshot checks and
    /// incremental-tracker maintenance.
    pub oracle_ns: u64,
    /// Number of round boundaries at which a legitimacy/safety check ran.
    pub oracle_rounds: u64,
}

impl PartialEq for StepTimings {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for StepTimings {}

impl StepTimings {
    /// Serializes the timings as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "step_ns".to_string(),
                JsonValue::Number(self.step_ns as f64),
            ),
            (
                "oracle_ns".to_string(),
                JsonValue::Number(self.oracle_ns as f64),
            ),
            (
                "oracle_rounds".to_string(),
                JsonValue::Number(self.oracle_rounds as f64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_counters_match_dense_totals() {
        let mut dense = NodeCounters::new(4);
        let mut streaming = NodeCounters::streaming(4);
        for c in [&mut dense, &mut streaming] {
            c.record_activation(1);
            c.record_activation(2);
            c.record_state_change(2);
            c.record_output_change(2);
            c.record_uniform_change(true);
            c.record_uniform_change(false);
            c.record_uniform_noop();
        }
        assert!(streaming.is_streaming() && !dense.is_streaming());
        assert_eq!(dense.node_count(), streaming.node_count());
        assert_eq!(dense.total_activations(), streaming.total_activations());
        assert_eq!(dense.total_state_changes(), streaming.total_state_changes());
        assert_eq!(
            dense.total_output_changes(),
            streaming.total_output_changes()
        );
        assert!(dense.digest().is_some());
        assert!(streaming.digest().is_none());
    }

    #[test]
    #[should_panic(expected = "no per-node data")]
    fn streaming_counters_guard_per_node_reads() {
        let streaming = NodeCounters::streaming(3);
        let _ = streaming.activations();
    }

    #[test]
    fn counter_digest_buckets_by_bit_length() {
        let d = CounterDigest::of(&[0, 0, 1, 2, 3, 4, 1023]);
        assert_eq!(d.sum, 1033);
        assert_eq!(d.max, 1023);
        // bucket 0: two zeros; bucket 1: the 1; bucket 2: 2 and 3;
        // bucket 3: the 4; bucket 10: 1023 (bit length 10).
        assert_eq!(d.histogram[0], 2);
        assert_eq!(d.histogram[1], 1);
        assert_eq!(d.histogram[2], 2);
        assert_eq!(d.histogram[3], 1);
        assert_eq!(d.histogram[10], 1);
        assert_eq!(d.histogram.len(), 11, "trailing empty buckets trimmed");
        assert_eq!(d.histogram.iter().sum::<u64>(), 7);
        let json = d.to_json().render();
        assert!(json.contains("\"sum\": 1033"), "{json}");
    }

    #[test]
    fn counters_digest_renders_all_three_counters() {
        let counters = NodeCounters::from_parts(vec![3, 1], vec![1, 0], vec![0, 0]);
        let digest = counters.digest().unwrap();
        assert_eq!(digest.activations.sum, 4);
        assert_eq!(digest.state_changes.max, 1);
        assert_eq!(digest.output_changes.sum, 0);
        let json = digest.to_json();
        assert!(json.get("activations").is_some());
        assert!(json.get("output_changes").is_some());
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[4.0, 4.0, 4.0]);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 4.0);
    }

    #[test]
    fn summary_basic_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn summary_of_u64() {
        let s = Summary::of_u64(&[10, 20, 30]);
        assert_eq!(s.mean, 20.0);
    }

    #[test]
    fn p95_of_uniform_ramp() {
        let data: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&data);
        assert!((s.p95 - 95.05).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_empty_panics() {
        Summary::of(&[]);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|x| x as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let (a, b, r2) = linear_fit(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_r2_low_for_noise_like_data() {
        let xs = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = vec![5.0, -5.0, 5.0, -5.0, 5.0, -5.0];
        let (_a, _b, r2) = linear_fit(&xs, &ys);
        assert!(r2 < 0.5);
    }

    #[test]
    fn render_table_contains_rows() {
        let rows = vec![ExperimentRow {
            experiment: "E3".to_string(),
            topology: "path-8".to_string(),
            n: 8,
            diameter_bound: 7,
            scheduler: "synchronous".to_string(),
            metric: "rounds-to-good".to_string(),
            summary: Summary::of(&[10.0, 12.0]),
            failures: 0,
        }];
        let table = render_table(&rows);
        assert!(table.contains("E3"));
        assert!(table.contains("path-8"));
        assert!(table.lines().count() == 2);
    }

    #[test]
    fn experiment_row_roundtrips_through_json() {
        let row = ExperimentRow {
            experiment: "E2".to_string(),
            topology: "complete-4".to_string(),
            n: 4,
            diameter_bound: 1,
            scheduler: "central".to_string(),
            metric: "states".to_string(),
            summary: Summary::of(&[18.0]),
            failures: 0,
        };
        let json = rows_to_json(std::slice::from_ref(&row)).render_pretty();
        let parsed = JsonValue::parse(&json).expect("parse");
        let back = rows_from_json(&parsed).expect("deserialize");
        assert_eq!(back, vec![row]);
    }
}
