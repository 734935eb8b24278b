//! `sa bench-diff` — the CI micro-benchmark regression gate.
//!
//! Compares the medians of a freshly produced `BENCH_micro.json` against the
//! committed one and fails on a >`--max-regress` (default 30%) slowdown in
//! any benchmark. Benchmarks present on only one side are
//! reported but never fail the gate (benchmark sets may legitimately
//! evolve).

use sa_model::json::JsonValue;
use std::fs;
use std::process::ExitCode;

struct Record {
    key: String,
    median_ns: f64,
}

fn load_records(path: &str) -> Result<Vec<Record>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let items = value
        .as_array()
        .ok_or_else(|| format!("{path}: expected a JSON array of benchmark records"))?;
    let mut records = Vec::with_capacity(items.len());
    for item in items {
        let group = item
            .get("group")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}: record without \"group\""))?;
        let bench = item
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}: record without \"bench\""))?;
        let median_ns = item
            .get("median_ns")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{path}: record without \"median_ns\""))?;
        records.push(Record {
            key: format!("{group}/{bench}"),
            median_ns,
        });
    }
    Ok(records)
}

/// Derived throughput records (`rounds-per-sec`) move *up* on an
/// improvement, which the increase-only gate would misread as a regression;
/// they ride along for humans and never gate.
fn is_informational(key: &str) -> bool {
    key.contains("rounds-per-sec")
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut max_regress = 0.30f64;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regress" => {
                max_regress = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-regress needs a fraction, e.g. 0.30")?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag \"{other}\"")),
            _ => positional.push(arg.clone()),
        }
    }
    let [committed_path, fresh_path] = positional.as_slice() else {
        return Err(
            "usage: sa bench-diff <committed.json> <fresh.json> [--max-regress FRAC]".to_string(),
        );
    };
    let committed = load_records(committed_path)?;
    let fresh = load_records(fresh_path)?;

    let mut failures = 0usize;
    println!(
        "{:<44} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "committed", "fresh", "delta"
    );
    for record in &committed {
        let Some(current) = fresh.iter().find(|f| f.key == record.key) else {
            println!(
                "{:<44} {:>12.1} {:>12} {:>8}  WARN (missing from fresh run)",
                record.key, record.median_ns, "-", "-"
            );
            continue;
        };
        let delta = current.median_ns / record.median_ns - 1.0;
        let verdict = if is_informational(&record.key) {
            "info (not gated)"
        } else if delta <= max_regress {
            "ok"
        } else {
            failures += 1;
            "FAIL"
        };
        println!(
            "{:<44} {:>12.1} {:>12.1} {:>+7.1}%  {verdict}",
            record.key,
            record.median_ns,
            current.median_ns,
            delta * 100.0
        );
    }
    for current in &fresh {
        if !committed.iter().any(|c| c.key == current.key) {
            println!(
                "{:<44} {:>12} {:>12.1} {:>8}  note (new benchmark, no baseline)",
                current.key, "-", current.median_ns, "-"
            );
        }
    }
    if failures > 0 {
        eprintln!(
            "bench-diff: {failures} benchmark(s) regressed beyond {:.0}%",
            max_regress * 100.0
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "bench-diff: no benchmark regressed beyond {:.0}%",
        max_regress * 100.0
    );
    Ok(ExitCode::SUCCESS)
}
