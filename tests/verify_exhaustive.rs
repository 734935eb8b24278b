//! End-to-end coverage of `sa verify` (exhaustive model checking).
//!
//! Pins the headline certificates — AlgAU and min-plus-one certified
//! closed + convergent on the committed tiny instances — plus the two
//! deliberate negatives: the reset-attempt strawman's fair-cycle live-lock
//! (replayed step by step through [`Execution`] to confirm the trace
//! demonstrates a real violation) and the LE composite's closure violation
//! over the *observational* legitimacy oracle (the documented caveat, see
//! `docs/verify.md`). Everything here must be deterministic across runs.
//!
//! Every committed instance also pins its explored sizes — states, edges,
//! legitimate configurations and palette size — and the two committed
//! counterexample traces are pinned byte for byte (their JSON carries the
//! whole palette in discovery order and the configuration ids), so a search
//! kernel that drops or duplicates an edge, or interns the palette or the
//! configurations in a different order, fails here even when the verdicts
//! survive.

use sa_bench::sweep::SweepSpec;
use sa_bench::verify::{render_verify_json, trace_json, verify_units, VerifyUnitReport};
use sa_model::explore::{explore, ExploreConfig, ViolationKind};
use sa_model::{Execution, Graph, StateSpace};
use unison_core::baseline::{reset_attempt_legitimate, ResetAttempt, ResetTurn};

fn verify_spec(text: &str) -> SweepSpec {
    SweepSpec::parse(text).expect("spec parses")
}

fn run_units(spec: &SweepSpec) -> Vec<VerifyUnitReport> {
    verify_units(spec)
        .iter()
        .map(|u| u.run(&mut |_| {}).expect("unit runs"))
        .collect()
}

/// 64-bit FNV-1a of a rendered document: a compact pin for a whole trace
/// file (a pinned value is the FNV-1a of the `sa verify` trace file minus
/// its trailing newline).
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts a unit's explored sizes: `(states, edges, legitimate, palette)`.
fn assert_sizes(report: &VerifyUnitReport, sizes: (usize, u64, usize, usize)) {
    let stats = &report.stats;
    assert_eq!(
        (stats.states, stats.edges, stats.legitimate, stats.palette),
        sizes,
        "{}: (states, edges, legitimate, palette)",
        report.unit_id
    );
}

#[test]
fn algau_tiny_instances_certify() {
    let spec = verify_spec(
        r#"{"name": "t", "tasks": [
            {"id": "V1", "kind": "verify", "algorithms": ["algau"],
             "topologies": [{"kind": "path", "n": 2}, {"kind": "cycle", "n": 3}]},
            {"id": "V2", "kind": "verify", "algorithms": ["algau"],
             "topologies": [{"kind": "torus", "rows": 3, "cols": 3}],
             "space": "reachable", "fault_radius": 1}]}"#,
    );
    let reports = run_units(&spec);
    assert_eq!(reports.len(), 3);
    for report in &reports {
        assert!(report.certified(), "{} must certify", report.unit_id);
        assert!(report.stats.deterministic);
    }
    // Exact sizes anchor determinism and catch transition-relation drift.
    assert_sizes(&reports[0], (324, 652, 30, 18)); // |Q|^2 = 18^2, path-2 at D=1
    assert_sizes(&reports[1], (5832, 23856, 70, 18)); // 18^3, cycle-3 at D=1
    assert_sizes(&reports[2], (16096, 386566, 12208, 30)); // torus-3x3, benign + radius-1
    assert_eq!(reports[2].space, "reachable-r1");
}

#[test]
fn min_plus_one_certifies_under_min_quotient() {
    let spec = verify_spec(
        r#"{"name": "t", "tasks": [
            {"id": "V1", "kind": "verify", "algorithms": ["min-plus-one"],
             "topologies": [{"kind": "path", "n": 3}]}]}"#,
    );
    let reports = run_units(&spec);
    assert_eq!(reports.len(), 1);
    assert!(reports[0].certified());
    // The register is unbounded; the min-subtraction quotient keeps the
    // explored palette finite (clocks 0..=2D+2 plus transient overshoot).
    assert_sizes(&reports[0], (131, 759, 9, 8));
}

/// The reset-attempt strawman live-locks on a 5-cycle at period 3; the
/// fair-cycle trace must replay through the real executor: every step's
/// configuration matches, the cycle closes, every cycle configuration is
/// illegitimate, and every node has a fairness witness inside the cycle.
#[test]
fn broken_reset_attempt_yields_replayable_counterexample() {
    let alg = ResetAttempt::new(3);
    let graph = Graph::cycle(5);
    let palette = alg.states();
    let mut seeds: Vec<Vec<ResetTurn>> = vec![vec![]];
    for _ in 0..5 {
        seeds = seeds
            .into_iter()
            .flat_map(|c| {
                palette.iter().map(move |s| {
                    let mut c = c.clone();
                    c.push(*s);
                    c
                })
            })
            .collect();
    }
    let report = explore(
        &alg,
        &graph,
        &mut seeds.into_iter(),
        &|g, cfg: &[ResetTurn]| reset_attempt_legitimate(&alg, g, cfg),
        None,
        &ExploreConfig::default(),
        &mut |_| {},
    )
    .expect("explore");
    assert!(report.closure.is_certified());
    let trace = report.convergence.trace().expect("convergence violated");
    assert_eq!(trace.kind, ViolationKind::FairCycle);
    let cycle_start = trace.cycle_start.expect("fair cycle has an entry");

    // Replay: the trace's activation sequence drives the executor to the
    // exact same configurations (ResetAttempt is deterministic, so the
    // execution seed is irrelevant).
    let start = report.decode(&trace.start);
    let mut exec = Execution::new(&alg, &graph, start, 7);
    let mut configs = Vec::with_capacity(trace.steps.len());
    for step in &trace.steps {
        exec.step(&step.activation);
        assert_eq!(
            exec.configuration(),
            report.decode(&step.config).as_slice(),
            "trace step must reproduce in the executor"
        );
        configs.push(exec.configuration().to_vec());
    }
    // The cycle closes on its entry configuration...
    let entry = if cycle_start == 0 {
        report.decode(&trace.start)
    } else {
        configs[cycle_start - 1].clone()
    };
    assert_eq!(configs.last().unwrap(), &entry, "cycle must close");
    // ...every configuration inside it avoids the legitimate set...
    for config in &configs[cycle_start..] {
        assert!(!reset_attempt_legitimate(&alg, &graph, config));
    }
    // ...and the schedule is fair: every node has a witness in the cycle.
    let mut witnessed: Vec<bool> = vec![false; 5];
    for w in &trace.fairness {
        assert!(w.step >= cycle_start, "witness must lie inside the cycle");
        witnessed[w.node] = true;
    }
    assert!(witnessed.iter().all(|&b| b), "all nodes witnessed");
}

/// The committed broken spec reports the same violation through the full
/// spec → unit → report pipeline.
#[test]
fn broken_spec_reports_fair_cycle() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/verify-broken.json"
    ))
    .expect("committed spec readable");
    let reports = run_units(&verify_spec(&text));
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(report.unit_id, "V1-reset-attempt-p3-cycle-5-full");
    assert_sizes(report, (7776, 37076, 243, 6)); // 6^5
    assert!(report.closure_certified);
    assert!(!report.convergence_certified);
    let trace = report.convergence_trace.as_ref().expect("trace present");
    assert_eq!(trace.kind, ViolationKind::FairCycle);
    assert_eq!(trace.fairness.len(), 5, "one witness per node");
    // traces/V1-reset-attempt-p3-cycle-5-full.convergence.json
    let pin = fnv1a(&trace_json(report, "convergence", trace).render_pretty());
    assert_eq!(
        pin, 0x19ed_e2c7_cf4a_6c9d,
        "trace drifted (FNV-1a now {pin:#x})"
    );
}

/// The LE composite's *observational* oracle is not closed: a planted
/// leader claim can look legitimate while the epoch state is inconsistent,
/// and the protocol (correctly) restarts out of it. Convergence still
/// certifies. This is the documented oracle caveat, pinned here so it
/// cannot silently change.
#[test]
fn le_observational_oracle_closure_caveat() {
    let spec = verify_spec(
        r#"{"name": "t", "tasks": [
            {"id": "V1", "kind": "verify", "algorithms": ["le"],
             "topologies": [{"kind": "complete", "n": 2}],
             "space": "reachable", "fault_radius": 1}]}"#,
    );
    let reports = run_units(&spec);
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_sizes(report, (9066, 31640, 2166, 445));
    assert!(!report.stats.deterministic, "LE tosses coins");
    assert!(
        !report.closure_certified,
        "observational oracle is not closed"
    );
    assert!(report.convergence_certified, "every state reaches L");
    let trace = report.closure_trace.as_ref().expect("closure trace");
    assert_eq!(trace.kind, ViolationKind::Closure);
    assert_eq!(trace.steps.len(), 1, "closure counterexamples are one step");
    // traces/V1-le-complete-2-reachable-r1.closure.json: 445 palette
    // entries in discovery order, and configuration ids #10 and #98.
    let pin = fnv1a(&trace_json(report, "closure", trace).render_pretty());
    assert_eq!(
        pin, 0xbb53_ddd2_b7fa_e196,
        "trace drifted (FNV-1a now {pin:#x})"
    );
}

/// The MIS composite (randomized, so reachability-only) certifies
/// recovery from every radius-1 fault burst on a 2-path.
#[test]
fn mis_composite_certifies_reachability() {
    let spec = verify_spec(
        r#"{"name": "t", "tasks": [
            {"id": "V2", "kind": "verify", "algorithms": ["mis"],
             "topologies": [{"kind": "path", "n": 2}],
             "space": "reachable", "fault_radius": 1}]}"#,
    );
    let reports = run_units(&spec);
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_sizes(report, (90489, 394508, 16920, 2419));
    assert!(!report.stats.deterministic, "MIS tosses coins");
    assert!(report.certified(), "every explored state reaches L");
}

#[test]
fn verify_results_deterministic_across_runs() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/verify-broken.json"
    ))
    .expect("committed spec readable");
    let spec = verify_spec(&text);
    let a = run_units(&spec);
    let b = run_units(&spec);
    assert_eq!(
        render_verify_json("verify-broken", &a).render_pretty(),
        render_verify_json("verify-broken", &b).render_pretty(),
        "VERIFY.json must be byte-identical across runs"
    );
    let ta = a[0].convergence_trace.as_ref().unwrap();
    let tb = b[0].convergence_trace.as_ref().unwrap();
    assert_eq!(
        trace_json(&a[0], "convergence", ta).render_pretty(),
        trace_json(&b[0], "convergence", tb).render_pretty(),
        "trace JSON must be byte-identical across runs"
    );
}
