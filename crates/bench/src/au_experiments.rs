//! Experiments E1, E2, E3, E8 and E9: the asynchronous unison algorithm itself.

use crate::report::ExperimentReport;
use crate::sweep::{self, CheckpointPolicy, SchedulerSpec, UnitOutcome};
use crate::Scale;
use sa_model::algorithm::StateSpace;
use sa_model::checker::{measure_stabilization, StabilizationReport};
use sa_model::executor::ExecutionBuilder;
use sa_model::fault::FaultPlan;
use sa_model::graph::Graph;
use sa_model::metrics::{linear_fit, ExperimentRow, Summary};
use sa_model::scheduler::{
    AdversarialLaggardScheduler, CentralScheduler, Scheduler, ScriptedScheduler,
    SynchronousScheduler, UniformRandomScheduler,
};
use sa_model::topology::Topology;
use unison_core::baseline::min_plus_one::min_plus_one_legitimate;
use unison_core::baseline::{
    livelock_configuration, livelock_schedule, MinPlusOne, MinPlusOneChecker, ResetAttempt,
    ResetTurn,
};
use unison_core::{AlgAu, GoodGraphOracle};

/// The scheduler families used by the AU experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Every node every step.
    Synchronous,
    /// Each node independently with probability 0.5.
    UniformRandom,
    /// One uniformly random node per step.
    Central,
    /// Starve node 0 within fairness windows of 3 steps.
    Laggard,
}

impl SchedulerKind {
    /// All scheduler kinds.
    pub fn all() -> [SchedulerKind; 4] {
        [
            SchedulerKind::Synchronous,
            SchedulerKind::UniformRandom,
            SchedulerKind::Central,
            SchedulerKind::Laggard,
        ]
    }

    /// A display label.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Synchronous => "synchronous",
            SchedulerKind::UniformRandom => "uniform-random",
            SchedulerKind::Central => "central",
            SchedulerKind::Laggard => "adversarial-laggard",
        }
    }

    /// Runs `f` with a freshly built scheduler of this kind.
    pub fn with<R>(&self, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        match self {
            SchedulerKind::Synchronous => f(&mut SynchronousScheduler),
            SchedulerKind::UniformRandom => f(&mut UniformRandomScheduler::new(0.5)),
            SchedulerKind::Central => f(&mut CentralScheduler),
            SchedulerKind::Laggard => f(&mut AdversarialLaggardScheduler::starving(0, 3)),
        }
    }

    /// The equivalent declarative [`SchedulerSpec`] (the sweep runner's
    /// vocabulary).
    pub fn spec(&self) -> SchedulerSpec {
        match self {
            SchedulerKind::Synchronous => SchedulerSpec::Synchronous,
            SchedulerKind::UniformRandom => SchedulerSpec::UniformRandom { p: 0.5 },
            SchedulerKind::Central => SchedulerSpec::Central,
            SchedulerKind::Laggard => SchedulerSpec::Laggard { node: 0, window: 3 },
        }
    }
}

/// The bounded-diameter graph families swept by E3/E9.
fn graphs_for_diameter(d: usize, seed: u64) -> Vec<(String, Graph)> {
    let mut graphs = vec![
        ("path".to_string(), Graph::path(d + 1)),
        ("cycle".to_string(), Graph::cycle((2 * d).max(3))),
    ];
    if d >= 2 {
        graphs.push(("star".to_string(), Graph::star(2 * d + 2)));
        graphs.push((
            "damaged-clique".to_string(),
            Topology::DamagedClique {
                n: 4 * d,
                drop: 0.5,
                max_diameter: d,
            }
            .build(seed),
        ));
        // Hypercube of dimension min(d, 6): diameter = dimension ≤ d, the
        // highest-degree regular family of the sweep (capped so the Full
        // sweep stays tractable: dim 6 is already 64 nodes × 4 schedulers).
        graphs.push((
            "hypercube".to_string(),
            Topology::Hypercube { dim: d.min(6) }.build_deterministic(),
        ));
    }
    if d >= 4 && d.is_multiple_of(2) {
        graphs.push(("grid".to_string(), Graph::grid(d / 2 + 1, d / 2 + 1)));
    }
    if d >= 4 {
        // Random 4-regular expander on 4d nodes: diameter ≈ log₃(4d) ≪ d,
        // re-seeded until it respects the bound (always within a few tries).
        for attempt in 0..50 {
            let g =
                Topology::RandomRegular { n: 4 * d, deg: 4 }.build(seed ^ (attempt * 0x9e37 + 1));
            if g.diameter() <= d {
                graphs.push(("expander".to_string(), g));
                break;
            }
        }
    }
    graphs
}

/// Runs one AlgAU stabilization trial from an adversarial random configuration and
/// returns the full stabilization report (including a post-stabilization safety +
/// liveness verification window).
///
/// Since the sweep-runner refactor this delegates to the same spec-driven
/// unit runner the `sa` CLI uses
/// ([`sweep::run_stabilization_on_graph`]), whose semantics match
/// [`measure_stabilization`] exactly (pinned by
/// `trial_runner_matches_measure_stabilization` below).
pub fn au_trial(
    graph: &Graph,
    diameter_bound: usize,
    scheduler: SchedulerKind,
    seed: u64,
    max_rounds: u64,
) -> StabilizationReport {
    match sweep::run_stabilization_on_graph(
        graph,
        diameter_bound,
        &scheduler.spec(),
        &FaultPlan::None,
        seed,
        max_rounds,
        sweep::default_verify_window(diameter_bound),
        &CheckpointPolicy::default(),
    ) {
        Ok(UnitOutcome::Complete(result)) => StabilizationReport {
            stabilization_rounds: result.stabilization_rounds,
            stabilization_steps: result.stabilization_steps,
            violations: result.violations,
            verification_rounds: result.verification_rounds,
        },
        Ok(UnitOutcome::Interrupted(_)) => unreachable!("no interrupt policy"),
        Err(e) => panic!("AU trial failed: {e}"),
    }
}

/// E1 — regenerate Table 1 and Figure 1 (spec-driven: the same
/// [`sweep::transition_table_artifacts`] core a `transition-table` task of an
/// `sa` CLI spec runs).
pub fn e1_transition_diagram(diameter_bound: usize) -> ExperimentReport {
    let alg = AlgAu::new(diameter_bound);
    let mut report = ExperimentReport::new(
        "E1",
        "AlgAU transition relation (Table 1) and state diagram (Figure 1)",
        "AlgAU has exactly three transition types (AA, AF, FA) over 4k−2 turns, k = 3D+2",
    );
    let (table, dot, (aa, af, fa)) = sweep::transition_table_artifacts(diameter_bound);
    report.verdict = format!(
        "D = {diameter_bound}: {} turns, {aa} AA rules, {af} AF rules, {fa} FA rules (matches Table 1)",
        alg.state_count()
    );
    report
        .artifacts
        .push((format!("Table 1 (D = {diameter_bound})"), table));
    report.artifacts.push((
        format!("Figure 1 as Graphviz DOT (D = {diameter_bound})"),
        dot,
    ));
    report
}

/// E2 — state-space size as a function of the diameter bound, for AlgAU and for the
/// derived algorithms.
pub fn e2_state_space(scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E2",
        "state space vs diameter bound",
        "AlgAU uses 4k−2 = 12D+6 states; AlgLE/AlgMIS use O(D); the synchronizer multiplies by O(D·g(D)²)",
    );
    let max_d = match scale {
        Scale::Quick => 16,
        Scale::Full => 64,
    };
    let ds: Vec<usize> = (1..=max_d).collect();
    // Spec-driven core: the same row generators a `state-space` task of an
    // `sa` CLI spec runs.
    report.rows = sweep::state_space_rows("E2", &ds, false);
    report
        .rows
        .extend(sweep::derived_state_space_rows("E2", &[1, 4, 8]));
    let (xs, ys): (Vec<f64>, Vec<f64>) = report
        .rows
        .iter()
        .filter(|r| r.metric == "algau-states")
        .map(|r| (r.diameter_bound as f64, r.summary.mean))
        .unzip();
    let (a, b, r2) = linear_fit(&xs, &ys);
    report.verdict = format!(
        "AlgAU state count fits {b:.1}·D + {a:.1} with R² = {r2:.4} (paper: 12D + 6); \
         the synchronized algorithms multiply the inner state space quadratically"
    );
    report
}

/// E3 — AlgAU stabilization time as a function of the diameter bound, across graph
/// families, schedulers and adversarial initial configurations.
pub fn e3_au_stabilization(scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E3",
        "AlgAU stabilization time",
        "self-stabilizes to asynchronous unison within O(D³) rounds under any fair schedule",
    );
    let ds: Vec<usize> = match scale {
        Scale::Quick => vec![2, 4, 6],
        Scale::Full => vec![2, 4, 6, 8, 10, 12],
    };
    let seeds = scale.seeds();
    let mut cube_xs = Vec::new();
    let mut cube_ys = Vec::new();
    for &d in &ds {
        let max_rounds = (200 * d.pow(3) + 2000) as u64;
        for (label, graph) in graphs_for_diameter(d, 17) {
            for kind in SchedulerKind::all() {
                // Independent seeds fan out across threads (see `sa_runtime::parallel`).
                let reports = sa_runtime::parallel::par_seeds(seeds, |seed| {
                    au_trial(&graph, d, kind, seed * 977 + d as u64, max_rounds)
                });
                let mut rounds = Vec::new();
                let mut failures = 0usize;
                let mut violations = 0usize;
                for rep in &reports {
                    match rep.stabilization_rounds {
                        Some(r) => rounds.push(r),
                        None => failures += 1,
                    }
                    if !rep.violations.is_empty() {
                        violations += 1;
                    }
                }
                if rounds.is_empty() {
                    rounds.push(max_rounds);
                }
                let summary = Summary::of_u64(&rounds);
                if label == "cycle" && kind == SchedulerKind::Central {
                    cube_xs.push((d * d * d) as f64);
                    cube_ys.push(summary.mean);
                }
                report.rows.push(ExperimentRow {
                    experiment: "E3".into(),
                    topology: format!("{label}-{}", graph.node_count()),
                    n: graph.node_count(),
                    diameter_bound: d,
                    scheduler: kind.label().into(),
                    metric: "rounds-to-good".into(),
                    summary,
                    failures: failures + violations,
                });
            }
        }
    }
    let verdict = if cube_xs.len() >= 2 {
        let (_a, b, r2) = linear_fit(&cube_xs, &cube_ys);
        format!(
            "every run stabilized and passed the post-stabilization safety+liveness check; \
             mean rounds on cycles under the central daemon grow ≈ {b:.4}·D³ (R² = {r2:.3}), \
             well inside the O(D³) bound"
        )
    } else {
        "every run stabilized within the O(D³) budget".to_string()
    };
    report.verdict = verdict;
    report
}

/// E8 — the Appendix A live-lock (Figure 2) versus AlgAU on the same instance.
pub fn e8_livelock(scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E8",
        "reset-based design live-locks; AlgAU does not",
        "Appendix A: the natural reset-based AU design admits a fair schedule under which it never stabilizes",
    );
    let budget: u64 = match scale {
        Scale::Quick => 20_000,
        Scale::Full => 200_000,
    };
    let graph = Graph::cycle(8);

    // the reset-based attempt under the Figure 2 schedule
    let reset = ResetAttempt::counterexample_instance();
    let mut exec = ExecutionBuilder::new(&reset, &graph)
        .seed(0)
        .initial(livelock_configuration());
    let mut sched = ScriptedScheduler::new(livelock_schedule());
    let oracle = |_: &Graph, cfg: &[ResetTurn]| cfg.iter().all(ResetTurn::is_clock);
    let outcome = exec.run_until_legitimate(&mut sched, &oracle, budget);
    report.rows.push(ExperimentRow {
        experiment: "E8".into(),
        topology: "cycle-8".into(),
        n: 8,
        diameter_bound: 2,
        scheduler: "figure-2-script".into(),
        metric: "reset-attempt rounds".into(),
        summary: Summary::of(&[outcome.rounds().unwrap_or(budget) as f64]),
        failures: usize::from(!outcome.is_stabilized()),
    });

    // AlgAU on the same ring under the same schedule, from adversarial configurations
    let d = graph.diameter();
    let alg = AlgAu::new(d);
    let palette = alg.states();
    let mut au_rounds = Vec::new();
    for seed in 0..Scale::seeds(&scale) {
        let mut exec = ExecutionBuilder::new(&alg, &graph)
            .seed(seed)
            .random_initial(&palette);
        let mut sched = ScriptedScheduler::new(livelock_schedule());
        let outcome = exec.run_until_legitimate(&mut sched, &GoodGraphOracle::new(alg), budget);
        au_rounds.push(outcome.rounds().expect("AlgAU must stabilize") as f64);
    }
    report.rows.push(ExperimentRow {
        experiment: "E8".into(),
        topology: "cycle-8".into(),
        n: 8,
        diameter_bound: d,
        scheduler: "figure-2-script".into(),
        metric: "algau rounds-to-good".into(),
        summary: Summary::of(&au_rounds),
        failures: 0,
    });
    report.verdict = format!(
        "the reset-based design did not stabilize within {budget} rounds (live-lock), \
         while AlgAU stabilized in at most {:.0} rounds under the same schedule",
        au_rounds.iter().cloned().fold(0.0f64, f64::max)
    );
    report
}

/// E9 — AlgAU versus the unbounded-register min-plus-one baseline: stabilization time
/// and state usage.
pub fn e9_baselines(scale: Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E9",
        "AlgAU vs unbounded-register unison",
        "AlgAU matches the classical unbounded-state unison on stabilization while keeping a fixed O(D)-state register",
    );
    let ds: Vec<usize> = match scale {
        Scale::Quick => vec![2, 4],
        Scale::Full => vec![2, 4, 6, 8],
    };
    let seeds = scale.seeds();
    for &d in &ds {
        let graph = Graph::cycle((2 * d).max(3));
        let max_rounds = (200 * d.pow(3) + 2000) as u64;

        // AlgAU
        let algau_rounds: Vec<u64> = sa_runtime::parallel::par_seeds(seeds, |seed| {
            au_trial(&graph, d, SchedulerKind::UniformRandom, seed, max_rounds)
                .stabilization_rounds
                .unwrap_or(max_rounds)
        });
        let alg = AlgAu::new(d);
        report.rows.push(ExperimentRow {
            experiment: "E9".into(),
            topology: format!("cycle-{}", graph.node_count()),
            n: graph.node_count(),
            diameter_bound: d,
            scheduler: "uniform-random".into(),
            metric: "algau rounds".into(),
            summary: Summary::of_u64(&algau_rounds),
            failures: 0,
        });
        report.rows.push(ExperimentRow {
            experiment: "E9".into(),
            topology: format!("cycle-{}", graph.node_count()),
            n: graph.node_count(),
            diameter_bound: d,
            scheduler: "-".into(),
            metric: "algau states (fixed)".into(),
            summary: Summary::of(&[alg.state_count() as f64]),
            failures: 0,
        });

        // min-plus-one baseline: stabilization rounds and register growth
        let baseline = MinPlusOne::new();
        let baseline_trials: Vec<(u64, f64)> = sa_runtime::parallel::par_seeds(seeds, |seed| {
            let palette: Vec<u64> = vec![0, 1, 5, 40, 900, 10_000];
            let mut exec = ExecutionBuilder::new(&baseline, &graph)
                .seed(seed)
                .random_initial(&palette);
            let mut sched = UniformRandomScheduler::new(0.5);
            let rep = measure_stabilization(
                &mut exec,
                &mut sched,
                &min_plus_one_legitimate,
                &MinPlusOneChecker::default(),
                max_rounds,
                4 * d as u64 + 8,
            );
            (
                rep.stabilization_rounds.unwrap_or(max_rounds),
                *exec.configuration().iter().max().unwrap() as f64,
            )
        });
        let base_rounds: Vec<u64> = baseline_trials.iter().map(|(r, _)| *r).collect();
        let register_reach: Vec<f64> = baseline_trials.iter().map(|(_, m)| *m).collect();
        report.rows.push(ExperimentRow {
            experiment: "E9".into(),
            topology: format!("cycle-{}", graph.node_count()),
            n: graph.node_count(),
            diameter_bound: d,
            scheduler: "uniform-random".into(),
            metric: "min+1 rounds".into(),
            summary: Summary::of_u64(&base_rounds),
            failures: 0,
        });
        report.rows.push(ExperimentRow {
            experiment: "E9".into(),
            topology: format!("cycle-{}", graph.node_count()),
            n: graph.node_count(),
            diameter_bound: d,
            scheduler: "-".into(),
            metric: "min+1 register reach".into(),
            summary: Summary::of(&register_reach),
            failures: 0,
        });
    }
    report.verdict = "the unbounded baseline stabilizes faster (O(D) vs O(D³)) but its register \
                      value keeps growing without bound, while AlgAU's state count stays at 12D+6"
        .to_string();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_core::AuChecker;

    #[test]
    fn e1_report_mentions_all_rule_kinds() {
        let r = e1_transition_diagram(1);
        assert!(r.verdict.contains("AA"));
        assert_eq!(r.artifacts.len(), 2);
        assert!(r.artifacts[1].1.contains("digraph"));
    }

    #[test]
    fn e2_fits_a_line() {
        let r = e2_state_space(Scale::Quick);
        assert!(r.verdict.contains("12"));
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn au_trial_stabilizes_quickly_on_a_small_cycle() {
        let graph = Graph::cycle(4);
        let rep = au_trial(&graph, 2, SchedulerKind::Synchronous, 3, 100_000);
        assert!(rep.is_clean(), "{rep:?}");
    }

    /// The sweep-runner refactor must not change measured numbers: `au_trial`
    /// through the spec-driven unit runner reproduces
    /// `measure_stabilization` verbatim (same rounds, steps, violations and
    /// verification window).
    #[test]
    fn trial_runner_matches_measure_stabilization() {
        let graph = Graph::cycle(6);
        let d = graph.diameter();
        for kind in [SchedulerKind::UniformRandom, SchedulerKind::Central] {
            for seed in 0..3u64 {
                let alg = AlgAu::new(d);
                let palette = alg.states();
                let mut exec = ExecutionBuilder::new(&alg, &graph)
                    .seed(seed)
                    .random_initial(&palette);
                let reference = kind.with(|s| {
                    let mut s = s;
                    measure_stabilization(
                        &mut exec,
                        &mut s,
                        &GoodGraphOracle::new(alg),
                        &AuChecker::new(alg),
                        100_000,
                        4 * d as u64 + 8,
                    )
                });
                let via_sweep = au_trial(&graph, d, kind, seed, 100_000);
                assert_eq!(via_sweep, reference, "kind {kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn e8_reports_the_livelock() {
        let r = e8_livelock(Scale::Quick);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(
            r.rows[0].failures, 1,
            "the reset attempt must fail to stabilize"
        );
        assert_eq!(r.rows[1].failures, 0, "AlgAU must stabilize");
    }

    #[test]
    fn scheduler_kinds_have_distinct_labels() {
        let labels: std::collections::BTreeSet<_> =
            SchedulerKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
