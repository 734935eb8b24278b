//! `sa-perfbench-tracer` — the benchmark's view into the workspace's layers.
//!
//! The `sa` binary is measured untraced by `perfbench/run.py`. This helper
//! links the same crates and re-issues the calls a workload makes into each
//! layer's public functions (`Topology::build`, `ExecutionBuilder`,
//! `Scheduler::activations_into`, `Execution::step`, the legitimacy
//! oracles, `Execution::snapshot` + `binary::encode` +
//! `jobs::write_atomic_bytes`, `JobScheduler`, `VerifyUnit::run`, the
//! report renderers), wrapping each call in a span. Spans stay in memory
//! and are written as JSON lines when the command ends; `run.py` turns them
//! into per-layer self times.
//!
//! ```text
//! sa-perfbench-tracer setup   <spec.json>
//! sa-perfbench-tracer scale   <spec.json> <out-dir> <every> <spans.jsonl>
//! sa-perfbench-tracer verify  <spec.json> <out-dir> <spans.jsonl>
//! sa-perfbench-tracer replay  <jobs.jsonl> <out-dir> <workers> <spans.jsonl>
//! sa-perfbench-tracer batch   <spec.json> <EXPERIMENTS.json>
//! ```
//!
//! Every command prints one JSON object of counters on stdout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sa_bench::jobs::{write_atomic, write_atomic_bytes, JobConfig, JobEvent, JobScheduler};
use sa_bench::sweep::{
    aggregate_rows, default_round_budget, default_verify_window, render_json, render_markdown,
    run_instant_tasks, run_unit, AlgorithmSpec, CheckpointPolicy, SweepSpec, SweepUnit,
    UnitOutcome, UnitResult,
};
use sa_bench::verify::{
    render_verify_json, render_verify_markdown, trace_json, trace_transcript, verify_units,
};
use sa_model::algorithm::{Algorithm, LegitimacyOracle, StateSpace};
use sa_model::checker::TaskChecker;
use sa_model::executor::{Execution, ExecutionBuilder};
use sa_model::graph::Graph;
use sa_model::json::JsonValue;
use sa_model::oracle::{LegitimacyTracker, LocalPredicate};
use sa_model::scheduler::{ActivationSet, Scheduler, SynchronousScheduler};
use sa_model::snapshot::{u64_to_json, ExecutionSnapshot};
use sa_synchronizer::{async_le, async_mis, random_composite_configuration};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use unison_core::baseline::{MinPlusOne, MinPlusOneChecker, MinPlusOneOracle};
use unison_core::{AlgAu, AuChecker, GoodGraphOracle, Predicates, Turn};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A lock is poisoned only when a replay thread panicked, which already
/// fails the run.
const POISONED: &str = "a replay thread panicked";

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    req: String,
    lane: usize,
    start: u64,
    end: u64,
    folded: Folded,
}

/// Folded children: `(name, total ns, calls)` of back-to-back child calls
/// summed into their parent span instead of being stored one by one.
type Folded = Vec<(&'static str, u64, u64)>;

/// An open span: its id is known before it ends, so children can name it.
#[derive(Clone)]
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    req: String,
    lane: usize,
    start: u64,
}

/// In-memory span store. `lane` is the worker thread (or client) a span ran
/// on; `req` is the request id (the job id, or the unit id for batch work).
///
/// With `fold` set, child spans opened through [`Tracer::time`] are not
/// stored individually: their durations are summed per name into the
/// parent's record. The serve-mix replay folds, because its units take
/// microsecond steps by the million; the other workloads keep every span.
struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    fold: bool,
    folded: Mutex<HashMap<u64, Folded>>,
}

impl Tracer {
    fn new(fold: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            fold,
            folded: Mutex::new(HashMap::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: Option<&Open>, req: &str, lane: usize) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.map_or(0, |p| p.id),
            name,
            req: req.to_string(),
            lane,
            start: self.now(),
        }
    }

    /// Closes `open`, returning its duration in nanoseconds.
    fn close(&self, open: Open) -> u64 {
        let end = self.now();
        self.push(open, end)
    }

    /// Records a span whose end was observed elsewhere (event timestamps).
    fn push(&self, open: Open, end: u64) -> u64 {
        let dur = end.saturating_sub(open.start);
        let folded = self
            .folded
            .lock()
            .expect(POISONED)
            .remove(&open.id)
            .unwrap_or_default();
        self.spans.lock().expect(POISONED).push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: open.req,
            lane: open.lane,
            start: open.start,
            end,
            folded,
        });
        dur
    }

    /// Runs `f` inside a child span of `parent`.
    fn time<T>(&self, name: &'static str, parent: &Open, f: impl FnOnce() -> T) -> (T, u64) {
        if self.fold {
            let t0 = Instant::now();
            let out = f();
            let dur = t0.elapsed().as_nanos() as u64;
            let mut folded = self.folded.lock().expect(POISONED);
            let entry = folded.entry(parent.id).or_default();
            match entry.iter_mut().find(|e| e.0 == name) {
                Some(e) => {
                    e.1 += dur;
                    e.2 += 1;
                }
                None => entry.push((name, dur, 1)),
            }
            return (out, dur);
        }
        let open = self.open(name, Some(parent), &parent.req, parent.lane);
        let out = f();
        let dur = self.close(open);
        (out, dur)
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self.spans.lock().expect(POISONED);
        let mut out = String::with_capacity(spans.len() * 120);
        for s in spans.iter() {
            let folded: Vec<String> = s
                .folded
                .iter()
                .map(|(name, ns, calls)| format!("\"{name}\":[{ns},{calls}]"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"lane\":{},\"start\":{},\"end\":{},\"folded\":{{{}}}}}",
                s.id,
                s.parent,
                s.name,
                JsonValue::String(s.req.clone()).render(),
                s.lane,
                s.start,
                s.end,
                folded.join(",")
            );
        }
        fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Per-layer work counts; summed over units, printed as the command's JSON.
#[derive(Default)]
struct Counts {
    steps: u64,
    activated: u64,
    changed: u64,
    quiet_step_ns: Vec<u64>,
    churn_step_ns: Vec<u64>,
    oracle_checks: u64,
    checkpoint_bytes: u64,
    checkpoint_count: u64,
    units: u64,
    /// Units whose replayed trajectory (stabilization round, total steps)
    /// differs from the program's own result for the same unit.
    replay_mismatches: u64,
    extra: Vec<(String, f64)>,
}

impl Counts {
    fn absorb(&mut self, other: Counts) {
        self.steps += other.steps;
        self.activated += other.activated;
        self.changed += other.changed;
        self.quiet_step_ns.extend(other.quiet_step_ns);
        self.churn_step_ns.extend(other.churn_step_ns);
        self.oracle_checks += other.oracle_checks;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.checkpoint_count += other.checkpoint_count;
        self.units += other.units;
        self.replay_mismatches += other.replay_mismatches;
        self.extra.extend(other.extra);
    }

    fn to_json(&self) -> String {
        let list = |v: &[u64]| {
            JsonValue::Array(v.iter().map(|&x| JsonValue::Number(x as f64)).collect()).render()
        };
        let mut out = format!(
            "{{\"steps\":{},\"activated\":{},\"changed\":{},\"quiet_step_ns\":{},\
             \"churn_step_ns\":{},\"oracle_checks\":{},\"checkpoint_bytes\":{},\
             \"checkpoint_count\":{},\"units\":{},\"replay_mismatches\":{}",
            self.steps,
            self.activated,
            self.changed,
            list(&self.quiet_step_ns),
            list(&self.churn_step_ns),
            self.oracle_checks,
            self.checkpoint_bytes,
            self.checkpoint_count,
            self.units,
            self.replay_mismatches
        );
        for (k, v) in &self.extra {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------------
// The unit replay: the sweep's stabilize-then-verify phase machine (no
// faults, no recovery bursts — the benchmark's workloads use neither), with
// every layer call wrapped in a span.
// ---------------------------------------------------------------------------

/// The oracle and checker calls a unit makes, for one algorithm family.
struct Checks<'a, A: Algorithm> {
    /// Incremental round oracle (the program's path when the family has one).
    local_legit: Option<&'a dyn LocalPredicate<A::State>>,
    /// Incremental verification-window safety check.
    local_snapshot: Option<&'a dyn LocalPredicate<A::State>>,
    legit: &'a dyn Fn(&Graph, &[A::State]) -> bool,
    checker: &'a dyn TaskChecker<A>,
}

/// How the replay writes periodic checkpoints.
struct Checkpoints<'a, S> {
    every: u64,
    encode: &'a dyn Fn(&ExecutionSnapshot<S>) -> JsonValue,
    path: PathBuf,
}

/// What the replay observed, for the fidelity check against the program.
struct Trajectory {
    stab_rounds: Option<u64>,
    total_steps: u64,
    violations: usize,
}

#[allow(clippy::too_many_arguments)]
fn replay_unit<A: Algorithm>(
    tr: &Tracer,
    parent: &Open,
    alg: &A,
    graph: &Graph,
    initial: Vec<A::State>,
    unit: &SweepUnit,
    d: usize,
    checks: &Checks<'_, A>,
    ckpt: Option<&Checkpoints<'_, A::State>>,
    own_fill: bool,
    counts: &mut Counts,
) -> Trajectory {
    let max_rounds = unit.max_rounds.unwrap_or_else(|| default_round_budget(d));
    let verify_rounds = unit
        .verify_rounds
        .unwrap_or_else(|| default_verify_window(d));
    let (mut exec, _) = tr.time("executor.setup", parent, || {
        ExecutionBuilder::new(alg, graph)
            .seed(unit.seed)
            .engine(unit.engine.kind)
            .initial(initial)
    });
    let mut sched = unit.scheduler.build();
    let mut oracle_tracker = checks.local_legit.map(|_| LegitimacyTracker::new(graph));
    let mut snapshot_tracker = checks.local_snapshot.map(|_| LegitimacyTracker::new(graph));
    let mut sync_rng = StdRng::seed_from_u64(0);
    let mut acts = ActivationSet::new();
    let mut verifying = false;
    let mut stab_rounds = None;
    let mut verify_start = 0u64;
    let mut violations = 0usize;

    let legit_now = |exec: &Execution<'_, A>, tracker: &mut Option<LegitimacyTracker>| match (
        checks.local_legit,
        tracker.as_mut(),
    ) {
        (Some(local), Some(t)) => t.is_legitimate(local, graph, exec.configuration()),
        _ => (checks.legit)(graph, exec.configuration()),
    };

    let (at_start, _) = tr.time("oracle.check", parent, || {
        legit_now(&exec, &mut oracle_tracker)
    });
    counts.oracle_checks += 1;
    if at_start {
        stab_rounds = Some(0);
        verifying = true;
        exec.take_output_change_counts();
    }

    loop {
        if !verifying && exec.rounds() >= max_rounds {
            break;
        }
        if verifying && exec.rounds() >= verify_start + verify_rounds {
            let (found, _) = tr.time("oracle.check", parent, || {
                let changes = exec.output_change_counts().to_vec();
                checks
                    .checker
                    .check_window(graph, &changes, exec.rounds() - verify_start)
                    .len()
            });
            counts.oracle_checks += 1;
            violations += found;
            break;
        }
        let (outcome, step_ns) = if own_fill {
            // Synchronous only: the scheduler draws no randomness, so
            // filling the set here is the exact call `step_with` makes.
            tr.time("scheduler.fill", parent, || {
                acts.clear();
                SynchronousScheduler.activations_into(graph, exec.time(), &mut sync_rng, &mut acts)
            });
            tr.time("executor.step", parent, || exec.step(acts.as_slice()))
        } else {
            tr.time("executor.step", parent, || exec.step_with(&mut *sched))
        };
        counts.steps += 1;
        if own_fill {
            // With `step_with` the activation set stays private; the
            // per-node activation counters give that total at the end.
            counts.activated += acts.len() as u64;
        }
        counts.changed += outcome.changed_count as u64;
        if outcome.changed_count == 0 {
            counts.quiet_step_ns.push(step_ns);
        } else {
            counts.churn_step_ns.push(step_ns);
        }

        let (round_checked, _) = tr.time("oracle.check", parent, || {
            let changed = exec.last_changed();
            let uniform = exec.last_step_uniform();
            if verifying {
                if let (Some(local), Some(t)) = (checks.local_snapshot, snapshot_tracker.as_mut()) {
                    t.note_step(local, graph, exec.configuration(), changed, uniform);
                }
            } else if let (Some(local), Some(t)) = (checks.local_legit, oracle_tracker.as_mut()) {
                t.note_step(local, graph, exec.configuration(), changed, uniform);
            }
            if !outcome.round_completed {
                return false;
            }
            if !verifying {
                if legit_now(&exec, &mut oracle_tracker) {
                    stab_rounds = Some(exec.rounds());
                    verifying = true;
                    exec.take_output_change_counts();
                    verify_start = exec.rounds();
                    if let Some(t) = snapshot_tracker.as_mut() {
                        t.reseed();
                    }
                }
            } else {
                let clean = match (checks.local_snapshot, snapshot_tracker.as_mut()) {
                    (Some(local), Some(t)) => t.is_legitimate(local, graph, exec.configuration()),
                    _ => false,
                };
                if !clean {
                    violations += checks
                        .checker
                        .check_snapshot(graph, exec.configuration())
                        .len();
                }
            }
            true
        });
        if round_checked {
            counts.oracle_checks += 1;
        }

        if let Some(ckpt) = ckpt {
            if ckpt.every > 0 && exec.time().is_multiple_of(ckpt.every) {
                let (bytes, _) = tr.time("checkpoint.encode", parent, || {
                    let doc = JsonValue::object([
                        ("execution".to_string(), (ckpt.encode)(&exec.snapshot())),
                        ("phase".to_string(), u64_to_json(u64::from(verifying))),
                        (
                            "scheduler_position".to_string(),
                            u64_to_json(sched.checkpoint_position()),
                        ),
                    ]);
                    sa_model::binary::encode(&doc)
                });
                tr.time("checkpoint.write", parent, || {
                    write_atomic_bytes(&ckpt.path, &bytes)
                })
                .0
                .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
                counts.checkpoint_bytes += bytes.len() as u64;
                counts.checkpoint_count += 1;
            }
        }
    }
    if !own_fill {
        counts.activated += exec.activation_counts().iter().sum::<u64>();
    }
    Trajectory {
        stab_rounds,
        total_steps: exec.time(),
        violations,
    }
}

/// The sweep's random start: every node draws uniformly from `palette` with
/// the seed derivation of `ExecutionBuilder::random_initial`.
fn random_configuration<S: Clone>(palette: &[S], n: usize, seed: u64) -> Vec<S> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| palette[rng.gen_range(0..palette.len())].clone())
        .collect()
}

/// The min-plus-one clock palette of the sweep's unit bundle.
fn min_plus_one_palette(d: usize) -> Vec<u64> {
    let d = d as u64;
    let mut palette: Vec<u64> = (0..=2 * d + 2).collect();
    palette.push(10 * (d + 1));
    palette.push(100 * (d + 1));
    palette
}

/// Replays one unit of any algorithm on the benchmark's axes, building its
/// graph first (the `topology` layer).
fn replay_any(
    tr: &Tracer,
    parent: &Open,
    unit: &SweepUnit,
    ckpt_dir: Option<&Path>,
    every: u64,
    counts: &mut Counts,
) -> Trajectory {
    let (graph, _) = tr.time("topology.build", parent, || {
        unit.topology.build(unit.graph_seed)
    });
    let d = unit.diameter_bound.unwrap_or_else(|| graph.diameter());
    let n = graph.node_count();
    let path = ckpt_dir.map(|dir| dir.join(format!("{}.ckpt.bin", unit.id())));
    match unit.algorithm {
        AlgorithmSpec::MinPlusOne => {
            let alg = MinPlusOne::new();
            let checker = MinPlusOneChecker::default().with_diameter_bound(d as u64);
            let palette = min_plus_one_palette(d);
            let legit = |g: &Graph, c: &[u64]| {
                unison_core::baseline::min_plus_one::min_plus_one_legitimate(g, c)
            };
            let encode = |s: &ExecutionSnapshot<u64>| s.to_json(|x| u64_to_json(*x));
            let ckpt = path.map(|path| Checkpoints {
                every,
                encode: &encode,
                path,
            });
            let checks = Checks {
                local_legit: Some(&MinPlusOneOracle),
                local_snapshot: Some(&checker),
                legit: &legit,
                checker: &checker,
            };
            let own_fill = unit.scheduler == sa_bench::sweep::SchedulerSpec::Synchronous;
            let initial = random_configuration(&palette, n, unit.seed);
            replay_unit(
                tr,
                parent,
                &alg,
                &graph,
                initial,
                unit,
                d,
                &checks,
                ckpt.as_ref(),
                own_fill,
                counts,
            )
        }
        AlgorithmSpec::AlgAu => {
            let alg = AlgAu::new(d);
            let oracle = GoodGraphOracle::new(alg);
            let checker = AuChecker::new(alg).with_diameter_bound(d as u64);
            let palette = alg.states();
            let legit = |g: &Graph, c: &[Turn]| oracle.is_legitimate(g, c);
            let encode = |s: &ExecutionSnapshot<Turn>| {
                s.to_json_indexed(&palette)
                    .expect("AlgAU states stay in the palette")
            };
            let ckpt = path.map(|path| Checkpoints {
                every,
                encode: &encode,
                path,
            });
            let checks = Checks {
                local_legit: Some(&oracle),
                local_snapshot: Some(&checker),
                legit: &legit,
                checker: &checker,
            };
            let initial = random_configuration(&palette, n, unit.seed);
            replay_unit(
                tr,
                parent,
                &alg,
                &graph,
                initial,
                unit,
                d,
                &checks,
                ckpt.as_ref(),
                false,
                counts,
            )
        }
        // The composite families' incremental oracles are private to the
        // sweep module; their public full-scan predicates decide the same
        // verdicts (pinned by the workspace's oracle-equivalence tests), so
        // the trajectory is the program's and only the oracle cost differs.
        AlgorithmSpec::AsyncLe => {
            let alg = async_le(d);
            let checker = alg.checker();
            let legit = |g: &Graph, c: &[_]| {
                let turns: Vec<Turn> = c
                    .iter()
                    .map(|s: &sa_synchronizer::SyncState<_>| s.turn)
                    .collect();
                Predicates::new(alg.unison(), g).graph_good(&turns)
                    && bio_networks::colony_leader_legitimate(g, c)
            };
            let checks = Checks {
                local_legit: None,
                local_snapshot: None,
                legit: &legit,
                checker: &checker,
            };
            let initial = random_composite_configuration(
                &alg.inner().states(),
                alg.unison(),
                n,
                unit.seed ^ 0x9e37_79b9_7f4a_7c15,
            );
            replay_unit(
                tr, parent, &alg, &graph, initial, unit, d, &checks, None, false, counts,
            )
        }
        AlgorithmSpec::AsyncMis => {
            let alg = async_mis(d);
            let checker = alg.checker();
            let legit = |g: &Graph, c: &[_]| {
                let turns: Vec<Turn> = c
                    .iter()
                    .map(|s: &sa_synchronizer::SyncState<_>| s.turn)
                    .collect();
                Predicates::new(alg.unison(), g).graph_good(&turns)
                    && bio_networks::tissue_pattern_legitimate(g, c)
            };
            let checks = Checks {
                local_legit: None,
                local_snapshot: None,
                legit: &legit,
                checker: &checker,
            };
            let initial = random_composite_configuration(
                &alg.inner().states(),
                alg.unison(),
                n,
                unit.seed ^ 0x9e37_79b9_7f4a_7c15,
            );
            replay_unit(
                tr, parent, &alg, &graph, initial, unit, d, &checks, None, false, counts,
            )
        }
    }
}

/// Counts a mismatch when the replay's trajectory is not the program's.
fn check_fidelity(t: &Trajectory, program: Option<&UnitResult>, counts: &mut Counts) {
    // Violation lists are capped and de-duplicated by the sweep, so only
    // their emptiness is compared.
    let same = program.is_some_and(|r| {
        r.stabilization_rounds == t.stab_rounds
            && r.total_steps == t.total_steps
            && r.violations.is_empty() == (t.violations == 0)
    });
    if !same {
        counts.replay_mismatches += 1;
    }
}

/// Reads the program's completed result for `unit` from a sweep output dir.
fn program_result(out_dir: &Path, unit: &SweepUnit) -> Option<UnitResult> {
    let text = fs::read_to_string(
        out_dir
            .join("state")
            .join(format!("{}.done.json", unit.id())),
    )
    .ok()?;
    UnitResult::from_json(&JsonValue::parse(&text).ok()?)
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn load_spec(path: &str) -> Result<SweepSpec, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    SweepSpec::parse(&text)
}

/// `setup`: the time before the first unit of a min-plus-one spec can take
/// its first step — `Topology::build`, the initial configuration and
/// `ExecutionBuilder` construction, as the sweep sets a unit up — measured
/// once, untraced, in a fresh process as `sa run` pays it. Prints
/// `setup_ns`.
fn cmd_setup(spec: &str) -> Result<String, String> {
    let spec = load_spec(spec)?;
    let unit = spec
        .execution_units()
        .into_iter()
        .next()
        .ok_or("the spec has no execution unit")?;
    if !matches!(unit.algorithm, AlgorithmSpec::MinPlusOne) {
        return Err("setup times min-plus-one units only".to_string());
    }
    let alg = MinPlusOne::new();
    let t0 = Instant::now();
    let graph = unit.topology.build(unit.graph_seed);
    let d = unit.diameter_bound.unwrap_or_else(|| graph.diameter());
    let initial = random_configuration(&min_plus_one_palette(d), graph.node_count(), unit.seed);
    let exec = ExecutionBuilder::new(&alg, &graph)
        .seed(unit.seed)
        .engine(unit.engine.kind)
        .initial(initial);
    let setup_ns = t0.elapsed().as_nanos();
    drop(exec);
    Ok(format!("{{\"setup_ns\":{setup_ns}}}"))
}

/// `scale`: traced replay of a stabilization spec's units, one thread per
/// unit (as the program's two workers run them), checkpointing every
/// `every` steps into `out_dir`, then the job's report render. Fidelity is
/// checked against the program's results in `out_dir/program`.
fn cmd_scale(spec: &str, out_dir: &str, every: u64, spans: &str) -> Result<String, String> {
    let spec = load_spec(spec)?;
    let out_dir = PathBuf::from(out_dir);
    let ckpt_dir = out_dir.join("replay");
    fs::create_dir_all(&ckpt_dir)
        .map_err(|e| format!("cannot create {}: {e}", ckpt_dir.display()))?;
    let tr = Tracer::new(false);
    let root = tr.open("run", None, &spec.name, 0);
    let units = spec.execution_units();
    let total = Mutex::new(Counts::default());
    std::thread::scope(|scope| {
        for (lane, unit) in units.iter().enumerate() {
            let (tr, root, total, ckpt_dir, out_dir) = (&tr, &root, &total, &ckpt_dir, &out_dir);
            scope.spawn(move || {
                let span = tr.open("sweep.unit", Some(root), &unit.id(), lane + 1);
                let mut counts = Counts::default();
                let t = replay_any(tr, &span, unit, Some(ckpt_dir), every, &mut counts);
                tr.close(span);
                counts.units = 1;
                check_fidelity(
                    &t,
                    program_result(&out_dir.join("program"), unit).as_ref(),
                    &mut counts,
                );
                total.lock().expect(POISONED).absorb(counts);
            });
        }
    });
    // The job's report, rendered from the program's unit results as the
    // scheduler renders it when the last unit finishes.
    let counts = total.into_inner().expect(POISONED);
    let done: Vec<(SweepUnit, UnitResult)> = units
        .iter()
        .filter_map(|u| Some((u.clone(), program_result(&out_dir.join("program"), u)?)))
        .collect();
    let ((json, markdown), _) = tr.time("sweep.render", &root, || {
        let (mut rows, artifacts) = run_instant_tasks(&spec);
        rows.extend(aggregate_rows(&done));
        (
            render_json(&spec, &rows, &done).render_pretty(),
            render_markdown(&spec, &rows, &artifacts, &done),
        )
    });
    tr.time("checkpoint.write", &root, || -> Result<(), String> {
        write_atomic(&ckpt_dir.join("EXPERIMENTS.json"), &json)?;
        write_atomic(&ckpt_dir.join("EXPERIMENTS.md"), &markdown)
    })
    .0?;
    tr.close(root);
    tr.write(Path::new(spans))?;
    Ok(counts.to_json())
}

/// `verify`: traced `VerifyUnit::run` per unit plus the report render and
/// writes `sa verify` performs.
fn cmd_verify(spec: &str, out_dir: &str, spans: &str) -> Result<String, String> {
    let spec = load_spec(spec)?;
    let out_dir = PathBuf::from(out_dir);
    let tr = Tracer::new(false);
    let root = tr.open("run", None, &spec.name, 0);
    let mut reports = Vec::new();
    let (mut states, mut edges) = (0u64, 0u64);
    for unit in verify_units(&spec) {
        let span = tr.open("explore", Some(&root), &unit.id(), 0);
        let report = unit.run(&mut |_| {});
        tr.close(span);
        let report = report?;
        states += report.stats.states as u64;
        edges += report.stats.edges;
        reports.push(report);
    }
    let span = tr.open("verify.render", Some(&root), &spec.name, 0);
    let rendered = (|| -> Result<(), String> {
        fs::create_dir_all(out_dir.join("traces")).map_err(|e| e.to_string())?;
        let mut json = render_verify_json(&spec.name, &reports).render_pretty();
        json.push('\n');
        write_atomic(&out_dir.join("VERIFY.json"), &json)?;
        write_atomic(
            &out_dir.join("VERIFY.md"),
            &render_verify_markdown(&spec.name, &reports),
        )?;
        for report in &reports {
            for (property, trace) in report.traces() {
                let stem = out_dir
                    .join("traces")
                    .join(format!("{}.{property}", report.unit_id));
                let mut doc = trace_json(report, property, trace).render_pretty();
                doc.push('\n');
                write_atomic(&stem.with_extension(format!("{property}.json")), &doc)?;
                write_atomic(
                    &stem.with_extension(format!("{property}.txt")),
                    &trace_transcript(report, property, trace),
                )?;
            }
        }
        Ok(())
    })();
    tr.close(span);
    rendered?;
    tr.close(root);
    tr.write(Path::new(spans))?;
    let counts = Counts {
        units: reports.len() as u64,
        extra: vec![
            ("explore_states".to_string(), states as f64),
            ("explore_edges".to_string(), edges as f64),
        ],
        ..Counts::default()
    };
    Ok(counts.to_json())
}

/// One job of a recorded serve-mix stream.
struct ReplayJob {
    index: usize,
    client: String,
    /// The client's think time before the job, as the socket client waits.
    think: Duration,
    spec: SweepSpec,
}

fn load_jobs(path: &str) -> Result<Vec<ReplayJob>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(index, line)| {
            let value = JsonValue::parse(line).map_err(|e| format!("{path}: {e:?}"))?;
            let client = value
                .get("client")
                .and_then(|c| c.as_str())
                .ok_or("job without client")?
                .to_string();
            let think = value.get("think_s").and_then(|t| t.as_f64()).unwrap_or(0.0);
            let spec = SweepSpec::from_json(value.get("spec").ok_or("job without spec")?)?;
            Ok(ReplayJob {
                index,
                client,
                think: Duration::from_secs_f64(think),
                spec,
            })
        })
        .collect()
}

/// `replay`: the serve-mix job stream through an in-process
/// `JobScheduler` (closed loop, one lane per client, as the socket clients
/// drive the daemon), with queue/unit/finish spans taken from the
/// scheduler's own event stream; then every unit replayed under the layer
/// spans, and each job's report re-rendered.
fn cmd_replay(jobs: &str, out_dir: &str, workers: usize, spans: &str) -> Result<String, String> {
    let jobs = load_jobs(jobs)?;
    let out_dir = PathBuf::from(out_dir);
    let tr = Tracer::new(true);
    let root = tr.open("run", None, "serve-mix", 0);
    let scheduler = JobScheduler::new(workers);
    let events = scheduler.watch_all();
    let log: Arc<Mutex<Vec<(u64, JobEvent)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicU64::new(0));
    let submits: Mutex<Vec<(String, usize, Open, u64)>> = Mutex::new(Vec::new());
    let mut clients: Vec<&str> = jobs.iter().map(|j| j.client.as_str()).collect();
    clients.sort();
    clients.dedup();

    std::thread::scope(|scope| {
        let (log_w, stop_w, tr_w) = (Arc::clone(&log), Arc::clone(&stop), &tr);
        scope.spawn(move || {
            while stop_w.load(Ordering::Relaxed) == 0 {
                if let Ok(ev) = events.recv_timeout(Duration::from_millis(5)) {
                    log_w.lock().expect(POISONED).push((tr_w.now(), ev));
                }
            }
            while let Ok(ev) = events.try_recv() {
                log_w.lock().expect(POISONED).push((tr_w.now(), ev));
            }
        });
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(lane, client)| {
                let (tr, root, scheduler, submits, jobs, out_dir) =
                    (&tr, &root, &scheduler, &submits, &jobs, &out_dir);
                scope.spawn(move || -> Result<(), String> {
                    for job in jobs.iter().filter(|j| j.client == *client) {
                        let mut config = JobConfig::new(
                            job.spec.clone(),
                            out_dir.join(format!("job{}", job.index)),
                        );
                        config.client = job.client.clone();
                        std::thread::sleep(job.think);
                        let job_span = tr.open("job", Some(root), "", lane + 1);
                        let submit = tr.open("jobs.submit", Some(&job_span), "", lane + 1);
                        let receipt = scheduler.submit(config).map_err(|e| e.to_string())?;
                        let submit_end = tr.now();
                        let status = scheduler.wait(&receipt.id).ok_or("job vanished")?;
                        if status.state != sa_bench::jobs::JobState::Finished {
                            return Err(format!(
                                "replayed job {} ended {:?}",
                                receipt.id, status.state
                            ));
                        }
                        let mut submit = submit;
                        submit.req = receipt.id.clone();
                        let mut job_span = job_span;
                        job_span.req = receipt.id.clone();
                        tr.push(submit, submit_end);
                        submits
                            .lock()
                            .expect(POISONED)
                            .push((receipt.id, job.index, job_span, submit_end));
                    }
                    Ok(())
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect();
        // Give the event collector a moment to drain the last job-finished.
        std::thread::sleep(Duration::from_millis(50));
        stop.store(1, Ordering::Relaxed);
        for r in results {
            if let Err(e) = r {
                eprintln!("sa-perfbench-tracer: {e}");
            }
        }
    });
    scheduler.shutdown();

    // Job-level spans from the event log: queue wait (accepted or submit
    // return until unit-started), unit run, finish (last unit-finished
    // until job-finished).
    let log = log.lock().expect(POISONED);
    let mut started: HashMap<(String, String), u64> = HashMap::new();
    let mut last_unit_end: HashMap<String, u64> = HashMap::new();
    let mut finished: HashMap<String, u64> = HashMap::new();
    let submits = submits.into_inner().expect(POISONED);
    let by_job: HashMap<&str, &(String, usize, Open, u64)> =
        submits.iter().map(|s| (s.0.as_str(), s)).collect();
    let mut queue_ns = Vec::new();
    let mut unit_ns = Vec::new();
    let mut finish_ns = Vec::new();
    for (t, ev) in log.iter() {
        match ev {
            JobEvent::UnitStarted { job, unit } => {
                started.insert((job.clone(), unit.clone()), *t);
                if let Some((_, _, job_span, submit_end)) = by_job.get(job.as_str()) {
                    let mut wait = tr.open("jobs.queue_wait", Some(job_span), job, job_span.lane);
                    wait.start = *submit_end;
                    queue_ns.push(tr.push(wait, *t));
                }
            }
            JobEvent::UnitFinished { job, unit, .. } => {
                if let (Some(s), Some((_, _, job_span, _))) = (
                    started.get(&(job.clone(), unit.clone())),
                    by_job.get(job.as_str()),
                ) {
                    let mut span = tr.open("sweep.unit", Some(job_span), job, job_span.lane);
                    span.start = *s;
                    unit_ns.push(tr.push(span, *t));
                }
                last_unit_end.insert(job.clone(), *t);
            }
            JobEvent::JobFinished { job, .. } => {
                finished.insert(job.clone(), *t);
            }
            _ => {}
        }
    }
    for (job, _, job_span, _) in &submits {
        let end = finished.get(job).copied().unwrap_or_else(|| tr.now());
        if let Some(last) = last_unit_end.get(job) {
            let mut span = tr.open("jobs.finish", Some(job_span), job, job_span.lane);
            span.start = *last;
            finish_ns.push(tr.push(span, end));
        }
        tr.push(job_span.clone(), end);
    }
    drop(log);
    let scheduler_end = tr.now();

    // Unit replays and report renders, per job, on one lane.
    let mut counts = Counts::default();
    let replay_dir = out_dir.join("replay");
    fs::create_dir_all(&replay_dir).map_err(|e| e.to_string())?;
    let mut sorted: Vec<_> = submits.iter().collect();
    sorted.sort_by_key(|s| s.1);
    let mut render_count = 0u64;
    for (job_id, index, _, _) in sorted {
        let spec = &jobs[*index].spec;
        let program_dir = out_dir.join(format!("job{index}"));
        let job_span = tr.open("job.replay", Some(&root), job_id, 0);
        let mut done = Vec::new();
        for unit in spec.execution_units() {
            let span = tr.open("sweep.unit.replay", Some(&job_span), job_id, 0);
            let t = replay_any(&tr, &span, &unit, None, 0, &mut counts);
            let program = program_result(&program_dir, &unit);
            check_fidelity(&t, program.as_ref(), &mut counts);
            counts.units += 1;
            if let Some(result) = program {
                // The per-unit result record, written as the scheduler does.
                let doc = result.to_json().render_pretty();
                let path = replay_dir.join(format!("{}.done.json", unit.id()));
                tr.time("checkpoint.write", &span, || write_atomic(&path, &doc))
                    .0?;
                counts.checkpoint_count += 1;
                counts.checkpoint_bytes += doc.len() as u64;
                done.push((unit, result));
            }
            tr.close(span);
        }
        let ((json, markdown), _) = tr.time("sweep.render", &job_span, || {
            let (mut rows, artifacts) = run_instant_tasks(spec);
            rows.extend(aggregate_rows(&done));
            (
                render_json(spec, &rows, &done).render_pretty(),
                render_markdown(spec, &rows, &artifacts, &done),
            )
        });
        render_count += 1;
        tr.time("checkpoint.write", &job_span, || -> Result<(), String> {
            write_atomic(&replay_dir.join("EXPERIMENTS.json"), &json)?;
            write_atomic(&replay_dir.join("EXPERIMENTS.md"), &markdown)
        })
        .0?;
        counts.checkpoint_count += 2;
        counts.checkpoint_bytes += (json.len() + markdown.len()) as u64;
        tr.close(job_span);
    }
    tr.close(root);
    tr.write(Path::new(spans))?;
    let list = |v: &[u64]| {
        JsonValue::Array(v.iter().map(|&x| JsonValue::Number(x as f64)).collect()).render()
    };
    counts
        .extra
        .push(("jobs".to_string(), submits.len() as f64));
    counts
        .extra
        .push(("renders".to_string(), render_count as f64));
    counts
        .extra
        .push(("scheduler_phase_s".to_string(), scheduler_end as f64 / 1e9));
    let mut out = counts.to_json();
    out.pop();
    let _ = write!(
        out,
        ",\"queue_wait_ns\":{},\"unit_ns\":{},\"finish_ns\":{}}}",
        list(&queue_ns),
        list(&unit_ns),
        list(&finish_ns)
    );
    Ok(out)
}

/// `batch`: the spec run in process, serially, as
/// `sweep::run_spec_in_process` runs it, rendered to the `EXPERIMENTS.json`
/// bytes a job writes.
fn cmd_batch(spec: &str, out: &str) -> Result<String, String> {
    let spec = load_spec(spec)?;
    let mut done = Vec::new();
    for unit in spec.execution_units() {
        match run_unit(&unit, &CheckpointPolicy::default())? {
            UnitOutcome::Complete(result) => done.push((unit, result)),
            UnitOutcome::Interrupted(_) => return Err("unit interrupted".to_string()),
        }
    }
    let (mut rows, _) = run_instant_tasks(&spec);
    rows.extend(aggregate_rows(&done));
    let report = sa_bench::sweep::run_spec_in_process(&spec)?;
    let same_rows =
        sa_model::metrics::rows_to_json(&report.rows) == sa_model::metrics::rows_to_json(&rows);
    fs::write(out, render_json(&spec, &rows, &done).render_pretty())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "{{\"units\":{},\"rows_match\":{same_rows}}}",
        done.len()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str).unwrap_or("");
    let num = |i: usize| {
        arg(i)
            .parse::<u64>()
            .map_err(|_| format!("bad number \"{}\"", arg(i)))
    };
    let result = match arg(0) {
        "setup" => cmd_setup(arg(1)),
        "scale" => num(3).and_then(|every| cmd_scale(arg(1), arg(2), every, arg(4))),
        "verify" => cmd_verify(arg(1), arg(2), arg(3)),
        "replay" => num(3).and_then(|w| cmd_replay(arg(1), arg(2), w as usize, arg(4))),
        "batch" => cmd_batch(arg(1), arg(2)),
        other => Err(format!("unknown command \"{other}\" (see the module docs)")),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sa-perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
