//! The `verify` task kind: exhaustive model checking of tiny algorithm ×
//! topology instances.
//!
//! A `verify` task names a grid of (algorithm, topology) pairs; each pair
//! expands into one [`VerifyUnit`], and [`VerifyUnit::run`] hands the
//! instance to [`sa_model::explore`], which enumerates the global
//! configuration space and certifies the two self-stabilization
//! properties — **closure** (legitimate configurations only reach
//! legitimate configurations) and **convergence** (every enumerated
//! configuration reaches the legitimate set, under every fair schedule
//! for deterministic algorithms). On violation the explorer reconstructs
//! a minimal counterexample trace, which this module renders as both
//! machine-readable JSON and a human-readable transcript
//! ([`trace_json`] / [`trace_transcript`]).
//!
//! Two seeding modes bound what "every configuration" means
//! ([`SpaceMode`]):
//!
//! * `"full"` — the entire product space `Q^n` over the algorithm's
//!   palette. Only admissible when `|Q|^n` fits the state budget; this is
//!   the mode that certifies self-stabilization outright.
//! * `"reachable"` — the benign initial configuration plus every
//!   corruption of at most `fault_radius` nodes (states drawn from the
//!   unit's fault palette), closed under all transitions. A weaker but
//!   honest certificate: closure + convergence *of the explored set*,
//!   i.e. recovery from every bounded transient fault burst, not from
//!   arbitrary initial configurations. The composite LE/MIS algorithms
//!   only support this mode (their product palette is astronomically
//!   large), and their oracle is observational — see `docs/verify.md`
//!   for exactly what is and is not certified.
//!
//! The `min-plus-one` baseline has an unbounded register, so its
//! configuration space is quotiented by the global minimum (subtracting
//! `min` from every register) before interning; the transition relation
//! is shift-equivariant and the legitimacy predicate shift-invariant, so
//! the quotient is sound (argued in `docs/verify.md`).
//!
//! The deliberately-broken `reset-attempt` algorithm (the paper's
//! Appendix A strawman) is part of the verify vocabulary precisely so the
//! counterexample machinery has a committed demonstration: at period 3 on
//! a 5-cycle the explorer finds the reset-wave live-lock as a fair-cycle
//! trace.

use crate::sweep::{
    field, topology_from_json, u64_opt, usize_field, AlgorithmSpec, SpecError, SweepSpec, SweepTask,
};
use sa_model::algorithm::{Algorithm, StateSpace};
use sa_model::explore::{
    explore, ConvergenceMode, ExploreConfig, ExploreProgress, ExploreReport, ExploreStats,
    NormalizeFn, PropertyResult, Trace, WitnessKind, DEFAULT_COIN_TAPES, DEFAULT_MAX_STATES,
};
use sa_model::graph::Graph;
use sa_model::json::JsonValue;
use sa_model::snapshot::u64_to_json;
use sa_model::topology::Topology;
use sa_protocols::restart::RestartableAlgorithm;
use sa_synchronizer::{async_le, async_mis, SyncState};
use std::sync::OnceLock;
use unison_core::baseline::min_plus_one::min_plus_one_legitimate;
use unison_core::baseline::{reset_attempt_legitimate, MinPlusOne, ResetAttempt, ResetTurn};
use unison_core::{AlgAu, Predicates, Turn};

/// How many expanded configurations pass between two progress reports of
/// [`VerifyUnit::run`].
pub const PROGRESS_STRIDE: usize = 100_000;

/// `SA_VERIFY_MAX_STATES`: default state budget for verify units whose
/// spec omits `max_states` (invalid values are ignored). Read once.
fn env_max_states() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("SA_VERIFY_MAX_STATES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
    })
}

// ---------------------------------------------------------------------------
// Spec model
// ---------------------------------------------------------------------------

/// The fields a `verify` task may carry. Unlike the measurement tasks,
/// verify parsing rejects unknown fields outright: a typo like
/// `"max_state"` would otherwise silently fall back to the default budget
/// and weaken the certificate.
const VERIFY_TASK_KEYS: &[&str] = &[
    "id",
    "kind",
    "algorithms",
    "topologies",
    "diameter_bound",
    "space",
    "fault_radius",
    "max_states",
    "coin_tapes",
];

/// Which part of the configuration space a verify unit enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceMode {
    /// The full product space `Q^n` (spec `"space": "full"`, the default).
    Full,
    /// The benign initial configuration plus every corruption of at most
    /// `fault_radius` nodes, closed under all transitions
    /// (spec `"space": "reachable"`).
    Reachable {
        /// Maximum number of simultaneously corrupted nodes in a seed.
        fault_radius: usize,
    },
}

impl SpaceMode {
    /// A stable, filesystem-safe label used in unit ids (`full` /
    /// `reachable-r2`).
    pub fn label(&self) -> String {
        match self {
            SpaceMode::Full => "full".to_string(),
            SpaceMode::Reachable { fault_radius } => format!("reachable-r{fault_radius}"),
        }
    }
}

/// The algorithm axis of a verify task: every sweepable algorithm plus
/// the deliberately-broken reset strawman.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyAlgorithmSpec {
    /// One of the sweepable algorithms (`"algau"`, `"min-plus-one"`,
    /// `"le"`, `"mis"`).
    Standard(AlgorithmSpec),
    /// The paper's Appendix A strawman: unison with an explicit reset
    /// wave, which live-locks on cycles (`"reset-attempt"`, or
    /// `{"kind": "reset-attempt", "period": N}`).
    ResetAttempt {
        /// The clock period `P ≥ 3` (plain `"reset-attempt"` means 3, the
        /// smallest — and fastest to enumerate — period).
        period: u32,
    },
}

impl VerifyAlgorithmSpec {
    /// A stable label used in unit ids and report rows.
    pub fn label(&self) -> String {
        match self {
            VerifyAlgorithmSpec::Standard(spec) => spec.label().to_string(),
            VerifyAlgorithmSpec::ResetAttempt { period } => format!("reset-attempt-p{period}"),
        }
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        match value.as_str() {
            Some("algau") => Ok(VerifyAlgorithmSpec::Standard(AlgorithmSpec::AlgAu)),
            Some("min-plus-one") => Ok(VerifyAlgorithmSpec::Standard(AlgorithmSpec::MinPlusOne)),
            Some("le") => Ok(VerifyAlgorithmSpec::Standard(AlgorithmSpec::AsyncLe)),
            Some("mis") => Ok(VerifyAlgorithmSpec::Standard(AlgorithmSpec::AsyncMis)),
            Some("reset-attempt") => Ok(VerifyAlgorithmSpec::ResetAttempt { period: 3 }),
            Some(other) => Err(format!(
                "{ctx}: unknown verify algorithm \"{other}\" (expected \"algau\", \
                 \"min-plus-one\", \"le\", \"mis\", \"reset-attempt\" or \
                 {{\"kind\": \"reset-attempt\", \"period\": N}})"
            )),
            None => match field(value, "kind", ctx)?.as_str() {
                Some("reset-attempt") => {
                    let period = usize_field(value, "period", ctx)?;
                    if period < 3 {
                        return Err(format!(
                            "{ctx}: reset-attempt \"period\" must be at least 3"
                        ));
                    }
                    Ok(VerifyAlgorithmSpec::ResetAttempt {
                        period: period as u32,
                    })
                }
                _ => Err(format!(
                    "{ctx}: verify algorithm objects must have \
                     \"kind\": \"reset-attempt\""
                )),
            },
        }
    }
}

/// A parsed `verify` task: the exhaustive-checking grid of a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyTask {
    /// Task identifier (e.g. `"V1"`).
    pub id: String,
    /// Algorithms to verify.
    pub algorithms: Vec<VerifyAlgorithmSpec>,
    /// Topologies to verify on (randomized families build with the spec's
    /// `graph_seed`).
    pub topologies: Vec<Topology>,
    /// Diameter bound handed to the algorithm; `None` uses each built
    /// graph's exact diameter.
    pub diameter_bound: Option<usize>,
    /// Which part of the configuration space to enumerate.
    pub space: SpaceMode,
    /// State budget override; `None` falls back to `SA_VERIFY_MAX_STATES`
    /// and then [`DEFAULT_MAX_STATES`]. Must be positive when present.
    pub max_states: Option<usize>,
    /// Coin tapes per (node, configuration) for randomized algorithms;
    /// `None` means [`DEFAULT_COIN_TAPES`]. Must be positive when present.
    pub coin_tapes: Option<u32>,
}

impl VerifyTask {
    /// Parses a `verify` task object (strict: unknown fields are errors).
    pub(crate) fn from_json(task: &JsonValue, id: String, ctx: &str) -> Result<Self, SpecError> {
        if let JsonValue::Object(map) = task {
            for key in map.keys() {
                if !VERIFY_TASK_KEYS.contains(&key.as_str()) {
                    return Err(format!(
                        "{ctx}: unknown field \"{key}\" in verify task (allowed: {})",
                        VERIFY_TASK_KEYS.join(", ")
                    ));
                }
            }
        }
        let algorithms = field(task, "algorithms", ctx)?
            .as_array()
            .ok_or_else(|| format!("{ctx}: \"algorithms\" must be an array"))?
            .iter()
            .map(|a| VerifyAlgorithmSpec::from_json(a, ctx))
            .collect::<Result<Vec<_>, _>>()?;
        let topologies = field(task, "topologies", ctx)?
            .as_array()
            .ok_or_else(|| format!("{ctx}: \"topologies\" must be an array"))?
            .iter()
            .map(|t| topology_from_json(t, ctx))
            .collect::<Result<Vec<_>, _>>()?;
        if algorithms.is_empty() || topologies.is_empty() {
            return Err(format!(
                "{ctx}: algorithms and topologies must be non-empty"
            ));
        }
        let space = match task.get("space") {
            None => SpaceMode::Full,
            Some(v) => match v.as_str() {
                Some("full") => SpaceMode::Full,
                Some("reachable") => SpaceMode::Reachable {
                    fault_radius: match task.get("fault_radius") {
                        None => 1,
                        Some(v) => {
                            let r = v.as_usize().ok_or_else(|| {
                                format!("{ctx}: \"fault_radius\" must be a non-negative integer")
                            })?;
                            if r == 0 {
                                return Err(format!(
                                    "{ctx}: \"fault_radius\" must be positive \
                                     (0 would explore only the benign configuration)"
                                ));
                            }
                            r
                        }
                    },
                },
                _ => {
                    return Err(format!(
                        "{ctx}: \"space\" must be \"full\" or \"reachable\""
                    ))
                }
            },
        };
        if space == SpaceMode::Full && task.get("fault_radius").is_some() {
            return Err(format!(
                "{ctx}: \"fault_radius\" only applies to \"space\": \"reachable\""
            ));
        }
        let max_states = match task.get("max_states") {
            None | Some(JsonValue::Null) => None,
            Some(v) => {
                let m = v.as_usize().ok_or_else(|| {
                    format!("{ctx}: \"max_states\" must be a non-negative integer")
                })?;
                if m == 0 {
                    return Err(format!(
                        "{ctx}: \"max_states\" must be positive (the budget guard \
                         would reject every instance)"
                    ));
                }
                Some(m)
            }
        };
        let coin_tapes = match u64_opt(task, "coin_tapes", ctx)? {
            None => None,
            Some(0) => {
                return Err(format!(
                    "{ctx}: \"coin_tapes\" must be positive (randomized algorithms \
                     need at least one coin tape)"
                ))
            }
            Some(t) => Some(t.min(u32::MAX as u64) as u32),
        };
        Ok(VerifyTask {
            id,
            algorithms,
            topologies,
            diameter_bound: u64_opt(task, "diameter_bound", ctx)?.map(|d| d as usize),
            space,
            max_states,
            coin_tapes,
        })
    }
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

/// One (algorithm, topology) verification instance of a verify task.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyUnit {
    /// The owning task's id.
    pub task_id: String,
    /// The algorithm under verification.
    pub algorithm: VerifyAlgorithmSpec,
    /// The topology the instance runs on.
    pub topology: Topology,
    /// The spec's graph seed (randomized topologies build with it).
    pub graph_seed: u64,
    /// Diameter bound; `None` uses the built graph's exact diameter.
    pub diameter_bound: Option<usize>,
    /// Which part of the configuration space to enumerate.
    pub space: SpaceMode,
    /// State budget override (see [`VerifyTask::max_states`]).
    pub max_states: Option<usize>,
    /// Coin-tape override (see [`VerifyTask::coin_tapes`]).
    pub coin_tapes: Option<u32>,
}

/// Expands a spec's verify tasks into units, in stable order
/// (task → algorithm → topology).
pub fn verify_units(spec: &SweepSpec) -> Vec<VerifyUnit> {
    let mut units = Vec::new();
    for task in &spec.tasks {
        if let SweepTask::Verify(task) = task {
            for algorithm in &task.algorithms {
                for topology in &task.topologies {
                    units.push(VerifyUnit {
                        task_id: task.id.clone(),
                        algorithm: *algorithm,
                        topology: topology.clone(),
                        graph_seed: spec.graph_seed,
                        diameter_bound: task.diameter_bound,
                        space: task.space,
                        max_states: task.max_states,
                        coin_tapes: task.coin_tapes,
                    });
                }
            }
        }
    }
    units
}

impl VerifyUnit {
    /// A stable, filesystem-safe unit identifier
    /// (`V1-algau-path-3-full`).
    pub fn id(&self) -> String {
        format!(
            "{}-{}-{}-{}",
            self.task_id,
            self.algorithm.label(),
            self.topology.label(),
            self.space.label()
        )
    }

    /// The effective state budget: spec override, else
    /// `SA_VERIFY_MAX_STATES`, else [`DEFAULT_MAX_STATES`].
    pub fn effective_max_states(&self) -> usize {
        self.max_states
            .or_else(env_max_states)
            .unwrap_or(DEFAULT_MAX_STATES)
    }

    /// Runs the unit: builds the graph, seeds the space, explores, and
    /// packages the result (palette rendered to display labels so reports
    /// are algorithm-agnostic). `progress` is invoked every
    /// [`PROGRESS_STRIDE`] expanded configurations.
    pub fn run(
        &self,
        progress: &mut dyn FnMut(ExploreProgress),
    ) -> Result<VerifyUnitReport, SpecError> {
        let graph = self.topology.build(self.graph_seed);
        let diameter_bound = self.diameter_bound.unwrap_or_else(|| graph.diameter());
        let config = ExploreConfig {
            max_states: self.effective_max_states(),
            coin_tapes: self.coin_tapes.unwrap_or(DEFAULT_COIN_TAPES),
            progress_stride: PROGRESS_STRIDE,
        };
        let n = graph.node_count();
        match self.algorithm {
            VerifyAlgorithmSpec::Standard(AlgorithmSpec::AlgAu) => {
                let alg = AlgAu::new(diameter_bound);
                let palette = alg.states();
                let benign = vec![Turn::Able(1); n];
                let seeds = self.seed_configs(n, &palette, &benign, config.max_states)?;
                self.finish(
                    &alg,
                    &graph,
                    diameter_bound,
                    seeds,
                    &|g: &Graph, cfg: &[Turn]| Predicates::new(&alg, g).graph_good(cfg),
                    None,
                    &config,
                    progress,
                )
            }
            VerifyAlgorithmSpec::Standard(AlgorithmSpec::MinPlusOne) => {
                // The register is unbounded; seed every clock in
                // 0..=2D+2 (faults beyond that are shift-equivalent to
                // one of these after the min-subtraction quotient below).
                let top = (2 * diameter_bound + 2) as u64;
                let palette: Vec<u64> = (0..=top).collect();
                let benign = vec![0u64; n];
                let seeds = self.seed_configs(n, &palette, &benign, config.max_states)?;
                let normalize = |cfg: &mut Vec<u64>| {
                    let min = *cfg.iter().min().expect("non-empty configuration");
                    for v in cfg.iter_mut() {
                        *v -= min;
                    }
                };
                self.finish(
                    &MinPlusOne,
                    &graph,
                    diameter_bound,
                    seeds,
                    &|g: &Graph, cfg: &[u64]| min_plus_one_legitimate(g, cfg),
                    Some(&normalize),
                    &config,
                    progress,
                )
            }
            VerifyAlgorithmSpec::Standard(AlgorithmSpec::AsyncLe) => {
                let alg = async_le(diameter_bound);
                // Representative corrupted states — arbitrary clocks ×
                // arbitrary leader claims (mirrors the sweep's fault
                // palette for `"le"`).
                let mut fault_palette = Vec::new();
                for &turn in &alg.unison().states() {
                    for leader in [false, true] {
                        let mut host = alg.inner().host().initial_state();
                        host.leader = leader;
                        host.stage = sa_protocols::le::Stage::Verification;
                        fault_palette.push(SyncState {
                            current: sa_protocols::restart::RestartState::Host(host),
                            previous: sa_protocols::restart::RestartState::Host(host),
                            turn,
                        });
                    }
                }
                let benign = vec![alg.fresh_state(); n];
                let seeds = self.seed_configs(n, &fault_palette, &benign, config.max_states)?;
                self.finish(
                    &alg,
                    &graph,
                    diameter_bound,
                    seeds,
                    &|g: &Graph, cfg: &[_]| {
                        let turns: Vec<Turn> = cfg.iter().map(|s: &SyncState<_>| s.turn).collect();
                        Predicates::new(alg.unison(), g).graph_good(&turns)
                            && bio_networks::colony_leader_legitimate(g, cfg)
                    },
                    None,
                    &config,
                    progress,
                )
            }
            VerifyAlgorithmSpec::Standard(AlgorithmSpec::AsyncMis) => {
                let alg = async_mis(diameter_bound);
                // Representative corrupted states — arbitrary clocks ×
                // arbitrary decisions (mirrors the sweep's fault palette
                // for `"mis"`).
                let mut fault_palette = Vec::new();
                for &turn in &alg.unison().states() {
                    for decision in [
                        sa_protocols::mis::Decision::Undecided,
                        sa_protocols::mis::Decision::In,
                        sa_protocols::mis::Decision::Out,
                    ] {
                        let mut host = alg.inner().host().initial_state();
                        host.decision = decision;
                        host.detect_id = if decision == sa_protocols::mis::Decision::In {
                            1
                        } else {
                            0
                        };
                        fault_palette.push(SyncState {
                            current: sa_protocols::restart::RestartState::Host(host),
                            previous: sa_protocols::restart::RestartState::Host(host),
                            turn,
                        });
                    }
                }
                let benign = vec![alg.fresh_state(); n];
                let seeds = self.seed_configs(n, &fault_palette, &benign, config.max_states)?;
                self.finish(
                    &alg,
                    &graph,
                    diameter_bound,
                    seeds,
                    &|g: &Graph, cfg: &[_]| {
                        let turns: Vec<Turn> = cfg.iter().map(|s: &SyncState<_>| s.turn).collect();
                        Predicates::new(alg.unison(), g).graph_good(&turns)
                            && bio_networks::tissue_pattern_legitimate(g, cfg)
                    },
                    None,
                    &config,
                    progress,
                )
            }
            VerifyAlgorithmSpec::ResetAttempt { period } => {
                let alg = ResetAttempt::new(period);
                let palette = alg.states();
                let benign = vec![ResetTurn::Turn(0); n];
                let seeds = self.seed_configs(n, &palette, &benign, config.max_states)?;
                self.finish(
                    &alg,
                    &graph,
                    diameter_bound,
                    seeds,
                    &|g: &Graph, cfg: &[ResetTurn]| reset_attempt_legitimate(&alg, g, cfg),
                    None,
                    &config,
                    progress,
                )
            }
        }
    }

    /// The seed configurations for the unit's [`SpaceMode`]. Full mode
    /// streams the `|Q|^n` product lazily rather than materializing it.
    ///
    /// Full mode refuses instances whose product space `|Q|^n` already
    /// exceeds the state budget (the exploration would only rediscover
    /// that after interning `budget` configurations). The composite LE/MIS
    /// algorithms reject full mode outright: their palette here is the
    /// *fault* palette (representative corruptions), not the full product
    /// state set, so a "full" product over it would be neither full nor
    /// meaningful.
    fn seed_configs<'p, S: Clone>(
        &self,
        n: usize,
        palette: &'p [S],
        benign: &[S],
        budget: usize,
    ) -> Result<Box<dyn Iterator<Item = Vec<S>> + 'p>, SpecError> {
        match self.space {
            SpaceMode::Full => {
                if matches!(
                    self.algorithm,
                    VerifyAlgorithmSpec::Standard(AlgorithmSpec::AsyncLe)
                        | VerifyAlgorithmSpec::Standard(AlgorithmSpec::AsyncMis)
                ) {
                    return Err(format!(
                        "unit {}: \"space\": \"full\" is not supported for the \
                         composite le/mis algorithms (the synchronized product \
                         state space is far beyond any exhaustive budget); use \
                         \"space\": \"reachable\"",
                        self.id()
                    ));
                }
                let mut total: u128 = 1;
                for _ in 0..n {
                    total = total.saturating_mul(palette.len() as u128);
                }
                if total > budget as u128 {
                    return Err(format!(
                        "unit {}: full configuration space |Q|^n = {}^{} = {} exceeds \
                         the state budget {} — shrink the instance, raise \
                         max_states/SA_VERIFY_MAX_STATES, or use \
                         \"space\": \"reachable\"",
                        self.id(),
                        palette.len(),
                        n,
                        total,
                        budget
                    ));
                }
                // Streamed in lexicographic order (node 0 most significant):
                // an odometer over palette positions, last node fastest.
                let mut next = (n == 0 || !palette.is_empty()).then(|| vec![0usize; n]);
                Ok(Box::new(std::iter::from_fn(move || {
                    let mut digits = next.take()?;
                    let seed = digits.iter().map(|&d| palette[d].clone()).collect();
                    let mut pos = n;
                    next = loop {
                        if pos == 0 {
                            break None;
                        }
                        pos -= 1;
                        digits[pos] += 1;
                        if digits[pos] < palette.len() {
                            break Some(digits);
                        }
                        digits[pos] = 0;
                    };
                    Some(seed)
                })))
            }
            SpaceMode::Reachable { fault_radius } => {
                let mut seeds = vec![benign.to_vec()];
                // Every corruption of 1..=fault_radius nodes: choose the
                // corrupted positions in increasing order, then assign each
                // a fault-palette state (the benign state itself included —
                // smaller bursts are a subset, kept anyway for clarity).
                let mut stack: Vec<(usize, usize, Vec<S>)> =
                    vec![(0, fault_radius, benign.to_vec())];
                while let Some((from, remaining, base)) = stack.pop() {
                    if remaining == 0 {
                        continue;
                    }
                    for v in from..n {
                        for s in palette {
                            let mut c = base.clone();
                            c[v] = s.clone();
                            seeds.push(c.clone());
                            stack.push((v + 1, remaining - 1, c));
                        }
                    }
                }
                Ok(Box::new(seeds.into_iter()))
            }
        }
    }

    /// Runs the explorer and converts its typed report into the
    /// display-label form used by reports and trace files.
    #[allow(clippy::too_many_arguments)]
    fn finish<A: Algorithm>(
        &self,
        alg: &A,
        graph: &Graph,
        diameter_bound: usize,
        mut seeds: Box<dyn Iterator<Item = Vec<A::State>> + '_>,
        oracle: &dyn Fn(&Graph, &[A::State]) -> bool,
        normalize: Option<NormalizeFn<'_, A::State>>,
        config: &ExploreConfig,
        progress: &mut dyn FnMut(ExploreProgress),
    ) -> Result<VerifyUnitReport, SpecError> {
        let report: ExploreReport<A::State> =
            explore(alg, graph, &mut *seeds, oracle, normalize, config, progress)
                .map_err(|e| format!("unit {}: {e}", self.id()))?;
        let (closure_certified, closure_trace) = split(report.closure);
        let (convergence_certified, convergence_trace) = split(report.convergence);
        Ok(VerifyUnitReport {
            unit_id: self.id(),
            algorithm: self.algorithm.label(),
            topology: self.topology.label(),
            nodes: graph.node_count(),
            diameter_bound,
            space: self.space.label(),
            convergence_mode: report.convergence_mode,
            stats: report.stats,
            palette: report.palette.iter().map(|s| format!("{s:?}")).collect(),
            closure_certified,
            closure_trace,
            convergence_certified,
            convergence_trace,
        })
    }
}

fn split(result: PropertyResult) -> (bool, Option<Trace>) {
    match result {
        PropertyResult::Certified => (true, None),
        PropertyResult::Violated(trace) => (false, Some(*trace)),
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// The result of one verify unit, with the state palette rendered to
/// display labels (so reports and trace files are algorithm-agnostic and
/// deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyUnitReport {
    /// The unit identifier ([`VerifyUnit::id`]).
    pub unit_id: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Topology label.
    pub topology: String,
    /// Number of nodes of the built graph.
    pub nodes: usize,
    /// Diameter bound the algorithm was instantiated with.
    pub diameter_bound: usize,
    /// Space-mode label (`full` / `reachable-rK`).
    pub space: String,
    /// How convergence was checked (fair-schedule vs reachability-only).
    pub convergence_mode: ConvergenceMode,
    /// Exploration statistics.
    pub stats: ExploreStats,
    /// Display label of every interned state, indexed by palette index
    /// (trace configurations refer into this legend).
    pub palette: Vec<String>,
    /// Whether closure was certified.
    pub closure_certified: bool,
    /// The closure counterexample, when violated.
    pub closure_trace: Option<Trace>,
    /// Whether convergence was certified.
    pub convergence_certified: bool,
    /// The convergence counterexample, when violated.
    pub convergence_trace: Option<Trace>,
}

impl VerifyUnitReport {
    /// Whether both properties were certified.
    pub fn certified(&self) -> bool {
        self.closure_certified && self.convergence_certified
    }

    /// The unit's counterexample traces, as `(property, trace)` pairs.
    pub fn traces(&self) -> Vec<(&'static str, &Trace)> {
        let mut out = Vec::new();
        if let Some(trace) = &self.closure_trace {
            out.push(("closure", trace));
        }
        if let Some(trace) = &self.convergence_trace {
            out.push(("convergence", trace));
        }
        out
    }

    /// Decodes a palette-index configuration to display labels.
    fn decode(&self, config: &[u16]) -> Vec<String> {
        config
            .iter()
            .map(|&i| {
                self.palette
                    .get(i as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("?{i}"))
            })
            .collect()
    }
}

/// A short display label for a convergence mode.
pub fn mode_label(mode: ConvergenceMode) -> &'static str {
    match mode {
        ConvergenceMode::FairSchedule => "fair-schedule",
        ConvergenceMode::ReachabilityOnly => "reachability-only",
    }
}

fn usize_json(x: usize) -> JsonValue {
    JsonValue::Number(x as f64)
}

/// Renders the machine-readable `VERIFY.json` document
/// (byte-deterministic: object keys sort, no timestamps).
pub fn render_verify_json(spec_name: &str, reports: &[VerifyUnitReport]) -> JsonValue {
    let units: Vec<JsonValue> = reports
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("unit".to_string(), JsonValue::String(r.unit_id.clone())),
                (
                    "algorithm".to_string(),
                    JsonValue::String(r.algorithm.clone()),
                ),
                (
                    "topology".to_string(),
                    JsonValue::String(r.topology.clone()),
                ),
                ("nodes".to_string(), usize_json(r.nodes)),
                ("diameter_bound".to_string(), usize_json(r.diameter_bound)),
                ("space".to_string(), JsonValue::String(r.space.clone())),
                (
                    "convergence_mode".to_string(),
                    JsonValue::String(mode_label(r.convergence_mode).to_string()),
                ),
                ("states".to_string(), usize_json(r.stats.states)),
                ("seeds".to_string(), usize_json(r.stats.seeds)),
                ("edges".to_string(), u64_to_json(r.stats.edges)),
                ("legitimate".to_string(), usize_json(r.stats.legitimate)),
                ("palette_size".to_string(), usize_json(r.stats.palette)),
                (
                    "deterministic".to_string(),
                    JsonValue::Bool(r.stats.deterministic),
                ),
                (
                    "closure".to_string(),
                    JsonValue::String(verdict(r.closure_certified).to_string()),
                ),
                (
                    "convergence".to_string(),
                    JsonValue::String(verdict(r.convergence_certified).to_string()),
                ),
            ];
            let violations: Vec<JsonValue> = r
                .traces()
                .iter()
                .map(|(property, trace)| {
                    JsonValue::object([
                        (
                            "property".to_string(),
                            JsonValue::String(property.to_string()),
                        ),
                        (
                            "kind".to_string(),
                            JsonValue::String(trace.kind.label().to_string()),
                        ),
                    ])
                })
                .collect();
            if !violations.is_empty() {
                fields.push(("violations".to_string(), JsonValue::Array(violations)));
            }
            JsonValue::object(fields)
        })
        .collect();
    JsonValue::object([
        (
            "schema".to_string(),
            JsonValue::String("sa-verify/1".to_string()),
        ),
        ("spec".to_string(), JsonValue::String(spec_name.to_string())),
        (
            "certified".to_string(),
            JsonValue::Bool(reports.iter().all(|r| r.certified())),
        ),
        ("units".to_string(), JsonValue::Array(units)),
    ])
}

fn verdict(certified: bool) -> &'static str {
    if certified {
        "certified"
    } else {
        "VIOLATED"
    }
}

/// Renders the human-readable `VERIFY.md` companion.
pub fn render_verify_markdown(spec_name: &str, reports: &[VerifyUnitReport]) -> String {
    let mut out = format!("# Verification report — {spec_name}\n\n");
    out.push_str(
        "| unit | space | mode | states | edges | legitimate | closure | convergence |\n\
         |---|---|---|---:|---:|---:|---|---|\n",
    );
    for r in reports {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.unit_id,
            r.space,
            mode_label(r.convergence_mode),
            r.stats.states,
            r.stats.edges,
            r.stats.legitimate,
            verdict(r.closure_certified),
            verdict(r.convergence_certified),
        ));
    }
    let violated: Vec<&VerifyUnitReport> = reports.iter().filter(|r| !r.certified()).collect();
    if violated.is_empty() {
        out.push_str("\nAll units certified.\n");
    } else {
        out.push_str("\n## Counterexamples\n\n");
        for r in violated {
            for (property, trace) in r.traces() {
                out.push_str(&format!(
                    "- `{}`: {property} violated ({}) — see \
                     `traces/{}.{property}.json` / `.txt`\n",
                    r.unit_id,
                    trace.kind.label(),
                    r.unit_id,
                ));
            }
        }
    }
    out
}

/// Renders one counterexample trace as machine-readable JSON
/// (schema `sa-verify-trace/1`; documented field-by-field in
/// `docs/verify.md`).
pub fn trace_json(report: &VerifyUnitReport, property: &str, trace: &Trace) -> JsonValue {
    let mut fields = vec![
        (
            "schema".to_string(),
            JsonValue::String("sa-verify-trace/1".to_string()),
        ),
        (
            "unit".to_string(),
            JsonValue::String(report.unit_id.clone()),
        ),
        (
            "algorithm".to_string(),
            JsonValue::String(report.algorithm.clone()),
        ),
        (
            "topology".to_string(),
            JsonValue::String(report.topology.clone()),
        ),
        ("nodes".to_string(), usize_json(report.nodes)),
        (
            "property".to_string(),
            JsonValue::String(property.to_string()),
        ),
        (
            "kind".to_string(),
            JsonValue::String(trace.kind.label().to_string()),
        ),
        ("note".to_string(), JsonValue::String(trace.note.clone())),
        (
            "palette".to_string(),
            JsonValue::Array(
                report
                    .palette
                    .iter()
                    .map(|s| JsonValue::String(s.clone()))
                    .collect(),
            ),
        ),
        (
            "start".to_string(),
            JsonValue::Array(
                trace
                    .start
                    .iter()
                    .map(|&i| usize_json(i as usize))
                    .collect(),
            ),
        ),
        (
            "steps".to_string(),
            JsonValue::Array(
                trace
                    .steps
                    .iter()
                    .map(|step| {
                        JsonValue::object([
                            (
                                "activate".to_string(),
                                JsonValue::Array(
                                    step.activation.iter().map(|&v| usize_json(v)).collect(),
                                ),
                            ),
                            (
                                "config".to_string(),
                                JsonValue::Array(
                                    step.config
                                        .iter()
                                        .map(|&i| usize_json(i as usize))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(cycle_start) = trace.cycle_start {
        fields.push(("cycle_start".to_string(), usize_json(cycle_start)));
    }
    if !trace.fairness.is_empty() {
        fields.push((
            "fairness".to_string(),
            JsonValue::Array(
                trace
                    .fairness
                    .iter()
                    .map(|w| {
                        JsonValue::object([
                            ("node".to_string(), usize_json(w.node)),
                            ("step".to_string(), usize_json(w.step)),
                            (
                                "witness".to_string(),
                                JsonValue::String(
                                    match w.kind {
                                        WitnessKind::StateChange => "state-change",
                                        WitnessKind::NoOp => "no-op",
                                    }
                                    .to_string(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    JsonValue::object(fields)
}

/// Renders one counterexample trace as a human-readable transcript.
pub fn trace_transcript(report: &VerifyUnitReport, property: &str, trace: &Trace) -> String {
    let mut out = format!(
        "counterexample: {property} violated ({}) — unit {}\n\
         algorithm {} on {} ({} node(s))\n{}\n\n",
        trace.kind.label(),
        report.unit_id,
        report.algorithm,
        report.topology,
        report.nodes,
        trace.note,
    );
    out.push_str(&format!(
        "start: [{}]\n",
        report.decode(&trace.start).join(", ")
    ));
    for (i, step) in trace.steps.iter().enumerate() {
        if Some(i) == trace.cycle_start {
            out.push_str(&format!(
                "--- cycle entry (steps {}..{} repeat forever) ---\n",
                i + 1,
                trace.steps.len()
            ));
        }
        let activation: Vec<String> = step.activation.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!(
            "step {:>3}: activate {{{}}} -> [{}]\n",
            i + 1,
            activation.join(", "),
            report.decode(&step.config).join(", "),
        ));
    }
    if !trace.fairness.is_empty() {
        out.push_str("\nfairness witnesses (every node acts within the cycle):\n");
        for w in &trace.fairness {
            out.push_str(&format!(
                "  node {}: step {} ({})\n",
                w.node,
                w.step + 1,
                match w.kind {
                    WitnessKind::StateChange => "state change",
                    WitnessKind::NoOp => "activated while disabled (no-op)",
                }
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tasks: &str) -> Result<SweepSpec, SpecError> {
        SweepSpec::parse(&format!(r#"{{"name": "t", "tasks": [{tasks}]}}"#))
    }

    #[test]
    fn verify_task_parses_with_defaults() {
        let spec = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["algau", "reset-attempt"],
                "topologies": [{"kind": "path", "n": 2}]}"#,
        )
        .expect("valid spec");
        let units = verify_units(&spec);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].id(), "V1-algau-path-2-full");
        assert_eq!(units[1].id(), "V1-reset-attempt-p3-path-2-full");
        assert_eq!(units[0].space, SpaceMode::Full);
        assert_eq!(units[0].max_states, None);
        assert_eq!(units[0].coin_tapes, None);
    }

    #[test]
    fn verify_task_rejects_unknown_fields() {
        // A typo'd budget field must fail loudly, not silently fall back
        // to the default budget.
        let err = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["algau"],
                "topologies": [{"kind": "path", "n": 2}], "max_state": 10}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown field \"max_state\""), "{err}");
        assert!(err.contains("allowed:"), "{err}");
    }

    #[test]
    fn verify_task_rejects_bad_budgets() {
        let err = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["algau"],
                "topologies": [{"kind": "path", "n": 2}], "max_states": 0}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"max_states\" must be positive"), "{err}");

        let err = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["le"],
                "topologies": [{"kind": "path", "n": 2}], "coin_tapes": 0}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"coin_tapes\" must be positive"), "{err}");
    }

    #[test]
    fn verify_task_space_validation() {
        // fault_radius is meaningless without reachable mode.
        let err = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["algau"],
                "topologies": [{"kind": "path", "n": 2}], "fault_radius": 1}"#,
        )
        .unwrap_err();
        assert!(err.contains("fault_radius"), "{err}");

        let err = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["algau"],
                "topologies": [{"kind": "path", "n": 2}],
                "space": "reachable", "fault_radius": 0}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"fault_radius\" must be positive"), "{err}");

        let spec = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["algau"],
                "topologies": [{"kind": "path", "n": 2}], "space": "reachable"}"#,
        )
        .expect("radius defaults to 1");
        assert_eq!(
            verify_units(&spec)[0].space,
            SpaceMode::Reachable { fault_radius: 1 }
        );
    }

    #[test]
    fn verify_task_algorithm_validation() {
        let err = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["alga"],
                "topologies": [{"kind": "path", "n": 2}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown verify algorithm \"alga\""), "{err}");

        let err = parse(
            r#"{"id": "V1", "kind": "verify",
                "algorithms": [{"kind": "reset-attempt", "period": 2}],
                "topologies": [{"kind": "path", "n": 2}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("\"period\" must be at least 3"), "{err}");

        let spec = parse(
            r#"{"id": "V1", "kind": "verify",
                "algorithms": [{"kind": "reset-attempt", "period": 4}],
                "topologies": [{"kind": "path", "n": 2}]}"#,
        )
        .expect("valid");
        assert_eq!(verify_units(&spec)[0].algorithm.label(), "reset-attempt-p4");
    }

    #[test]
    fn full_mode_guards() {
        // Composite algorithms cannot enumerate their full product space.
        let spec = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["le"],
                "topologies": [{"kind": "path", "n": 2}]}"#,
        )
        .expect("parses — the guard is per-unit at run time");
        let err = verify_units(&spec)[0].run(&mut |_| {}).unwrap_err();
        assert!(err.contains("not supported for the composite"), "{err}");

        // An over-budget |Q|^n is refused before enumeration starts.
        let spec = parse(
            r#"{"id": "V1", "kind": "verify", "algorithms": ["algau"],
                "topologies": [{"kind": "path", "n": 2}], "max_states": 10}"#,
        )
        .expect("parses");
        let err = verify_units(&spec)[0].run(&mut |_| {}).unwrap_err();
        assert!(err.contains("exceeds the state budget"), "{err}");
    }
}
