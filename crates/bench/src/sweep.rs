//! Declarative experiment sweeps: spec parsing, unit expansion and the
//! checkpointable unit runner.
//!
//! A *sweep spec* is a JSON document (parsed with [`sa_model::json`], no
//! external dependencies) describing a grid of experiment configurations:
//! **algorithms** × topologies × schedulers × fault plans × seeds,
//! plus the paper-artifact tasks (transition table, state-space counts) that
//! need no execution. The spec expands into independent [`SweepUnit`]s; each
//! execution unit runs through [`run_unit`], which supports
//! **checkpoint/resume**: the in-flight execution state (configuration,
//! counters, scheduler position, RNG streams — see [`sa_model::snapshot`])
//! serializes to a JSON checkpoint at step boundaries, and a unit resumed
//! from its checkpoint is **bit-identical** to one that was never
//! interrupted (pinned by `tests/checkpoint_roundtrip.rs` and the CI
//! `sweep-smoke` / `scenario-smoke` jobs).
//!
//! # The `algorithm` axis
//!
//! A `stabilization` task may name the algorithms it sweeps
//! ([`AlgorithmSpec`]): the paper's asynchronous-unison algorithm AlgAU
//! (`"algau"`, the default), the unbounded-register `"min-plus-one"`
//! baseline of experiment E9, and the asynchronous leader-election and MIS
//! algorithms obtained from AlgLE/AlgMIS through the synchronizer of
//! Corollary 1.2 (`"le"`, `"mis"` — the protocol workloads of experiments
//! E5–E7). Every algorithm family supplies its own legitimacy oracle, task
//! checker, fault palette and checkpoint codec; the phase machine
//! ([`run_unit`]) is shared, so checkpoint/resume bit-identity holds
//! uniformly across the axis.
//!
//! # Fault-recovery scenarios
//!
//! A `scenario` task lifts the biological fault-recovery scenarios of
//! `bio-networks` (experiment E10) into the sweep vocabulary: a
//! [`ScenarioSpec`] (quorum-sensing `colony` → asynchronous LE on a damaged
//! clique, epithelial `tissue` → asynchronous MIS on a grid/torus,
//! segmented `pulse` field → AlgAU on a caveman graph) plus a
//! [`Harshness`] level expand into units that start from the benign
//! configuration, stabilize, pass a verification window and then recover
//! from a series of fault bursts — each burst scrambling a
//! harshness-dependent fraction of the cells, each recovery measured in
//! rounds and checkpointable mid-burst like any other unit.
//!
//! Unit dispatch lives one layer up, in [`crate::jobs`]: a job scheduler
//! with a priority queue, a worker budget and pluggable result sinks that
//! persists checkpoints and unit results under an output directory and
//! renders the aggregate to `EXPERIMENTS.json` + `EXPERIMENTS.md`
//! ([`render_json`] / [`render_markdown`]). Both the batch `sa` CLI
//! (`crates/sa-cli`) and the `sa serve` daemon are thin clients of that
//! core. The in-tree experiments E1–E3 run on the same primitives
//! ([`transition_table_rows`], [`state_space_rows`],
//! [`run_stabilization_on_graph`]) so that the bench targets and the CLI
//! cannot drift apart.

use crate::report::ExperimentReport;
use bio_networks::Harshness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sa_model::algorithm::{Algorithm, LegitimacyOracle, StateSpace};
use sa_model::checker::{push_violation, violations_capped, TaskChecker};
use sa_model::engine::EngineKind;
use sa_model::executor::{Execution, ExecutionBuilder};
use sa_model::fault::{FaultInjector, FaultInjectorSnapshot, FaultPlan};
use sa_model::graph::Graph;
use sa_model::json::JsonValue;
use sa_model::metrics::{ExperimentRow, StepTimings, Summary};
use sa_model::oracle::{force_full_oracle, LegitimacyTracker, LocalPredicate};
use sa_model::scheduler::{
    AdversarialLaggardScheduler, CentralScheduler, RoundRobinScheduler, Scheduler,
    SynchronousScheduler, UniformRandomScheduler,
};
use sa_model::snapshot::{u64_from_json, u64_to_json, ExecutionSnapshot};
use sa_model::topology::Topology;
use sa_protocols::le::LeState;
use sa_protocols::mis::MisState;
use sa_protocols::restart::RestartState;
use sa_runtime::parallel::CancelToken;
use sa_synchronizer::{async_le, async_mis, AsyncLe, AsyncMis, SyncState};
use unison_core::baseline::min_plus_one::min_plus_one_legitimate;
use unison_core::baseline::{MinPlusOne, MinPlusOneChecker, MinPlusOneOracle};
use unison_core::{AlgAu, AuChecker, GoodGraphOracle, Predicates, Turn};

/// Errors from spec parsing and unit execution, as human-readable strings
/// (the CLI prints them verbatim).
pub type SpecError = String;

pub(crate) fn field<'v>(
    value: &'v JsonValue,
    key: &str,
    ctx: &str,
) -> Result<&'v JsonValue, SpecError> {
    value
        .get(key)
        .ok_or_else(|| format!("{ctx}: missing field \"{key}\""))
}

pub(crate) fn usize_field(value: &JsonValue, key: &str, ctx: &str) -> Result<usize, SpecError> {
    field(value, key, ctx)?
        .as_usize()
        .ok_or_else(|| format!("{ctx}: field \"{key}\" must be a non-negative integer"))
}

pub(crate) fn f64_field(value: &JsonValue, key: &str, ctx: &str) -> Result<f64, SpecError> {
    field(value, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: field \"{key}\" must be a number"))
}

pub(crate) fn u64_opt(value: &JsonValue, key: &str, ctx: &str) -> Result<Option<u64>, SpecError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => u64_from_json(v)
            .map(Some)
            .ok_or_else(|| format!("{ctx}: field \"{key}\" must be a non-negative integer")),
    }
}

/// An optional boolean field, defaulting to `false` — but a present
/// non-boolean value is an error, not a silent `false`.
pub(crate) fn bool_opt(value: &JsonValue, key: &str, ctx: &str) -> Result<bool, SpecError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{ctx}: field \"{key}\" must be a boolean")),
    }
}

// ---------------------------------------------------------------------------
// Spec model
// ---------------------------------------------------------------------------

/// A parsed sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (used in report headers and default output paths).
    pub name: String,
    /// Seed used to build randomized topologies (fixed across trial seeds so
    /// every seed of a cell runs on the same graph).
    pub graph_seed: u64,
    /// On-disk encoding of in-flight unit checkpoints (spec field
    /// `checkpoint_format`, default [`CheckpointFormat::Json`]). Both
    /// formats serialize the identical checkpoint document, so a resumed
    /// run is bit-for-bit the same either way; `binary` is the
    /// million-node choice (palette-index state arrays as varints instead
    /// of decimal text).
    pub checkpoint_format: CheckpointFormat,
    /// Whether EXPERIMENTS output includes per-unit wall-clock timings
    /// (spec field `timings`, default `false`). Off by default because
    /// timings are nondeterministic: the kill/resume byte-diff CI legs
    /// compare rendered documents byte-for-byte.
    pub timings: bool,
    /// The tasks of the sweep, in spec order.
    pub tasks: Vec<SweepTask>,
}

/// The on-disk encoding of in-flight unit checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointFormat {
    /// Pretty-printed JSON text (`state/<unit>.ckpt.json`) — the
    /// human-inspectable default.
    #[default]
    Json,
    /// The compact tagged little-endian codec of [`sa_model::binary`]
    /// (`state/<unit>.ckpt.bin`) — roughly an order of magnitude smaller
    /// on state-array-dominated checkpoints.
    Binary,
}

impl CheckpointFormat {
    /// A short display label (`"json"` / `"binary"`), matching the spec
    /// field's accepted values.
    pub fn label(&self) -> &'static str {
        match self {
            CheckpointFormat::Json => "json",
            CheckpointFormat::Binary => "binary",
        }
    }
}

/// One task of a sweep spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepTask {
    /// E1-style artifact: AlgAU's transition table and state diagram at a
    /// fixed diameter bound. Instant (no execution).
    TransitionTable {
        /// Task identifier (e.g. `"E1"`).
        id: String,
        /// Diameter bound `D`.
        diameter_bound: usize,
    },
    /// E2-style artifact: state-space sizes as a function of the diameter
    /// bound. Instant (no execution).
    StateSpace {
        /// Task identifier (e.g. `"E2"`).
        id: String,
        /// The diameter bounds to count states at.
        diameter_bounds: Vec<usize>,
        /// Also count the derived algorithms (LE/MIS and their synchronized
        /// versions) at each bound.
        include_derived: bool,
    },
    /// E3/E5–E7/E9-style measurement: stabilization rounds over an algorithm
    /// × topology × scheduler × seed grid, with optional fault
    /// injection. Expands into checkpointable [`SweepUnit`]s.
    Stabilization(StabilizationTask),
    /// E10-style measurement: a biological fault-recovery scenario — benign
    /// start, stabilization, verification, then a series of fault bursts
    /// with the recovery rounds of each burst measured. Expands into
    /// checkpointable [`SweepUnit`]s.
    Scenario(ScenarioTask),
    /// Exhaustive model checking: enumerate the full (or fault-reachable)
    /// global configuration space of tiny algorithm × topology instances
    /// and certify closure + convergence, emitting counterexample traces
    /// on violation (the `sa verify` subcommand; see [`crate::verify`]).
    Verify(crate::verify::VerifyTask),
}

impl SweepTask {
    /// The task identifier.
    pub fn id(&self) -> &str {
        match self {
            SweepTask::TransitionTable { id, .. } => id,
            SweepTask::StateSpace { id, .. } => id,
            SweepTask::Stabilization(t) => &t.id,
            SweepTask::Scenario(t) => &t.id,
            SweepTask::Verify(t) => &t.id,
        }
    }
}

/// The grid of a stabilization task.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilizationTask {
    /// Task identifier (e.g. `"E3"`).
    pub id: String,
    /// Algorithms to sweep (the `algorithm` axis; defaults to `[AlgAu]`).
    pub algorithms: Vec<AlgorithmSpec>,
    /// Topologies to sweep (randomized families build with the spec's
    /// `graph_seed`).
    pub topologies: Vec<Topology>,
    /// Diameter bound handed to the algorithm; `None` uses the built graph's
    /// exact diameter.
    pub diameter_bound: Option<usize>,
    /// Scheduler families to sweep.
    pub schedulers: Vec<SchedulerSpec>,
    /// Step engines to sweep (each `serial`; see [`EngineSpec`]).
    pub engines: Vec<EngineSpec>,
    /// Fault plan applied at every completed round.
    pub fault: FaultPlan,
    /// How the initial configuration is drawn (adversarial random by
    /// default).
    pub init: InitSpec,
    /// Number of independent seeds per cell.
    pub seeds: u64,
    /// Round budget; `None` uses the paper's `200·D³ + 2000`.
    pub max_rounds: Option<u64>,
    /// Post-stabilization verification window; `None` uses `4·D + 8`.
    pub verify_rounds: Option<u64>,
}

/// The grid of a fault-recovery scenario task.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTask {
    /// Task identifier (e.g. `"E10"`).
    pub id: String,
    /// The scenario family (fixes the algorithm, the topology and the benign
    /// start).
    pub scenario: ScenarioSpec,
    /// Environmental harshness (fixes the burst size).
    pub harshness: Harshness,
    /// Number of fault bursts to recover from per unit.
    pub bursts: u64,
    /// Scheduler families to sweep.
    pub schedulers: Vec<SchedulerSpec>,
    /// Step engines to sweep (each `serial`; see [`EngineSpec`]).
    pub engines: Vec<EngineSpec>,
    /// Number of independent seeds per cell.
    pub seeds: u64,
    /// Per-phase round budget; `None` uses the paper's `200·D³ + 2000`.
    pub max_rounds: Option<u64>,
    /// Post-stabilization verification window; `None` uses `4·D + 8`.
    pub verify_rounds: Option<u64>,
}

// ---------------------------------------------------------------------------
// The algorithm axis
// ---------------------------------------------------------------------------

/// A declarative algorithm selection — the sweep's `algorithm` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// The paper's asynchronous-unison algorithm AlgAU (Theorem 1.1).
    AlgAu,
    /// The unbounded-register `min + 1` unison baseline (experiment E9).
    MinPlusOne,
    /// Asynchronous leader election: AlgLE through the synchronizer
    /// (Theorem 1.3 + Corollary 1.2).
    AsyncLe,
    /// Asynchronous MIS: AlgMIS through the synchronizer (Theorem 1.4 +
    /// Corollary 1.2).
    AsyncMis,
}

impl AlgorithmSpec {
    /// A stable label used in unit ids and report rows.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmSpec::AlgAu => "algau",
            AlgorithmSpec::MinPlusOne => "min-plus-one",
            AlgorithmSpec::AsyncLe => "le",
            AlgorithmSpec::AsyncMis => "mis",
        }
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        match value.as_str() {
            Some("algau") => Ok(AlgorithmSpec::AlgAu),
            Some("min-plus-one") => Ok(AlgorithmSpec::MinPlusOne),
            Some("le") => Ok(AlgorithmSpec::AsyncLe),
            Some("mis") => Ok(AlgorithmSpec::AsyncMis),
            Some(other) => Err(format!(
                "{ctx}: unknown algorithm \"{other}\" (expected \"algau\", \
                 \"min-plus-one\", \"le\" or \"mis\")"
            )),
            None => Err(format!("{ctx}: algorithm must be a string")),
        }
    }
}

/// How a unit's initial configuration is drawn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum InitSpec {
    /// The adversary's arbitrary configuration: every node's state drawn
    /// uniformly from the algorithm's palette (the default for
    /// stabilization tasks).
    #[default]
    Random,
    /// The algorithm's benign designated start state at every node (the
    /// default for scenario tasks, whose measurement is recovery, not
    /// worst-case convergence).
    Benign,
}

impl InitSpec {
    fn from_json(value: Option<&JsonValue>, ctx: &str) -> Result<Self, SpecError> {
        match value {
            None | Some(JsonValue::Null) => Ok(InitSpec::Random),
            Some(v) => match v.as_str() {
                Some("random") => Ok(InitSpec::Random),
                Some("benign") => Ok(InitSpec::Benign),
                _ => Err(format!("{ctx}: \"init\" must be \"random\" or \"benign\"")),
            },
        }
    }
}

/// A biological fault-recovery scenario family (see `bio-networks`): each
/// variant fixes a topology, an algorithm and a benign start configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioSpec {
    /// A quorum-sensing bacterial colony (damaged clique, asynchronous LE):
    /// the colony must keep exactly one decision-maker cell.
    Colony {
        /// Number of cells in the colony.
        cells: usize,
    },
    /// An epithelial tissue sheet (grid or torus, asynchronous MIS): the
    /// tissue must keep a well-spaced pattern of differentiated cells.
    Tissue {
        /// Number of cell rows.
        rows: usize,
        /// Number of cell columns.
        cols: usize,
        /// Whether the sheet wraps into a torus.
        wrap: bool,
    },
    /// A segmented pulse field (caveman graph, AlgAU): every cell keeps a
    /// phase within one tick of its neighbors.
    Pulse {
        /// Number of segments (cell clusters).
        segments: usize,
        /// Number of cells per segment.
        cells_per_segment: usize,
    },
}

impl ScenarioSpec {
    /// A stable, filesystem-safe label used in unit ids and report rows.
    pub fn label(&self) -> String {
        match self {
            ScenarioSpec::Colony { cells } => format!("colony-{cells}"),
            ScenarioSpec::Tissue { rows, cols, wrap } => {
                format!("tissue-{rows}x{cols}{}", if *wrap { "-torus" } else { "" })
            }
            ScenarioSpec::Pulse {
                segments,
                cells_per_segment,
            } => format!("pulse-{segments}x{cells_per_segment}"),
        }
    }

    /// The algorithm the scenario runs.
    pub fn algorithm(&self) -> AlgorithmSpec {
        match self {
            ScenarioSpec::Colony { .. } => AlgorithmSpec::AsyncLe,
            ScenarioSpec::Tissue { .. } => AlgorithmSpec::AsyncMis,
            ScenarioSpec::Pulse { .. } => AlgorithmSpec::AlgAu,
        }
    }

    /// The scenario's communication topology (mirrors the builders in
    /// `bio_networks::scenario`).
    pub fn topology(&self) -> Topology {
        match self {
            // ColonyScenario::new(cells): 30% severed links, diameter ≤ 2.
            ScenarioSpec::Colony { cells } => Topology::DamagedClique {
                n: *cells,
                drop: 0.3,
                max_diameter: 2,
            },
            ScenarioSpec::Tissue { rows, cols, wrap } => {
                if *wrap {
                    Topology::Torus {
                        rows: *rows,
                        cols: *cols,
                    }
                } else {
                    Topology::Grid {
                        rows: *rows,
                        cols: *cols,
                    }
                }
            }
            ScenarioSpec::Pulse {
                segments,
                cells_per_segment,
            } => Topology::Caveman {
                clusters: *segments,
                clique: *cells_per_segment,
            },
        }
    }

    /// The diameter bound handed to the algorithm (`None`: use the built
    /// graph's exact diameter).
    pub fn diameter_bound(&self) -> Option<usize> {
        match self {
            ScenarioSpec::Colony { .. } => Some(2),
            ScenarioSpec::Tissue { .. } | ScenarioSpec::Pulse { .. } => None,
        }
    }

    /// Number of cells in the scenario.
    pub fn cells(&self) -> usize {
        match self {
            ScenarioSpec::Colony { cells } => *cells,
            ScenarioSpec::Tissue { rows, cols, .. } => rows * cols,
            ScenarioSpec::Pulse {
                segments,
                cells_per_segment,
            } => segments * cells_per_segment,
        }
    }

    /// The number of cells a single fault burst scrambles at the given
    /// harshness (mirrors `bio_networks`: `⌈cells · burst_fraction⌉`, at
    /// least 1).
    pub fn burst_size(&self, harshness: Harshness) -> usize {
        (((self.cells() as f64) * harshness.burst_fraction()).ceil() as usize).max(1)
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        match field(value, "kind", ctx)?.as_str() {
            Some("colony") => Ok(ScenarioSpec::Colony {
                cells: usize_field(value, "cells", ctx)?,
            }),
            Some("tissue") => Ok(ScenarioSpec::Tissue {
                rows: usize_field(value, "rows", ctx)?,
                cols: usize_field(value, "cols", ctx)?,
                wrap: bool_opt(value, "wrap", ctx)?,
            }),
            Some("pulse") => Ok(ScenarioSpec::Pulse {
                segments: usize_field(value, "segments", ctx)?,
                cells_per_segment: usize_field(value, "cells_per_segment", ctx)?,
            }),
            Some(other) => Err(format!("{ctx}: unknown scenario kind \"{other}\"")),
            None => Err(format!("{ctx}: scenario \"kind\" must be a string")),
        }
    }
}

fn harshness_from_json(value: Option<&JsonValue>, ctx: &str) -> Result<Harshness, SpecError> {
    match value {
        None | Some(JsonValue::Null) => Ok(Harshness::Moderate),
        Some(v) => match v.as_str() {
            Some("mild") => Ok(Harshness::Mild),
            Some("moderate") => Ok(Harshness::Moderate),
            Some("severe") => Ok(Harshness::Severe),
            _ => Err(format!(
                "{ctx}: \"harshness\" must be \"mild\", \"moderate\" or \"severe\""
            )),
        },
    }
}

/// A stable, filesystem-safe harshness label.
fn harshness_label(h: Harshness) -> &'static str {
    match h {
        Harshness::Mild => "mild",
        Harshness::Moderate => "moderate",
        Harshness::Severe => "severe",
    }
}

/// A declarative scheduler selection.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerSpec {
    /// Every node every step.
    Synchronous,
    /// Each node independently with probability `p`.
    UniformRandom {
        /// Per-node activation probability.
        p: f64,
    },
    /// One uniformly random node per step.
    Central,
    /// One node per step in cyclic id order.
    RoundRobin,
    /// Starve `node` within fairness windows of `window` steps.
    Laggard {
        /// The starved node.
        node: usize,
        /// Fairness window length.
        window: u64,
    },
}

impl SchedulerSpec {
    /// Builds a fresh scheduler instance.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Synchronous => Box::new(SynchronousScheduler),
            SchedulerSpec::UniformRandom { p } => Box::new(UniformRandomScheduler::new(*p)),
            SchedulerSpec::Central => Box::new(CentralScheduler),
            SchedulerSpec::RoundRobin => Box::<RoundRobinScheduler>::default(),
            SchedulerSpec::Laggard { node, window } => {
                Box::new(AdversarialLaggardScheduler::starving(*node, *window))
            }
        }
    }

    /// A stable label used in unit ids and report rows.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Synchronous => "synchronous".to_string(),
            SchedulerSpec::UniformRandom { p } => format!("uniform-random-{p}"),
            SchedulerSpec::Central => "central".to_string(),
            SchedulerSpec::RoundRobin => "round-robin".to_string(),
            SchedulerSpec::Laggard { node, window } => format!("laggard-n{node}-w{window}"),
        }
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        if let Some(name) = value.as_str() {
            return match name {
                "synchronous" => Ok(SchedulerSpec::Synchronous),
                "uniform-random" => Ok(SchedulerSpec::UniformRandom { p: 0.5 }),
                "central" => Ok(SchedulerSpec::Central),
                "round-robin" => Ok(SchedulerSpec::RoundRobin),
                other => Err(format!("{ctx}: unknown scheduler \"{other}\"")),
            };
        }
        match field(value, "kind", ctx)?.as_str() {
            Some("uniform-random") => Ok(SchedulerSpec::UniformRandom {
                p: f64_field(value, "p", ctx)?,
            }),
            Some("laggard") => Ok(SchedulerSpec::Laggard {
                node: usize_field(value, "node", ctx)?,
                window: usize_field(value, "window", ctx)? as u64,
            }),
            Some(other) => Err(format!("{ctx}: unknown scheduler kind \"{other}\"")),
            None => Err(format!("{ctx}: scheduler must be a string or an object")),
        }
    }
}

/// A declarative engine selection. `"serial"` (or `{"kind": "serial"}`) is
/// the only engine; the field stays so existing specs parse unchanged and
/// its label keeps its place in unit ids and metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSpec {
    /// The engine kind.
    pub kind: EngineKind,
}

impl EngineSpec {
    /// A stable label: `serial`.
    pub fn label(&self) -> String {
        self.kind.label().to_string()
    }

    fn from_json(value: &JsonValue, ctx: &str) -> Result<Self, SpecError> {
        let name = match value.as_str() {
            Some(name) => Some(name),
            None => field(value, "kind", ctx)?.as_str(),
        };
        match name {
            Some("serial") => Ok(EngineSpec {
                kind: EngineKind::Serial,
            }),
            Some("sharded") => Err(format!(
                "{ctx}: the sharded engine was removed; \"serial\" is the only engine"
            )),
            Some(other) => Err(format!("{ctx}: unknown engine \"{other}\"")),
            None => Err(format!("{ctx}: engine must be a string or an object")),
        }
    }
}

pub(crate) fn topology_from_json(value: &JsonValue, ctx: &str) -> Result<Topology, SpecError> {
    let kind = field(value, "kind", ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: topology \"kind\" must be a string"))?;
    match kind {
        "path" => Ok(Topology::Path {
            n: usize_field(value, "n", ctx)?,
        }),
        "cycle" => Ok(Topology::Cycle {
            n: usize_field(value, "n", ctx)?,
        }),
        "complete" => Ok(Topology::Complete {
            n: usize_field(value, "n", ctx)?,
        }),
        "star" => Ok(Topology::Star {
            n: usize_field(value, "n", ctx)?,
        }),
        "grid" => Ok(Topology::Grid {
            rows: usize_field(value, "rows", ctx)?,
            cols: usize_field(value, "cols", ctx)?,
        }),
        "torus" => Ok(Topology::Torus {
            rows: usize_field(value, "rows", ctx)?,
            cols: usize_field(value, "cols", ctx)?,
        }),
        "hypercube" => Ok(Topology::Hypercube {
            dim: usize_field(value, "dim", ctx)?,
        }),
        "balanced-tree" => Ok(Topology::BalancedTree {
            arity: usize_field(value, "arity", ctx)?,
            depth: usize_field(value, "depth", ctx)?,
        }),
        "erdos-renyi" => Ok(Topology::ErdosRenyi {
            n: usize_field(value, "n", ctx)?,
            p: f64_field(value, "p", ctx)?,
        }),
        "damaged-clique" => Ok(Topology::DamagedClique {
            n: usize_field(value, "n", ctx)?,
            drop: f64_field(value, "drop", ctx)?,
            max_diameter: usize_field(value, "max_diameter", ctx)?,
        }),
        "caveman" => Ok(Topology::Caveman {
            clusters: usize_field(value, "clusters", ctx)?,
            clique: usize_field(value, "clique", ctx)?,
        }),
        "random-regular" => Ok(Topology::RandomRegular {
            n: usize_field(value, "n", ctx)?,
            deg: usize_field(value, "deg", ctx)?,
        }),
        other => Err(format!("{ctx}: unknown topology kind \"{other}\"")),
    }
}

fn fault_from_json(value: Option<&JsonValue>, ctx: &str) -> Result<FaultPlan, SpecError> {
    let value = match value {
        None | Some(JsonValue::Null) => return Ok(FaultPlan::None),
        Some(v) => v,
    };
    if value.as_str() == Some("none") {
        return Ok(FaultPlan::None);
    }
    match field(value, "kind", ctx)?.as_str() {
        Some("none") => Ok(FaultPlan::None),
        Some("burst") => Ok(FaultPlan::Burst {
            at_round: usize_field(value, "at_round", ctx)? as u64,
            count: usize_field(value, "count", ctx)?,
        }),
        Some("continuous") => Ok(FaultPlan::Continuous {
            per_node_rate: f64_field(value, "per_node_rate", ctx)?,
        }),
        Some("periodic") => Ok(FaultPlan::Periodic {
            period: usize_field(value, "period", ctx)? as u64,
            count: usize_field(value, "count", ctx)?,
        }),
        Some(other) => Err(format!("{ctx}: unknown fault kind \"{other}\"")),
        None => Err(format!("{ctx}: fault must be \"none\" or an object")),
    }
}

/// Parses a task's `"schedulers"` array.
fn schedulers_from_json(task: &JsonValue, ctx: &str) -> Result<Vec<SchedulerSpec>, SpecError> {
    field(task, "schedulers", ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: \"schedulers\" must be an array"))?
        .iter()
        .map(|s| SchedulerSpec::from_json(s, ctx))
        .collect()
}

/// Parses a task's `"engines"` array (default: `[serial]`).
fn engines_from_json(task: &JsonValue, ctx: &str) -> Result<Vec<EngineSpec>, SpecError> {
    match task.get("engines") {
        None => Ok(vec![EngineSpec {
            kind: EngineKind::Serial,
        }]),
        Some(v) => v
            .as_array()
            .ok_or_else(|| format!("{ctx}: \"engines\" must be an array"))?
            .iter()
            .map(|e| EngineSpec::from_json(e, ctx))
            .collect(),
    }
}

impl SweepSpec {
    /// Parses a spec from JSON text.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let value = JsonValue::parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        Self::from_json(&value)
    }

    /// Parses a spec from a JSON document.
    pub fn from_json(value: &JsonValue) -> Result<Self, SpecError> {
        let name = field(value, "name", "spec")?
            .as_str()
            .ok_or("spec: \"name\" must be a string")?
            .to_string();
        let graph_seed = u64_opt(value, "graph_seed", "spec")?.unwrap_or(17);
        let checkpoint_format = match value.get("checkpoint_format") {
            None => CheckpointFormat::Json,
            Some(v) => match v.as_str() {
                Some("json") => CheckpointFormat::Json,
                Some("binary") => CheckpointFormat::Binary,
                _ => {
                    return Err(
                        "spec: \"checkpoint_format\" must be \"json\" or \"binary\"".to_string()
                    )
                }
            },
        };
        let tasks_json = field(value, "tasks", "spec")?
            .as_array()
            .ok_or("spec: \"tasks\" must be an array")?;
        if tasks_json.is_empty() {
            return Err("spec: \"tasks\" must not be empty".to_string());
        }
        let mut tasks = Vec::new();
        for (i, task) in tasks_json.iter().enumerate() {
            let id = field(task, "id", &format!("task #{i}"))?
                .as_str()
                .ok_or_else(|| format!("task #{i}: \"id\" must be a string"))?
                .to_string();
            let ctx = format!("task \"{id}\"");
            match field(task, "kind", &ctx)?.as_str() {
                Some("transition-table") => tasks.push(SweepTask::TransitionTable {
                    id,
                    diameter_bound: usize_field(task, "diameter_bound", &ctx)?,
                }),
                Some("state-space") => {
                    let bounds = field(task, "diameter_bounds", &ctx)?
                        .as_array()
                        .ok_or_else(|| format!("{ctx}: \"diameter_bounds\" must be an array"))?
                        .iter()
                        .map(|v| {
                            v.as_usize().ok_or_else(|| {
                                format!("{ctx}: \"diameter_bounds\" entries must be integers")
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    tasks.push(SweepTask::StateSpace {
                        id,
                        diameter_bounds: bounds,
                        include_derived: bool_opt(task, "include_derived", &ctx)?,
                    });
                }
                Some("stabilization") => {
                    let algorithms = match task.get("algorithms") {
                        None => vec![AlgorithmSpec::AlgAu],
                        Some(v) => v
                            .as_array()
                            .ok_or_else(|| format!("{ctx}: \"algorithms\" must be an array"))?
                            .iter()
                            .map(|a| AlgorithmSpec::from_json(a, &ctx))
                            .collect::<Result<Vec<_>, _>>()?,
                    };
                    let topologies = field(task, "topologies", &ctx)?
                        .as_array()
                        .ok_or_else(|| format!("{ctx}: \"topologies\" must be an array"))?
                        .iter()
                        .map(|t| topology_from_json(t, &ctx))
                        .collect::<Result<Vec<_>, _>>()?;
                    let schedulers = schedulers_from_json(task, &ctx)?;
                    let engines = engines_from_json(task, &ctx)?;
                    if algorithms.is_empty()
                        || topologies.is_empty()
                        || schedulers.is_empty()
                        || engines.is_empty()
                    {
                        return Err(format!(
                            "{ctx}: algorithms, topologies, schedulers and engines \
                             must be non-empty"
                        ));
                    }
                    let seeds = u64_opt(task, "seeds", &ctx)?.unwrap_or(1).max(1);
                    tasks.push(SweepTask::Stabilization(StabilizationTask {
                        id,
                        algorithms,
                        topologies,
                        diameter_bound: u64_opt(task, "diameter_bound", &ctx)?.map(|d| d as usize),
                        schedulers,
                        engines,
                        fault: fault_from_json(task.get("fault"), &ctx)?,
                        init: InitSpec::from_json(task.get("init"), &ctx)?,
                        seeds,
                        max_rounds: u64_opt(task, "max_rounds", &ctx)?,
                        verify_rounds: u64_opt(task, "verify_rounds", &ctx)?,
                    }));
                }
                Some("scenario") => {
                    let scenario = ScenarioSpec::from_json(field(task, "scenario", &ctx)?, &ctx)?;
                    let schedulers = schedulers_from_json(task, &ctx)?;
                    let engines = engines_from_json(task, &ctx)?;
                    if schedulers.is_empty() || engines.is_empty() {
                        return Err(format!("{ctx}: schedulers and engines must be non-empty"));
                    }
                    tasks.push(SweepTask::Scenario(ScenarioTask {
                        id,
                        scenario,
                        harshness: harshness_from_json(task.get("harshness"), &ctx)?,
                        bursts: u64_opt(task, "bursts", &ctx)?.unwrap_or(1).max(1),
                        schedulers,
                        engines,
                        seeds: u64_opt(task, "seeds", &ctx)?.unwrap_or(1).max(1),
                        max_rounds: u64_opt(task, "max_rounds", &ctx)?,
                        verify_rounds: u64_opt(task, "verify_rounds", &ctx)?,
                    }));
                }
                Some("verify") => {
                    tasks.push(SweepTask::Verify(crate::verify::VerifyTask::from_json(
                        task, id, &ctx,
                    )?));
                }
                Some(other) => return Err(format!("{ctx}: unknown task kind \"{other}\"")),
                None => return Err(format!("{ctx}: \"kind\" must be a string")),
            }
        }
        Ok(SweepSpec {
            name,
            graph_seed,
            checkpoint_format,
            timings: bool_opt(value, "timings", "spec")?,
            tasks,
        })
    }

    /// Expands the spec's stabilization and scenario tasks into their
    /// execution units, in a stable deterministic order (task → algorithm →
    /// topology → scheduler → engine → seed).
    pub fn execution_units(&self) -> Vec<SweepUnit> {
        let mut units = Vec::new();
        for task in &self.tasks {
            match task {
                SweepTask::Stabilization(task) => {
                    for algorithm in &task.algorithms {
                        for topology in &task.topologies {
                            for scheduler in &task.schedulers {
                                for engine in &task.engines {
                                    for seed in 0..task.seeds {
                                        units.push(SweepUnit {
                                            task_id: task.id.clone(),
                                            algorithm: *algorithm,
                                            topology: topology.clone(),
                                            scheduler: scheduler.clone(),
                                            engine: *engine,
                                            fault: task.fault.clone(),
                                            init: task.init,
                                            recovery: None,
                                            scenario: None,
                                            seed,
                                            graph_seed: self.graph_seed,
                                            diameter_bound: task.diameter_bound,
                                            max_rounds: task.max_rounds,
                                            verify_rounds: task.verify_rounds,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                SweepTask::Scenario(task) => {
                    for scheduler in &task.schedulers {
                        for engine in &task.engines {
                            for seed in 0..task.seeds {
                                units.push(SweepUnit {
                                    task_id: task.id.clone(),
                                    algorithm: task.scenario.algorithm(),
                                    topology: task.scenario.topology(),
                                    scheduler: scheduler.clone(),
                                    engine: *engine,
                                    fault: FaultPlan::None,
                                    init: InitSpec::Benign,
                                    recovery: Some(RecoveryPlan {
                                        bursts: task.bursts,
                                        burst_size: task.scenario.burst_size(task.harshness),
                                    }),
                                    scenario: Some(format!(
                                        "{}-{}",
                                        task.scenario.label(),
                                        harshness_label(task.harshness)
                                    )),
                                    seed,
                                    graph_seed: self.graph_seed,
                                    diameter_bound: task.scenario.diameter_bound(),
                                    max_rounds: task.max_rounds,
                                    verify_rounds: task.verify_rounds,
                                });
                            }
                        }
                    }
                }
                SweepTask::TransitionTable { .. }
                | SweepTask::StateSpace { .. }
                | SweepTask::Verify(_) => {}
            }
        }
        units
    }
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

/// The recovery phase of a scenario unit: how many fault bursts to recover
/// from and how many nodes each burst scrambles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Number of bursts injected after the verification window.
    pub bursts: u64,
    /// Number of distinct nodes scrambled per burst.
    pub burst_size: usize,
}

/// One independently runnable cell of a sweep (a stabilization measurement,
/// optionally followed by a fault-burst recovery phase).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepUnit {
    /// The owning task's id.
    pub task_id: String,
    /// Algorithm of this unit (the `algorithm` axis).
    pub algorithm: AlgorithmSpec,
    /// Topology of this unit.
    pub topology: Topology,
    /// Scheduler of this unit.
    pub scheduler: SchedulerSpec,
    /// Step engine of this unit.
    pub engine: EngineSpec,
    /// Fault plan of this unit.
    pub fault: FaultPlan,
    /// How the initial configuration is drawn.
    pub init: InitSpec,
    /// The recovery phase, for scenario units (`None`: plain stabilization).
    pub recovery: Option<RecoveryPlan>,
    /// Scenario label for reporting (`None` for plain stabilization units).
    pub scenario: Option<String>,
    /// Trial seed (keys the initial configuration, the transition coin
    /// streams, the scheduler stream, the fault injector stream and the
    /// recovery-burst draws).
    pub seed: u64,
    /// Seed for randomized topology construction.
    pub graph_seed: u64,
    /// Explicit diameter bound, or `None` for the graph's exact diameter.
    pub diameter_bound: Option<usize>,
    /// Round budget override (also the per-burst recovery budget).
    pub max_rounds: Option<u64>,
    /// Verification window override.
    pub verify_rounds: Option<u64>,
}

impl SweepUnit {
    /// A stable, filesystem-safe unit identifier.
    pub fn id(&self) -> String {
        format!(
            "{}--{}--{}--{}--{}--s{}",
            self.task_id,
            self.algorithm.label(),
            self.topology_label(),
            self.scheduler.label(),
            self.engine.label(),
            self.seed
        )
    }

    /// The label reports use in the topology column (the scenario label for
    /// scenario units).
    pub fn topology_label(&self) -> String {
        self.scenario
            .clone()
            .unwrap_or_else(|| self.topology.label())
    }
}

/// The measured outcome of one completed unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitResult {
    /// Rounds until legitimacy first held (`None`: budget exhausted).
    pub stabilization_rounds: Option<u64>,
    /// Steps until legitimacy first held.
    pub stabilization_steps: Option<u64>,
    /// Safety/liveness violations observed in the verification window.
    pub violations: Vec<String>,
    /// Rounds spent in the verification window.
    pub verification_rounds: u64,
    /// Total transient faults injected over the run.
    pub faults_injected: u64,
    /// Total steps executed.
    pub total_steps: u64,
    /// Rounds needed to recover from each recovered fault burst (scenario
    /// units; empty for plain stabilization units).
    pub recovery_rounds: Vec<u64>,
    /// Number of bursts the unit failed to recover from within the budget.
    pub unrecovered: u64,
    /// Wall-clock observability (step vs. oracle time, boundary-check
    /// count). Excluded from equality and from [`UnitResult::to_json`]:
    /// timings are nondeterministic and results must stay byte-stable
    /// across kill/resume. Rendered only when the spec opts in
    /// (`"timings": true`), and zero for units restored from a previous
    /// invocation's result files.
    pub timings: StepTimings,
}

impl UnitResult {
    /// Whether the unit stabilized, passed verification and recovered from
    /// every fault burst.
    pub fn is_clean(&self) -> bool {
        self.stabilization_rounds.is_some() && self.violations.is_empty() && self.unrecovered == 0
    }

    /// Serializes the result as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "stabilization_rounds".to_string(),
                self.stabilization_rounds
                    .map_or(JsonValue::Null, u64_to_json),
            ),
            (
                "stabilization_steps".to_string(),
                self.stabilization_steps
                    .map_or(JsonValue::Null, u64_to_json),
            ),
            (
                "violations".to_string(),
                JsonValue::Array(
                    self.violations
                        .iter()
                        .map(|v| JsonValue::String(v.clone()))
                        .collect(),
                ),
            ),
            (
                "verification_rounds".to_string(),
                u64_to_json(self.verification_rounds),
            ),
            (
                "faults_injected".to_string(),
                u64_to_json(self.faults_injected),
            ),
            ("total_steps".to_string(), u64_to_json(self.total_steps)),
            (
                "recovery_rounds".to_string(),
                JsonValue::Array(
                    self.recovery_rounds
                        .iter()
                        .copied()
                        .map(u64_to_json)
                        .collect(),
                ),
            ),
            ("unrecovered".to_string(), u64_to_json(self.unrecovered)),
        ])
    }

    /// Deserializes a result produced by [`UnitResult::to_json`].
    pub fn from_json(value: &JsonValue) -> Option<Self> {
        let opt = |key: &str| -> Option<Option<u64>> {
            match value.get(key)? {
                JsonValue::Null => Some(None),
                v => u64_from_json(v).map(Some),
            }
        };
        Some(UnitResult {
            stabilization_rounds: opt("stabilization_rounds")?,
            stabilization_steps: opt("stabilization_steps")?,
            violations: value
                .get("violations")?
                .as_array()?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            verification_rounds: u64_from_json(value.get("verification_rounds")?)?,
            faults_injected: u64_from_json(value.get("faults_injected")?)?,
            total_steps: u64_from_json(value.get("total_steps")?)?,
            // The recovery fields default when absent, so completed-unit
            // records written before the recovery phase existed still parse.
            recovery_rounds: match value.get("recovery_rounds") {
                None => Vec::new(),
                Some(v) => v
                    .as_array()?
                    .iter()
                    .map(u64_from_json)
                    .collect::<Option<_>>()?,
            },
            unrecovered: match value.get("unrecovered") {
                None => 0,
                Some(v) => u64_from_json(v)?,
            },
            timings: StepTimings::default(),
        })
    }
}

/// Outcome of [`run_unit`]: either the unit finished, or it was interrupted
/// and left a resumable checkpoint document.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitOutcome {
    /// The unit ran to completion.
    Complete(UnitResult),
    /// The unit hit the invocation's step allowance; the carried JSON
    /// checkpoint resumes it exactly where it stopped.
    Interrupted(JsonValue),
}

/// Checkpoint behaviour of [`run_unit`].
#[derive(Default)]
pub struct CheckpointPolicy<'a> {
    /// Emit a checkpoint to `sink` every this many steps (`0`: never).
    pub every_steps: u64,
    /// Receives each emitted checkpoint document (e.g. writes it to disk).
    pub sink: Option<&'a (dyn Fn(&JsonValue) + Sync)>,
    /// Resume from this checkpoint document instead of starting fresh.
    pub resume_from: Option<&'a JsonValue>,
    /// Stop after this many steps *in this invocation*, returning
    /// [`UnitOutcome::Interrupted`] with a checkpoint (simulates a kill; used
    /// by the CI smoke job and the round-trip tests).
    pub interrupt_after_steps: Option<u64>,
    /// Cooperative cancellation: once the token fires, the unit stops at the
    /// next step boundary exactly like `interrupt_after_steps` — the
    /// checkpoint document goes to `sink` and the call returns
    /// [`UnitOutcome::Interrupted`]. This is how the job scheduler
    /// ([`crate::jobs`]) drains in-flight units on `shutdown`/`cancel`
    /// without losing work: the persisted checkpoint resumes bit-identically.
    pub cancel: Option<&'a CancelToken>,
}

/// Internal: the measurement phases of a sweep unit.
const PHASE_STABILIZING: u64 = 0;
const PHASE_VERIFYING: u64 = 1;
const PHASE_RECOVERING: u64 = 2;
/// Terminal sentinel (never checkpointed — the unit completes immediately).
const PHASE_DONE: u64 = 3;

/// The paper's default round budget for a diameter bound `D`.
pub fn default_round_budget(d: usize) -> u64 {
    (200 * d.pow(3) + 2000) as u64
}

/// The default post-stabilization verification window for a bound `D`.
pub fn default_verify_window(d: usize) -> u64 {
    4 * d as u64 + 8
}

/// The resolved per-unit execution knobs handed to the generic runner.
struct UnitParams<'a> {
    scheduler: &'a SchedulerSpec,
    fault: &'a FaultPlan,
    init: InitSpec,
    recovery: Option<RecoveryPlan>,
    seed: u64,
    max_rounds: u64,
    verify_rounds: u64,
}

/// Runs one sweep unit (building its graph first and dispatching on the
/// unit's [`AlgorithmSpec`]); see the module docs for the shared phase
/// machine.
pub fn run_unit(unit: &SweepUnit, policy: &CheckpointPolicy<'_>) -> Result<UnitOutcome, SpecError> {
    let graph = unit.topology.build(unit.graph_seed);
    let d = unit.diameter_bound.unwrap_or_else(|| graph.diameter());
    let params = UnitParams {
        scheduler: &unit.scheduler,
        fault: &unit.fault,
        init: unit.init,
        recovery: unit.recovery,
        seed: unit.seed,
        max_rounds: unit.max_rounds.unwrap_or_else(|| default_round_budget(d)),
        verify_rounds: unit
            .verify_rounds
            .unwrap_or_else(|| default_verify_window(d)),
    };
    match unit.algorithm {
        AlgorithmSpec::AlgAu => run_unit_generic(&AuUnit::new(d), &graph, &params, policy),
        AlgorithmSpec::MinPlusOne => {
            run_unit_generic(&MinPlusOneUnit::new(d), &graph, &params, policy)
        }
        AlgorithmSpec::AsyncLe => run_unit_generic(&AsyncLeUnit::new(d), &graph, &params, policy),
        AlgorithmSpec::AsyncMis => run_unit_generic(&AsyncMisUnit::new(d), &graph, &params, policy),
    }
}

/// Runs an AlgAU stabilization measurement on an explicit graph, with
/// checkpoint/resume support (the `algorithm = "algau"` arm of the axis;
/// kept as a named entry point because E3's `au_trial` is pinned to
/// [`measure_stabilization`](sa_model::checker::measure_stabilization)
/// through it).
///
/// Semantics match `measure_stabilization` — legitimacy ("the graph is
/// good") is checked at time 0 and at every round boundary; once it holds, a
/// verification window of `verify_rounds` rounds checks the AU task's safety
/// at every boundary and its liveness over the window — extended with
/// per-round fault injection (after the boundary's legitimacy/safety check,
/// so a fault surfaces in the *next* round's check) and with checkpointing
/// at step boundaries.
///
/// Every source of randomness is either keyed by `(seed, node, step)`
/// (transition coins) or captured exactly in the checkpoint (scheduler
/// stream, fault injector stream), so a resumed run is bit-identical to an
/// uninterrupted one.
#[allow(clippy::too_many_arguments)]
pub fn run_stabilization_on_graph(
    graph: &Graph,
    diameter_bound: usize,
    scheduler: &SchedulerSpec,
    fault: &FaultPlan,
    seed: u64,
    max_rounds: u64,
    verify_rounds: u64,
    policy: &CheckpointPolicy<'_>,
) -> Result<UnitOutcome, SpecError> {
    run_unit_generic(
        &AuUnit::new(diameter_bound),
        graph,
        &UnitParams {
            scheduler,
            fault,
            init: InitSpec::Random,
            recovery: None,
            seed,
            max_rounds,
            verify_rounds,
        },
        policy,
    )
}

// ---------------------------------------------------------------------------
// The algorithm bundles behind the axis
// ---------------------------------------------------------------------------

/// Shorthand for a bundle's state type.
type UState<B> = <<B as UnitAlgorithm>::A as Algorithm>::State;

/// Everything the generic unit runner needs from one algorithm family on the
/// sweep's `algorithm` axis: the algorithm instance, initial configurations,
/// the fault palette, the legitimacy oracle, the task checker and the
/// checkpoint codec for its states.
trait UnitAlgorithm {
    /// The concrete algorithm type.
    type A: Algorithm;

    /// The algorithm instance.
    fn algorithm(&self) -> &Self::A;

    /// Builds the unit's initial configuration.
    fn initial(&self, init: InitSpec, n: usize, seed: u64) -> Vec<UState<Self>>;

    /// The palette transient faults (and recovery bursts) draw corrupted
    /// states from.
    fn fault_palette(&self) -> &[UState<Self>];

    /// The task's legitimacy predicate.
    fn is_legitimate(&self, graph: &Graph, config: &[UState<Self>]) -> bool;

    /// [`UnitAlgorithm::is_legitimate`] decomposed into per-node conjuncts
    /// for the incremental [`LegitimacyTracker`], or `None` if the oracle
    /// does not decompose (every round check then runs the full predicate).
    /// Must agree with `is_legitimate` on every configuration — pinned by
    /// the `SA_FORCE_FULL_ORACLE` CI legs and `tests/oracle_equivalence.rs`.
    fn local_oracle(&self) -> Option<&dyn LocalPredicate<UState<Self>>> {
        None
    }

    /// [`UnitAlgorithm::check_snapshot`]-emptiness decomposed into per-node
    /// conjuncts (`None`: the verification window scans every round).
    fn local_snapshot(&self) -> Option<&dyn LocalPredicate<UState<Self>>> {
        None
    }

    /// Safety check of a single configuration (verification window).
    fn check_snapshot(&self, graph: &Graph, config: &[UState<Self>]) -> Vec<String>;

    /// Liveness check over the verification window.
    fn check_window(&self, graph: &Graph, changes: &[u64], rounds: u64) -> Vec<String>;

    /// Serializes an execution snapshot (`None` if a state cannot be
    /// encoded, e.g. it left the palette the codec indexes into).
    fn encode_snapshot(&self, snap: &ExecutionSnapshot<UState<Self>>) -> Option<JsonValue>;

    /// Deserializes a snapshot produced by
    /// [`UnitAlgorithm::encode_snapshot`].
    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<UState<Self>>>;
}

/// Draws every node's state uniformly from `candidates` with the same seed
/// derivation as
/// [`ExecutionBuilder::random_initial`](sa_model::executor::ExecutionBuilder::random_initial),
/// so the pre-axis AlgAU unit trajectories are preserved exactly.
fn random_configuration<S: Clone>(candidates: &[S], n: usize, seed: u64) -> Vec<S> {
    assert!(!candidates.is_empty(), "need at least one candidate state");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| candidates[rng.gen_range(0..candidates.len())].clone())
        .collect()
}

/// `algorithm = "algau"`: the paper's asynchronous-unison algorithm.
struct AuUnit {
    alg: AlgAu,
    palette: Vec<Turn>,
    oracle: GoodGraphOracle,
    checker: AuChecker,
}

impl AuUnit {
    fn new(diameter_bound: usize) -> Self {
        let alg = AlgAu::new(diameter_bound);
        AuUnit {
            alg,
            palette: alg.states(),
            oracle: GoodGraphOracle::new(alg),
            // The unit's bound stands in for the exact diameter in the
            // liveness window (sound: it only weakens the requirement) —
            // million-node units must not pay an all-pairs BFS per window.
            checker: AuChecker::new(alg).with_diameter_bound(diameter_bound as u64),
        }
    }
}

impl UnitAlgorithm for AuUnit {
    type A = AlgAu;

    fn algorithm(&self) -> &AlgAu {
        &self.alg
    }

    fn initial(&self, init: InitSpec, n: usize, seed: u64) -> Vec<Turn> {
        match init {
            InitSpec::Random => random_configuration(&self.palette, n, seed),
            InitSpec::Benign => vec![Turn::Able(1); n],
        }
    }

    fn fault_palette(&self) -> &[Turn] {
        &self.palette
    }

    fn is_legitimate(&self, graph: &Graph, config: &[Turn]) -> bool {
        self.oracle.is_legitimate(graph, config)
    }

    fn local_oracle(&self) -> Option<&dyn LocalPredicate<Turn>> {
        Some(&self.oracle)
    }

    fn local_snapshot(&self) -> Option<&dyn LocalPredicate<Turn>> {
        Some(&self.checker)
    }

    fn check_snapshot(&self, graph: &Graph, config: &[Turn]) -> Vec<String> {
        self.checker.check_snapshot(graph, config)
    }

    fn check_window(&self, graph: &Graph, changes: &[u64], rounds: u64) -> Vec<String> {
        self.checker.check_window(graph, changes, rounds)
    }

    fn encode_snapshot(&self, snap: &ExecutionSnapshot<Turn>) -> Option<JsonValue> {
        snap.to_json_indexed(&self.palette)
    }

    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<Turn>> {
        ExecutionSnapshot::from_json_indexed(value, &self.palette)
    }
}

/// `algorithm = "min-plus-one"`: the unbounded-register unison baseline.
struct MinPlusOneUnit {
    alg: MinPlusOne,
    checker: MinPlusOneChecker,
    /// Deterministic clock palette for adversarial starts and fault draws:
    /// every in-range clock value plus two far-out outliers (the baseline's
    /// register is unbounded, so faults may land anywhere).
    palette: Vec<u64>,
}

impl MinPlusOneUnit {
    fn new(diameter_bound: usize) -> Self {
        let d = diameter_bound as u64;
        let mut palette: Vec<u64> = (0..=2 * d + 2).collect();
        palette.push(10 * (d + 1));
        palette.push(100 * (d + 1));
        MinPlusOneUnit {
            alg: MinPlusOne::new(),
            checker: MinPlusOneChecker::default().with_diameter_bound(d),
            palette,
        }
    }
}

impl UnitAlgorithm for MinPlusOneUnit {
    type A = MinPlusOne;

    fn algorithm(&self) -> &MinPlusOne {
        &self.alg
    }

    fn initial(&self, init: InitSpec, n: usize, seed: u64) -> Vec<u64> {
        match init {
            InitSpec::Random => random_configuration(&self.palette, n, seed),
            InitSpec::Benign => vec![0; n],
        }
    }

    fn fault_palette(&self) -> &[u64] {
        &self.palette
    }

    fn is_legitimate(&self, graph: &Graph, config: &[u64]) -> bool {
        min_plus_one_legitimate(graph, config)
    }

    fn local_oracle(&self) -> Option<&dyn LocalPredicate<u64>> {
        Some(&MinPlusOneOracle)
    }

    fn local_snapshot(&self) -> Option<&dyn LocalPredicate<u64>> {
        Some(&self.checker)
    }

    fn check_snapshot(&self, graph: &Graph, config: &[u64]) -> Vec<String> {
        self.checker.check_snapshot(graph, config)
    }

    fn check_window(&self, graph: &Graph, changes: &[u64], rounds: u64) -> Vec<String> {
        self.checker.check_window(graph, changes, rounds)
    }

    fn encode_snapshot(&self, snap: &ExecutionSnapshot<u64>) -> Option<JsonValue> {
        Some(snap.to_json(|s| u64_to_json(*s)))
    }

    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<u64>> {
        ExecutionSnapshot::from_json(value, u64_from_json)
    }
}

/// Encodes a composite synchronizer state as `{c, p, t}` palette indices
/// (the full composite product `|Q|²·|T|` is far too large to index
/// directly, but its three coordinates are each small).
fn encode_sync_state<S: PartialEq>(
    state: &SyncState<S>,
    inner_palette: &[S],
    turns: &[Turn],
) -> Option<JsonValue> {
    let pos = |s: &S| inner_palette.iter().position(|p| p == s);
    let turn = turns.iter().position(|t| t == &state.turn)?;
    Some(JsonValue::object([
        (
            "c".to_string(),
            JsonValue::Number(pos(&state.current)? as f64),
        ),
        (
            "p".to_string(),
            JsonValue::Number(pos(&state.previous)? as f64),
        ),
        ("t".to_string(), JsonValue::Number(turn as f64)),
    ]))
}

/// Decodes a state encoded by [`encode_sync_state`].
fn decode_sync_state<S: Clone>(
    value: &JsonValue,
    inner_palette: &[S],
    turns: &[Turn],
) -> Option<SyncState<S>> {
    Some(SyncState {
        current: inner_palette.get(value.get("c")?.as_usize()?)?.clone(),
        previous: inner_palette.get(value.get("p")?.as_usize()?)?.clone(),
        turn: *turns.get(value.get("t")?.as_usize()?)?,
    })
}

/// The shared snapshot codec of the two synchronizer bundles: each
/// composite state encodes exactly once through [`encode_sync_state`].
fn encode_composite_snapshot<S: PartialEq>(
    snap: &ExecutionSnapshot<SyncState<S>>,
    inner_palette: &[S],
    turns: &[Turn],
) -> Option<JsonValue> {
    snap.try_to_json(|s| encode_sync_state(s, inner_palette, turns))
}

/// Per-node decomposition of [`AsyncLeUnit::is_legitimate`]: AU-turn
/// goodness of the composite's clock coordinate conjoined with "no cell
/// mid-reset", *weighted* by the leader bit with target 1 ("exactly one
/// leader" is the aggregate clause the tracker maintains as a running sum).
struct LeLocalOracle {
    unison: AlgAu,
}

impl LocalPredicate<SyncState<RestartState<LeState>>> for LeLocalOracle {
    fn node_ok(
        &self,
        graph: &Graph,
        config: &[SyncState<RestartState<LeState>>],
        v: usize,
    ) -> bool {
        Predicates::new(&self.unison, graph).node_good_by(|u| config[u].turn, v)
            && bio_networks::colony_node_ok(config, v)
    }

    fn node_weight(&self, config: &[SyncState<RestartState<LeState>>], v: usize) -> i64 {
        bio_networks::colony_leader_weight(config, v)
    }

    fn weighted(&self) -> bool {
        true
    }

    fn weight_target(&self) -> i64 {
        1
    }

    fn uniform_ok(&self, _graph: &Graph, state: &SyncState<RestartState<LeState>>) -> Option<bool> {
        let level = state.turn.level();
        Some(
            state.turn.is_able()
                && self.unison.levels().adjacent(level, level)
                && !matches!(&state.current, RestartState::Restart(_)),
        )
    }
}

/// Per-node decomposition of the LE verification-window safety check
/// ([`sa_synchronizer::SynchronizedChecker`] over
/// [`sa_protocols::le::LeChecker`]): no cell mid-reset, exactly one leader.
struct LeLocalSnapshot;

impl LocalPredicate<SyncState<RestartState<LeState>>> for LeLocalSnapshot {
    fn node_ok(
        &self,
        _graph: &Graph,
        config: &[SyncState<RestartState<LeState>>],
        v: usize,
    ) -> bool {
        bio_networks::colony_node_ok(config, v)
    }

    fn node_weight(&self, config: &[SyncState<RestartState<LeState>>], v: usize) -> i64 {
        bio_networks::colony_leader_weight(config, v)
    }

    fn weighted(&self) -> bool {
        true
    }

    fn weight_target(&self) -> i64 {
        1
    }

    fn uniform_ok(&self, _graph: &Graph, state: &SyncState<RestartState<LeState>>) -> Option<bool> {
        Some(!matches!(&state.current, RestartState::Restart(_)))
    }
}

/// Per-node decomposition of [`AsyncMisUnit::is_legitimate`]: AU-turn
/// goodness conjoined with the tissue pattern's per-cell condition
/// ([`bio_networks::tissue_node_ok`]).
struct MisLocalOracle {
    unison: AlgAu,
}

impl LocalPredicate<SyncState<RestartState<MisState>>> for MisLocalOracle {
    fn node_ok(
        &self,
        graph: &Graph,
        config: &[SyncState<RestartState<MisState>>],
        v: usize,
    ) -> bool {
        Predicates::new(&self.unison, graph).node_good_by(|u| config[u].turn, v)
            && bio_networks::tissue_node_ok(graph, config, v)
    }

    fn uniform_ok(&self, graph: &Graph, state: &SyncState<RestartState<MisState>>) -> Option<bool> {
        let level = state.turn.level();
        Some(
            state.turn.is_able()
                && self.unison.levels().adjacent(level, level)
                && bio_networks::tissue_uniform_ok(graph, state),
        )
    }
}

/// Per-node decomposition of the MIS verification-window safety check
/// ([`sa_synchronizer::SynchronizedChecker`] over
/// [`sa_protocols::mis::MisChecker`]): every cell a decided host whose
/// decision is locally consistent.
struct MisLocalSnapshot;

impl LocalPredicate<SyncState<RestartState<MisState>>> for MisLocalSnapshot {
    fn node_ok(
        &self,
        graph: &Graph,
        config: &[SyncState<RestartState<MisState>>],
        v: usize,
    ) -> bool {
        bio_networks::tissue_node_ok(graph, config, v)
    }

    fn uniform_ok(&self, graph: &Graph, state: &SyncState<RestartState<MisState>>) -> Option<bool> {
        Some(bio_networks::tissue_uniform_ok(graph, state))
    }
}

/// `algorithm = "le"`: AlgLE through the synchronizer (asynchronous leader
/// election).
struct AsyncLeUnit {
    alg: AsyncLe,
    inner_palette: Vec<RestartState<LeState>>,
    turns: Vec<Turn>,
    fault_palette: Vec<SyncState<RestartState<LeState>>>,
    local_oracle: LeLocalOracle,
}

impl AsyncLeUnit {
    fn new(diameter_bound: usize) -> Self {
        let alg = async_le(diameter_bound);
        let inner_palette = alg.inner().states();
        let turns = alg.unison().states();
        // Representative corrupted states — arbitrary clocks × arbitrary
        // leader claims (mirrors `bio_networks::colony_leader_recovery`);
        // the full composite product is too large to sample uniformly.
        let mut fault_palette = Vec::new();
        for &turn in &turns {
            for leader in [false, true] {
                use sa_protocols::restart::RestartableAlgorithm;
                let mut host = alg.inner().host().initial_state();
                host.leader = leader;
                host.stage = sa_protocols::le::Stage::Verification;
                fault_palette.push(SyncState {
                    current: RestartState::Host(host),
                    previous: RestartState::Host(host),
                    turn,
                });
            }
        }
        let unison = *alg.unison();
        AsyncLeUnit {
            alg,
            inner_palette,
            turns,
            fault_palette,
            local_oracle: LeLocalOracle { unison },
        }
    }
}

impl UnitAlgorithm for AsyncLeUnit {
    type A = AsyncLe;

    fn algorithm(&self) -> &AsyncLe {
        &self.alg
    }

    fn initial(&self, init: InitSpec, n: usize, seed: u64) -> Vec<UState<Self>> {
        match init {
            InitSpec::Random => sa_synchronizer::random_composite_configuration(
                &self.inner_palette,
                self.alg.unison(),
                n,
                seed ^ 0x9e37_79b9_7f4a_7c15,
            ),
            InitSpec::Benign => vec![self.alg.fresh_state(); n],
        }
    }

    fn fault_palette(&self) -> &[UState<Self>] {
        &self.fault_palette
    }

    fn is_legitimate(&self, graph: &Graph, config: &[UState<Self>]) -> bool {
        // The AU coordinate must be good (the synchronizer's closure
        // argument needs a stabilized clock before the simulated rounds are
        // trustworthy) and the projected task state must show exactly one
        // leader with no cell mid-reset.
        //
        // This oracle is *observational*: on dense graphs an adversarial
        // random start can transiently satisfy it while the simulated epoch
        // state is still inconsistent, in which case the verification window
        // correctly reports the subsequent restart as a violation. Scenario
        // units avoid the coincidence by starting benign.
        let turns: Vec<Turn> = config.iter().map(|s| s.turn).collect();
        Predicates::new(self.alg.unison(), graph).graph_good(&turns)
            && bio_networks::colony_leader_legitimate(graph, config)
    }

    fn local_oracle(&self) -> Option<&dyn LocalPredicate<UState<Self>>> {
        Some(&self.local_oracle)
    }

    fn local_snapshot(&self) -> Option<&dyn LocalPredicate<UState<Self>>> {
        Some(&LeLocalSnapshot)
    }

    fn check_snapshot(&self, graph: &Graph, config: &[UState<Self>]) -> Vec<String> {
        self.alg.checker().check_snapshot(graph, config)
    }

    fn check_window(&self, graph: &Graph, changes: &[u64], rounds: u64) -> Vec<String> {
        self.alg.checker().check_window(graph, changes, rounds)
    }

    fn encode_snapshot(&self, snap: &ExecutionSnapshot<UState<Self>>) -> Option<JsonValue> {
        encode_composite_snapshot(snap, &self.inner_palette, &self.turns)
    }

    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<UState<Self>>> {
        ExecutionSnapshot::from_json(value, |v| {
            decode_sync_state(v, &self.inner_palette, &self.turns)
        })
    }
}

/// `algorithm = "mis"`: AlgMIS through the synchronizer (asynchronous
/// maximal independent set).
struct AsyncMisUnit {
    alg: AsyncMis,
    inner_palette: Vec<RestartState<MisState>>,
    turns: Vec<Turn>,
    fault_palette: Vec<SyncState<RestartState<MisState>>>,
    local_oracle: MisLocalOracle,
}

impl AsyncMisUnit {
    fn new(diameter_bound: usize) -> Self {
        let alg = async_mis(diameter_bound);
        let inner_palette = alg.inner().states();
        let turns = alg.unison().states();
        // Representative corrupted states — arbitrary clocks × arbitrary
        // decisions (mirrors `bio_networks::tissue_mis_availability`).
        let mut fault_palette = Vec::new();
        for &turn in &turns {
            for decision in [
                sa_protocols::mis::Decision::Undecided,
                sa_protocols::mis::Decision::In,
                sa_protocols::mis::Decision::Out,
            ] {
                use sa_protocols::restart::RestartableAlgorithm;
                let mut host = alg.inner().host().initial_state();
                host.decision = decision;
                host.detect_id = if decision == sa_protocols::mis::Decision::In {
                    1
                } else {
                    0
                };
                fault_palette.push(SyncState {
                    current: RestartState::Host(host),
                    previous: RestartState::Host(host),
                    turn,
                });
            }
        }
        let unison = *alg.unison();
        AsyncMisUnit {
            alg,
            inner_palette,
            turns,
            fault_palette,
            local_oracle: MisLocalOracle { unison },
        }
    }
}

impl UnitAlgorithm for AsyncMisUnit {
    type A = AsyncMis;

    fn algorithm(&self) -> &AsyncMis {
        &self.alg
    }

    fn initial(&self, init: InitSpec, n: usize, seed: u64) -> Vec<UState<Self>> {
        match init {
            InitSpec::Random => sa_synchronizer::random_composite_configuration(
                &self.inner_palette,
                self.alg.unison(),
                n,
                seed ^ 0x9e37_79b9_7f4a_7c15,
            ),
            InitSpec::Benign => vec![self.alg.fresh_state(); n],
        }
    }

    fn fault_palette(&self) -> &[UState<Self>] {
        &self.fault_palette
    }

    fn is_legitimate(&self, graph: &Graph, config: &[UState<Self>]) -> bool {
        let turns: Vec<Turn> = config.iter().map(|s| s.turn).collect();
        Predicates::new(self.alg.unison(), graph).graph_good(&turns)
            && bio_networks::tissue_pattern_legitimate(graph, config)
    }

    fn local_oracle(&self) -> Option<&dyn LocalPredicate<UState<Self>>> {
        Some(&self.local_oracle)
    }

    fn local_snapshot(&self) -> Option<&dyn LocalPredicate<UState<Self>>> {
        Some(&MisLocalSnapshot)
    }

    fn check_snapshot(&self, graph: &Graph, config: &[UState<Self>]) -> Vec<String> {
        self.alg.checker().check_snapshot(graph, config)
    }

    fn check_window(&self, graph: &Graph, changes: &[u64], rounds: u64) -> Vec<String> {
        self.alg.checker().check_window(graph, changes, rounds)
    }

    fn encode_snapshot(&self, snap: &ExecutionSnapshot<UState<Self>>) -> Option<JsonValue> {
        encode_composite_snapshot(snap, &self.inner_palette, &self.turns)
    }

    fn decode_snapshot(&self, value: &JsonValue) -> Option<ExecutionSnapshot<UState<Self>>> {
        ExecutionSnapshot::from_json(value, |v| {
            decode_sync_state(v, &self.inner_palette, &self.turns)
        })
    }
}

// ---------------------------------------------------------------------------
// The shared phase machine
// ---------------------------------------------------------------------------

/// Runs one unit of any algorithm family through the shared phase machine —
/// **stabilize** (round budget `max_rounds`), **verify** (window of
/// `verify_rounds` rounds with safety checks at every boundary and a
/// liveness check over the window) and, for scenario units, **recover**: a
/// series of fault bursts, each scrambling `burst_size` nodes with states
/// drawn from the bundle's fault palette, each recovery measured in rounds
/// against a fresh `max_rounds` budget.
///
/// Checkpoint/resume covers every phase: burst draws are pure functions of
/// `(seed, burst index)`, the burst bookkeeping is part of the checkpoint
/// document and bursts fire atomically with the phase transition, so a
/// resumed unit replays the exact run of an uninterrupted one.
fn run_unit_generic<B: UnitAlgorithm>(
    bundle: &B,
    graph: &Graph,
    params: &UnitParams<'_>,
    policy: &CheckpointPolicy<'_>,
) -> Result<UnitOutcome, SpecError> {
    let alg = bundle.algorithm();
    let seed = params.seed;
    let max_rounds = params.max_rounds;
    let verify_rounds = params.verify_rounds;
    let recovery = params.recovery.unwrap_or(RecoveryPlan {
        bursts: 0,
        burst_size: 0,
    });
    let mut sched = params.scheduler.build();
    let mut injector = match params.fault {
        FaultPlan::None => None,
        plan => Some(FaultInjector::new(
            plan.clone(),
            bundle.fault_palette().to_vec(),
            seed ^ 0xFA01_7BAD_5EED_0001,
        )),
    };

    // Incremental legitimacy tracking: one tracker for the oracle (active in
    // the stabilizing/recovering phases) and one for the snapshot safety
    // check (active in the verification window). Each tracker is fed the
    // changed-node lists only while its phase is active and reseeded at
    // phase transitions, so its knowledge is always exact when queried.
    // `SA_FORCE_FULL_ORACLE=1` (or a bundle without a decomposition) falls
    // back to the full-scan checks; CI pins both paths to identical output.
    let local_oracle = if force_full_oracle() {
        None
    } else {
        bundle.local_oracle()
    };
    let local_snapshot = if force_full_oracle() {
        None
    } else {
        bundle.local_snapshot()
    };
    let mut oracle_tracker = local_oracle.map(|_| LegitimacyTracker::new(graph));
    let mut snapshot_tracker = local_snapshot.map(|_| LegitimacyTracker::new(graph));
    let mut timings = StepTimings::default();

    // Mutable measurement state beyond the execution itself.
    let mut phase;
    let mut stab_rounds: Option<u64>;
    let mut stab_steps: Option<u64>;
    let mut violations: Vec<String>;
    let mut verify_start_round: u64;
    let mut verification_rounds: u64;
    let mut bursts_injected: u64;
    let mut burst_start_round: u64;
    let mut recovery_rounds: Vec<u64>;
    let mut unrecovered: u64;

    let mut exec: Execution<'_, B::A> = match policy.resume_from {
        Some(doc) => {
            let snap = field(doc, "execution", "checkpoint").and_then(|v| {
                bundle
                    .decode_snapshot(v)
                    .ok_or_else(|| "checkpoint: malformed execution snapshot".to_string())
            })?;
            let opt_u64 = |key: &str| -> Result<Option<u64>, SpecError> {
                match doc.get(key) {
                    None | Some(JsonValue::Null) => Ok(None),
                    Some(v) => u64_from_json(v)
                        .map(Some)
                        .ok_or_else(|| format!("checkpoint: malformed {key}")),
                }
            };
            let req_u64 = |key: &str| -> Result<u64, SpecError> {
                u64_from_json(field(doc, key, "checkpoint")?)
                    .ok_or_else(|| format!("checkpoint: malformed {key}"))
            };
            phase = req_u64("phase")?;
            stab_rounds = opt_u64("stab_rounds")?;
            stab_steps = opt_u64("stab_steps")?;
            violations = field(doc, "violations", "checkpoint")?
                .as_array()
                .ok_or("checkpoint: malformed violations")?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or("checkpoint: malformed violations")?;
            verify_start_round = req_u64("verify_start_round")?;
            verification_rounds = req_u64("verification_rounds")?;
            bursts_injected = req_u64("bursts_injected")?;
            burst_start_round = req_u64("burst_start_round")?;
            recovery_rounds = field(doc, "recovery_rounds", "checkpoint")?
                .as_array()
                .ok_or("checkpoint: malformed recovery_rounds")?
                .iter()
                .map(u64_from_json)
                .collect::<Option<_>>()
                .ok_or("checkpoint: malformed recovery_rounds")?;
            unrecovered = req_u64("unrecovered")?;
            sched.restore_position(req_u64("scheduler_position")?);
            if let Some(injector) = injector.as_mut() {
                let snap_json = field(doc, "injector", "checkpoint")?;
                let snap = FaultInjectorSnapshot::from_json(snap_json)
                    .ok_or("checkpoint: malformed injector snapshot")?;
                injector.restore(&snap);
            }
            ExecutionBuilder::new(alg, graph).resume(&snap)
        }
        None => {
            phase = PHASE_STABILIZING;
            stab_rounds = None;
            stab_steps = None;
            violations = Vec::new();
            verify_start_round = 0;
            verification_rounds = 0;
            bursts_injected = 0;
            burst_start_round = 0;
            recovery_rounds = Vec::new();
            unrecovered = 0;
            let mut exec = ExecutionBuilder::new(alg, graph)
                .seed(seed)
                .initial(bundle.initial(params.init, graph.node_count(), seed));
            // Legitimacy is checked at time 0 (an adversarial configuration
            // may already be good; a benign one usually is).
            let legitimate_at_start = match (local_oracle, oracle_tracker.as_mut()) {
                (Some(local), Some(tracker)) => {
                    tracker.is_legitimate(local, graph, exec.configuration())
                }
                _ => bundle.is_legitimate(graph, exec.configuration()),
            };
            if legitimate_at_start {
                stab_rounds = Some(0);
                stab_steps = Some(0);
                phase = PHASE_VERIFYING;
                exec.take_output_change_counts();
                verify_start_round = 0;
            }
            exec
        }
    };

    // A recovery burst: scramble `burst_size` distinct nodes with palette
    // states. The draw is a pure function of `(seed, burst index)`, so no
    // extra RNG stream needs checkpointing — a resumed unit that already
    // counted the burst as injected never re-draws it.
    let inject_burst = |exec: &mut Execution<'_, B::A>, burst_idx: u64| {
        let mut rng = StdRng::seed_from_u64(
            seed ^ 0xB125_7B12_57B1_257B ^ burst_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let palette = bundle.fault_palette();
        let n = graph.node_count();
        let count = recovery.burst_size.min(n);
        let mut nodes: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = rng.gen_range(i..n);
            nodes.swap(i, j);
        }
        for &v in &nodes[..count] {
            let s = palette[rng.gen_range(0..palette.len())].clone();
            exec.corrupt(v, s);
        }
    };

    #[allow(clippy::too_many_arguments)]
    let make_checkpoint = |exec: &Execution<'_, B::A>,
                           sched: &dyn Scheduler,
                           injector: &Option<FaultInjector<UState<B>>>,
                           phase: u64,
                           stab_rounds: Option<u64>,
                           stab_steps: Option<u64>,
                           violations: &[String],
                           verify_start_round: u64,
                           verification_rounds: u64,
                           bursts_injected: u64,
                           burst_start_round: u64,
                           recovery_rounds: &[u64],
                           unrecovered: u64|
     -> Result<JsonValue, SpecError> {
        let snap = bundle
            .encode_snapshot(&exec.snapshot())
            .ok_or("checkpoint: a state left the algorithm's palette")?;
        Ok(JsonValue::object([
            ("execution".to_string(), snap),
            ("phase".to_string(), u64_to_json(phase)),
            (
                "stab_rounds".to_string(),
                stab_rounds.map_or(JsonValue::Null, u64_to_json),
            ),
            (
                "stab_steps".to_string(),
                stab_steps.map_or(JsonValue::Null, u64_to_json),
            ),
            (
                "violations".to_string(),
                JsonValue::Array(
                    violations
                        .iter()
                        .map(|v| JsonValue::String(v.clone()))
                        .collect(),
                ),
            ),
            (
                "verify_start_round".to_string(),
                u64_to_json(verify_start_round),
            ),
            (
                "verification_rounds".to_string(),
                u64_to_json(verification_rounds),
            ),
            ("bursts_injected".to_string(), u64_to_json(bursts_injected)),
            (
                "burst_start_round".to_string(),
                u64_to_json(burst_start_round),
            ),
            (
                "recovery_rounds".to_string(),
                JsonValue::Array(recovery_rounds.iter().copied().map(u64_to_json).collect()),
            ),
            ("unrecovered".to_string(), u64_to_json(unrecovered)),
            (
                "scheduler_position".to_string(),
                u64_to_json(sched.checkpoint_position()),
            ),
            (
                "injector".to_string(),
                injector
                    .as_ref()
                    .map_or(JsonValue::Null, |i| i.snapshot().to_json()),
            ),
        ]))
    };

    let mut steps_this_invocation: u64 = 0;
    loop {
        // Phase exit and transition conditions are evaluated at step
        // boundaries only.
        if phase == PHASE_STABILIZING && stab_rounds.is_none() && exec.rounds() >= max_rounds {
            break; // budget exhausted
        }
        if phase == PHASE_VERIFYING && exec.rounds() >= verify_start_round + verify_rounds {
            let changes = exec.output_change_counts().to_vec();
            verification_rounds = exec.rounds() - verify_start_round;
            for v in bundle.check_window(graph, &changes, verification_rounds) {
                push_violation(&mut violations, v);
            }
            if bursts_injected < recovery.bursts {
                inject_burst(&mut exec, bursts_injected);
                bursts_injected += 1;
                burst_start_round = exec.rounds();
                phase = PHASE_RECOVERING;
                // The oracle tracker was idle through the window and the
                // burst corrupted states outside the step pipeline.
                if let Some(tracker) = oracle_tracker.as_mut() {
                    tracker.reseed();
                }
            } else {
                break;
            }
        }
        if phase == PHASE_RECOVERING && exec.rounds() >= burst_start_round + max_rounds {
            // This burst's recovery budget is exhausted; move on (the next
            // burst starts from wherever the failed recovery left the
            // system — faults compose in a real environment).
            unrecovered += 1;
            if bursts_injected < recovery.bursts {
                inject_burst(&mut exec, bursts_injected);
                bursts_injected += 1;
                burst_start_round = exec.rounds();
                if let Some(tracker) = oracle_tracker.as_mut() {
                    tracker.reseed();
                }
            } else {
                break;
            }
        }
        // Simulated kill (step allowance) or cooperative cancellation: stop
        // between steps with a resumable checkpoint.
        let interrupted_by_allowance = policy
            .interrupt_after_steps
            .is_some_and(|allowance| steps_this_invocation >= allowance);
        let interrupted_by_cancel = policy.cancel.is_some_and(CancelToken::is_cancelled);
        if interrupted_by_allowance || interrupted_by_cancel {
            let doc = make_checkpoint(
                &exec,
                sched.as_ref(),
                &injector,
                phase,
                stab_rounds,
                stab_steps,
                &violations,
                verify_start_round,
                verification_rounds,
                bursts_injected,
                burst_start_round,
                &recovery_rounds,
                unrecovered,
            )?;
            if let Some(sink) = policy.sink {
                sink(&doc);
            }
            return Ok(UnitOutcome::Interrupted(doc));
        }

        let step_start = std::time::Instant::now();
        let outcome = exec.step_with(&mut *sched);
        timings.step_ns += step_start.elapsed().as_nanos() as u64;
        steps_this_invocation += 1;
        // Feed the phase-active tracker this step's changed-node list (the
        // executor's dirty frontier) so its badness bitset stays exact.
        let oracle_start = std::time::Instant::now();
        match phase {
            PHASE_VERIFYING => {
                if let (Some(local), Some(tracker)) = (local_snapshot, snapshot_tracker.as_mut()) {
                    tracker.note_step(
                        local,
                        graph,
                        exec.configuration(),
                        exec.last_changed(),
                        exec.last_step_uniform(),
                    );
                }
            }
            _ => {
                if let (Some(local), Some(tracker)) = (local_oracle, oracle_tracker.as_mut()) {
                    tracker.note_step(
                        local,
                        graph,
                        exec.configuration(),
                        exec.last_changed(),
                        exec.last_step_uniform(),
                    );
                }
            }
        }
        if outcome.round_completed {
            timings.oracle_rounds += 1;
            if phase == PHASE_STABILIZING {
                let legitimate = match (local_oracle, oracle_tracker.as_mut()) {
                    (Some(local), Some(tracker)) => {
                        tracker.is_legitimate(local, graph, exec.configuration())
                    }
                    _ => bundle.is_legitimate(graph, exec.configuration()),
                };
                if legitimate {
                    stab_rounds = Some(exec.rounds());
                    stab_steps = Some(exec.time());
                    phase = PHASE_VERIFYING;
                    exec.take_output_change_counts();
                    verify_start_round = exec.rounds();
                    // The snapshot tracker saw none of the stabilizing
                    // steps; start it from a scan.
                    if let Some(tracker) = snapshot_tracker.as_mut() {
                        tracker.reseed();
                    }
                }
            } else if phase == PHASE_VERIFYING {
                // With a decomposed snapshot check, a clean round is decided
                // incrementally and the O(n) violation enumeration runs only
                // on rounds that actually violate safety (and only until
                // the recorded-violation cap).
                let clean = match (local_snapshot, snapshot_tracker.as_mut()) {
                    (Some(local), Some(tracker)) => {
                        tracker.is_legitimate(local, graph, exec.configuration())
                    }
                    _ => false, // no decomposition: the scan below decides
                };
                if !clean && !violations_capped(&violations) {
                    for v in bundle.check_snapshot(graph, exec.configuration()) {
                        push_violation(&mut violations, format!("round {}: {v}", exec.rounds()));
                    }
                }
            } else if phase == PHASE_RECOVERING {
                let legitimate = match (local_oracle, oracle_tracker.as_mut()) {
                    (Some(local), Some(tracker)) => {
                        tracker.is_legitimate(local, graph, exec.configuration())
                    }
                    _ => bundle.is_legitimate(graph, exec.configuration()),
                };
                if legitimate {
                    recovery_rounds.push(exec.rounds() - burst_start_round);
                    if bursts_injected < recovery.bursts {
                        inject_burst(&mut exec, bursts_injected);
                        bursts_injected += 1;
                        burst_start_round = exec.rounds();
                        if let Some(tracker) = oracle_tracker.as_mut() {
                            tracker.reseed();
                        }
                    } else {
                        phase = PHASE_DONE;
                    }
                }
            }
            if let Some(injector) = injector.as_mut() {
                // Fault victims mutate state outside the step pipeline, so
                // they are reported to the phase-active tracker explicitly.
                let victims = injector.on_round(&mut exec);
                if !victims.is_empty() {
                    match phase {
                        PHASE_VERIFYING => {
                            if let (Some(local), Some(tracker)) =
                                (local_snapshot, snapshot_tracker.as_mut())
                            {
                                tracker.note_step(
                                    local,
                                    graph,
                                    exec.configuration(),
                                    &victims,
                                    false,
                                );
                            }
                        }
                        _ => {
                            if let (Some(local), Some(tracker)) =
                                (local_oracle, oracle_tracker.as_mut())
                            {
                                tracker.note_step(
                                    local,
                                    graph,
                                    exec.configuration(),
                                    &victims,
                                    false,
                                );
                            }
                        }
                    }
                }
            }
        }
        timings.oracle_ns += oracle_start.elapsed().as_nanos() as u64;
        if phase == PHASE_DONE {
            break;
        }
        if policy.every_steps > 0 && exec.time().is_multiple_of(policy.every_steps) {
            if let Some(sink) = policy.sink {
                let doc = make_checkpoint(
                    &exec,
                    sched.as_ref(),
                    &injector,
                    phase,
                    stab_rounds,
                    stab_steps,
                    &violations,
                    verify_start_round,
                    verification_rounds,
                    bursts_injected,
                    burst_start_round,
                    &recovery_rounds,
                    unrecovered,
                )?;
                sink(&doc);
            }
        }
    }

    let burst_faults = bursts_injected * recovery.burst_size.min(graph.node_count()) as u64;
    Ok(UnitOutcome::Complete(UnitResult {
        stabilization_rounds: stab_rounds,
        stabilization_steps: stab_steps,
        verification_rounds,
        violations,
        faults_injected: injector.as_ref().map_or(0, FaultInjector::faults_injected) + burst_faults,
        total_steps: exec.time(),
        recovery_rounds,
        unrecovered,
        timings,
    }))
}

// ---------------------------------------------------------------------------
// Instant (artifact) tasks — shared by E1/E2 and the CLI
// ---------------------------------------------------------------------------

/// The E1 artifacts at a diameter bound: the rendered transition table, the
/// Graphviz DOT state diagram and the per-kind rule counts `(AA, AF, FA)`.
pub fn transition_table_artifacts(
    diameter_bound: usize,
) -> (String, String, (usize, usize, usize)) {
    let alg = AlgAu::new(diameter_bound);
    let rows = alg.transition_table();
    let mut table = format!("{:<14} {:<6} {:<14} condition\n", "from", "type", "to");
    for row in &rows {
        table.push_str(&format!(
            "{:<14} {:<6} {:<14} {}\n",
            row.from.to_string(),
            format!("{:?}", row.kind),
            row.to.to_string(),
            row.condition
        ));
    }
    let count = |kind| rows.iter().filter(|r| r.kind == kind).count();
    (
        table,
        alg.state_diagram_dot(),
        (
            count(unison_core::TransitionKind::AbleAble),
            count(unison_core::TransitionKind::AbleFaulty),
            count(unison_core::TransitionKind::FaultyAble),
        ),
    )
}

/// E1 as rows: one row per rule kind, so the counts land in reports.
pub fn transition_table_rows(id: &str, diameter_bound: usize) -> Vec<ExperimentRow> {
    let (_, _, (aa, af, fa)) = transition_table_artifacts(diameter_bound);
    let alg = AlgAu::new(diameter_bound);
    [
        ("algau-states", alg.state_count()),
        ("aa-rules", aa),
        ("af-rules", af),
        ("fa-rules", fa),
    ]
    .into_iter()
    .map(|(metric, count)| ExperimentRow {
        experiment: id.to_string(),
        topology: "-".into(),
        n: 0,
        diameter_bound,
        scheduler: "-".into(),
        metric: metric.into(),
        summary: Summary::of(&[count as f64]),
        failures: 0,
    })
    .collect()
}

/// E2 as rows: AlgAU's state count at every bound, plus (optionally) the
/// derived algorithms' counts.
pub fn state_space_rows(
    id: &str,
    diameter_bounds: &[usize],
    include_derived: bool,
) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for &d in diameter_bounds {
        let alg = AlgAu::new(d);
        rows.push(ExperimentRow {
            experiment: id.to_string(),
            topology: "-".into(),
            n: 0,
            diameter_bound: d,
            scheduler: "-".into(),
            metric: "algau-states".into(),
            summary: Summary::of(&[alg.state_count() as f64]),
            failures: 0,
        });
        if include_derived {
            rows.extend(derived_state_space_rows(id, &[d]));
        }
    }
    rows
}

/// The state-space counts of the algorithms *derived* from AlgAU (LE, MIS
/// and their synchronized asynchronous versions), one row per metric per
/// bound.
pub fn derived_state_space_rows(id: &str, diameter_bounds: &[usize]) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for &d in diameter_bounds {
        let le = sa_protocols::alg_le(d);
        let mis = sa_protocols::alg_mis(d);
        let async_le = sa_synchronizer::async_le(d);
        let async_mis = sa_synchronizer::async_mis(d);
        for (metric, count) in [
            ("algle-states", le.state_count()),
            ("algmis-states", mis.state_count()),
            ("async-le-states", async_le.state_space_size()),
            ("async-mis-states", async_mis.state_space_size()),
        ] {
            rows.push(ExperimentRow {
                experiment: id.to_string(),
                topology: "-".into(),
                n: 0,
                diameter_bound: d,
                scheduler: "-".into(),
                metric: metric.into(),
                summary: Summary::of(&[count as f64]),
                failures: 0,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Aggregation and rendering
// ---------------------------------------------------------------------------

/// Aggregates completed units into [`ExperimentRow`]s per sweep cell (task ×
/// algorithm × topology/scenario × scheduler × engine): one
/// `<alg>:rounds-to-good@<engine>` row per cell summarizing stabilization
/// rounds over seeds, plus — for cells with a recovery phase — one
/// `<alg>:recovery-rounds@<engine>` row summarizing per-burst recovery
/// rounds over bursts and seeds. Units must be in expansion order
/// (seed-major within a cell, as [`SweepSpec::execution_units`] produces
/// them).
pub fn aggregate_rows(units: &[(SweepUnit, UnitResult)]) -> Vec<ExperimentRow> {
    type CellKey = (String, String, String, String, String);
    let mut rows: Vec<ExperimentRow> = Vec::new();
    let mut cell_of_row: Vec<CellKey> = Vec::new();
    let mut samples: Vec<Vec<u64>> = Vec::new();
    let mut failures: Vec<usize> = Vec::new();
    let mut recovery_samples: Vec<Vec<u64>> = Vec::new();
    let mut recovery_failures: Vec<usize> = Vec::new();
    let mut has_recovery: Vec<bool> = Vec::new();
    for (unit, result) in units {
        let key = (
            unit.task_id.clone(),
            unit.algorithm.label().to_string(),
            unit.topology_label(),
            unit.scheduler.label(),
            unit.engine.label(),
        );
        let idx = match cell_of_row.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                // The size is closed-form; the graph is built only when the
                // spec leaves the bound implicit and its exact diameter is
                // needed.
                let d = unit
                    .diameter_bound
                    .unwrap_or_else(|| unit.topology.build(unit.graph_seed).diameter());
                cell_of_row.push(key);
                samples.push(Vec::new());
                failures.push(0);
                recovery_samples.push(Vec::new());
                recovery_failures.push(0);
                has_recovery.push(false);
                rows.push(ExperimentRow {
                    experiment: unit.task_id.clone(),
                    topology: unit.topology_label(),
                    n: unit.topology.node_count(),
                    diameter_bound: d,
                    scheduler: unit.scheduler.label(),
                    metric: format!(
                        "{}:rounds-to-good@{}",
                        unit.algorithm.label(),
                        unit.engine.label()
                    ),
                    summary: Summary::of(&[0.0]), // replaced below
                    failures: 0,
                });
                rows.len() - 1
            }
        };
        match result.stabilization_rounds {
            Some(r) => samples[idx].push(r),
            None => failures[idx] += 1,
        }
        if !result.violations.is_empty() {
            failures[idx] += 1;
        }
        if unit.recovery.is_some() {
            has_recovery[idx] = true;
            recovery_samples[idx].extend(&result.recovery_rounds);
            recovery_failures[idx] += result.unrecovered as usize;
        }
    }
    for (idx, row) in rows.iter_mut().enumerate() {
        let cell_samples = if samples[idx].is_empty() {
            vec![0]
        } else {
            samples[idx].clone()
        };
        row.summary = Summary::of_u64(&cell_samples);
        row.failures = failures[idx];
    }
    // Recovery rows come after the stabilization rows, in cell order, so the
    // document stays deterministic.
    for idx in 0..cell_of_row.len() {
        if !has_recovery[idx] {
            continue;
        }
        let cell_samples = if recovery_samples[idx].is_empty() {
            vec![0]
        } else {
            recovery_samples[idx].clone()
        };
        let template = rows[idx].clone();
        let (_, algorithm, _, _, engine) = &cell_of_row[idx];
        rows.push(ExperimentRow {
            metric: format!("{algorithm}:recovery-rounds@{engine}"),
            summary: Summary::of_u64(&cell_samples),
            failures: recovery_failures[idx],
            ..template
        });
    }
    rows
}

/// Renders the machine-readable `EXPERIMENTS.json` document: spec echo,
/// aggregate rows and per-unit results. Fully deterministic (no timestamps,
/// no environment echo) so an interrupted-and-resumed sweep produces a
/// byte-identical document.
pub fn render_json(
    spec: &SweepSpec,
    rows: &[ExperimentRow],
    units: &[(SweepUnit, UnitResult)],
) -> JsonValue {
    JsonValue::object([
        ("name".to_string(), JsonValue::String(spec.name.clone())),
        ("graph_seed".to_string(), u64_to_json(spec.graph_seed)),
        ("rows".to_string(), sa_model::metrics::rows_to_json(rows)),
        (
            "units".to_string(),
            JsonValue::Array(
                units
                    .iter()
                    .map(|(unit, result)| {
                        let mut fields = vec![
                            ("id".to_string(), JsonValue::String(unit.id())),
                            ("result".to_string(), result.to_json()),
                        ];
                        // Wall-clock timings are opt-in: they are
                        // nondeterministic, and the kill/resume CI legs
                        // byte-diff this document.
                        if spec.timings {
                            fields.push(("timings".to_string(), result.timings.to_json()));
                        }
                        JsonValue::object(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders the human-readable `EXPERIMENTS.md` document.
pub fn render_markdown(
    spec: &SweepSpec,
    rows: &[ExperimentRow],
    artifacts: &[(String, String)],
    units: &[(SweepUnit, UnitResult)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Experiments — {}\n\n", spec.name));
    let clean = units.iter().filter(|(_, r)| r.is_clean()).count();
    if !units.is_empty() {
        out.push_str(&format!(
            "{} sweep units ({} clean, {} failed or violated).\n\n",
            units.len(),
            clean,
            units.len() - clean
        ));
    }
    if !rows.is_empty() {
        out.push_str("```text\n");
        out.push_str(&sa_model::metrics::render_table(rows));
        out.push_str("```\n");
    }
    for (name, body) in artifacts {
        out.push_str(&format!("\n## {name}\n\n```text\n{body}\n```\n"));
    }
    if spec.timings && !units.is_empty() {
        out.push_str("\n## Per-unit timings\n\n");
        out.push_str(
            "Wall-clock split between the step pipeline and legitimacy/safety \
             checking (opt-in via `\"timings\": true`; nondeterministic, zero \
             for units restored from a previous invocation).\n\n```text\n",
        );
        out.push_str(&format!(
            "{:<60} {:>12} {:>12} {:>14}\n",
            "unit", "step-ms", "oracle-ms", "oracle-rounds"
        ));
        for (unit, result) in units {
            out.push_str(&format!(
                "{:<60} {:>12.1} {:>12.1} {:>14}\n",
                unit.id(),
                result.timings.step_ns as f64 / 1e6,
                result.timings.oracle_ns as f64 / 1e6,
                result.timings.oracle_rounds
            ));
        }
        out.push_str("```\n");
    }
    out
}

/// Runs a spec's instant (artifact) tasks, returning report rows and named
/// artifacts.
pub fn run_instant_tasks(spec: &SweepSpec) -> (Vec<ExperimentRow>, Vec<(String, String)>) {
    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for task in &spec.tasks {
        match task {
            SweepTask::TransitionTable { id, diameter_bound } => {
                rows.extend(transition_table_rows(id, *diameter_bound));
                let (table, dot, _) = transition_table_artifacts(*diameter_bound);
                artifacts.push((format!("{id}: Table 1 (D = {diameter_bound})"), table));
                artifacts.push((format!("{id}: Figure 1 DOT (D = {diameter_bound})"), dot));
            }
            SweepTask::StateSpace {
                id,
                diameter_bounds,
                include_derived,
            } => {
                rows.extend(state_space_rows(id, diameter_bounds, *include_derived));
            }
            SweepTask::Stabilization(_) | SweepTask::Scenario(_) | SweepTask::Verify(_) => {}
        }
    }
    (rows, artifacts)
}

/// Convenience: runs an entire spec in-process without persistence —
/// expands, executes every unit serially and returns the aggregate report
/// pieces. The CLI adds parallel fan-out, checkpoint persistence and file
/// output on top.
pub fn run_spec_in_process(spec: &SweepSpec) -> Result<ExperimentReport, SpecError> {
    let units = spec.execution_units();
    let mut done = Vec::with_capacity(units.len());
    for unit in units {
        match run_unit(&unit, &CheckpointPolicy::default())? {
            UnitOutcome::Complete(result) => done.push((unit, result)),
            UnitOutcome::Interrupted(_) => unreachable!("no interrupt policy"),
        }
    }
    let (mut rows, artifacts) = run_instant_tasks(spec);
    rows.extend(aggregate_rows(&done));
    let mut report = ExperimentReport::new(
        &spec.name,
        "declarative sweep",
        "spec-driven sweep (see examples/specs/)",
    );
    let clean = done.iter().filter(|(_, r)| r.is_clean()).count();
    report.verdict = format!("{clean}/{} units clean", done.len());
    report.rows = rows;
    report.artifacts = artifacts;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"{
      "name": "test-sweep",
      "graph_seed": 17,
      "tasks": [
        {"id": "T1", "kind": "transition-table", "diameter_bound": 2},
        {"id": "S1", "kind": "state-space", "diameter_bounds": [1, 2, 3]},
        {
          "id": "R1",
          "kind": "stabilization",
          "topologies": [{"kind": "cycle", "n": 6}, {"kind": "hypercube", "dim": 2}],
          "schedulers": ["synchronous", "round-robin"],
          "engines": ["serial"],
          "fault": {"kind": "burst", "at_round": 2, "count": 1},
          "seeds": 2,
          "max_rounds": 5000
        }
      ]
    }"#;

    #[test]
    fn spec_parses_and_expands_deterministically() {
        let spec = SweepSpec::parse(SMOKE).expect("spec parses");
        assert_eq!(spec.name, "test-sweep");
        assert_eq!(spec.tasks.len(), 3);
        let units = spec.execution_units();
        // 1 algorithm × 2 topologies × 2 schedulers × 2 seeds
        assert_eq!(units.len(), 8);
        let ids: Vec<String> = units.iter().map(SweepUnit::id).collect();
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "unit ids must be unique");
        assert!(ids[0].starts_with("R1--algau--cycle-6--synchronous--serial--s0"));
    }

    #[test]
    fn algorithm_axis_parses_and_expands() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "axis",
              "tasks": [{
                "id": "A1",
                "kind": "stabilization",
                "algorithms": ["algau", "min-plus-one", "le", "mis"],
                "topologies": [{"kind": "cycle", "n": 5}],
                "schedulers": ["synchronous"],
                "init": "benign",
                "seeds": 2
              }]
            }"#,
        )
        .expect("spec parses");
        let units = spec.execution_units();
        assert_eq!(units.len(), 8, "4 algorithms × 2 seeds");
        let labels: Vec<&str> = units.iter().map(|u| u.algorithm.label()).collect();
        assert_eq!(
            labels,
            [
                "algau",
                "algau",
                "min-plus-one",
                "min-plus-one",
                "le",
                "le",
                "mis",
                "mis"
            ]
        );
        assert!(units.iter().all(|u| u.init == InitSpec::Benign));
        assert!(units[2].id().starts_with("A1--min-plus-one--cycle-5"));
        let err = SweepSpec::parse(
            r#"{"name": "x", "tasks": [{"id": "a", "kind": "stabilization",
               "algorithms": ["warp"], "topologies": [{"kind": "path", "n": 2}],
               "schedulers": ["synchronous"]}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
    }

    #[test]
    fn scenario_task_parses_and_expands() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "scenarios",
              "tasks": [
                {"id": "B1", "kind": "scenario",
                 "scenario": {"kind": "colony", "cells": 8},
                 "harshness": "severe", "bursts": 2,
                 "schedulers": [{"kind": "uniform-random", "p": 0.5}],
                 "engines": ["serial"], "seeds": 2},
                {"id": "B2", "kind": "scenario",
                 "scenario": {"kind": "tissue", "rows": 3, "cols": 3},
                 "schedulers": ["synchronous"]},
                {"id": "B3", "kind": "scenario",
                 "scenario": {"kind": "pulse", "segments": 3, "cells_per_segment": 3},
                 "harshness": "mild",
                 "schedulers": ["round-robin"]}
              ]
            }"#,
        )
        .expect("spec parses");
        let units = spec.execution_units();
        assert_eq!(units.len(), 4);
        let colony = &units[0];
        assert_eq!(colony.algorithm, AlgorithmSpec::AsyncLe);
        assert_eq!(
            colony.recovery,
            Some(RecoveryPlan {
                bursts: 2,
                // severe: ⌈8 · 0.6⌉ = 5
                burst_size: 5,
            })
        );
        assert_eq!(colony.init, InitSpec::Benign);
        assert_eq!(colony.diameter_bound, Some(2));
        assert!(colony
            .id()
            .starts_with("B1--le--colony-8-severe--uniform-random-0.5"));
        let tissue = &units[2];
        assert_eq!(tissue.algorithm, AlgorithmSpec::AsyncMis);
        assert_eq!(tissue.topology, Topology::Grid { rows: 3, cols: 3 });
        assert_eq!(tissue.scenario.as_deref(), Some("tissue-3x3-moderate"));
        let pulse = &units[3];
        assert_eq!(pulse.algorithm, AlgorithmSpec::AlgAu);
        assert_eq!(
            pulse.topology,
            Topology::Caveman {
                clusters: 3,
                clique: 3
            }
        );
        // mild: ⌈9 · 0.1⌉ = 1
        assert_eq!(pulse.recovery.unwrap().burst_size, 1);
        let err = SweepSpec::parse(
            r#"{"name": "x", "tasks": [{"id": "a", "kind": "scenario",
               "scenario": {"kind": "warp"}, "schedulers": ["synchronous"]}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown scenario kind"), "{err}");
    }

    #[test]
    fn spec_errors_name_the_offending_field() {
        let err = SweepSpec::parse("{\"name\": \"x\", \"tasks\": []}").unwrap_err();
        assert!(err.contains("tasks"), "{err}");
        let err =
            SweepSpec::parse("{\"name\": \"x\", \"tasks\": [{\"id\": \"a\", \"kind\": \"nope\"}]}")
                .unwrap_err();
        assert!(err.contains("unknown task kind"), "{err}");
        let err = SweepSpec::parse(
            "{\"name\": \"x\", \"tasks\": [{\"id\": \"a\", \"kind\": \"stabilization\", \
             \"topologies\": [{\"kind\": \"warp\"}], \"schedulers\": [\"synchronous\"]}]}",
        )
        .unwrap_err();
        assert!(err.contains("unknown topology kind"), "{err}");
    }

    #[test]
    fn units_run_clean_and_aggregate() {
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let units = spec.execution_units();
        let mut done = Vec::new();
        for unit in units {
            match run_unit(&unit, &CheckpointPolicy::default()).unwrap() {
                UnitOutcome::Complete(result) => {
                    assert!(result.is_clean(), "unit {} failed: {result:?}", unit.id());
                    assert!(result.faults_injected > 0, "burst plan must fire");
                    done.push((unit, result));
                }
                UnitOutcome::Interrupted(_) => panic!("no interruption requested"),
            }
        }
        let rows = aggregate_rows(&done);
        assert_eq!(rows.len(), 4, "one row per cell");
        assert!(rows.iter().all(|r| r.failures == 0));
        assert!(rows
            .iter()
            .all(|r| r.metric == "algau:rounds-to-good@serial"));
        // The closed-form size matches the built graphs (cycle-6, hypercube-2).
        let sizes: Vec<usize> = rows.iter().map(|r| r.n).collect();
        assert_eq!(sizes, [6, 6, 4, 4]);
    }

    #[test]
    fn min_plus_one_units_run_clean() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "baseline",
              "tasks": [{
                "id": "E9",
                "kind": "stabilization",
                "algorithms": ["min-plus-one"],
                "topologies": [{"kind": "cycle", "n": 6}],
                "schedulers": ["synchronous", {"kind": "uniform-random", "p": 0.5}],
                "seeds": 2,
                "max_rounds": 2000
              }]
            }"#,
        )
        .unwrap();
        let mut done = Vec::new();
        for unit in spec.execution_units() {
            match run_unit(&unit, &CheckpointPolicy::default()).unwrap() {
                UnitOutcome::Complete(result) => {
                    assert!(result.is_clean(), "unit {} failed: {result:?}", unit.id());
                    done.push((unit, result));
                }
                UnitOutcome::Interrupted(_) => panic!("no interruption requested"),
            }
        }
        let rows = aggregate_rows(&done);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.metric == "min-plus-one:rounds-to-good@serial"));
    }

    #[test]
    fn scenario_units_recover_and_aggregate() {
        let spec = SweepSpec::parse(
            r#"{
              "name": "bio",
              "tasks": [{
                "id": "B1", "kind": "scenario",
                "scenario": {"kind": "pulse", "segments": 3, "cells_per_segment": 3},
                "harshness": "moderate", "bursts": 2,
                "schedulers": [{"kind": "uniform-random", "p": 0.5}],
                "seeds": 2,
                "max_rounds": 50000
              }]
            }"#,
        )
        .unwrap();
        let mut done = Vec::new();
        for unit in spec.execution_units() {
            match run_unit(&unit, &CheckpointPolicy::default()).unwrap() {
                UnitOutcome::Complete(result) => {
                    assert!(result.is_clean(), "unit {} failed: {result:?}", unit.id());
                    assert_eq!(result.recovery_rounds.len(), 2, "both bursts recovered");
                    assert!(result.faults_injected > 0, "bursts count as faults");
                    done.push((unit, result));
                }
                UnitOutcome::Interrupted(_) => panic!("no interruption requested"),
            }
        }
        let rows = aggregate_rows(&done);
        assert_eq!(rows.len(), 2, "a rounds row and a recovery row per cell");
        let recovery: Vec<_> = rows
            .iter()
            .filter(|r| r.metric.contains("recovery-rounds"))
            .collect();
        assert_eq!(recovery.len(), 1);
        assert!(recovery
            .iter()
            .all(|r| r.topology == "pulse-3x3-moderate" && r.failures == 0));
    }

    #[test]
    fn engine_field_accepts_only_serial() {
        let with_engines = |engines: &str| {
            format!(
                r#"{{"name": "e", "tasks": [{{"id": "R", "kind": "stabilization",
                    "topologies": [{{"kind": "cycle", "n": 5}}],
                    "schedulers": ["synchronous"], {engines} "seeds": 2}}]}}"#
            )
        };
        let ids = |text: &str| -> Vec<String> {
            SweepSpec::parse(text)
                .expect("spec parses")
                .execution_units()
                .iter()
                .map(SweepUnit::id)
                .collect()
        };
        let implicit = ids(&with_engines(""));
        assert_eq!(implicit, ids(&with_engines(r#""engines": ["serial"],"#)));
        assert_eq!(
            implicit,
            ids(&with_engines(r#""engines": [{"kind": "serial"}],"#))
        );
        assert!(implicit.iter().all(|id| id.contains("--serial--")));
        for removed in [r#""sharded""#, r#"{"kind": "sharded", "threads": 2}"#] {
            let err = SweepSpec::parse(&with_engines(&format!(r#""engines": [{removed}],"#)))
                .unwrap_err();
            assert!(err.contains("the sharded engine was removed"), "{err}");
        }
    }

    #[test]
    fn interrupt_and_resume_is_bit_identical() {
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let unit = &spec.execution_units()[3];
        let reference = match run_unit(unit, &CheckpointPolicy::default()).unwrap() {
            UnitOutcome::Complete(r) => r,
            _ => unreachable!(),
        };
        // Interrupt after 7 steps, then resume from the checkpoint; repeat
        // the kill several times to cross phase boundaries.
        let mut checkpoint: Option<JsonValue> = None;
        let mut resumed = None;
        for _ in 0..200 {
            let policy = CheckpointPolicy {
                every_steps: 0,
                sink: None,
                resume_from: checkpoint.as_ref(),
                interrupt_after_steps: Some(7),
                cancel: None,
            };
            match run_unit(unit, &policy).unwrap() {
                UnitOutcome::Complete(r) => {
                    resumed = Some(r);
                    break;
                }
                UnitOutcome::Interrupted(doc) => {
                    // serialize → parse to prove the on-disk form works
                    let text = doc.render_pretty();
                    checkpoint = Some(JsonValue::parse(&text).unwrap());
                }
            }
        }
        let resumed = resumed.expect("unit finished within the kill budget");
        assert_eq!(resumed, reference, "resumed unit diverged");
    }

    #[test]
    fn render_json_is_deterministic() {
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let unit = spec.execution_units().remove(0);
        let result = match run_unit(&unit, &CheckpointPolicy::default()).unwrap() {
            UnitOutcome::Complete(r) => r,
            _ => unreachable!(),
        };
        let done = vec![(unit, result)];
        let rows = aggregate_rows(&done);
        let a = render_json(&spec, &rows, &done).render_pretty();
        let b = render_json(&spec, &rows, &done).render_pretty();
        assert_eq!(a, b);
        let md = render_markdown(&spec, &rows, &[], &done);
        assert!(md.contains("# Experiments — test-sweep"));
        assert!(md.contains("algau:rounds-to-good@serial"));
    }

    #[test]
    fn random_configuration_matches_execution_builder_random_initial() {
        // `random_configuration` deliberately duplicates the builder's seed
        // derivation so pre-axis AlgAU unit trajectories are preserved; this
        // pins the two implementations together.
        let alg = AlgAu::new(2);
        let palette = alg.states();
        let g = Graph::cycle(9);
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let via_builder = ExecutionBuilder::new(&alg, &g)
                .seed(seed)
                .random_initial(&palette);
            let via_helper = random_configuration(&palette, g.node_count(), seed);
            assert_eq!(via_builder.configuration(), &via_helper[..], "seed {seed}");
        }
    }

    #[test]
    fn instant_tasks_produce_rows_and_artifacts() {
        let spec = SweepSpec::parse(SMOKE).unwrap();
        let (rows, artifacts) = run_instant_tasks(&spec);
        assert!(rows.iter().any(|r| r.metric == "algau-states"));
        assert!(rows.iter().any(|r| r.metric == "aa-rules"));
        assert_eq!(artifacts.len(), 2);
        assert!(artifacts[1].1.contains("digraph"));
    }

    #[test]
    fn unit_result_json_roundtrips() {
        let result = UnitResult {
            stabilization_rounds: Some(12),
            stabilization_steps: Some(40),
            violations: vec!["round 3: bad".into()],
            verification_rounds: 16,
            faults_injected: 4,
            total_steps: 96,
            recovery_rounds: vec![3, 9],
            unrecovered: 0,
            timings: StepTimings::default(),
        };
        let text = result.to_json().render();
        let back = UnitResult::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
        let failed = UnitResult {
            stabilization_rounds: None,
            stabilization_steps: None,
            violations: vec![],
            verification_rounds: 0,
            faults_injected: 0,
            total_steps: 10,
            recovery_rounds: vec![],
            unrecovered: 2,
            timings: StepTimings::default(),
        };
        let text = failed.to_json().render();
        assert_eq!(
            UnitResult::from_json(&JsonValue::parse(&text).unwrap()).unwrap(),
            failed
        );
    }
}
