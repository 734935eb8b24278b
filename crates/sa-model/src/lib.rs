//! # sa-model — the stone age computational model
//!
//! This crate implements the *stone age* (SA) model of distributed computing used by
//! Emek & Keren (PODC 2021), which is itself a simplified version of the model
//! introduced by Emek & Wattenhofer (PODC 2013).
//!
//! The model captures **anonymous, size-uniform** distributed algorithms executed by
//! **bounded-memory** nodes on a finite, connected, undirected graph. Nodes do not
//! exchange messages; instead, every node can *sense* which states appear in its
//! inclusive neighborhood (a binary signal per state — no counting, no sender
//! identification). The execution is driven by an adversarial **asynchronous
//! schedule**: at every discrete step the adversary activates an arbitrary non-empty
//! subset of nodes, subject only to the fairness requirement that every node is
//! activated infinitely often.
//!
//! The crate provides:
//!
//! * [`graph`] — graph representation plus bounded-diameter topology generators,
//! * [`algorithm`] — the [`Algorithm`] trait (state machine +
//!   output map) and the [`Signal`] type,
//! * [`scheduler`] — fair daemons: synchronous, uniformly random, central, round
//!   robin, adversarial laggard, and scripted schedules,
//! * [`executor`] — the execution driver with exact *round* (ϱ-operator) accounting,
//! * [`engine`] — the staged step pipeline (sense → evaluate → apply →
//!   account) the executor drives on the calling thread,
//! * [`explore`] — exhaustive exploration of the global configuration space
//!   for tiny instances, certifying closure and convergence with
//!   counterexample traces (the `sa verify` backend),
//! * [`fault`] — transient fault injection (state corruption),
//! * [`checker`] — task checkers and stabilization measurement,
//! * [`oracle`] — incremental (frontier-driven) legitimacy tracking for
//!   O(1)-per-round stabilization detection,
//! * [`trace`] — execution traces for debugging and visualisation,
//! * [`metrics`] — summary statistics helpers used by the experiment harness.
//!
//! ## Example
//!
//! ```
//! use sa_model::prelude::*;
//!
//! /// A toy 2-state algorithm: switch to `1` iff some neighbor is in state `1`.
//! struct Spread;
//! impl Algorithm for Spread {
//!     type State = u8;
//!     type Output = u8;
//!     fn output(&self, s: &u8) -> Option<u8> { Some(*s) }
//!     fn transition(&self, s: &u8, signal: &Signal<u8>, _rng: &mut dyn rand::RngCore) -> u8 {
//!         if *s == 1 || signal.senses(&1) { 1 } else { 0 }
//!     }
//! }
//!
//! let graph = Graph::path(5);
//! let mut init = vec![0u8; 5];
//! init[0] = 1;
//! let mut exec = Execution::new(&Spread, &graph, init, 42);
//! let mut sched = SynchronousScheduler;
//! while exec.rounds() < 10 {
//!     exec.step_with(&mut sched);
//! }
//! assert!(exec.configuration().iter().all(|s| *s == 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod binary;
pub mod checker;
pub mod engine;
pub mod executor;
pub mod explore;
pub mod fault;
pub mod graph;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod scheduler;
pub mod signal;
pub mod snapshot;
pub mod topology;
pub mod trace;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::algorithm::{
        Algorithm, LegitimacyOracle, MaskedOutcome, MaskedTransition, StateSpace,
    };
    pub use crate::checker::{StabilizationReport, TaskChecker};
    pub use crate::engine::EngineKind;
    pub use crate::executor::{Execution, ExecutionBuilder, SignalMode, StepOutcome};
    pub use crate::fault::{FaultInjector, FaultPlan};
    pub use crate::graph::{Graph, NodeId};
    pub use crate::oracle::{LegitimacyTracker, LocalPredicate};
    pub use crate::scheduler::{
        ActivationSet, AdversarialLaggardScheduler, CentralScheduler, RoundRobinScheduler,
        Scheduler, ScriptedScheduler, SynchronousScheduler, UniformRandomScheduler,
    };
    pub use crate::signal::{DenseSignal, Signal, SignalMask, StateIndex};
    pub use crate::snapshot::ExecutionSnapshot;
    pub use crate::topology::Topology;
}

pub use algorithm::{Algorithm, LegitimacyOracle, MaskedOutcome, MaskedTransition, StateSpace};
pub use engine::EngineKind;
pub use executor::{Execution, ExecutionBuilder, SignalMode};
pub use graph::{Graph, NodeId};
pub use scheduler::{ActivationSet, Scheduler};
pub use signal::{DenseSignal, Signal, SignalMask, StateIndex};
