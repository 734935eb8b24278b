//! The staged step pipeline.
//!
//! A step of the SA model decomposes into four stages, mirroring the
//! two-phase (sense/act) structure of the paper's synchronous step:
//!
//! 1. **sense** ([`sense`]) — the per-node neighborhood signals, maintained
//!    incrementally as bitmask snapshots; *read-only* during a step,
//! 2. **evaluate** ([`evaluate`]) — every activated node's transition is
//!    computed from the step's start configuration and its private
//!    counter-based coin stream; a pure map with no shared mutable state,
//! 3. **apply** ([`apply`]) — the computed updates are committed to the
//!    configuration and the sensing state, *simultaneously* with respect to
//!    the signals the step observed,
//! 4. **account** ([`account`]) — metrics counters, round (ϱ-operator)
//!    bookkeeping and trace/fault event records.
//!
//! The [`Execution`](crate::executor::Execution) drives the stages on the
//! calling thread: it owns one evaluation lane (scratch signal + transition
//! memo) and commits through [`apply`] directly. Because transitions read
//! only the step snapshot and draw coins from streams keyed by
//! `(seed, node, time)`, the order in which a step's activations are
//! evaluated is observationally irrelevant.

pub mod account;
pub mod apply;
pub mod evaluate;
pub mod frontier;
pub mod sense;

pub use evaluate::PendingUpdate;
pub use sense::MAX_DENSE_STATES;

use crate::algorithm::{Algorithm, MaskedTransition};
use crate::graph::Graph;
use crate::signal::StateIndex;
use frontier::DirtyFrontier;
use sense::DenseSensing;
use std::sync::Arc;

/// The step engine a sweep unit names. Serial is the only engine.
///
/// The type survives for compatibility, not choice: sweep specs and the
/// benchmark tracer (`perfbench/tracer`) pass it to
/// [`ExecutionBuilder::engine`](crate::executor::ExecutionBuilder::engine),
/// and its label is part of every unit id (`--serial--`) and metric label
/// (`@serial`), so existing outputs stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Evaluate and commit every step on the calling thread.
    Serial,
}

impl EngineKind {
    /// A short display label (`"serial"`).
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Serial => "serial",
        }
    }
}

/// The read-only snapshot of one step handed to the evaluate stage.
pub struct EvalCtx<'e, A: Algorithm> {
    pub(crate) alg: &'e A,
    pub(crate) graph: &'e Graph,
    pub(crate) config: &'e [A::State],
    pub(crate) sensing: Option<&'e DenseSensing<A::State>>,
    /// The execution's state index, available even when `sensing` is off
    /// (sparse mode with an enumerable algorithm): the lane then rebuilds its
    /// scratch signal as a dense bitmask instead of a `BTreeSet`.
    pub(crate) index: Option<&'e Arc<StateIndex<A::State>>>,
    /// The algorithm's mask-compiled transition, if any (and not disabled
    /// via `SA_FORCE_CLOSURE_EVAL` / the builder).
    pub(crate) masked: Option<&'e (dyn MaskedTransition<A::State> + 'e)>,
    /// The active-set dirty frontier, `None` when active-set execution is
    /// off (randomized algorithm, `SA_FORCE_FULL_EVAL`, or the builder
    /// disabled it). When present, the evaluate stage skips clean activated
    /// nodes — their deterministic transition is provably the identity — and
    /// emits stub no-change updates instead.
    pub(crate) dirty: Option<&'e DirtyFrontier>,
    pub(crate) deterministic: bool,
    pub(crate) seed: u64,
    pub(crate) time: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_distinguish_engine_kinds() {
        assert_eq!(EngineKind::Serial.label(), "serial");
    }
}
