//! The algorithm abstraction: randomized finite state machines driven by signals.
//!
//! A distributed task `T` over output values `O` is solved by an algorithm
//! `Π = ⟨Q, Q_O, ω, δ⟩` where `Q` is the state set, `Q_O ⊆ Q` the output states,
//! `ω : Q_O → O` the output map and `δ : Q × {0,1}^Q → 2^Q` the (randomized) state
//! transition function. The next state of an activated node is drawn uniformly from
//! `δ(q, S_v)`; deterministic algorithms simply return singletons.
//!
//! In this crate the transition function is expressed as a method that receives the
//! current state, the node's [`Signal`] and a random number generator, and returns
//! the next state. The RNG stands in for the uniform choice from `δ(q, S_v)`; a
//! deterministic algorithm ignores it.

use crate::signal::{Signal, StateIndex};
use rand::RngCore;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// The result of a mask-compiled transition (see [`MaskedTransition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskedOutcome<S> {
    /// The next state, as its position in the [`StateIndex`] the transition
    /// was compiled against.
    Indexed(u32),
    /// The transition left the indexed state space; the executor falls back
    /// to the sparse signal representation, exactly as on the closure path.
    Escaped(S),
}

/// A transition function compiled to word-level mask operations against a
/// [`StateIndex`] — the engine-facing product of
/// [`Algorithm::compile_masked`].
///
/// The contract is **bit-for-bit equivalence with the closure path**: for
/// every `(state, signal, rng)` the outcome must equal what
/// [`Algorithm::transition`] would return on a [`Signal`] sensing exactly the
/// states whose bits are set in `signal_words`, consuming the RNG stream
/// identically (deterministic algorithms consume nothing on either path).
/// The equivalence property tests in `tests/engine_equivalence.rs` and the
/// `SA_FORCE_CLOSURE_EVAL=1` CI leg pin this.
pub trait MaskedTransition<S> {
    /// Computes the transition of a node whose state has index `state_idx`
    /// and whose signal is the dense bitmask `signal_words` (over the
    /// compiled index). `rng` is the node's private counter-based coin
    /// stream for this step.
    fn next_index(
        &self,
        state_idx: u32,
        signal_words: &[u64],
        rng: &mut dyn RngCore,
    ) -> MaskedOutcome<S>;
}

/// A stone-age algorithm: an anonymous randomized finite state machine.
///
/// Implementations must be **anonymous and size-uniform**: the transition may depend
/// only on the node's own state and its signal, never on node identity, the number of
/// nodes or neighbor multiplicities (the [`Signal`] type makes the latter impossible
/// to observe).
pub trait Algorithm {
    /// The state set `Q`. States are compared, hashed and ordered so that signals and
    /// configuration snapshots can be built efficiently.
    type State: Clone + Eq + Ord + Hash + Debug;

    /// The output value set `O` of the task the algorithm solves.
    type Output: Clone + Eq + Debug;

    /// The output map `ω`: returns `Some(o)` when the state is an output state and
    /// `None` otherwise.
    fn output(&self, state: &Self::State) -> Option<Self::Output>;

    /// The transition function `δ` applied at an activation.
    ///
    /// `signal` always contains the node's own state (the neighborhood is inclusive).
    /// Deterministic algorithms ignore `rng`.
    ///
    /// The executor hands each activation a **counter-based random stream
    /// keyed by `(execution seed, node, step)`**
    /// ([`rand::rngs::CounterRng`]): the coins a node tosses at step `t`
    /// depend only on that triple, never on how many coins other nodes
    /// tossed before it. Seeded trajectories are therefore independent of
    /// the order in which an activation set is evaluated — scripted
    /// schedules may list nodes in any order.
    fn transition(
        &self,
        state: &Self::State,
        signal: &Signal<Self::State>,
        rng: &mut dyn RngCore,
    ) -> Self::State;

    /// Enumerates the state space `Q` for dense-signal indexing, or `None` when
    /// the space is unbounded (or too large to be worth enumerating).
    ///
    /// The SA model assumes *bounded-memory* nodes, so every algorithm of the
    /// paper has a finite `Q`; returning it here lets the executor precompute a
    /// [`StateIndex`] and run the step loop on dense
    /// bitmask signals with incrementally maintained neighborhood masks —
    /// allocation-free and `O(changed · deg)` per step instead of rebuilding
    /// every activated node's signal from scratch. Algorithms that also
    /// implement [`StateSpace`] typically forward this to
    /// [`StateSpace::states`].
    ///
    /// The default (`None`) keeps the sparse `BTreeSet` signal path, which is
    /// always correct. The executor falls back to sparse automatically if a
    /// state outside the returned enumeration ever appears (e.g. through fault
    /// injection with an exotic palette), so this hint can never change
    /// observable behaviour — only performance.
    fn dense_state_space(&self) -> Option<Vec<Self::State>> {
        None
    }

    /// Compiles this algorithm's sensing predicates into word-level masks
    /// against `index`, or `None` to keep the closure path (the default).
    ///
    /// When an algorithm's transition function only asks *set predicates* of
    /// its signal — subset tests ("are all sensed states adjacent to
    /// mine?"), intersection tests ("do I sense a faulty turn?"),
    /// minima/maxima — those predicates can be pre-compiled into
    /// [`SignalMask`](crate::signal::SignalMask)s over the execution's
    /// [`StateIndex`] and evaluated as whole-word AND/OR/popcount loops on
    /// the incrementally maintained neighborhood bitmasks, with no scratch
    /// signal copy and no per-state branching. The evaluate stage dispatches
    /// to the returned [`MaskedTransition`] whenever the dense signal path
    /// is live, falling back to [`Algorithm::transition`] otherwise; the two
    /// paths must agree bit for bit (see [`MaskedTransition`]).
    ///
    /// `index` is always the index built from
    /// [`Algorithm::dense_state_space`], sorted and deduplicated.
    /// Implementations should return `None` if the index does not look like
    /// their own state space (defensive — never guess).
    ///
    /// The environment variable `SA_FORCE_CLOSURE_EVAL=1` (and
    /// [`ExecutionBuilder::masked_transitions(false)`](crate::executor::ExecutionBuilder::masked_transitions))
    /// disables the mask path process-wide / per execution, which CI uses to
    /// keep the closure fallback tested.
    fn compile_masked<'s>(
        &'s self,
        _index: &Arc<StateIndex<Self::State>>,
    ) -> Option<Box<dyn MaskedTransition<Self::State> + 's>> {
        None
    }

    /// Whether [`Algorithm::transition`] is a pure function of `(state, signal)`
    /// that never reads the RNG.
    ///
    /// Deterministic algorithms (`|δ(q, S)| = 1` everywhere, like AlgAU) may
    /// return `true`; the executor then memoizes transitions per
    /// `(state, signal)` pair on the dense-signal path, which collapses the
    /// per-step work of synchronized regions (where many nodes share the same
    /// state and signal) to a single transition evaluation. Returning `true`
    /// for an algorithm that *does* consult the RNG changes its behaviour —
    /// the default is therefore `false`.
    fn transition_is_deterministic(&self) -> bool {
        false
    }

    /// Human-readable algorithm name, used in traces and experiment reports.
    fn name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }
}

/// Algorithms with an enumerable state space.
///
/// The paper's headline claim about AlgAU is that `|Q| = O(D)`; implementing this
/// trait lets the experiment harness *count* states (experiment E2) and lets tests
/// exhaustively check transition tables (experiment E1).
pub trait StateSpace: Algorithm {
    /// Enumerates every state in `Q`, without duplicates.
    fn states(&self) -> Vec<Self::State>;

    /// The size of the state space `|Q|`.
    fn state_count(&self) -> usize {
        self.states().len()
    }

    /// Enumerates the output states `Q_O`.
    fn output_states(&self) -> Vec<Self::State> {
        self.states()
            .into_iter()
            .filter(|s| self.output(s).is_some())
            .collect()
    }
}

/// A white-box predicate identifying *legitimate* configurations.
///
/// Self-stabilization proofs argue that (1) from any configuration the system reaches
/// a legitimate configuration (convergence) and (2) legitimate configurations are
/// preserved and satisfy the task (closure). Implementations expose the legitimacy
/// predicate used in the paper's analysis — e.g. "the graph is *good*" for AlgAU
/// (Lemma 2.10/2.18) — so the executor can *measure* stabilization time instead of
/// guessing it from outputs.
pub trait LegitimacyOracle<A: Algorithm> {
    /// Returns `true` if the configuration is legitimate on `graph`.
    fn is_legitimate(&self, graph: &crate::graph::Graph, config: &[A::State]) -> bool;

    /// The per-node decomposition of this predicate, when it has one (see
    /// [`crate::oracle::LocalPredicate`]). Oracles that return `Some` get
    /// incrementally tracked round checks in
    /// [`run_until_legitimate`](crate::executor::Execution::run_until_legitimate)
    /// — O(changed·deg) per step instead of O(n·deg) per round. The
    /// decomposition must be *exactly* equivalent to [`is_legitimate`]:
    /// `is_legitimate(g, c) ⟺ ∀v. node_ok(v) ∧ weight clause` (the
    /// equivalence is pinned in CI via `SA_FORCE_FULL_ORACLE=1` legs).
    /// Closure oracles and other non-decomposing predicates keep the
    /// default `None` and run the full scan every round.
    ///
    /// [`is_legitimate`]: LegitimacyOracle::is_legitimate
    fn as_local(&self) -> Option<&dyn crate::oracle::LocalPredicate<A::State>> {
        None
    }
}

impl<A: Algorithm, F> LegitimacyOracle<A> for F
where
    F: Fn(&crate::graph::Graph, &[A::State]) -> bool,
{
    fn is_legitimate(&self, graph: &crate::graph::Graph, config: &[A::State]) -> bool {
        self(graph, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// A deterministic 3-state cyclic counter that advances when it senses its own
    /// successor is absent. Used only to exercise the trait plumbing.
    struct Mod3;
    impl Algorithm for Mod3 {
        type State = u8;
        type Output = u8;
        fn output(&self, s: &u8) -> Option<u8> {
            (*s < 3).then_some(*s)
        }
        fn transition(&self, s: &u8, signal: &Signal<u8>, _rng: &mut dyn RngCore) -> u8 {
            let next = (s + 1) % 3;
            if signal.senses(&next) {
                *s
            } else {
                next
            }
        }
        fn name(&self) -> &'static str {
            "mod3"
        }
    }
    impl StateSpace for Mod3 {
        fn states(&self) -> Vec<u8> {
            vec![0, 1, 2, 3]
        }
    }

    #[test]
    fn output_states_filtering() {
        let alg = Mod3;
        assert_eq!(alg.state_count(), 4);
        assert_eq!(alg.output_states(), vec![0, 1, 2]);
        assert_eq!(alg.output(&3), None);
        assert_eq!(alg.output(&1), Some(1));
    }

    #[test]
    fn transition_uses_signal() {
        let alg = Mod3;
        let mut rng = rand::thread_rng();
        let sig = Signal::from_states(vec![0u8, 1]);
        // successor of 0 is 1, which is sensed -> stay
        assert_eq!(alg.transition(&0, &sig, &mut rng), 0);
        // successor of 1 is 2, not sensed -> advance
        assert_eq!(alg.transition(&1, &sig, &mut rng), 2);
    }

    #[test]
    fn closure_oracle_from_fn() {
        let oracle = |_: &Graph, cfg: &[u8]| cfg.iter().all(|s| *s < 3);
        let g = Graph::complete(3);
        assert!(LegitimacyOracle::<Mod3>::is_legitimate(
            &oracle,
            &g,
            &[0, 1, 2]
        ));
        assert!(!LegitimacyOracle::<Mod3>::is_legitimate(
            &oracle,
            &g,
            &[0, 3, 2]
        ));
    }

    #[test]
    fn default_name_is_type_name() {
        struct Anon;
        impl Algorithm for Anon {
            type State = u8;
            type Output = u8;
            fn output(&self, s: &u8) -> Option<u8> {
                Some(*s)
            }
            fn transition(&self, s: &u8, _: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
                *s
            }
        }
        assert!(Algorithm::name(&Anon).contains("Anon"));
        assert_eq!(Algorithm::name(&Mod3), "mod3");
    }
}
