//! The **evaluate** stage: computing transitions from the step's snapshot.
//!
//! Evaluation is a *pure read* of the step's start configuration `C_t`: every
//! activated node's next state is a function of `(C_t(v), S_v, coins(v, t))`
//! only, where the coins come from a counter-based stream keyed by
//! `(execution seed, node, step)` ([`rand::rngs::CounterRng`]), so the
//! order in which a step's activations are evaluated cannot change the
//! [`PendingUpdate`]s.
//!
//! On the dense path each transition dispatches through up to three tiers,
//! all observationally equivalent:
//!
//! 1. **mask-compiled** — when the algorithm compiled its sensing predicates
//!    into word-level masks
//!    ([`Algorithm::compile_masked`]),
//!    the transition is evaluated directly on the node's neighborhood mask
//!    words: whole-word subset/intersection tests, no scratch copy, no
//!    per-state iteration;
//! 2. **memoized** — deterministic algorithms without masks consult a small
//!    `(state, signal) → next` memo ring (synchronized regions collapse to
//!    one evaluation);
//! 3. **closure** — the general path: the neighborhood mask is copied into a
//!    reused scratch [`Signal`] and handed to
//!    [`Algorithm::transition`].
//!
//! The *sparse* path (no incremental sensing) rebuilds each activated node's
//! signal from the configuration. When the execution still has a
//! [`StateIndex`](crate::signal::StateIndex) (e.g. `SignalMode::Sparse` benchmarking an algorithm with
//! an enumerable space), the rebuild targets a reused **dense** scratch
//! signal — binary-search inserts into a bitmask instead of `BTreeSet` node
//! allocations — and the mask-compiled transition applies on top; this is
//! what shrinks the historical 14× dense/sparse gap. Exotic states (outside
//! the index) degrade the lane's scratch to the sparse representation, which
//! then stays until the lane's caches are flushed.

use super::sense::{DenseSensing, UNINDEXED};
use super::EvalCtx;
use crate::algorithm::{Algorithm, MaskedOutcome};
use crate::graph::NodeId;
use crate::signal::Signal;
use rand::rngs::CounterRng;
use std::sync::Arc;

/// Number of `(state, signal) → next state` memo slots kept for deterministic
/// algorithms. Synchronized regions need one or two; the table is a small
/// linear-probe ring so misses stay cheap.
const MEMO_CAPACITY: usize = 8;

/// One memoized transition of a deterministic algorithm.
struct MemoEntry<S> {
    state_idx: u32,
    mask: Vec<u64>,
    next: S,
    next_idx: u32,
    output_changed: bool,
}

/// A transition computed by the evaluate stage, committed by the apply stage.
///
/// After `apply::commit` runs, `next` holds the
/// node's *previous* state (the two are swapped), which the account stage
/// uses for trace records.
pub struct PendingUpdate<S> {
    /// The activated node.
    pub v: NodeId,
    /// The node's next state (previous state after the apply stage).
    pub next: S,
    /// Dense index of the node's state before the step ([`UNINDEXED`] on the
    /// sparse path).
    pub(crate) old_idx: u32,
    /// Dense index of `next`, [`UNINDEXED`] on the sparse path or when `next`
    /// left the enumerated space (which forces a fallback to sparse).
    pub(crate) new_idx: u32,
    /// Whether the transition changes the node's state.
    pub changed: bool,
    /// Whether the transition changes the node's output value.
    pub output_changed: bool,
}

/// One evaluation lane: scratch signal + transition memo, owned by the
/// [`Execution`](crate::executor::Execution).
pub(crate) struct Evaluator<S: Clone + Ord> {
    memo: Vec<MemoEntry<S>>,
    memo_cursor: usize,
    /// Slot of the most recently inserted memo entry, probed first (within a
    /// step, all synchronized nodes hit the entry the first one inserted).
    memo_last: usize,
    /// Reused signal handed to the transition function.
    scratch: Signal<S>,
    /// Set once this lane's sparse-path scratch met a state outside the
    /// execution's index: the scratch stays sparse from then on (re-trying
    /// the dense representation would churn an allocation per step).
    index_poisoned: bool,
    /// Sparse-path cache of the most recent own state's index position: in
    /// synchronized regions consecutive activations share their state, so
    /// the per-node binary search collapses to one equality check.
    own_cache: Option<(S, u32)>,
}

impl<S: Clone + Ord> Evaluator<S> {
    pub(crate) fn new() -> Self {
        Evaluator {
            memo: Vec::new(),
            memo_cursor: 0,
            memo_last: 0,
            scratch: Signal::empty(),
            index_poisoned: false,
            own_cache: None,
        }
    }

    /// Drops all cached state (memo + scratch); used when the execution
    /// degrades to the sparse fallback or restores a snapshot.
    pub(crate) fn reset(&mut self) {
        self.memo.clear();
        self.memo_cursor = 0;
        self.memo_last = 0;
        self.scratch = Signal::empty();
        self.index_poisoned = false;
        self.own_cache = None;
    }

    /// Aligns the scratch signal's representation with the execution's
    /// current sensing state. Called once per step, so the (rare)
    /// representation switch allocates outside the steady-state loop.
    pub(crate) fn prepare<A>(&mut self, ctx: &EvalCtx<'_, A>)
    where
        A: Algorithm<State = S>,
    {
        let target = match ctx.sensing {
            Some(sensing) => Some(sensing.index()),
            // Sparse path: rebuild into a dense scratch while the execution
            // keeps a usable index and this lane has not met exotic states.
            None => ctx.index.filter(|_| !self.index_poisoned),
        };
        match target {
            Some(index) => {
                let matches = self
                    .scratch
                    .dense_index()
                    .is_some_and(|own| Arc::ptr_eq(own, index));
                if !matches {
                    self.scratch = Signal::dense(index.clone());
                }
            }
            None => {
                if self.scratch.is_dense() {
                    self.scratch = Signal::empty();
                }
            }
        }
    }

    /// Evaluates the transition of node `v` against the step snapshot in
    /// `ctx`. Requires a prior [`Evaluator::prepare`] for this step.
    pub(crate) fn evaluate<A>(&mut self, ctx: &EvalCtx<'_, A>, v: NodeId) -> PendingUpdate<S>
    where
        A: Algorithm<State = S>,
    {
        // Active-set skip: a clean node's deterministic transition is
        // provably the identity (its state and signal are unchanged since it
        // last evaluated as stable), so emit the stub update the full
        // evaluation would have produced — same `old_idx`/`new_idx`, no
        // change — without touching the transition function at all.
        if ctx.deterministic {
            if let Some(dirty) = ctx.dirty {
                if !dirty.is_dirty(v) {
                    let old_idx = match ctx.sensing {
                        Some(sensing) => sensing.state_idx[v],
                        None => UNINDEXED,
                    };
                    return PendingUpdate {
                        v,
                        next: ctx.config[v].clone(),
                        old_idx,
                        new_idx: old_idx,
                        changed: false,
                        output_changed: false,
                    };
                }
            }
        }
        match ctx.sensing {
            Some(sensing) => self.evaluate_dense(ctx, sensing, v),
            None => self.evaluate_sparse(ctx, v),
        }
    }

    /// Dense path: the signal is a precomputed bitmask. Dispatches to the
    /// mask-compiled transition when the algorithm provides one; otherwise
    /// deterministic transitions are memoized and the rest goes through the
    /// scratch-signal closure path.
    fn evaluate_dense<A>(
        &mut self,
        ctx: &EvalCtx<'_, A>,
        sensing: &DenseSensing<S>,
        v: NodeId,
    ) -> PendingUpdate<S>
    where
        A: Algorithm<State = S>,
    {
        let si = sensing.state_idx[v];
        let mask = sensing.mask_of(v);
        if let Some(masked) = ctx.masked {
            let mut rng = CounterRng::keyed(ctx.seed, v as u64, ctx.time);
            return match masked.next_index(si, mask, &mut rng) {
                MaskedOutcome::Indexed(new_idx) => {
                    let changed = new_idx != si;
                    let next = sensing.index.state(new_idx as usize).clone();
                    let output_changed =
                        changed && ctx.alg.output(&next) != ctx.alg.output(&ctx.config[v]);
                    PendingUpdate {
                        v,
                        next,
                        old_idx: si,
                        new_idx,
                        changed,
                        output_changed,
                    }
                }
                MaskedOutcome::Escaped(next) => {
                    // The next state is outside the index, so it cannot equal
                    // the (indexed) current state: always a change.
                    let output_changed = ctx.alg.output(&next) != ctx.alg.output(&ctx.config[v]);
                    PendingUpdate {
                        v,
                        next,
                        old_idx: si,
                        new_idx: UNINDEXED,
                        changed: true,
                        output_changed,
                    }
                }
            };
        }
        if ctx.deterministic {
            let matches = |e: &&MemoEntry<S>| e.state_idx == si && e.mask[..] == *mask;
            if let Some(entry) = self
                .memo
                .get(self.memo_last)
                .filter(|e| matches(e))
                .or_else(|| self.memo.iter().find(matches))
            {
                return PendingUpdate {
                    v,
                    next: entry.next.clone(),
                    old_idx: si,
                    new_idx: entry.next_idx,
                    changed: entry.next_idx != si,
                    output_changed: entry.output_changed,
                };
            }
        }
        // Memo miss (or randomized algorithm): evaluate the transition on the
        // node's private coin stream.
        self.scratch.copy_dense_words(mask);
        let mut rng = CounterRng::keyed(ctx.seed, v as u64, ctx.time);
        let next = ctx.alg.transition(&ctx.config[v], &self.scratch, &mut rng);
        let new_idx = match sensing.index.position(&next) {
            Some(i) => i as u32,
            None => UNINDEXED,
        };
        let changed = new_idx != si;
        let output_changed = changed && ctx.alg.output(&next) != ctx.alg.output(&ctx.config[v]);
        if ctx.deterministic && new_idx != UNINDEXED {
            if self.memo.len() < MEMO_CAPACITY {
                self.memo.push(MemoEntry {
                    state_idx: si,
                    mask: mask.to_vec(),
                    next: next.clone(),
                    next_idx: new_idx,
                    output_changed,
                });
                self.memo_last = self.memo.len() - 1;
            } else {
                // Overwrite the oldest slot, reusing its mask buffer so the
                // steady-state step loop stays allocation-free.
                let slot = self.memo_cursor;
                self.memo_cursor = (slot + 1) % MEMO_CAPACITY;
                self.memo_last = slot;
                let entry = &mut self.memo[slot];
                entry.state_idx = si;
                entry.mask.clear();
                entry.mask.extend_from_slice(mask);
                entry.next = next.clone();
                entry.next_idx = new_idx;
                entry.output_changed = output_changed;
            }
        }
        PendingUpdate {
            v,
            next,
            old_idx: si,
            new_idx,
            changed,
            output_changed,
        }
    }

    /// Sparse fallback path: the signal is rebuilt from the configuration —
    /// into the dense scratch (word-level) while the execution keeps a
    /// usable [`StateIndex`], into a `BTreeSet` otherwise.
    fn evaluate_sparse<A>(&mut self, ctx: &EvalCtx<'_, A>, v: NodeId) -> PendingUpdate<S>
    where
        A: Algorithm<State = S>,
    {
        let own = &ctx.config[v];
        // Word-level route: rebuild into the dense scratch. The own state's
        // index position comes from the per-lane cache (one equality check
        // in synchronized regions) or a binary search; neighbors sharing
        // the own state are skipped with one comparison each.
        if self.scratch.is_dense() {
            let index = ctx.index.expect("dense scratch implies a live index");
            let si = match &self.own_cache {
                Some((state, i)) if state == own => Some(*i),
                _ => {
                    let found = index.position(own).map(|i| i as u32);
                    if let Some(i) = found {
                        self.own_cache = Some((own.clone(), i));
                    }
                    found
                }
            };
            if let Some(si) = si {
                self.scratch.clear();
                self.scratch.insert_dense_bit(si as usize);
                let mut stayed_dense = true;
                for &u in ctx.graph.neighbors(v) {
                    if ctx.config[u] != *own {
                        self.scratch.insert(ctx.config[u].clone());
                        if !self.scratch.is_dense() {
                            stayed_dense = false;
                            break;
                        }
                    }
                }
                if stayed_dense {
                    let mut rng = CounterRng::keyed(ctx.seed, v as u64, ctx.time);
                    // The rebuilt words are exactly the node's signal
                    // bitmask, so the mask-compiled transition applies on
                    // the sparse path too.
                    let next = if let Some(masked) = ctx.masked {
                        let words = self.scratch.dense_words().expect("scratch stayed dense");
                        match masked.next_index(si, words, &mut rng) {
                            MaskedOutcome::Indexed(new_idx) => {
                                index.state(new_idx as usize).clone()
                            }
                            MaskedOutcome::Escaped(next) => next,
                        }
                    } else {
                        ctx.alg.transition(own, &self.scratch, &mut rng)
                    };
                    let changed = next != ctx.config[v];
                    let output_changed =
                        changed && ctx.alg.output(&next) != ctx.alg.output(&ctx.config[v]);
                    return PendingUpdate {
                        v,
                        next,
                        old_idx: UNINDEXED,
                        new_idx: UNINDEXED,
                        changed,
                        output_changed,
                    };
                }
            } else {
                // The own state is outside the index: this lane's region of
                // the graph left the enumerated space.
                self.scratch = Signal::empty();
            }
            // An exotic state degraded the scratch; remember so `prepare`
            // stops re-trying the dense representation, and rebuild cleanly
            // on the `BTreeSet` route below.
            self.index_poisoned = true;
        }
        self.scratch.clear();
        self.scratch.insert(own.clone());
        for &u in ctx.graph.neighbors(v) {
            // Skip neighbors sharing the node's own state with one cheap
            // comparison — in synchronized regions (the common steady state)
            // this saves the per-insert search entirely.
            if ctx.config[u] != *own {
                self.scratch.insert(ctx.config[u].clone());
            }
        }
        let mut rng = CounterRng::keyed(ctx.seed, v as u64, ctx.time);
        let next = ctx.alg.transition(&ctx.config[v], &self.scratch, &mut rng);
        let changed = next != ctx.config[v];
        let output_changed = changed && ctx.alg.output(&next) != ctx.alg.output(&ctx.config[v]);
        PendingUpdate {
            v,
            next,
            old_idx: UNINDEXED,
            new_idx: UNINDEXED,
            changed,
            output_changed,
        }
    }
}
