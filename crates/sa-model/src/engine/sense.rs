//! The **sense** stage: incrementally maintained neighborhood signals.
//!
//! In the SA model the signal of node `v` is the binary vector
//! `S_v ∈ {0,1}^Q` marking which states appear in the inclusive neighborhood
//! `N⁺(v)`. `DenseSensing` materializes every node's signal as a bitmask
//! over a shared [`StateIndex`], kept up to date *incrementally*: per-node
//! state-presence counts (`counts[v][q]` = how many nodes of `N⁺(v)` are in
//! state `q`) are adjusted only when a node actually changes state, so a
//! step costs `O(changed · deg)` update work instead of rebuilding every
//! activated node's signal from scratch.
//!
//! Counts are stored **node-major** (`counts[v * |Q| + q]`): the two cells a
//! state change touches per neighbor share that neighbor's row (usually one
//! cache line, adjacent to the also-touched mask words).
//!
//! The sense stage is **read-only during a step's evaluate stage** — every
//! activation reads the same immutable snapshot of the masks — and is
//! written back by the apply stage through `DenseSensing::apply_change` (or
//! its bulk variants `apply_uniform_change` / `apply_batch_change`).

use crate::graph::{Graph, NodeId};
use crate::signal::StateIndex;
use std::sync::Arc;

/// Largest enumerated state space the dense engine will index.
///
/// Public so composite algorithms (e.g. the synchronizer's product space) can
/// decline to materialize an enumeration the engine would reject anyway.
pub const MAX_DENSE_STATES: usize = 4096;

/// Largest `states × nodes` count table the dense engine will allocate
/// (at 2 bytes per cell this caps the table at 128 MiB).
const MAX_DENSE_COUNT_CELLS: usize = 1 << 26;

/// Sentinel state index marking "outside the dense index".
pub(crate) const UNINDEXED: u32 = u32::MAX;

/// The incremental dense sensing state (see the [module docs](self)).
pub(crate) struct DenseSensing<S: Ord> {
    pub(crate) index: Arc<StateIndex<S>>,
    /// Mask words per node.
    words: usize,
    /// Number of nodes.
    n: usize,
    /// Number of indexed states `|Q|`.
    q: usize,
    /// `counts[v * q + qi]`: nodes of `N⁺(v)` currently in state `qi`.
    /// Node-major layout — see the module docs.
    counts: Vec<u16>,
    /// `masks[v * words ..][..words]`: the signal bitmask of node `v`.
    pub(crate) masks: Vec<u64>,
    /// The index of every node's current state (avoids re-searching on change).
    pub(crate) state_idx: Vec<u32>,
    /// Global histogram: `state_counts[qi]` = number of nodes in state `qi`.
    /// Drives the uniform fast path and the partial-batch apply detection.
    pub(crate) state_counts: Vec<u32>,
    /// `deg(v) + 1` per node, for the uniform-step batch update.
    deg1: Vec<u16>,
    /// While `Some(q)`, the count table is *stale*: it still reflects the
    /// uniform configuration "every node in `q`" although the (uniform)
    /// configuration has since advanced — masks, `state_idx` and the
    /// histogram are always exact. Uniform lockstep steps then skip the
    /// `O(n)` strided count rewrite entirely (each node's row lives `|Q|`
    /// cells apart, so touching all of them is the one expensive part of a
    /// uniform step); the table is materialized lazily by the first
    /// non-uniform mutation.
    counts_at: Option<u32>,
    /// `Some(q)` while *every* node is known to be in state `q` (then every
    /// signal is exactly `{q}`), letting a full-activation step of a
    /// deterministic algorithm evaluate the transition once for all nodes.
    /// Maintained from the histogram, so uniformity regained mid-run (e.g.
    /// after stabilization under an asynchronous scheduler) is detected too.
    pub(crate) uniform_state: Option<u32>,
}

impl<S: Ord> DenseSensing<S> {
    /// Builds the sensing state from scratch for `config`, or `None` if some
    /// state is not covered by `index` or the table would be degenerate / too
    /// large.
    pub(crate) fn build(index: Arc<StateIndex<S>>, graph: &Graph, config: &[S]) -> Option<Self> {
        let n = graph.node_count();
        let q = index.len();
        if q == 0
            || q > MAX_DENSE_STATES
            || n.checked_mul(q)? > MAX_DENSE_COUNT_CELLS
            || graph.max_degree() + 1 > u16::MAX as usize
        {
            return None;
        }
        let words = index.words();
        let mut engine = DenseSensing {
            index,
            words,
            n,
            q,
            counts: vec![0; n * q],
            masks: vec![0; n * words],
            state_idx: Vec::with_capacity(n),
            state_counts: vec![0; q],
            deg1: (0..n).map(|v| graph.degree(v) as u16 + 1).collect(),
            counts_at: None,
            uniform_state: None,
        };
        for state in config {
            engine.state_idx.push(engine.index.position(state)? as u32);
        }
        for v in 0..n {
            let qi = engine.state_idx[v] as usize;
            engine.state_counts[qi] += 1;
            engine.increment(v, qi);
            for &w in graph.neighbors(v) {
                engine.increment(w, qi);
            }
        }
        if engine.state_counts[engine.state_idx[0] as usize] == n as u32 {
            engine.uniform_state = Some(engine.state_idx[0]);
        }
        Some(engine)
    }

    /// The shared state index.
    pub(crate) fn index(&self) -> &Arc<StateIndex<S>> {
        &self.index
    }

    /// The signal mask of node `v`.
    #[inline]
    pub(crate) fn mask_of(&self, v: NodeId) -> &[u64] {
        &self.masks[v * self.words..(v + 1) * self.words]
    }

    #[inline]
    fn increment(&mut self, w: NodeId, qi: usize) {
        let cell = &mut self.counts[w * self.q + qi];
        if *cell == 0 {
            self.masks[w * self.words + qi / 64] |= 1u64 << (qi % 64);
        }
        *cell += 1;
    }

    #[inline]
    fn decrement(&mut self, w: NodeId, qi: usize) {
        let cell = &mut self.counts[w * self.q + qi];
        debug_assert!(*cell > 0, "presence count underflow");
        *cell -= 1;
        if *cell == 0 {
            self.masks[w * self.words + qi / 64] &= !(1u64 << (qi % 64));
        }
    }

    /// Materializes a count table deferred by uniform lockstep steps (see
    /// `counts_at`): moves the stale uniform row to the current uniform
    /// state. Must run before any incremental count mutation.
    fn materialize_counts(&mut self) {
        let Some(at) = self.counts_at.take() else {
            return;
        };
        let current = self.state_idx[0];
        debug_assert_eq!(
            self.uniform_state,
            Some(current),
            "deferred counts require a uniform configuration"
        );
        if at == current {
            return;
        }
        let (from, to) = (at as usize, current as usize);
        for v in 0..self.n {
            let row = v * self.q;
            debug_assert_eq!(self.counts[row + from], self.deg1[v]);
            self.counts[row + from] = 0;
            self.counts[row + to] = self.deg1[v];
        }
    }

    /// Propagates the state change of node `v` to `new_idx` into the counts
    /// and masks of `N⁺(v)` (the apply stage's write-back).
    pub(crate) fn apply_change(&mut self, graph: &Graph, v: NodeId, new_idx: u32) {
        self.materialize_counts();
        let old = self.state_idx[v] as usize;
        let new = new_idx as usize;
        self.state_idx[v] = new_idx;
        self.state_counts[old] -= 1;
        self.state_counts[new] += 1;
        self.uniform_state = (self.state_counts[new] == self.n as u32).then_some(new_idx);
        self.decrement(v, old);
        self.increment(v, new);
        for &w in graph.neighbors(v) {
            self.decrement(w, old);
            self.increment(w, new);
        }
    }

    /// Applies the *uniform* step "every node moves `old_idx → new_idx`" in
    /// bulk: one bit flip pair per node for the masks, a contiguous
    /// `state_idx` fill, `O(1)` histogram work — and **no count writes**:
    /// the count rewrite (two cells per node, `|Q|` cells apart — the one
    /// cache-unfriendly part) is deferred via `counts_at` and materialized
    /// only when the field leaves lockstep. The synchronized-lockstep fast
    /// path of the step loop.
    pub(crate) fn apply_uniform_change(&mut self, old_idx: u32, new_idx: u32) {
        let (old, new) = (old_idx as usize, new_idx as usize);
        let n = self.n;
        debug_assert_eq!(self.uniform_state, Some(old_idx));
        let (old_word, old_bit) = (old / 64, 1u64 << (old % 64));
        let (new_word, new_bit) = (new / 64, 1u64 << (new % 64));
        for v in 0..n {
            let base = v * self.words;
            self.masks[base + old_word] &= !old_bit;
            self.masks[base + new_word] |= new_bit;
        }
        self.state_idx.fill(new_idx);
        self.state_counts[old] = 0;
        self.state_counts[new] = n as u32;
        self.uniform_state = Some(new_idx);
        if self.counts_at.is_none() {
            // The table still reflects the pre-step uniform state.
            self.counts_at = Some(old_idx);
        }
    }

    /// Applies the *partial-batch* step "every node currently in `old_idx`
    /// moves to `new_idx`; nobody else changes" in bulk.
    ///
    /// Because the movers are exactly the nodes in `old_idx`, every count
    /// cell permutes locally: `counts[w][new] += counts[w][old]` and
    /// `counts[w][old] = 0` for every node `w`, and a mask word pair flips
    /// wherever the old bit was set — `O(n)` whole-word work instead of
    /// `O(changed · deg)` per-neighbor updates. `changed` lists the movers
    /// (for the `state_idx` write-back).
    ///
    /// The caller must have verified `changed.len() == state_counts[old_idx]`
    /// (see the detection in `Execution::step`); a debug assertion re-checks.
    pub(crate) fn apply_batch_change(&mut self, old_idx: u32, new_idx: u32, changed: &[NodeId]) {
        self.materialize_counts();
        let (old, new) = (old_idx as usize, new_idx as usize);
        debug_assert_ne!(old, new);
        debug_assert_eq!(self.state_counts[old] as usize, changed.len());
        for &v in changed {
            self.state_idx[v] = new_idx;
        }
        let (old_word, old_bit) = (old / 64, 1u64 << (old % 64));
        let (new_word, new_bit) = (new / 64, 1u64 << (new % 64));
        for v in 0..self.n {
            let row = v * self.q;
            let moving = self.counts[row + old];
            if moving == 0 {
                continue;
            }
            self.counts[row + new] += moving;
            self.counts[row + old] = 0;
            let base = v * self.words;
            self.masks[base + old_word] &= !old_bit;
            self.masks[base + new_word] |= new_bit;
        }
        self.state_counts[new] += self.state_counts[old];
        self.state_counts[old] = 0;
        self.uniform_state = (self.state_counts[new] == self.n as u32).then_some(new_idx);
    }

    /// Whether the (possibly deferred, see `counts_at`) count table is
    /// equivalent to `fresh`, a from-scratch rebuild of the same
    /// configuration. Used by consistency validation.
    pub(crate) fn counts_equivalent(&self, fresh: &DenseSensing<S>) -> bool {
        match self.counts_at {
            None => self.counts == fresh.counts,
            Some(at) => {
                let current = self.state_idx[0] as usize;
                let at = at as usize;
                if at == current {
                    return self.counts == fresh.counts;
                }
                (0..self.n).all(|v| {
                    let row = v * self.q;
                    (0..self.q).all(|qi| {
                        let expected = if qi == at {
                            0
                        } else if qi == current {
                            self.deg1[v]
                        } else {
                            self.counts[row + qi]
                        };
                        fresh.counts[row + qi] == expected
                    })
                })
            }
        }
    }
}
