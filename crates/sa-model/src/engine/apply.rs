//! The **apply** stage: committing a step's updates simultaneously.
//!
//! All transitions of a step were evaluated against the start configuration
//! `C_t`; this stage writes them back in one pass — the model's simultaneous
//! update `C_{t+1}` — and propagates each change into the incremental
//! sensing state. Two commit strategies, bit-for-bit equivalent:
//!
//! * `commit` — the general path: one `apply_change` per changed node.
//! * `commit_batch` — the partial-batch fast path: when every node in one
//!   state `old` moves to one state `new` (and nothing else changes — the
//!   near-uniform step the executor detects from the state histogram), the
//!   count table permutes locally and the commit collapses to `O(n)` bulk
//!   word writes, independent of degree (see
//!   `DenseSensing::apply_batch_change`).

use super::evaluate::PendingUpdate;
use super::sense::DenseSensing;
use crate::graph::{Graph, NodeId};

/// Commits `updates` to `config`, the sensing state and the changed list.
///
/// For every changed update, `update.next` and the node's configuration
/// entry are *swapped*, so afterwards `update.next` holds the node's
/// previous state — the account stage reads it for trace records.
/// `last_changed` receives the changed nodes in update (= activation) order.
pub(crate) fn commit<S: Ord>(
    updates: &mut [PendingUpdate<S>],
    graph: &Graph,
    config: &mut [S],
    mut sensing: Option<&mut DenseSensing<S>>,
    last_changed: &mut Vec<NodeId>,
) {
    last_changed.clear();
    for update in updates.iter_mut() {
        if !update.changed {
            continue;
        }
        std::mem::swap(&mut config[update.v], &mut update.next);
        if let Some(sensing) = sensing.as_deref_mut() {
            sensing.apply_change(graph, update.v, update.new_idx);
        }
        last_changed.push(update.v);
    }
}

/// The partial-batch commit: all changed updates move `old_idx → new_idx`
/// and cover *every* node currently in `old_idx` (verified by the caller
/// against the state histogram). Swaps the configuration entries exactly
/// like [`commit`], then updates the sensing state with `O(n)` bulk word
/// writes instead of per-neighbor count updates.
pub(crate) fn commit_batch<S: Ord>(
    updates: &mut [PendingUpdate<S>],
    config: &mut [S],
    sensing: &mut DenseSensing<S>,
    last_changed: &mut Vec<NodeId>,
    old_idx: u32,
    new_idx: u32,
) {
    last_changed.clear();
    for update in updates.iter_mut() {
        if !update.changed {
            continue;
        }
        debug_assert_eq!(update.old_idx, old_idx);
        debug_assert_eq!(update.new_idx, new_idx);
        std::mem::swap(&mut config[update.v], &mut update.next);
        last_changed.push(update.v);
    }
    sensing.apply_batch_change(old_idx, new_idx, last_changed);
}
