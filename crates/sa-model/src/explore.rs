//! Exhaustive exploration of the global configuration space.
//!
//! Random sweeping samples trajectories; this module *enumerates* them. For a
//! finite algorithm on a tiny graph it builds the full transition system of
//! global configurations under the distributed (any-subset) daemon and
//! certifies the two properties that define self-stabilization:
//!
//! - **closure** — every successor of a legitimate configuration is
//!   legitimate, and
//! - **convergence** — every explored configuration reaches the legitimate
//!   set under every *fair* schedule (each node activated infinitely often).
//!
//! On violation it reconstructs a minimal counterexample trace — a start
//! configuration plus an activation-set sequence — that the caller can render
//! and replay through [`Execution`](crate::executor::Execution).
//!
//! # State encoding
//!
//! Local states are interned into a dynamically grown *palette* (a
//! `state → u16` index, the same palette-index idea the binary checkpoint
//! codec uses); a global configuration is `n` palette indices. All
//! configurations sit back to back in one flat `u16` arena (stride `n`), and
//! the visited set is an open-addressing table of `u32` configuration ids
//! that hashes and compares arena slices in place, so interning allocates
//! nothing per configuration and stores each key once. Budgeting is
//! therefore simple: memory is `O(max_states · n)`, at most `2n + 31`
//! bytes per configuration while exploring (see `docs/verify.md`).
//!
//! Transitions are memoized in the same index space. A node's targets depend
//! only on its own state and its signal (the *set* of states in its closed
//! neighbourhood) — and, for randomized algorithms, on the coin tapes, whose
//! seeds are fixed. The key "sorted distinct neighbourhood indices, then own
//! index" therefore determines the node's distinct non-identity targets
//! exactly, and the memo stores them in tape order. [`Signal`] construction
//! and [`Algorithm::transition`] run only on a memo miss; every successor is
//! produced by patching one reused index buffer.
//!
//! # Activation reduction
//!
//! Under the distributed daemon a step may activate *any* non-empty node
//! subset, so naively each configuration has `2^n - 1` successors. Two facts
//! cut this down without losing any reachable configuration or any
//! scheduler freedom (the soundness argument is spelled out in
//! `docs/verify.md`):
//!
//! 1. **Targets are per-node functions of the configuration.** A node's next
//!    state depends only on its own state and its signal — never on which
//!    other nodes are activated in the same step (simultaneous commit). So
//!    one transition evaluation per node per configuration yields every
//!    successor: the step under activation set `A` is "replace `C[v]` by
//!    `target(v)` for `v ∈ A`".
//! 2. **Activating a disabled node is a no-op.** If `target(v) = C[v]` the
//!    step reaches the same configuration whether or not `v ∈ A`. The
//!    successor *set* is therefore `{ C[A ← targets] : ∅ ≠ A ⊆ enabled(C) }`
//!    — `2^k - 1` configurations for `k = |enabled(C)|`, plus an implicit
//!    self-loop (activating only disabled nodes) at every configuration.
//!
//! Randomized algorithms get one target *set* per node, sampled from a fixed
//! number of seeded coin tapes ([`ExploreConfig::coin_tapes`]); the explored
//! relation is then an under-approximation and the report is downgraded
//! accordingly (see [`ConvergenceMode`]).
//!
//! # Fair-schedule convergence
//!
//! Because of the implicit self-loops, "some infinite execution avoids the
//! legitimate set L" is not enough for a violation — the execution must be
//! *fair*. A fair execution that avoids `L` forever eventually stays inside
//! one strongly connected component `K` of the real-edge transition graph
//! restricted to the illegitimate states, and every node must either change
//! state on some intra-`K` edge it is activated in, or be *disabled*
//! somewhere in `K` (a no-op activation satisfies fairness for it). So `K`
//! supports a fair trap iff
//!
//! ```text
//! cover(K) = ⋃ {A : intra-K edge with activation A} ∪ {v : v disabled at some s ∈ K}
//! ```
//!
//! equals the full node set. A singleton component without a self-loop has
//! no intra-component edge, so its cover is full exactly when the
//! configuration is *silent* (no node enabled) — a deadlock. Self-loops
//! arise only under normalization (every activated node changes, but the
//! normalized successor is the source again); such a singleton is a fair
//! trap through its own loop and is reported as a one-configuration fair
//! cycle, not a deadlock. Terminal components of the illegitimate subgraph
//! always have full cover (every enabled node contributes its singleton
//! activation edge), so this check subsumes backward reachability from `L`.
//! The check runs with Tarjan's algorithm, iteratively, regenerating
//! successors on the fly — the edge set is never stored.

use crate::algorithm::Algorithm;
use crate::graph::{Graph, NodeId};
use crate::signal::Signal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Default configuration budget when neither the spec nor
/// `SA_VERIFY_MAX_STATES` says otherwise.
pub const DEFAULT_MAX_STATES: usize = 2_000_000;

/// Default number of seeded coin tapes used to sample the targets of a
/// randomized transition.
pub const DEFAULT_COIN_TAPES: u32 = 4;

/// Hard cap on the node count: activation sets are `u64` bitmasks.
pub const MAX_NODES: usize = 64;

/// Per-configuration successor cap (`Π (|targets_v| + 1) - 1` over enabled
/// nodes). Exceeding it aborts the run rather than silently truncating.
const MAX_BRANCH: u64 = 1 << 16;

const NO_PARENT: u32 = u32::MAX;

/// A configuration-normalization hook: quotients the explored space by a
/// transition-equivariant, oracle-invariant symmetry (see [`explore`]).
pub type NormalizeFn<'a, S> = &'a dyn Fn(&mut Vec<S>);

/// Knobs for an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Abort with [`ExploreError::BudgetExceeded`] when the visited set
    /// would grow past this many configurations.
    pub max_states: usize,
    /// Coin tapes per (configuration, node) for randomized transitions;
    /// ignored for deterministic algorithms.
    pub coin_tapes: u32,
    /// Invoke the progress callback every this many expanded
    /// configurations; `0` disables progress reporting.
    pub progress_stride: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: DEFAULT_MAX_STATES,
            coin_tapes: DEFAULT_COIN_TAPES,
            progress_stride: 0,
        }
    }
}

/// Progress snapshot handed to the callback during exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreProgress {
    /// Configurations interned so far.
    pub states: usize,
    /// Configurations fully expanded so far.
    pub expanded: usize,
    /// Transition edges generated so far.
    pub edges: u64,
}

/// Why an exploration aborted without a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The graph has more than [`MAX_NODES`] nodes.
    TooManyNodes {
        /// Node count of the offending graph.
        nodes: usize,
    },
    /// More than `u16::MAX` distinct local states appeared.
    PaletteOverflow,
    /// The visited set outgrew [`ExploreConfig::max_states`].
    BudgetExceeded {
        /// The budget that was exceeded.
        budget: usize,
    },
    /// One configuration had more successors than the internal branch cap.
    BranchingOverflow {
        /// The successor count that tripped the cap.
        successors: u64,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::TooManyNodes { nodes } => write!(
                f,
                "graph has {nodes} nodes; exhaustive verification supports at most {MAX_NODES}"
            ),
            ExploreError::PaletteOverflow => {
                write!(f, "more than 65535 distinct local states appeared")
            }
            ExploreError::BudgetExceeded { budget } => write!(
                f,
                "configuration budget exceeded: more than {budget} reachable configurations \
                 (raise the spec's max_states or SA_VERIFY_MAX_STATES, or shrink the instance)"
            ),
            ExploreError::BranchingOverflow { successors } => write!(
                f,
                "a single configuration has {successors} successors, over the {MAX_BRANCH} cap"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// How the convergence verdict was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceMode {
    /// Deterministic transition relation: full fair-schedule analysis
    /// (trap-SCC search). `Certified` means *every* fair schedule converges.
    FairSchedule,
    /// Randomized transition relation sampled from coin tapes: only
    /// *possible convergence* is checked (every explored configuration has
    /// some path to the legitimate set). A scheduler cannot force coin
    /// outcomes, so fair-cycle analysis would over-report violations; see
    /// `docs/verify.md` for what this mode does and does not certify.
    ReachabilityOnly,
}

/// Aggregate counts of an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct configurations visited.
    pub states: usize,
    /// Seed configurations (after normalization / deduplication).
    pub seeds: usize,
    /// Transition edges generated (with multiplicity per source).
    pub edges: u64,
    /// Configurations satisfying the legitimacy oracle.
    pub legitimate: usize,
    /// Distinct local states interned into the palette.
    pub palette: usize,
    /// Whether the transition relation was exact (deterministic algorithm).
    pub deterministic: bool,
}

/// One step of a counterexample trace: the activation set and the
/// configuration it leads to (as palette indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Activated nodes, ascending.
    pub activation: Vec<NodeId>,
    /// The configuration after the step, as palette indices.
    pub config: Vec<u16>,
}

/// What a counterexample trace demonstrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A legitimate configuration with an illegitimate successor.
    Closure,
    /// A fair cycle through illegitimate configurations.
    FairCycle,
    /// A silent illegitimate configuration (no node enabled).
    Deadlock,
    /// A configuration with no path to the legitimate set
    /// (reachability-only mode).
    LegitimacyUnreachable,
}

impl ViolationKind {
    /// Stable lowercase label used in JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::Closure => "closure",
            ViolationKind::FairCycle => "fair-cycle",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::LegitimacyUnreachable => "legitimacy-unreachable",
        }
    }
}

/// How a node's fairness obligation is discharged inside the cycle of a
/// [`ViolationKind::FairCycle`] trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessKind {
    /// The node is activated (and changes state) at the witnessing step.
    StateChange,
    /// The node is disabled at the witnessing step's source configuration,
    /// so its activation there is a configuration no-op.
    NoOp,
}

/// Per-node fairness certificate entry for a fair-cycle trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairnessWitness {
    /// The node whose fairness obligation this discharges.
    pub node: NodeId,
    /// Index into [`Trace::steps`] of the witnessing step.
    pub step: usize,
    /// How the obligation is discharged.
    pub kind: WitnessKind,
}

/// A minimal counterexample: a start configuration plus an activation-set
/// sequence. Configurations are palette indices into
/// [`ExploreReport::palette`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// What the trace demonstrates.
    pub kind: ViolationKind,
    /// The start configuration, as palette indices.
    pub start: Vec<u16>,
    /// The steps, in order.
    pub steps: Vec<TraceStep>,
    /// For [`ViolationKind::FairCycle`]: index into `steps` where the cycle
    /// begins. `steps[cycle_start..]` leads from the cycle entry
    /// configuration back to itself; repeating it forever is a fair
    /// schedule that never reaches the legitimate set.
    pub cycle_start: Option<usize>,
    /// For [`ViolationKind::FairCycle`]: one witness per node proving the
    /// cycle is fair.
    pub fairness: Vec<FairnessWitness>,
    /// Human-oriented one-line description.
    pub note: String,
}

/// Verdict for one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyResult {
    /// The property holds over the explored relation.
    Certified,
    /// The property fails; the trace demonstrates it.
    Violated(Box<Trace>),
}

impl PropertyResult {
    /// `true` when the property holds.
    pub fn is_certified(&self) -> bool {
        matches!(self, PropertyResult::Certified)
    }

    /// The counterexample trace, if any.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            PropertyResult::Certified => None,
            PropertyResult::Violated(t) => Some(t),
        }
    }
}

/// The full result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport<S> {
    /// Aggregate counts.
    pub stats: ExploreStats,
    /// The interned local-state palette, in discovery order. Trace
    /// configurations index into this.
    pub palette: Vec<S>,
    /// Closure verdict.
    pub closure: PropertyResult,
    /// Convergence verdict.
    pub convergence: PropertyResult,
    /// How the convergence verdict was computed.
    pub convergence_mode: ConvergenceMode,
}

impl<S: Clone> ExploreReport<S> {
    /// Decodes a palette-index configuration back to states.
    pub fn decode(&self, config: &[u16]) -> Vec<S> {
        config
            .iter()
            .map(|&i| self.palette[i as usize].clone())
            .collect()
    }

    /// `true` when both properties are certified.
    pub fn certified(&self) -> bool {
        self.closure.is_certified() && self.convergence.is_certified()
    }
}

/// Explores the configuration space reachable from `seeds` and certifies
/// closure and convergence with respect to `oracle`.
///
/// `normalize` quotients the space by a transition-equivariant,
/// oracle-invariant symmetry (e.g. min-plus-one's global clock shift); every
/// interned configuration is normalized first. Pass `None` for algorithms
/// with finite state palettes.
///
/// The `progress` callback fires every [`ExploreConfig::progress_stride`]
/// expanded configurations (never, when the stride is `0`).
pub fn explore<A: Algorithm>(
    alg: &A,
    graph: &Graph,
    seeds: &mut dyn Iterator<Item = Vec<A::State>>,
    oracle: &dyn Fn(&Graph, &[A::State]) -> bool,
    normalize: Option<NormalizeFn<'_, A::State>>,
    config: &ExploreConfig,
    progress: &mut dyn FnMut(ExploreProgress),
) -> Result<ExploreReport<A::State>, ExploreError> {
    let n = graph.node_count();
    if n > MAX_NODES {
        return Err(ExploreError::TooManyNodes { nodes: n });
    }
    let mut space = Space {
        alg,
        graph,
        oracle,
        normalize,
        deterministic: alg.transition_is_deterministic(),
        coin_tapes: config.coin_tapes.max(1),
        max_states: config.max_states,
        n,
        full_mask: full_mask(n),
        hoods: (0..n).map(|v| graph.inclusive_neighbors(v)).collect(),
        palette: Interner::default(),
        raw_targets: Interner::default(),
        memo: Memo::default(),
        configs: ConfigTable::new(n),
        legit: Vec::new(),
        silent: Vec::new(),
        self_loop: Vec::new(),
        parent: Vec::new(),
        parent_act: Vec::new(),
        edges: 0,
        buf: Vec::new(),
        key: Vec::new(),
        succs: Vec::new(),
        hashes: Vec::new(),
        enabled: Vec::new(),
        digits: Vec::new(),
        decoded: Vec::new(),
    };

    let mut seed_count = 0usize;
    for seed in seeds {
        debug_assert_eq!(seed.len(), n, "seed configuration has wrong length");
        let (_, fresh) = space.intern_seed(seed)?;
        if fresh {
            seed_count += 1;
        }
    }

    // Breadth-first closure of the seed set: processing ids in discovery
    // order *is* the FIFO order, so parent chains are shortest-path (in
    // steps) from some seed.
    let mut closure_violation: Option<(u32, u64, u32)> = None;
    let mut edges = Vec::new();
    let mut i = 0u32;
    while (i as usize) < space.configs.len() {
        let enabled = space.expand(i, &mut edges)?;
        space.edges += edges.len() as u64;
        space.silent[i as usize] = enabled == 0;
        space.self_loop[i as usize] = edges.iter().any(|&(_, sid)| sid == i);
        if space.legit[i as usize] && closure_violation.is_none() {
            closure_violation = edges
                .iter()
                .find(|&&(_, sid)| !space.legit[sid as usize])
                .map(|&(act, sid)| (i, act, sid));
        }
        i += 1;
        let expanded = i as usize;
        if config.progress_stride != 0 && expanded.is_multiple_of(config.progress_stride) {
            progress(ExploreProgress {
                states: space.configs.len(),
                expanded,
                edges: space.edges,
            });
        }
    }

    let legitimate = space.legit.iter().filter(|&&l| l).count();
    let closure = match closure_violation {
        None => PropertyResult::Certified,
        Some((src, act, succ)) => {
            PropertyResult::Violated(Box::new(space.closure_trace(src, act, succ)))
        }
    };
    let (convergence, convergence_mode) = if space.deterministic {
        (space.fair_convergence()?, ConvergenceMode::FairSchedule)
    } else {
        (
            space.reachability_convergence()?,
            ConvergenceMode::ReachabilityOnly,
        )
    };

    Ok(ExploreReport {
        stats: ExploreStats {
            states: space.configs.len(),
            seeds: seed_count,
            edges: space.edges,
            legitimate,
            palette: space.palette.states.len(),
            deterministic: space.deterministic,
        },
        palette: space.palette.states,
        closure,
        convergence,
        convergence_mode,
    })
}

fn full_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

fn mask_nodes(mask: u64) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut bits = mask;
    while bits != 0 {
        out.push(bits.trailing_zeros() as NodeId);
        bits &= bits - 1;
    }
    out
}

/// Multiplicative (Fx-style) hash for the explorer's tables. Keys are
/// palette indices and local states produced by the explorer itself, so a
/// DoS-resistant hash buys nothing here.
#[derive(Default)]
struct IndexHasher(u64);

impl IndexHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IndexMap<K, V> = HashMap<K, V, BuildHasherDefault<IndexHasher>>;

/// Hash of a slice of palette indices, four per word, seeded with its
/// length.
fn hash_indices(xs: &[u16]) -> u64 {
    let mut h = IndexHasher(xs.len() as u64);
    for chunk in xs.chunks(4) {
        let mut word = 0u64;
        for (k, &x) in chunk.iter().enumerate() {
            word |= u64::from(x) << (16 * k);
        }
        h.add(word);
    }
    h.0
}

const EMPTY_SLOT: u32 = u32::MAX;

/// A linear-probing array of `u32` ids, a power of two long and at most
/// half full. The ids' keys live with the owner, which supplies hashes and
/// key comparisons.
struct Slots {
    ids: Vec<u32>,
    /// `64 - log2(ids.len())`: an id's home slot is the top bits of its hash.
    shift: u32,
}

impl Default for Slots {
    fn default() -> Self {
        const INITIAL: usize = 1 << 10;
        Slots {
            ids: vec![EMPTY_SLOT; INITIAL],
            shift: 64 - INITIAL.trailing_zeros(),
        }
    }
}

impl Slots {
    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// The first slot from `hash`'s home on that is empty or holds an id
    /// whose key `is_key` accepts.
    fn probe(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> usize {
        let mask = self.ids.len() - 1;
        let mut slot = self.home(hash);
        loop {
            let id = self.ids[slot];
            if id == EMPTY_SLOT || is_key(id) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Makes room for id `len` (ids `0..len` are present), doubling and
    /// rehashing them with `hash_of` when the array would pass half full.
    fn reserve(&mut self, len: usize, hash_of: impl Fn(u32) -> u64) {
        if 2 * (len + 1) <= self.ids.len() {
            return;
        }
        self.ids = vec![EMPTY_SLOT; 2 * self.ids.len()];
        self.shift -= 1;
        for id in 0..len as u32 {
            let slot = self.probe(hash_of(id), |_| false);
            self.ids[slot] = id;
        }
    }
}

/// A `state ↔ u16` interning table, in first-seen order.
struct Interner<S> {
    states: Vec<S>,
    index: IndexMap<S, u16>,
}

impl<S> Default for Interner<S> {
    fn default() -> Self {
        Interner {
            states: Vec::new(),
            index: IndexMap::default(),
        }
    }
}

impl<S: Clone + Eq + Hash> Interner<S> {
    fn intern(&mut self, s: &S) -> Result<u16, ExploreError> {
        if let Some(&i) = self.index.get(s) {
            return Ok(i);
        }
        if self.states.len() > u16::MAX as usize {
            return Err(ExploreError::PaletteOverflow);
        }
        let i = self.states.len() as u16;
        self.states.push(s.clone());
        self.index.insert(s.clone(), i);
        Ok(i)
    }
}

/// The visited set: configurations stored back to back in one flat arena
/// (stride `n`), indexed by an open-addressing table of `u32` ids that
/// hashes and compares the arena slices in place.
struct ConfigTable {
    n: usize,
    len: usize,
    arena: Vec<u16>,
    slots: Slots,
}

impl ConfigTable {
    fn new(n: usize) -> Self {
        ConfigTable {
            n,
            len: 0,
            arena: Vec::new(),
            slots: Slots::default(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, id: u32) -> &[u16] {
        let at = id as usize * self.n;
        &self.arena[at..at + self.n]
    }

    /// The id of `cfg` (whose hash is `hash`), if present.
    fn find(&self, cfg: &[u16], hash: u64) -> Option<u32> {
        let id = self.slots.ids[self.slots.probe(hash, |id| self.get(id) == cfg)];
        (id != EMPTY_SLOT).then_some(id)
    }

    /// Appends `cfg`, which must be absent, and returns its id.
    fn push(&mut self, cfg: &[u16], hash: u64) -> u32 {
        let (n, arena) = (self.n, &self.arena);
        self.slots.reserve(self.len, |id| {
            let at = id as usize * n;
            hash_indices(&arena[at..at + n])
        });
        let slot = self.slots.probe(hash, |_| false);
        let id = self.len as u32;
        self.arena.extend_from_slice(cfg);
        self.slots.ids[slot] = id;
        self.len += 1;
        id
    }

    /// Hashes the `count` configurations in `cfgs` (`n` indices each) into
    /// `hashes`, loading each one's home slot and the arena entry it points
    /// at on the way. The loads are independent of one another, so their
    /// cache misses overlap instead of queueing behind each probe.
    fn warm(&self, cfgs: &[u16], count: usize, hashes: &mut Vec<u64>) {
        hashes.clear();
        let mut sink = 0u16;
        for k in 0..count {
            let hash = hash_indices(&cfgs[k * self.n..(k + 1) * self.n]);
            let id = self.slots.ids[self.slots.home(hash)];
            if id != EMPTY_SLOT {
                sink ^= self.arena[id as usize * self.n];
            }
            hashes.push(hash);
        }
        std::hint::black_box(sink);
    }
}

/// The transition memo: maps a key (a node's sorted distinct signal
/// indices followed by its own index) to the node's distinct non-identity
/// targets, in tape order.
#[derive(Default)]
struct Memo {
    /// Keys back to back.
    keys: Vec<u16>,
    /// Targets back to back.
    targets: Vec<u16>,
    /// Per entry: key start, key length, targets start, target count.
    entries: Vec<[u32; 4]>,
    slots: Slots,
}

impl Memo {
    fn key(&self, id: u32) -> &[u16] {
        let [start, len, _, _] = self.entries[id as usize];
        &self.keys[start as usize..(start + len) as usize]
    }

    /// The `(start, count)` range of `key`'s targets in `targets`, if
    /// memoized.
    fn get(&self, key: &[u16]) -> Option<(u32, u32)> {
        let slots = &self.slots;
        let id = slots.ids[slots.probe(hash_indices(key), |id| self.key(id) == key)];
        (id != EMPTY_SLOT).then(|| {
            let [_, _, start, count] = self.entries[id as usize];
            (start, count)
        })
    }

    /// Memoizes `key`, which must be absent, with `targets`; returns their
    /// range.
    fn insert(&mut self, key: &[u16], targets: &[u16]) -> (u32, u32) {
        let (keys, entries) = (&self.keys, &self.entries);
        self.slots.reserve(entries.len(), |id| {
            let [start, len, _, _] = entries[id as usize];
            hash_indices(&keys[start as usize..(start + len) as usize])
        });
        let slot = self.slots.probe(hash_indices(key), |_| false);
        self.slots.ids[slot] = self.entries.len() as u32;
        let range = (self.targets.len() as u32, targets.len() as u32);
        self.entries
            .push([self.keys.len() as u32, key.len() as u32, range.0, range.1]);
        self.keys.extend_from_slice(key);
        self.targets.extend_from_slice(targets);
        range
    }
}

/// An enabled node of the configuration being expanded: its range of
/// memoized targets and the index it holds when not activated.
#[derive(Clone, Copy)]
struct EnabledNode {
    node: NodeId,
    start: u32,
    targets: u32,
    idle: u16,
}

struct Space<'a, A: Algorithm> {
    alg: &'a A,
    graph: &'a Graph,
    oracle: &'a dyn Fn(&Graph, &[A::State]) -> bool,
    normalize: Option<NormalizeFn<'a, A::State>>,
    deterministic: bool,
    coin_tapes: u32,
    max_states: usize,
    n: usize,
    full_mask: u64,
    /// Closed neighbourhood of every node.
    hoods: Vec<Vec<NodeId>>,
    /// The reported palette: every state of every interned configuration.
    palette: Interner<A::State>,
    /// Raw (pre-normalization) transition targets; used only under
    /// `normalize`, whose successors are re-encoded after normalizing so
    /// that only normalized states reach the palette.
    raw_targets: Interner<A::State>,
    /// Transition memo. Targets are palette indices, or `raw_targets`
    /// indices under `normalize`.
    memo: Memo,
    configs: ConfigTable,
    legit: Vec<bool>,
    /// No node is enabled (set when the configuration is expanded).
    silent: Vec<bool>,
    /// Some successor is the configuration itself — possible only under
    /// `normalize` (set when the configuration is expanded).
    self_loop: Vec<bool>,
    parent: Vec<u32>,
    parent_act: Vec<u64>,
    edges: u64,
    // Scratch buffers reused across expansions.
    buf: Vec<u16>,
    key: Vec<u16>,
    succs: Vec<u16>,
    hashes: Vec<u64>,
    enabled: Vec<EnabledNode>,
    digits: Vec<u32>,
    decoded: Vec<A::State>,
}

impl<A: Algorithm> Space<'_, A> {
    /// Normalizes a configuration and appends its palette encoding to
    /// `out`.
    fn encode(&mut self, mut cfg: Vec<A::State>, out: &mut Vec<u16>) -> Result<(), ExploreError> {
        if let Some(norm) = self.normalize {
            norm(&mut cfg);
        }
        for s in &cfg {
            out.push(self.palette.intern(s)?);
        }
        Ok(())
    }

    /// Normalizes and encodes a seed configuration, then interns it;
    /// returns `(id, freshly_interned)`.
    fn intern_seed(&mut self, cfg: Vec<A::State>) -> Result<(u32, bool), ExploreError> {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        self.encode(cfg, &mut key)?;
        let interned = self.intern(&key, hash_indices(&key), NO_PARENT, 0);
        self.key = key;
        interned
    }

    /// Looks up an encoded configuration, interning and classifying it
    /// (with BFS parent `parent` reached by activation `act`) when fresh;
    /// returns `(id, freshly_interned)`.
    fn intern(
        &mut self,
        cfg: &[u16],
        hash: u64,
        parent: u32,
        act: u64,
    ) -> Result<(u32, bool), ExploreError> {
        if let Some(id) = self.configs.find(cfg, hash) {
            return Ok((id, false));
        }
        if self.configs.len() >= self.max_states {
            return Err(ExploreError::BudgetExceeded {
                budget: self.max_states,
            });
        }
        let id = self.configs.push(cfg, hash);
        let mut states = std::mem::take(&mut self.decoded);
        states.clear();
        states.extend(cfg.iter().map(|&i| self.palette.states[i as usize].clone()));
        self.legit.push((self.oracle)(self.graph, &states));
        self.decoded = states;
        self.silent.push(false);
        self.self_loop.push(false);
        self.parent.push(parent);
        self.parent_act.push(act);
        Ok((id, true))
    }

    /// The memoized targets of node `v` at configuration `cfg`, as a
    /// `(start, count)` range of `memo.targets`.
    fn targets(&mut self, cfg: &[u16], v: NodeId) -> Result<(u32, u32), ExploreError> {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(self.hoods[v].iter().map(|&u| cfg[u]));
        key.sort_unstable();
        key.dedup();
        key.push(cfg[v]);
        let range = match self.memo.get(&key) {
            Some(range) => Ok(range),
            None => self.evaluate(&key),
        };
        self.key = key;
        range
    }

    /// Memo miss: runs the transition on every coin tape and records the
    /// distinct non-identity targets.
    fn evaluate(&mut self, key: &[u16]) -> Result<(u32, u32), ExploreError> {
        let (&own, sensed) = key.split_last().expect("memo key holds the own index");
        let own = self.palette.states[own as usize].clone();
        let signal = Signal::from_states(
            sensed
                .iter()
                .map(|&i| self.palette.states[i as usize].clone()),
        );
        let tapes = if self.deterministic {
            1
        } else {
            self.coin_tapes
        };
        let mut targets: Vec<A::State> = Vec::new();
        for tape in 0..tapes {
            // A fresh seeded PRNG per tape: the compat rand rejection-samples
            // ranges, so tapes must be real streams.
            let mut rng = StdRng::seed_from_u64(0x5EED_0000_0000_0000u64 ^ u64::from(tape));
            let t = self.alg.transition(&own, &signal, &mut rng);
            if t != own && !targets.contains(&t) {
                targets.push(t);
            }
        }
        let codes = targets
            .iter()
            .map(|t| match self.normalize {
                None => self.palette.intern(t),
                Some(_) => self.raw_targets.intern(t),
            })
            .collect::<Result<Vec<u16>, _>>()?;
        Ok(self.memo.insert(key, &codes))
    }

    /// Regenerates the successor edges of configuration `id` into `out`, as
    /// `(activation mask, successor id)` pairs in a fixed order (odometer
    /// over the enabled nodes ascending, inactive digit first), interning
    /// fresh successors with `id` as their BFS parent. Every non-empty
    /// `(activation ⊆ enabled, target choice)` combination is one edge.
    /// Returns the mask of enabled nodes.
    fn expand(&mut self, id: u32, out: &mut Vec<(u64, u32)>) -> Result<u64, ExploreError> {
        out.clear();
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.extend_from_slice(self.configs.get(id));
        let mut enabled = std::mem::take(&mut self.enabled);
        enabled.clear();
        let mut mask = 0u64;
        let mut total = 1u64;
        for v in 0..self.n {
            let (start, targets) = self.targets(&buf, v)?;
            if targets == 0 {
                continue;
            }
            total = total.saturating_mul(u64::from(targets) + 1);
            if total > MAX_BRANCH {
                return Err(ExploreError::BranchingOverflow { successors: total });
            }
            mask |= 1u64 << v;
            enabled.push(EnabledNode {
                node: v,
                start,
                targets,
                idle: buf[v],
            });
        }
        // Odometer digit per enabled node: 0 = not activated, d = take
        // target d-1. Each increment patches only the digits it changes,
        // and the all-zero combination (the implicit no-op) is skipped.
        let mut digits = std::mem::take(&mut self.digits);
        digits.clear();
        digits.resize(enabled.len(), 0);
        let mut succs = std::mem::take(&mut self.succs);
        succs.clear();
        let mut act = 0u64;
        'combinations: while !enabled.is_empty() {
            let mut pos = 0;
            loop {
                let e = enabled[pos];
                digits[pos] += 1;
                if digits[pos] <= e.targets {
                    buf[e.node] = self.memo.targets[(e.start + digits[pos] - 1) as usize];
                    act |= 1u64 << e.node;
                    break;
                }
                digits[pos] = 0;
                buf[e.node] = e.idle;
                act &= !(1u64 << e.node);
                pos += 1;
                if pos == enabled.len() {
                    break 'combinations;
                }
            }
            if self.normalize.is_none() {
                succs.extend_from_slice(&buf);
            } else {
                // Activated slots hold raw target indices: decode,
                // normalize and re-encode.
                let cfg = buf
                    .iter()
                    .enumerate()
                    .map(|(v, &i)| {
                        let table = if act >> v & 1 == 1 {
                            &self.raw_targets
                        } else {
                            &self.palette
                        };
                        table.states[i as usize].clone()
                    })
                    .collect();
                self.encode(cfg, &mut succs)?;
            }
            out.push((act, u32::MAX));
        }
        // Resolve the successor ids only now, with the whole batch
        // encoded: warming its slots first overlaps their cache misses.
        let mut hashes = std::mem::take(&mut self.hashes);
        self.configs.warm(&succs, out.len(), &mut hashes);
        for (k, edge) in out.iter_mut().enumerate() {
            let succ = &succs[k * self.n..(k + 1) * self.n];
            edge.1 = self.intern(succ, hashes[k], id, edge.0)?.0;
        }
        self.buf = buf;
        self.enabled = enabled;
        self.digits = digits;
        self.succs = succs;
        self.hashes = hashes;
        Ok(mask)
    }

    /// The parent-pointer chain from a seed to `id`, as trace steps.
    /// Returns `(start configuration, steps ending at id)`.
    fn seed_path(&self, id: u32) -> (Vec<u16>, Vec<TraceStep>) {
        let mut chain = Vec::new();
        let mut cur = id;
        while self.parent[cur as usize] != NO_PARENT {
            chain.push(cur);
            cur = self.parent[cur as usize];
        }
        chain.reverse();
        let start = self.configs.get(cur).to_vec();
        let steps = chain
            .into_iter()
            .map(|c| TraceStep {
                activation: mask_nodes(self.parent_act[c as usize]),
                config: self.configs.get(c).to_vec(),
            })
            .collect();
        (start, steps)
    }

    fn closure_trace(&self, src: u32, act: u64, succ: u32) -> Trace {
        // The minimal closure counterexample is the single violating step:
        // `src` is itself legitimate, so no lead-in is needed.
        Trace {
            kind: ViolationKind::Closure,
            start: self.configs.get(src).to_vec(),
            steps: vec![TraceStep {
                activation: mask_nodes(act),
                config: self.configs.get(succ).to_vec(),
            }],
            cycle_start: None,
            fairness: Vec::new(),
            note: format!(
                "legitimate configuration #{src} steps to illegitimate configuration #{succ} \
                 under activation {:?}",
                mask_nodes(act)
            ),
        }
    }

    /// Fair-schedule convergence: find a trap SCC of the illegitimate
    /// subgraph (cover = all nodes) or certify there is none.
    fn fair_convergence(&mut self) -> Result<PropertyResult, ExploreError> {
        let (comp, comp_count) = self.tarjan_illegitimate()?;
        if comp_count == 0 {
            return Ok(PropertyResult::Certified);
        }
        let mut size = vec![0u32; comp_count];
        let mut min_state = vec![u32::MAX; comp_count];
        for (id, &c) in comp.iter().enumerate() {
            if c == u32::MAX {
                continue;
            }
            size[c as usize] += 1;
            if min_state[c as usize] == u32::MAX {
                min_state[c as usize] = id as u32;
            }
        }
        // Cover sweep: per component, the union of intra-component
        // activation masks and of disabled-node masks. A singleton without
        // a self-loop has no intra-component edge, so its cover is full
        // exactly when it is silent; only the other components regenerate
        // their edges.
        let mut cover = vec![0u64; comp_count];
        let mut edges = Vec::new();
        for (id, &c) in comp.iter().enumerate() {
            if c == u32::MAX {
                continue;
            }
            let cidx = c as usize;
            if size[cidx] == 1 && !self.self_loop[id] {
                if self.silent[id] {
                    cover[cidx] = self.full_mask;
                }
                continue;
            }
            let enabled = self.expand(id as u32, &mut edges)?;
            cover[cidx] |= !enabled & self.full_mask;
            for &(act, sid) in &edges {
                if comp[sid as usize] == c {
                    cover[cidx] |= act;
                }
            }
        }
        // Deterministic choice: the trap whose entry configuration has the
        // smallest id.
        let trap = (0..comp_count)
            .filter(|&c| cover[c] == self.full_mask)
            .min_by_key(|&c| min_state[c]);
        let Some(trap) = trap else {
            return Ok(PropertyResult::Certified);
        };
        let entry = min_state[trap];
        if size[trap] == 1 && self.silent[entry as usize] {
            let (start, steps) = self.seed_path(entry);
            return Ok(PropertyResult::Violated(Box::new(Trace {
                kind: ViolationKind::Deadlock,
                start,
                steps,
                cycle_start: None,
                fairness: Vec::new(),
                note: format!(
                    "silent illegitimate configuration #{entry}: no node is enabled, \
                     so no schedule can make further progress"
                ),
            })));
        }
        self.fair_cycle_trace(&comp, trap as u32, entry)
    }

    /// Tarjan's SCC algorithm (iterative) over the illegitimate subgraph.
    /// Returns the component id per configuration (`u32::MAX` for
    /// legitimate ones) and the component count.
    fn tarjan_illegitimate(&mut self) -> Result<(Vec<u32>, usize), ExploreError> {
        const UNVISITED: u32 = u32::MAX;
        let states = self.configs.len();
        let mut index = vec![UNVISITED; states];
        let mut low = vec![0u32; states];
        let mut comp = vec![u32::MAX; states];
        let mut on_stack = vec![false; states];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut comp_count = 0u32;
        // The illegitimate successors of every open frame, stacked: a
        // frame's list runs from its start to the next frame's start.
        let mut succs: Vec<u32> = Vec::new();
        // Frame: (node, start of its successor list, next child position).
        let mut frames: Vec<(u32, usize, usize)> = Vec::new();
        let mut edges = Vec::new();

        for root in 0..states as u32 {
            if self.legit[root as usize] || index[root as usize] != UNVISITED {
                continue;
            }
            let mut open = Some(root);
            loop {
                if let Some(w) = open.take() {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    self.expand(w, &mut edges)?;
                    let start = succs.len();
                    succs.extend(
                        edges
                            .iter()
                            .filter(|&&(_, sid)| !self.legit[sid as usize])
                            .map(|&(_, sid)| sid),
                    );
                    frames.push((w, start, start));
                }
                let Some(frame) = frames.last_mut() else {
                    break;
                };
                let (v, start) = (frame.0, frame.1);
                if frame.2 < succs.len() {
                    let w = succs[frame.2];
                    frame.2 += 1;
                    if index[w as usize] == UNVISITED {
                        open = Some(w);
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                    continue;
                }
                frames.pop();
                succs.truncate(start);
                if low[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
                if let Some(frame) = frames.last() {
                    let p = frame.0;
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
            }
        }
        Ok((comp, comp_count as usize))
    }

    /// Builds the fair-cycle counterexample for trap component `trap`,
    /// entered at configuration `entry`: seed path, then a closed walk
    /// inside the component that discharges every node's fairness
    /// obligation (by a state-changing activation or by a no-op activation
    /// at a configuration where the node is disabled).
    fn fair_cycle_trace(
        &mut self,
        comp: &[u32],
        trap: u32,
        entry: u32,
    ) -> Result<PropertyResult, ExploreError> {
        let (start, mut steps) = self.seed_path(entry);
        let cycle_start = steps.len();
        let mut fairness: Vec<FairnessWitness> = Vec::new();
        let mut remaining = self.full_mask;
        let mut cur = entry;
        let mut edges = Vec::new();

        while remaining != 0 {
            let enabled = self.expand(cur, &mut edges)?;
            let noop = !enabled & self.full_mask & remaining;
            if noop != 0 {
                for v in mask_nodes(noop) {
                    fairness.push(FairnessWitness {
                        node: v,
                        step: steps.len(),
                        kind: WitnessKind::NoOp,
                    });
                    steps.push(TraceStep {
                        activation: vec![v],
                        config: self.configs.get(cur).to_vec(),
                    });
                }
                remaining &= !noop;
                continue;
            }
            // Walk (inside the component) to the nearest configuration that
            // discharges some remaining node — by being disabled there, or
            // by an intra-component edge activating it.
            let (path, witness_edge) = self.bfs_to_witness(comp, trap, cur, remaining)?;
            for (act, sid) in path.into_iter().chain(witness_edge) {
                for v in mask_nodes(act & remaining) {
                    fairness.push(FairnessWitness {
                        node: v,
                        step: steps.len(),
                        kind: WitnessKind::StateChange,
                    });
                }
                remaining &= !act;
                steps.push(TraceStep {
                    activation: mask_nodes(act),
                    config: self.configs.get(sid).to_vec(),
                });
                cur = sid;
            }
        }
        if cur != entry {
            for (act, sid) in self.bfs_path(comp, trap, cur, entry)? {
                steps.push(TraceStep {
                    activation: mask_nodes(act),
                    config: self.configs.get(sid).to_vec(),
                });
            }
        }
        let cycle_len = steps.len() - cycle_start;
        Ok(PropertyResult::Violated(Box::new(Trace {
            kind: ViolationKind::FairCycle,
            start,
            steps,
            cycle_start: Some(cycle_start),
            fairness,
            note: format!(
                "fair cycle of {cycle_len} steps through illegitimate configurations: \
                 repeating it activates every node infinitely often yet never reaches \
                 the legitimate set"
            ),
        })))
    }

    /// BFS inside component `trap` from `cur` to the nearest configuration
    /// with a witness for some node in `remaining`. Returns the edge path
    /// to that configuration plus, when the witness is an edge, the edge
    /// itself.
    #[allow(clippy::type_complexity)]
    fn bfs_to_witness(
        &mut self,
        comp: &[u32],
        trap: u32,
        cur: u32,
        remaining: u64,
    ) -> Result<(Vec<(u64, u32)>, Option<(u64, u32)>), ExploreError> {
        let mut prev: HashMap<u32, (u32, u64)> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        let mut edges = Vec::new();
        prev.insert(cur, (cur, 0));
        queue.push_back(cur);
        while let Some(s) = queue.pop_front() {
            let enabled = self.expand(s, &mut edges)?;
            if s != cur && (!enabled & self.full_mask & remaining) != 0 {
                return Ok((self.unwind(&prev, cur, s), None));
            }
            let mut witness: Option<(u64, u32)> = None;
            for &(act, sid) in &edges {
                if comp[sid as usize] != trap {
                    continue;
                }
                if act & remaining != 0 && witness.is_none() {
                    witness = Some((act, sid));
                }
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(sid) {
                    e.insert((s, act));
                    queue.push_back(sid);
                }
            }
            if let Some(w) = witness {
                return Ok((self.unwind(&prev, cur, s), Some(w)));
            }
        }
        unreachable!("trap component cover guarantees a witness for every node")
    }

    /// BFS inside component `trap` from `cur` to `dest`; returns the edge
    /// path. Strong connectivity of the component guarantees one exists.
    fn bfs_path(
        &mut self,
        comp: &[u32],
        trap: u32,
        cur: u32,
        dest: u32,
    ) -> Result<Vec<(u64, u32)>, ExploreError> {
        let mut prev: HashMap<u32, (u32, u64)> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        let mut edges = Vec::new();
        prev.insert(cur, (cur, 0));
        queue.push_back(cur);
        while let Some(s) = queue.pop_front() {
            if s == dest {
                return Ok(self.unwind(&prev, cur, dest));
            }
            self.expand(s, &mut edges)?;
            for &(act, sid) in &edges {
                if comp[sid as usize] == trap {
                    if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(sid) {
                        e.insert((s, act));
                        queue.push_back(sid);
                    }
                }
            }
        }
        unreachable!("trap component is strongly connected")
    }

    fn unwind(&self, prev: &HashMap<u32, (u32, u64)>, from: u32, to: u32) -> Vec<(u64, u32)> {
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, act) = prev[&cur];
            path.push((act, cur));
            cur = p;
        }
        path.reverse();
        path
    }

    /// Reachability-only convergence (randomized relations): every explored
    /// configuration must have some path to the legitimate set.
    fn reachability_convergence(&mut self) -> Result<PropertyResult, ExploreError> {
        let states = self.configs.len();
        let mut reach = self.legit.clone();
        let mut edges = Vec::new();
        loop {
            let mut changed = false;
            for id in (0..states as u32).rev() {
                if reach[id as usize] {
                    continue;
                }
                self.expand(id, &mut edges)?;
                if edges.iter().any(|&(_, sid)| reach[sid as usize]) {
                    reach[id as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let stuck = (0..states as u32).find(|&id| !reach[id as usize]);
        let Some(stuck) = stuck else {
            return Ok(PropertyResult::Certified);
        };
        let (start, steps) = self.seed_path(stuck);
        Ok(PropertyResult::Violated(Box::new(Trace {
            kind: ViolationKind::LegitimacyUnreachable,
            start,
            steps,
            cycle_start: None,
            fairness: Vec::new(),
            note: format!(
                "configuration #{stuck} has no path to the legitimate set under the \
                 sampled transition relation"
            ),
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::StateSpace;

    /// Deterministic toy: each node copies the minimum sensed state; the
    /// legitimate set is "all states equal".
    struct MinConsensus {
        values: u8,
    }

    impl Algorithm for MinConsensus {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, _state: &u8, signal: &Signal<u8>, _rng: &mut dyn rand::RngCore) -> u8 {
            *signal.min_state().expect("non-empty signal")
        }

        fn transition_is_deterministic(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "min-consensus"
        }
    }

    impl StateSpace for MinConsensus {
        fn states(&self) -> Vec<u8> {
            (0..self.values).collect()
        }
    }

    fn all_configs(values: u8, n: usize) -> Vec<Vec<u8>> {
        let mut out = vec![vec![]];
        for _ in 0..n {
            out = out
                .into_iter()
                .flat_map(|c| {
                    (0..values).map(move |v| {
                        let mut c = c.clone();
                        c.push(v);
                        c
                    })
                })
                .collect();
        }
        out
    }

    fn uniform(_: &Graph, cfg: &[u8]) -> bool {
        cfg.windows(2).all(|w| w[0] == w[1])
    }

    #[test]
    fn min_consensus_certifies_on_a_path() {
        let alg = MinConsensus { values: 3 };
        let graph = Graph::path(3);
        let report = explore(
            &alg,
            &graph,
            &mut all_configs(3, 3).into_iter(),
            &uniform,
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        assert_eq!(report.stats.states, 27);
        assert_eq!(report.stats.seeds, 27);
        assert_eq!(report.stats.legitimate, 3);
        assert!(report.closure.is_certified());
        assert!(report.convergence.is_certified());
        assert_eq!(report.convergence_mode, ConvergenceMode::FairSchedule);
    }

    /// Deterministic toy: each node copies the maximum sensed state.
    struct MaxConsensus;

    impl Algorithm for MaxConsensus {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, _state: &u8, signal: &Signal<u8>, _rng: &mut dyn rand::RngCore) -> u8 {
            *signal.iter().max().expect("non-empty signal")
        }

        fn transition_is_deterministic(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "max-consensus"
        }
    }

    #[test]
    fn silent_illegitimate_state_yields_deadlock() {
        // Oracle: "no node holds 2". Max-consensus closes over the 2-free
        // sub-space, but [2, 2] is silent and illegitimate — a deadlock
        // trap the convergence check must find.
        let alg = MaxConsensus;
        let graph = Graph::path(2);
        let report = explore(
            &alg,
            &graph,
            &mut all_configs(3, 2).into_iter(),
            &|_, cfg: &[u8]| cfg.iter().all(|&v| v != 2),
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        assert!(report.closure.is_certified());
        let trace = report.convergence.trace().expect("convergence violated");
        assert_eq!(trace.kind, ViolationKind::Deadlock);
        // The deadlock is the all-2 configuration.
        let cfg = report.decode(
            trace
                .steps
                .last()
                .map(|s| &s.config)
                .unwrap_or(&trace.start),
        );
        assert_eq!(cfg, vec![2, 2]);
    }

    /// Deterministic toy with an unbounded counter: a node increments iff
    /// its whole closed neighbourhood agrees with it.
    struct AgreeIncrement;

    impl Algorithm for AgreeIncrement {
        type State = u64;
        type Output = u64;

        fn output(&self, state: &u64) -> Option<u64> {
            Some(*state)
        }

        fn transition(
            &self,
            state: &u64,
            signal: &Signal<u64>,
            _rng: &mut dyn rand::RngCore,
        ) -> u64 {
            if signal.iter().all(|s| s == state) {
                state + 1
            } else {
                *state
            }
        }

        fn transition_is_deterministic(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "agree-increment"
        }
    }

    #[test]
    fn self_loop_singleton_trap_is_a_fair_cycle_not_a_deadlock() {
        // Under min-subtraction, activating both nodes of [0, 0] leads to
        // [1, 1] = [0, 0]: a singleton component whose cover is full
        // through its self-loop although both nodes are enabled. ([1, 0]
        // and [0, 1] are silent deadlocks, but [0, 0] has the smallest id.)
        let normalize = |cfg: &mut Vec<u64>| {
            let min = *cfg.iter().min().expect("non-empty configuration");
            cfg.iter_mut().for_each(|v| *v -= min);
        };
        let report = explore(
            &AgreeIncrement,
            &Graph::path(2),
            &mut std::iter::once(vec![0, 0]),
            &|_, _: &[u64]| false,
            Some(&normalize),
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        let trace = report.convergence.trace().expect("convergence violated");
        assert_eq!(trace.kind, ViolationKind::FairCycle);
        assert_eq!(trace.cycle_start, Some(0));
        assert_eq!(
            trace.steps,
            vec![TraceStep {
                activation: vec![0, 1],
                config: trace.start.clone(),
            }]
        );
        let witness = |node| FairnessWitness {
            node,
            step: 0,
            kind: WitnessKind::StateChange,
        };
        assert_eq!(trace.fairness, vec![witness(0), witness(1)]);
    }

    /// A two-state toggle: every node always flips. Illegitimate states
    /// support a fair cycle (flip everything back and forth), so with the
    /// oracle "all equal" convergence must fail with a FairCycle trace.
    struct Toggle;

    impl Algorithm for Toggle {
        type State = u8;
        type Output = u8;

        fn output(&self, state: &u8) -> Option<u8> {
            Some(*state)
        }

        fn transition(&self, state: &u8, _signal: &Signal<u8>, _rng: &mut dyn rand::RngCore) -> u8 {
            1 - *state
        }

        fn transition_is_deterministic(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "toggle"
        }
    }

    #[test]
    fn toggle_yields_fair_cycle_counterexample() {
        // Oracle: nothing is legitimate — every configuration toggles
        // forever, so the whole space is one trap SCC.
        let alg = Toggle;
        let graph = Graph::path(2);
        let report = explore(
            &alg,
            &graph,
            &mut all_configs(2, 2).into_iter(),
            &|_, _: &[u8]| false,
            None,
            &ExploreConfig::default(),
            &mut |_| {},
        )
        .expect("explore");
        assert_eq!(report.stats.legitimate, 0);
        let trace = report.convergence.trace().expect("convergence violated");
        assert_eq!(trace.kind, ViolationKind::FairCycle);
        let cycle_start = trace.cycle_start.expect("cycle start");
        // The cycle is closed: the configuration after the last step equals
        // the configuration at the cycle entry.
        let entry = if cycle_start == 0 {
            trace.start.clone()
        } else {
            trace.steps[cycle_start - 1].config.clone()
        };
        assert_eq!(trace.steps.last().expect("steps").config, entry);
        // Every node has a fairness witness inside the cycle.
        for v in 0..2 {
            assert!(
                trace
                    .fairness
                    .iter()
                    .any(|w| w.node == v && w.step >= cycle_start),
                "node {v} has no fairness witness"
            );
        }
    }

    #[test]
    fn budget_guard_aborts() {
        let alg = MinConsensus { values: 3 };
        let graph = Graph::path(3);
        let config = ExploreConfig {
            max_states: 10,
            ..ExploreConfig::default()
        };
        let err = explore(
            &alg,
            &graph,
            &mut all_configs(3, 3).into_iter(),
            &uniform,
            None,
            &config,
            &mut |_| {},
        )
        .expect_err("budget must trip");
        assert_eq!(err, ExploreError::BudgetExceeded { budget: 10 });
    }
}
