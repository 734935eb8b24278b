//! Step-pipeline equivalences and activation-order invariance.
//!
//! The executor has several observationally equivalent ways to run a step:
//! mask-compiled vs closure transitions, and active-set (dirty-frontier)
//! vs full-scan evaluation. These tests run each pair in lockstep — across
//! all six schedulers, both signal modes and periodic fault injection,
//! through mid-run degrades to the sparse fallback and snapshot/restore —
//! and compare step outcomes, configurations, changed-node lists, per-node
//! metrics and round accounting at every step. They also pin the frontier's
//! drain/reopen behavior and that randomized algorithms never get one.
//!
//! The file also carries the regression test for the PR 1 order-dependence:
//! scripted out-of-order schedules replay identically to ascending-id
//! schedules, because coins come from streams keyed by `(seed, node, time)`.

use rand::RngCore;

use stone_age_unison::model::algorithm::{Algorithm, StateSpace};
use stone_age_unison::model::prelude::*;
use stone_age_unison::unison::AlgAu;

/// A randomized toy: adopt a uniformly random sensed state, or flip to a
/// fresh coin value — consumes a *variable* number of RNG draws per
/// activation, which makes stream divergence loud.
struct NoisyAdopt;

impl Algorithm for NoisyAdopt {
    type State = u8;
    type Output = u8;
    fn output(&self, s: &u8) -> Option<u8> {
        Some(*s)
    }
    fn transition(&self, s: &u8, sig: &Signal<u8>, rng: &mut dyn RngCore) -> u8 {
        use rand::Rng;
        if rng.gen_bool(0.5) {
            let k = rng.gen_range(0..sig.len().max(1));
            sig.iter().nth(k).copied().unwrap_or(*s)
        } else {
            rng.gen_range(0..6u8)
        }
    }
    fn dense_state_space(&self) -> Option<Vec<u8>> {
        Some((0..6).collect())
    }
}

/// Builds a fresh boxed scheduler per run (each execution of a lockstep pair
/// needs its own instance).
type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

/// The six built-in scheduler families, freshly built per run. The scripted
/// entry deliberately lists nodes out of order and with duplicates.
fn scheduler_factories(n: usize) -> Vec<(&'static str, SchedulerFactory)> {
    vec![
        ("synchronous", Box::new(|| Box::new(SynchronousScheduler))),
        (
            "uniform-random",
            Box::new(|| Box::new(UniformRandomScheduler::new(0.5))),
        ),
        ("central", Box::new(|| Box::new(CentralScheduler))),
        (
            "round-robin",
            Box::new(|| Box::<RoundRobinScheduler>::default()),
        ),
        (
            "adversarial-laggard",
            Box::new(move || Box::new(AdversarialLaggardScheduler::starving(n - 1, 4))),
        ),
        (
            "scripted",
            Box::new(move || {
                Box::new(ScriptedScheduler::new(vec![
                    (0..n).rev().collect(),
                    vec![n / 2, 0, n / 2],
                    vec![n - 1, 0],
                    (0..n).collect(),
                ]))
            }),
        ),
    ]
}

// ---- mask-compiled vs closure transition path ------------------------------

/// Steps a mask-compiled and a closure-path execution of the same algorithm
/// in lockstep and asserts bit-for-bit identity in every observable.
#[allow(clippy::too_many_arguments)]
fn assert_masked_matches_closure<A: Algorithm>(
    alg: &A,
    graph: &Graph,
    init: Vec<A::State>,
    seed: u64,
    mode: SignalMode,
    make_sched: &dyn Fn() -> Box<dyn Scheduler>,
    steps: usize,
    context: &str,
) {
    let mut masked = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .masked_transitions(true)
        .initial(init.clone());
    let mut closure = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .masked_transitions(false)
        .initial(init);
    assert!(
        masked.uses_masked_transitions(),
        "[{context}] algorithm must compile masks"
    );
    assert!(!closure.uses_masked_transitions());
    let mut sched_a = make_sched();
    let mut sched_b = make_sched();
    for step in 0..steps {
        let a = masked.step_with(&mut *sched_a);
        let b = closure.step_with(&mut *sched_b);
        assert_eq!(a, b, "[{context}] step {step}: outcome diverged");
        assert_eq!(
            masked.configuration(),
            closure.configuration(),
            "[{context}] step {step}: configuration diverged"
        );
        assert_eq!(
            masked.last_changed(),
            closure.last_changed(),
            "[{context}] step {step}: changed-node list diverged"
        );
    }
    assert_eq!(
        masked.counters(),
        closure.counters(),
        "[{context}] per-node metrics diverged"
    );
    assert!(masked.validate_incremental_sensing());
}

/// AlgAU's mask-compiled transition replays the closure path exactly: all
/// six schedulers, dense *and* sparse signal modes (the sparse mode
/// exercises the word-level scratch rebuild in `evaluate_sparse`), from an
/// adversarial initial configuration.
#[test]
fn algau_masked_path_matches_closure_path() {
    let graph = Topology::Grid { rows: 3, cols: 4 }.build_deterministic();
    let n = graph.node_count();
    let alg = AlgAu::new(graph.diameter());
    let palette = alg.states();
    let init: Vec<_> = (0..n)
        .map(|v| palette[(v * 5 + 1) % palette.len()])
        .collect();
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            assert_masked_matches_closure(
                &alg,
                &graph,
                init.clone(),
                0x3a5c,
                mode,
                factory.as_ref(),
                40,
                &format!("algau-mask/{sched_name}/{mode_name}"),
            );
        }
    }
}

/// A toy with a hand-written mask compilation, used to drive the masked
/// path through a mid-run degrade: advance modulo 6 iff state 1 is sensed.
struct SensesOne;

impl Algorithm for SensesOne {
    type State = u8;
    type Output = u8;
    fn output(&self, s: &u8) -> Option<u8> {
        Some(*s)
    }
    fn transition(&self, s: &u8, sig: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
        if sig.senses(&1) {
            (s + 1) % 6
        } else {
            *s
        }
    }
    fn dense_state_space(&self) -> Option<Vec<u8>> {
        Some((0..6).collect())
    }
    fn transition_is_deterministic(&self) -> bool {
        true
    }
    fn compile_masked<'s>(
        &'s self,
        index: &std::sync::Arc<StateIndex<u8>>,
    ) -> Option<Box<dyn MaskedTransition<u8> + 's>> {
        struct Masks {
            one: SignalMask<u8>,
            next: Vec<u32>,
        }
        impl MaskedTransition<u8> for Masks {
            fn next_index(
                &self,
                state_idx: u32,
                signal_words: &[u64],
                _rng: &mut dyn RngCore,
            ) -> MaskedOutcome<u8> {
                if self.one.intersects_words(signal_words) {
                    MaskedOutcome::Indexed(self.next[state_idx as usize])
                } else {
                    MaskedOutcome::Indexed(state_idx)
                }
            }
        }
        let next = (0..index.len())
            .map(|i| index.position(&((index.state(i) + 1) % 6)).unwrap() as u32)
            .collect();
        Some(Box::new(Masks {
            one: SignalMask::from_states(index, [&1u8]),
            next,
        }))
    }
}

/// A mid-run corruption with a state outside the enumerated space degrades
/// the dense sensing; the mask-compiled path must follow the closure path
/// through the degrade and keep matching on the sparse fallback, where the
/// lane falls back per node once it meets the exotic state.
#[test]
fn masked_path_follows_closure_through_degrade() {
    let graph = Graph::grid(3, 3);
    let init: Vec<u8> = (0..9u8).map(|v| v % 6).collect();
    let mut masked = ExecutionBuilder::new(&SensesOne, &graph)
        .seed(5)
        .masked_transitions(true)
        .initial(init.clone());
    let mut closure = ExecutionBuilder::new(&SensesOne, &graph)
        .seed(5)
        .masked_transitions(false)
        .initial(init);
    assert!(masked.uses_masked_transitions());
    let mut sched_a = SynchronousScheduler;
    let mut sched_b = SynchronousScheduler;
    for step in 0..30 {
        if step == 7 {
            masked.corrupt(4, 77); // outside {0..6}
            closure.corrupt(4, 77);
            assert!(!masked.uses_dense_signals());
        }
        masked.step_with(&mut sched_a);
        closure.step_with(&mut sched_b);
        assert_eq!(
            masked.configuration(),
            closure.configuration(),
            "step {step}"
        );
    }
    assert_eq!(masked.counters(), closure.counters());
}

// ---- active-set (dirty-frontier) execution ---------------------------------

/// Steps an active-set and a full-scan execution of the same deterministic
/// algorithm in lockstep (with periodic fault injection when a palette is
/// given) and asserts they stay bit-for-bit identical in every observable.
/// Halfway through, both executions take a snapshot and restore it, which
/// exercises the frontier's conservative re-marking on restore.
#[allow(clippy::too_many_arguments)]
fn assert_active_set_matches_full_scan<A: Algorithm>(
    alg: &A,
    graph: &Graph,
    init: Vec<A::State>,
    seed: u64,
    mode: SignalMode,
    make_sched: &dyn Fn() -> Box<dyn Scheduler>,
    fault_palette: Option<&[A::State]>,
    steps: usize,
    context: &str,
) {
    let mut fast = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .active_set(true)
        .initial(init.clone());
    let mut full = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .active_set(false)
        .initial(init);
    assert!(
        fast.uses_active_set(),
        "[{context}] deterministic algorithm must get a frontier"
    );
    assert!(!full.uses_active_set());
    let mut sched_a = make_sched();
    let mut sched_b = make_sched();
    let mut injector_a = fault_palette.map(|p| {
        FaultInjector::new(
            FaultPlan::Periodic {
                period: 2,
                count: 2,
            },
            p.to_vec(),
            seed,
        )
    });
    let mut injector_b = fault_palette.map(|p| {
        FaultInjector::new(
            FaultPlan::Periodic {
                period: 2,
                count: 2,
            },
            p.to_vec(),
            seed,
        )
    });
    for step in 0..steps {
        if step == steps / 2 {
            let snap_a = fast.snapshot();
            let snap_b = full.snapshot();
            fast.restore(&snap_a);
            full.restore(&snap_b);
        }
        let a = fast.step_with(&mut *sched_a);
        let b = full.step_with(&mut *sched_b);
        assert_eq!(a, b, "[{context}] step {step}: outcome diverged");
        assert_eq!(
            fast.configuration(),
            full.configuration(),
            "[{context}] step {step}: configuration diverged"
        );
        assert_eq!(
            fast.last_changed(),
            full.last_changed(),
            "[{context}] step {step}: changed-node list diverged"
        );
        if a.round_completed {
            if let (Some(ia), Some(ib)) = (injector_a.as_mut(), injector_b.as_mut()) {
                let va = ia.on_round(&mut fast);
                let vb = ib.on_round(&mut full);
                assert_eq!(va, vb, "[{context}] step {step}: fault victims diverged");
            }
        }
    }
    assert_eq!(fast.time(), full.time(), "[{context}] time diverged");
    assert_eq!(fast.rounds(), full.rounds(), "[{context}] rounds diverged");
    assert_eq!(
        fast.counters(),
        full.counters(),
        "[{context}] per-node metrics diverged"
    );
    assert!(
        fast.validate_incremental_sensing(),
        "[{context}] active-set sensing state inconsistent"
    );
}

/// The full differential matrix for the paper's deterministic unison
/// algorithm: active-set ≡ full-scan across six schedulers × dense/sparse,
/// under periodic fault injection and a mid-run snapshot/restore.
#[test]
fn active_set_matches_full_scan_across_schedulers_modes_and_engines() {
    let graph = Topology::Grid { rows: 3, cols: 4 }.build_deterministic();
    let n = graph.node_count();
    let alg = AlgAu::new(graph.diameter());
    let palette = alg.states();
    let init: Vec<_> = (0..n)
        .map(|v| palette[(v * 7 + 2) % palette.len()])
        .collect();
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            assert_active_set_matches_full_scan(
                &alg,
                &graph,
                init.clone(),
                0xd1_47_00,
                mode,
                factory.as_ref(),
                Some(&palette),
                40,
                &format!("active-set/{sched_name}/{mode_name}"),
            );
        }
    }
}

/// A deterministic spread toy whose synchronous trajectory reaches a
/// *uniform* fixpoint — the frontier must drain to empty through the
/// uniform-noop fast path, and a corruption must re-open exactly one
/// closed neighborhood.
struct Spread;

impl Algorithm for Spread {
    type State = u8;
    type Output = u8;
    fn output(&self, s: &u8) -> Option<u8> {
        Some(*s)
    }
    fn transition(&self, s: &u8, sig: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
        if *s == 1 || sig.senses(&1) {
            1
        } else {
            0
        }
    }
    fn dense_state_space(&self) -> Option<Vec<u8>> {
        Some(vec![0, 1])
    }
    fn transition_is_deterministic(&self) -> bool {
        true
    }
}

/// On a fixpoint the frontier drains to empty, stays empty across further
/// rounds, and a targeted corruption re-dirties only the victim's closed
/// neighborhood; the trajectory keeps matching the full scan throughout.
#[test]
fn frontier_drains_on_fixpoint_and_reopens_on_corruption() {
    let graph = Graph::grid(4, 4);
    let n = graph.node_count();
    let mut init = vec![0u8; n];
    init[5] = 1;
    let mut fast = ExecutionBuilder::new(&Spread, &graph)
        .seed(9)
        .active_set(true)
        .initial(init.clone());
    let mut full = ExecutionBuilder::new(&Spread, &graph)
        .seed(9)
        .active_set(false)
        .initial(init);
    let mut sched_a = SynchronousScheduler;
    let mut sched_b = SynchronousScheduler;
    // 4×4 grid: diameter 6, so 10 rounds reach the all-ones fixpoint.
    for _ in 0..10 {
        fast.step_with(&mut sched_a);
        full.step_with(&mut sched_b);
    }
    assert!(fast.configuration().iter().all(|s| *s == 1));
    assert_eq!(fast.dirty_count(), 0, "frontier must drain on a fixpoint");
    assert_eq!(full.dirty_count(), n, "full-scan reports all nodes");
    for _ in 0..3 {
        fast.step_with(&mut sched_a);
        full.step_with(&mut sched_b);
        assert_eq!(fast.dirty_count(), 0, "a stable round must not re-dirty");
    }
    // Corrupt one node back to 0: exactly its closed neighborhood re-opens.
    fast.corrupt(5, 0);
    full.corrupt(5, 0);
    assert_eq!(
        fast.dirty_count(),
        graph.inclusive_neighbors(5).len(),
        "corruption must re-open the victim's closed neighborhood"
    );
    for step in 0..6 {
        fast.step_with(&mut sched_a);
        full.step_with(&mut sched_b);
        assert_eq!(
            fast.configuration(),
            full.configuration(),
            "step {step} after corruption diverged"
        );
    }
    assert_eq!(fast.configuration(), full.configuration());
    assert_eq!(fast.counters(), full.counters());
    assert_eq!(fast.dirty_count(), 0, "healed fixpoint must drain again");
}

/// Randomized algorithms never get a frontier — their transitions draw
/// coins, so a clean node's re-evaluation is *not* the identity. Even an
/// explicit opt-in must be refused.
#[test]
fn randomized_algorithms_never_use_the_active_set() {
    let graph = Graph::cycle(8);
    let exec = ExecutionBuilder::new(&NoisyAdopt, &graph)
        .seed(4)
        .active_set(true)
        .initial(vec![0u8; 8]);
    assert!(!exec.uses_active_set());
    assert_eq!(exec.dirty_count(), 8, "no frontier: reports every node");
}

/// Regression (PR 1): seeded trajectories of randomized algorithms are
/// independent of the order in which a scripted schedule lists its
/// activation sets — an out-of-order replay equals the ascending-id replay.
#[test]
fn scripted_out_of_order_schedule_replays_like_ascending_order() {
    let graph = Graph::cycle(7);
    let init: Vec<u8> = vec![0; 7];
    let shuffled = ScriptedScheduler::new(vec![
        vec![5, 1, 3],
        vec![6, 0],
        vec![2, 4, 2, 0],
        vec![6, 5, 4, 3, 2, 1, 0],
    ]);
    let ascending = ScriptedScheduler::new(vec![
        vec![1, 3, 5],
        vec![0, 6],
        vec![0, 2, 4],
        vec![0, 1, 2, 3, 4, 5, 6],
    ]);
    let mut a = ExecutionBuilder::new(&NoisyAdopt, &graph)
        .seed(21)
        .initial(init.clone());
    let mut b = ExecutionBuilder::new(&NoisyAdopt, &graph)
        .seed(21)
        .initial(init);
    let mut sched_a = shuffled;
    let mut sched_b = ascending;
    for step in 0..40 {
        let oa = a.step_with(&mut sched_a);
        let ob = b.step_with(&mut sched_b);
        assert_eq!(oa, ob, "step {step}: outcome diverged");
        assert_eq!(
            a.configuration(),
            b.configuration(),
            "step {step}: an out-of-order schedule changed the trajectory"
        );
    }
    assert_eq!(a.counters(), b.counters());
    assert_eq!(a.rounds(), b.rounds());
}
