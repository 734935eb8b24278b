//! Checkpoint/restore round-trips are bit-identical to uninterrupted runs.
//!
//! The `sa` CLI checkpoints in-flight executions and resumes them after an
//! interruption; correctness rests on one property: **snapshot → serialize →
//! restore → run to completion equals an uninterrupted run in every
//! observable** (configurations, step outcomes, per-node metrics, round
//! accounting, fault victims). These tests pin that property across all six
//! schedulers, dense and sparse signal modes, with and without fault
//! injection, for the paper's deterministic
//! unison algorithm and for a randomized algorithm (whose identical
//! trajectories additionally prove the per-node coin streams re-key
//! correctly across the resume boundary).
//!
//! The final test exercises the same property one level up, through the
//! sweep runner's JSON checkpoint documents (`sa_bench::sweep`), killing a
//! unit repeatedly until it completes.

use rand::RngCore;
use sa_bench::sweep::{
    CheckpointPolicy, SchedulerSpec, SweepSpec, SweepUnit, UnitOutcome, UnitResult,
};
use stone_age_unison::model::algorithm::{Algorithm, StateSpace};
use stone_age_unison::model::json::JsonValue;
use stone_age_unison::model::prelude::*;
use stone_age_unison::unison::AlgAu;

/// A randomized toy algorithm with a variable number of RNG draws per
/// activation (stream divergence after a resume would be loud).
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

type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

/// The six built-in scheduler families (the scripted entry deliberately
/// lists nodes out of order and with duplicates).
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

fn fault_plan() -> FaultPlan {
    FaultPlan::Periodic {
        period: 2,
        count: 2,
    }
}

/// Runs the reference uninterrupted; runs a twin that is snapshotted at
/// `cut` steps, serialized through the JSON codec, restored into *fresh*
/// execution/scheduler/injector objects, and continued — asserting
/// bit-identity in every observable at every post-resume step.
#[allow(clippy::too_many_arguments)]
fn assert_roundtrip_equivalence<A, E, D>(
    alg: &A,
    graph: &Graph,
    init: Vec<A::State>,
    seed: u64,
    mode: SignalMode,
    make_sched: &dyn Fn() -> Box<dyn Scheduler>,
    fault_palette: Option<&[A::State]>,
    encode: E,
    decode: D,
    cut: usize,
    steps: usize,
    context: &str,
) where
    A: Algorithm,
    E: Fn(&A::State) -> JsonValue,
    D: Fn(&JsonValue) -> Option<A::State>,
{
    let mut reference = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .initial(init.clone());
    let mut twin = ExecutionBuilder::new(alg, graph)
        .seed(seed)
        .signal_mode(mode)
        .initial(init);
    let mut sched_ref = make_sched();
    let mut sched_twin = make_sched();
    let make_injector =
        || fault_palette.map(|p| FaultInjector::new(fault_plan(), p.to_vec(), seed));
    let mut injector_ref = make_injector();
    let mut injector_twin = make_injector();

    let drive = |exec: &mut Execution<'_, A>,
                 sched: &mut Box<dyn Scheduler>,
                 injector: &mut Option<FaultInjector<A::State>>|
     -> (StepOutcome, Vec<usize>) {
        let outcome = exec.step_with(&mut **sched);
        let victims = if outcome.round_completed {
            injector
                .as_mut()
                .map(|i| i.on_round(exec))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        (outcome, victims)
    };

    // Advance both to the cut point.
    for _ in 0..cut {
        drive(&mut reference, &mut sched_ref, &mut injector_ref);
        drive(&mut twin, &mut sched_twin, &mut injector_twin);
    }

    // Snapshot the twin and push everything through the JSON codec.
    let exec_json = twin.snapshot().to_json(&encode).render_pretty();
    let sched_position = sched_twin.checkpoint_position();
    let injector_json = injector_twin
        .as_ref()
        .map(|i| i.snapshot().to_json().render());
    drop(twin);
    drop(sched_twin);
    drop(injector_twin);

    // Restore into fresh objects.
    let snap = stone_age_unison::model::snapshot::ExecutionSnapshot::from_json(
        &JsonValue::parse(&exec_json).expect("snapshot JSON parses"),
        &decode,
    )
    .expect("snapshot deserializes");
    let mut resumed = ExecutionBuilder::new(alg, graph)
        .signal_mode(mode)
        .resume(&snap);
    let mut sched_resumed = make_sched();
    sched_resumed.restore_position(sched_position);
    let mut injector_resumed = make_injector();
    if let (Some(injector), Some(json)) = (injector_resumed.as_mut(), injector_json) {
        let snap = stone_age_unison::model::fault::FaultInjectorSnapshot::from_json(
            &JsonValue::parse(&json).expect("injector JSON parses"),
        )
        .expect("injector snapshot deserializes");
        injector.restore(&snap);
    }

    assert_eq!(resumed.time(), reference.time(), "[{context}] cut time");
    // Run both to the horizon, comparing every observable.
    for step in cut..steps {
        let (a, va) = drive(&mut reference, &mut sched_ref, &mut injector_ref);
        let (b, vb) = drive(&mut resumed, &mut sched_resumed, &mut injector_resumed);
        assert_eq!(a, b, "[{context}] step {step}: outcome diverged");
        assert_eq!(va, vb, "[{context}] step {step}: fault victims diverged");
        assert_eq!(
            reference.configuration(),
            resumed.configuration(),
            "[{context}] step {step}: configuration diverged"
        );
        assert_eq!(
            reference.last_changed(),
            resumed.last_changed(),
            "[{context}] step {step}: changed-node list diverged"
        );
    }
    assert_eq!(reference.rounds(), resumed.rounds(), "[{context}] rounds");
    assert_eq!(
        reference.counters(),
        resumed.counters(),
        "[{context}] per-node metrics diverged"
    );
    assert!(
        resumed.validate_incremental_sensing(),
        "[{context}] resumed sensing state inconsistent"
    );
}

/// AlgAU (deterministic) across six schedulers × dense/sparse, with fault
/// injection, cutting at several offsets (including mid-round cuts).
#[test]
fn algau_checkpoint_roundtrip_across_schedulers_modes_engines_and_faults() {
    let graph = Topology::Grid { rows: 3, cols: 4 }.build_deterministic();
    let n = graph.node_count();
    let alg = AlgAu::new(graph.diameter());
    let palette = alg.states();
    let init: Vec<_> = (0..n).map(|v| palette[v * 7 % palette.len()]).collect();
    let enc = |s: &stone_age_unison::unison::Turn| {
        JsonValue::Number(palette.iter().position(|p| p == s).unwrap() as f64)
    };
    let dec = |v: &JsonValue| v.as_usize().and_then(|i| palette.get(i).copied());
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            for cut in [1usize, 13] {
                assert_roundtrip_equivalence(
                    &alg,
                    &graph,
                    init.clone(),
                    0xc0_ffee,
                    mode,
                    factory.as_ref(),
                    Some(&palette),
                    enc,
                    dec,
                    cut,
                    40,
                    &format!("algau/{sched_name}/{mode_name}/cut={cut}"),
                );
            }
        }
    }
}

/// The same matrix for a randomized algorithm: identical post-resume
/// trajectories prove the counter-based coin streams continue exactly.
#[test]
fn randomized_checkpoint_roundtrip_across_schedulers_modes_engines_and_faults() {
    let graph = Topology::Cycle { n: 11 }.build_deterministic();
    let n = graph.node_count();
    let init: Vec<u8> = (0..n as u8).map(|v| v % 6).collect();
    let palette: Vec<u8> = (0..6).collect();
    let enc = |s: &u8| JsonValue::Number(*s as f64);
    let dec = |v: &JsonValue| v.as_usize().map(|x| x as u8);
    for (sched_name, factory) in scheduler_factories(n) {
        for (mode_name, mode) in [("dense", SignalMode::Auto), ("sparse", SignalMode::Sparse)] {
            assert_roundtrip_equivalence(
                &NoisyAdopt,
                &graph,
                init.clone(),
                0x5eed,
                mode,
                factory.as_ref(),
                Some(&palette),
                enc,
                dec,
                17,
                45,
                &format!("noisy/{sched_name}/{mode_name}"),
            );
        }
    }
}

/// A snapshot taken after a mid-run degrade to the sparse fallback restores
/// onto the sparse path and stays equivalent.
#[test]
fn checkpoint_after_degrade_restores_on_the_sparse_path() {
    let graph = Graph::grid(3, 3);
    let mut reference = ExecutionBuilder::new(&NoisyAdopt, &graph)
        .seed(3)
        .initial(vec![0u8; 9]);
    let mut twin = ExecutionBuilder::new(&NoisyAdopt, &graph)
        .seed(3)
        .initial(vec![0u8; 9]);
    let mut sched_a = SynchronousScheduler;
    let mut sched_b = SynchronousScheduler;
    for _ in 0..5 {
        reference.step_with(&mut sched_a);
        twin.step_with(&mut sched_b);
    }
    reference.corrupt(4, 77); // outside the declared space: degrade
    twin.corrupt(4, 77);
    assert!(!twin.uses_dense_signals());
    let json = twin
        .snapshot()
        .to_json(|s| JsonValue::Number(*s as f64))
        .render();
    let snap = stone_age_unison::model::snapshot::ExecutionSnapshot::from_json(
        &JsonValue::parse(&json).unwrap(),
        |v| v.as_usize().map(|x| x as u8),
    )
    .unwrap();
    assert!(!snap.dense);
    let mut resumed = ExecutionBuilder::new(&NoisyAdopt, &graph).resume(&snap);
    assert!(!resumed.uses_dense_signals());
    for step in 0..25 {
        reference.step_with(&mut sched_a);
        resumed.step_with(&mut sched_b);
        assert_eq!(
            reference.configuration(),
            resumed.configuration(),
            "step {step}"
        );
    }
    assert_eq!(reference.counters(), resumed.counters());
}

/// The sweep runner's JSON checkpoint documents resume bit-identically:
/// a unit killed every few steps and resumed from disk-format checkpoints
/// finishes with exactly the result of an uninterrupted run — across two
/// schedulers and with fault injection (the CI `sweep-smoke` job re-checks
/// this end-to-end through the `sa` binary and file system).
#[test]
fn sweep_unit_kill_resume_matches_uninterrupted() {
    let spec = SweepSpec::parse(
        r#"{
          "name": "roundtrip",
          "tasks": [{
            "id": "RT",
            "kind": "stabilization",
            "topologies": [{"kind": "torus", "rows": 3, "cols": 3}],
            "schedulers": ["round-robin", {"kind": "uniform-random", "p": 0.5}],
            "fault": {"kind": "periodic", "period": 4, "count": 1},
            "seeds": 2,
            "max_rounds": 5000
          }]
        }"#,
    )
    .expect("spec parses");
    let units = spec.execution_units();
    assert_eq!(units.len(), 4);
    let complete = |unit: &SweepUnit, policy: &CheckpointPolicy<'_>| {
        sa_bench::sweep::run_unit(unit, policy).expect("unit runs")
    };
    for unit in &units {
        let reference: UnitResult = match complete(unit, &CheckpointPolicy::default()) {
            UnitOutcome::Complete(r) => r,
            UnitOutcome::Interrupted(_) => unreachable!(),
        };
        let mut checkpoint: Option<JsonValue> = None;
        let mut kills = 0usize;
        let resumed = loop {
            let policy = CheckpointPolicy {
                every_steps: 0,
                sink: None,
                resume_from: checkpoint.as_ref(),
                interrupt_after_steps: Some(11),
                cancel: None,
            };
            match complete(unit, &policy) {
                UnitOutcome::Complete(r) => break r,
                UnitOutcome::Interrupted(doc) => {
                    kills += 1;
                    assert!(kills < 10_000, "unit {} never finished", unit.id());
                    // serialize → parse round-trip, as the CLI's state files do
                    checkpoint =
                        Some(JsonValue::parse(&doc.render_pretty()).expect("checkpoint parses"));
                }
            }
        };
        assert!(
            kills > 0,
            "unit {} finished before the first kill",
            unit.id()
        );
        assert_eq!(
            resumed,
            reference,
            "unit {} diverged after resume",
            unit.id()
        );
    }
    // sanity: the declarative scheduler vocabulary covers what we swept
    assert_eq!(SchedulerSpec::RoundRobin.label(), "round-robin");
}

/// Kill/resume through the **binary** checkpoint codec: transcoding every
/// interrupt document through `binary::encode → decode` must hand back the
/// *identical* document (same rendered bytes), and the resumed run must
/// finish bit-identical to both the JSON-path resume and the uninterrupted
/// reference. This is the in-process twin of the CI `sweep-smoke` job's
/// binary kill/resume leg.
#[test]
fn sweep_unit_kill_resume_through_binary_codec_matches_json() {
    use stone_age_unison::model::binary;
    let spec = SweepSpec::parse(
        r#"{
          "name": "binary-roundtrip",
          "tasks": [{
            "id": "BR",
            "kind": "stabilization",
            "topologies": [{"kind": "torus", "rows": 3, "cols": 3}],
            "schedulers": ["round-robin"],
            "fault": {"kind": "periodic", "period": 4, "count": 1},
            "seeds": 1,
            "max_rounds": 5000
          }]
        }"#,
    )
    .expect("spec parses");
    let units = spec.execution_units();
    assert_eq!(units.len(), 1);
    let complete = |unit: &SweepUnit, policy: &CheckpointPolicy<'_>| {
        sa_bench::sweep::run_unit(unit, policy).expect("unit runs")
    };
    // Kill/resume driver, parameterized by the checkpoint transcoding that
    // stands in for the CLI's disk round-trip.
    let kill_resume = |unit: &SweepUnit, transcode: &dyn Fn(&JsonValue) -> JsonValue| {
        let mut checkpoint: Option<JsonValue> = None;
        let mut kills = 0usize;
        loop {
            let policy = CheckpointPolicy {
                every_steps: 0,
                sink: None,
                resume_from: checkpoint.as_ref(),
                interrupt_after_steps: Some(9),
                cancel: None,
            };
            match complete(unit, &policy) {
                UnitOutcome::Complete(r) => break (r, kills),
                UnitOutcome::Interrupted(doc) => {
                    kills += 1;
                    assert!(kills < 10_000, "unit {} never finished", unit.id());
                    checkpoint = Some(transcode(&doc));
                }
            }
        }
    };
    for unit in &units {
        let reference: UnitResult = match complete(unit, &CheckpointPolicy::default()) {
            UnitOutcome::Complete(r) => r,
            UnitOutcome::Interrupted(_) => unreachable!(),
        };
        let (via_json, json_kills) = kill_resume(unit, &|doc| {
            JsonValue::parse(&doc.render_pretty()).expect("checkpoint parses")
        });
        let (via_binary, binary_kills) = kill_resume(unit, &|doc| {
            let bytes = binary::encode(doc);
            assert!(
                binary::is_binary(&bytes),
                "encoded checkpoints must carry the magic"
            );
            let decoded = binary::decode(&bytes).expect("binary checkpoint decodes");
            assert_eq!(
                decoded.render_pretty(),
                doc.render_pretty(),
                "binary transcoding must preserve the document byte for byte"
            );
            decoded
        });
        assert!(json_kills > 0 && binary_kills > 0, "probe must interrupt");
        assert_eq!(
            via_json,
            reference,
            "unit {}: JSON-path resume diverged",
            unit.id()
        );
        assert_eq!(
            via_binary,
            reference,
            "unit {}: binary-path resume diverged",
            unit.id()
        );
    }
}

/// The binary codec earns its keep at scale: on a 10⁴-node unit's live
/// checkpoint document (whose bulk is palette-index state arrays that the
/// codec writes as 1–2-byte varints), the encoding must be at least 10×
/// smaller than the pretty-printed JSON the runner would otherwise write.
#[test]
fn binary_checkpoints_are_an_order_of_magnitude_smaller() {
    use stone_age_unison::model::binary;
    let spec = SweepSpec::parse(
        r#"{
          "name": "size-probe",
          "tasks": [{
            "id": "SZ",
            "kind": "stabilization",
            "algorithms": ["min-plus-one"],
            "topologies": [{"kind": "torus", "rows": 100, "cols": 100}],
            "schedulers": ["synchronous"],
            "engines": ["serial"],
            "seeds": 1,
            "max_rounds": 100000
          }]
        }"#,
    )
    .expect("spec parses");
    let units = spec.execution_units();
    let policy = CheckpointPolicy {
        every_steps: 0,
        sink: None,
        resume_from: None,
        interrupt_after_steps: Some(25),
        cancel: None,
    };
    let doc = match sa_bench::sweep::run_unit(&units[0], &policy).expect("unit runs") {
        UnitOutcome::Interrupted(doc) => doc,
        UnitOutcome::Complete(_) => panic!("size probe must interrupt mid-run"),
    };
    let json = doc.render_pretty();
    let bytes = binary::encode(&doc);
    assert!(
        bytes.len() * 10 <= json.len(),
        "binary checkpoint must be ≥10x smaller: {} bytes binary vs {} bytes JSON",
        bytes.len(),
        json.len()
    );
    assert_eq!(
        binary::decode(&bytes).expect("decodes"),
        doc,
        "compact encoding must stay lossless"
    );
}

/// The same kill/resume ≡ uninterrupted property for the new unit kinds of
/// the `algorithm` axis — the min-plus-one baseline and the LE/MIS
/// algorithms lifted through the synchronizer — and for a fault-recovery
/// scenario unit whose kills land inside the recovery phase too (the burst
/// bookkeeping is part of the checkpoint document).
#[test]
fn multi_algorithm_and_scenario_units_kill_resume_match_uninterrupted() {
    let spec = SweepSpec::parse(
        r#"{
          "name": "axis-roundtrip",
          "tasks": [
            {
              "id": "AX",
              "kind": "stabilization",
              "algorithms": ["min-plus-one", "le", "mis"],
              "topologies": [{"kind": "cycle", "n": 5}],
              "schedulers": [{"kind": "uniform-random", "p": 0.5}],
              "seeds": 1,
              "max_rounds": 100000
            },
            {
              "id": "SC",
              "kind": "scenario",
              "scenario": {"kind": "pulse", "segments": 3, "cells_per_segment": 2},
              "harshness": "severe",
              "bursts": 2,
              "schedulers": ["round-robin"],
              "seeds": 1,
              "max_rounds": 100000
            }
          ]
        }"#,
    )
    .expect("spec parses");
    let units = spec.execution_units();
    assert_eq!(units.len(), 4);
    let complete = |unit: &SweepUnit, policy: &CheckpointPolicy<'_>| {
        sa_bench::sweep::run_unit(unit, policy).expect("unit runs")
    };
    for unit in &units {
        let reference: UnitResult = match complete(unit, &CheckpointPolicy::default()) {
            UnitOutcome::Complete(r) => r,
            UnitOutcome::Interrupted(_) => unreachable!(),
        };
        assert!(reference.is_clean(), "unit {}: {reference:?}", unit.id());
        if unit.recovery.is_some() {
            assert_eq!(reference.recovery_rounds.len(), 2, "both bursts recovered");
        }
        let mut checkpoint: Option<JsonValue> = None;
        let mut kills = 0usize;
        let resumed = loop {
            let policy = CheckpointPolicy {
                every_steps: 0,
                sink: None,
                resume_from: checkpoint.as_ref(),
                interrupt_after_steps: Some(7),
                cancel: None,
            };
            match complete(unit, &policy) {
                UnitOutcome::Complete(r) => break r,
                UnitOutcome::Interrupted(doc) => {
                    kills += 1;
                    assert!(kills < 100_000, "unit {} never finished", unit.id());
                    // serialize → parse round-trip, as the CLI's state files do
                    checkpoint =
                        Some(JsonValue::parse(&doc.render_pretty()).expect("checkpoint parses"));
                }
            }
        };
        assert!(
            kills > 0,
            "unit {} finished before the first kill",
            unit.id()
        );
        assert_eq!(
            resumed,
            reference,
            "unit {} diverged after resume",
            unit.id()
        );
    }
}
