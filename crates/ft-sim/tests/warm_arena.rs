//! The run drivers' per-thread warm arena must be invisible. One thread
//! interleaves runs that differ in every part of the arena's key (profile
//! at equal `n`, `n`, fault pattern) and in everything read per cycle
//! (switch kind, arbitration, cycle body, recorder, streamed or
//! materialised input); every `RunReport` must equal a fresh thread's run
//! and the reference engine's. Re-entrant runs, a run that panics mid-way
//! and two threads running side by side must not disturb it either. Both
//! run functions are one loop, so a recorder sees the same run from either.

use ft_core::rng::SplitMix64;
use ft_core::{CapacityProfile, FatTree, MessageSet, MessageStream};
use ft_sim::reference::run_to_completion_reference;
use ft_sim::{
    run_stream_to_completion, run_stream_to_completion_with, run_to_completion,
    run_to_completion_with, Arbitration, FaultModel, MetaWidth, RunReport, SimConfig, SwitchKind,
};
use ft_telemetry::{EnginePhase, MetricsRecorder, Recorder};
use ft_workloads::{PermutationStream, RelationStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// Two trees of equal `n` and different profiles, and a third `n`.
fn trees() -> [FatTree; 3] {
    [
        FatTree::universal(64, 16),
        FatTree::new(64, CapacityProfile::Constant(2)),
        FatTree::universal(128, 32),
    ]
}

/// One driver call of the interleaving.
#[derive(Clone, Copy, Debug)]
struct Call {
    tree: usize,
    cfg: SimConfig,
    recorded: bool,
    streamed: bool,
    seed: u64,
}

/// Every combination of tree, fault pattern, switch kind, arbitration,
/// cycle body, recorder and input kind, in a seeded order: consecutive
/// calls often share a key (the slot is reused across configurations) and
/// more often do not (it is replaced). Partial switches run healthy trees
/// only: with dead wires their fixed wiring strands some message on a dead
/// output in every cycle, and the run stalls in every engine alike.
fn calls() -> Vec<Call> {
    let faulty = FaultModel {
        dead_wire_fraction: 0.2,
        seed: 3,
    };
    let mut calls = Vec::new();
    for tree in 0..trees().len() {
        for faults in [FaultModel::none(), faulty] {
            for switch in [SwitchKind::Ideal, SwitchKind::Partial] {
                if switch == SwitchKind::Partial && faults == faulty {
                    continue;
                }
                for arbitration in [Arbitration::SlotOrder, Arbitration::Random(0xC0DE)] {
                    for meta in [MetaWidth::Auto, MetaWidth::Wide] {
                        for recorded in [false, true] {
                            for streamed in [false, true] {
                                let cfg = SimConfig {
                                    payload_bits: 16,
                                    switch,
                                    arbitration,
                                    faults,
                                    meta,
                                };
                                let seed = calls.len() as u64;
                                calls.push(Call {
                                    tree,
                                    cfg,
                                    recorded,
                                    streamed,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    SplitMix64::seed_from_u64(0x3A2E).shuffle(&mut calls);
    calls
}

/// A permutation or a 2-relation on `n` processors.
fn input(n: u32, seed: u64) -> Box<dyn MessageStream> {
    if seed.is_multiple_of(2) {
        Box::new(PermutationStream::new(n, seed))
    } else {
        Box::new(RelationStream::new(n, 2, seed))
    }
}

/// Run `call` on the calling thread through the driver it names.
fn run(call: &Call, ft: &FatTree) -> RunReport {
    let s = input(ft.n(), call.seed);
    let cfg = &call.cfg;
    match (call.streamed, call.recorded) {
        (true, false) => run_stream_to_completion(ft, &*s, cfg),
        (true, true) => run_stream_to_completion_with(ft, &*s, cfg, &mut MetricsRecorder::new()),
        (false, false) => run_to_completion(ft, &s.collect_set(), cfg),
        (false, true) => {
            run_to_completion_with(ft, &s.collect_set(), cfg, &mut MetricsRecorder::new())
        }
    }
}

fn reference(call: &Call, ft: &FatTree) -> RunReport {
    run_to_completion_reference(ft, &input(ft.n(), call.seed).collect_set(), &call.cfg)
}

#[test]
fn interleaved_runs_match_fresh_threads_and_the_reference() {
    let trees = trees();
    for call in calls() {
        let ft = &trees[call.tree];
        let got = run(&call, ft);
        let fresh = thread::scope(|s| s.spawn(|| run(&call, ft)).join().unwrap());
        assert_eq!(got, fresh, "{call:?}");
        assert_eq!(got, reference(&call, ft), "{call:?}");
    }
}

/// Runs a nested `run_to_completion` from every `cycle_end` hook.
struct Reenter<'a> {
    ft: &'a FatTree,
    msgs: &'a MessageSet,
    cfg: SimConfig,
    nested: Vec<RunReport>,
}

impl Recorder for Reenter<'_> {
    fn cycle_end(&mut self, _cycle: u32, _delivered: u32) {
        self.nested
            .push(run_to_completion(self.ft, self.msgs, &self.cfg));
    }
}

#[test]
fn a_recorder_may_call_a_driver() {
    let trees = trees();
    let ft = &trees[0];
    let stream = RelationStream::new(ft.n(), 4, 7);
    let msgs = stream.collect_set();
    let cfg = SimConfig::default();
    let want = run_to_completion_reference(ft, &msgs, &cfg);
    // The nested runs share the outer run's key, then run on another tree.
    for (inner_ft, inner_msgs) in [(ft, &msgs), (&trees[1], &msgs)] {
        let mut rec = Reenter {
            ft: inner_ft,
            msgs: inner_msgs,
            cfg,
            nested: Vec::new(),
        };
        assert_eq!(
            run_stream_to_completion_with(ft, &stream, &cfg, &mut rec),
            want
        );
        assert_eq!(run_to_completion_with(ft, &msgs, &cfg, &mut rec), want);
        let inner_want = run_to_completion_reference(inner_ft, inner_msgs, &cfg);
        assert_eq!(rec.nested.len(), 2 * want.cycles);
        assert!(rec.nested.iter().all(|r| *r == inner_want));
    }
}

/// Gives up in the middle of a run.
struct PanicAt(u32);

impl Recorder for PanicAt {
    fn cycle_end(&mut self, cycle: u32, _delivered: u32) {
        assert_ne!(cycle, self.0, "recorder gave up mid-run");
    }
}

#[test]
fn a_run_that_panics_leaves_the_next_run_correct() {
    let ft = FatTree::universal(64, 16);
    let stream = RelationStream::new(64, 4, 11);
    let msgs = stream.collect_set();
    for cfg in [
        SimConfig::default(),
        SimConfig {
            switch: SwitchKind::Partial,
            ..Default::default()
        },
    ] {
        let want = run_to_completion_reference(&ft, &msgs, &cfg);
        assert!(want.cycles > 1, "the run must have a middle");
        let streamed = catch_unwind(AssertUnwindSafe(|| {
            run_stream_to_completion_with(&ft, &stream, &cfg, &mut PanicAt(0))
        }));
        assert!(streamed.is_err());
        assert_eq!(run_stream_to_completion(&ft, &stream, &cfg), want);
        let materialised = catch_unwind(AssertUnwindSafe(|| {
            run_to_completion_with(&ft, &msgs, &cfg, &mut PanicAt(0))
        }));
        assert!(materialised.is_err());
        assert_eq!(run_to_completion(&ft, &msgs, &cfg), want);
    }
}

#[test]
fn two_threads_get_identical_results() {
    let sequence = || {
        let trees = trees();
        calls()
            .iter()
            .map(|c| run(c, &trees[c.tree]))
            .collect::<Vec<_>>()
    };
    let (a, b) = thread::scope(|s| {
        let a = s.spawn(sequence);
        let b = s.spawn(sequence);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, b);
    assert_eq!(a, sequence());
}

/// A [`MetricsRecorder`] that also counts each engine phase's laps.
struct Laps {
    metrics: MetricsRecorder,
    laps: [u32; EnginePhase::ALL.len()],
}

impl Recorder for Laps {
    fn run_start(&mut self, height: u32) {
        self.metrics.run_start(height);
    }
    fn cycle_start(&mut self, cycle: u32, live: u32) {
        self.metrics.cycle_start(cycle, live);
    }
    fn cycle_end(&mut self, cycle: u32, delivered: u32) {
        self.metrics.cycle_end(cycle, delivered);
    }
    fn channel_load(&mut self, level: u32, load: u64, cap: u64) {
        self.metrics.channel_load(level, load, cap);
    }
    fn stream_ingest(&mut self, family: &'static str, messages: u64) {
        self.metrics.stream_ingest(family, messages);
    }
    fn engine_phase(&mut self, phase: EnginePhase, ns: u64) {
        self.laps[phase as usize] += 1;
        self.metrics.engine_phase(phase, ns);
    }
}

#[test]
fn both_run_functions_show_a_recorder_the_same_run() {
    let ft = FatTree::universal(128, 32);
    let stream = RelationStream::new(ft.n(), 3, 5);
    let set = stream.collect_set();
    let base = SimConfig::default();
    let faults = FaultModel {
        dead_wire_fraction: 0.2,
        seed: 3,
    };
    for cfg in [
        base,
        SimConfig {
            meta: MetaWidth::Wide,
            ..base
        },
        SimConfig {
            switch: SwitchKind::Partial,
            ..base
        },
        SimConfig {
            arbitration: Arbitration::Random(0xC0DE),
            ..base
        },
        SimConfig { faults, ..base },
    ] {
        let laps = || Laps {
            metrics: MetricsRecorder::new(),
            laps: [0; EnginePhase::ALL.len()],
        };
        let (mut of_set, mut of_stream) = (laps(), laps());
        let run = run_to_completion_with(&ft, &set, &cfg, &mut of_set);
        assert_eq!(
            run_stream_to_completion_with(&ft, &stream, &cfg, &mut of_stream),
            run,
            "{cfg:?}"
        );
        assert!(run.cycles > 1, "{cfg:?}: the run must retry");
        let (a, b) = (&of_set.metrics, &of_stream.metrics);
        assert_eq!(a.cycles, b.cycles, "{cfg:?}");
        assert_eq!(a.delivered_per_cycle, b.delivered_per_cycle, "{cfg:?}");
        assert_eq!(a.load_hist, b.load_hist, "{cfg:?}");
        assert_eq!(of_set.laps, of_stream.laps, "{cfg:?}");
        // Every cycle laps the sweeps once; the source is packed once.
        let cycles = run.cycles as u32;
        assert_eq!(of_set.laps[EnginePhase::UpSweep as usize], cycles);
        assert!(of_set.laps[EnginePhase::Ingest as usize] <= cycles + 1);
        // The one difference: only the streamed run reports its stream.
        assert!(a.stream_families.is_empty(), "{cfg:?}");
        assert_eq!(
            b.stream_families,
            [("random-relation", 1, set.len() as u64)],
            "{cfg:?}"
        );
    }
}
