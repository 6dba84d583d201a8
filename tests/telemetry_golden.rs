//! Recorder transparency: running any engine under a telemetry
//! [`Recorder`] — no-op or metrics — must leave the engine's outcome
//! byte-identical to the untraced run, the recorder's own tables must agree
//! with that outcome, and a traced run's event log must survive the
//! JSONL round trip. One test per arena, plus the exporter loop.

use fat_tree::core::rng::SplitMix64;
use fat_tree::prelude::*;
use fat_tree::sched::SchedArena;
use fat_tree::sim::{run_to_completion, run_to_completion_with};
use fat_tree::telemetry::{parse_jsonl, EnginePhase};

fn random2(n: u32, seed: u64) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..2 * n)
        .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

#[test]
fn sim_arena_outcome_identical_with_any_recorder() {
    for n in [32u32, 128] {
        let ft = FatTree::universal(n, (n / 4) as u64);
        let msgs = random2(n, 0xA11CE ^ n as u64);
        let cfg = SimConfig::default();
        let plain = run_to_completion(&ft, &msgs, &cfg);
        let mut noop = NoopRecorder;
        let with_noop = run_to_completion_with(&ft, &msgs, &cfg, &mut noop);
        let mut rec = MetricsRecorder::new();
        let with_metrics = run_to_completion_with(&ft, &msgs, &cfg, &mut rec);

        for (tag, run) in [("noop", &with_noop), ("metrics", &with_metrics)] {
            assert_eq!(plain.cycles, run.cycles, "n={n} {tag}");
            assert_eq!(
                plain.delivered_per_cycle, run.delivered_per_cycle,
                "n={n} {tag}"
            );
            assert_eq!(plain.delivery_order, run.delivery_order, "n={n} {tag}");
        }
        // The recorder's cycle series is the engine's, verbatim.
        let rec_cycles: Vec<usize> = rec
            .delivered_per_cycle
            .iter()
            .map(|&d| d as usize)
            .collect();
        assert_eq!(rec_cycles, plain.delivered_per_cycle, "n={n}");
        assert_eq!(rec.cycles as usize, plain.cycles, "n={n}");
        // Every channel reports a load observation every cycle.
        let obs: u64 = rec.load_hist.iter().map(|h| h.total()).sum();
        assert_eq!(obs, (plain.cycles * ft.channels().count()) as u64, "n={n}");
    }
}

/// Logs every λ tally site in call order.
#[derive(Default)]
struct LambdaLog(Vec<(u32, u64, u64)>);

impl Recorder for LambdaLog {
    const ENABLED: bool = true;
    fn lambda_site(&mut self, level: u32, load: u64, cap: u64) {
        self.0.push((level, load, cap));
    }
}

/// `ftsim serve` steers admission by the λ sites the scheduler reports, so
/// their order is part of the contract: every channel, levels from the
/// leaves up, nodes in reverse heap order, up before down, with the path
/// walk's load and the level's capacity.
#[test]
fn sched_arena_reports_every_lambda_site_in_order() {
    for (n, seed) in [(16u32, 1u64), (64, 2), (256, 3)] {
        let ft = FatTree::universal(n, (n / 4) as u64);
        let mut msgs = random2(n, 0x1A4 ^ seed);
        msgs.push(Message::new(3, 3));
        let lm = LoadMap::of(&ft, &msgs);
        let mut want = Vec::new();
        for level in (1..=ft.height()).rev() {
            let cap = ft.cap_at_level(level);
            for u in (1u32 << level..2 << level).rev() {
                want.push((level, lm.get(ChannelId::up(u)), cap));
                want.push((level, lm.get(ChannelId::down(u)), cap));
            }
        }
        let mut arena = SchedArena::new(&ft);
        for _ in 0..2 {
            let mut log = LambdaLog::default();
            arena.schedule_with(&ft, &msgs, 1, &mut log);
            assert_eq!(log.0, want, "n={n}");
        }
    }
}

#[test]
fn sched_arena_schedule_identical_with_any_recorder() {
    for n in [64u32, 256] {
        let ft = FatTree::universal(n, (n / 4) as u64);
        let msgs = random2(n, 0xBEE ^ n as u64);
        let plain = SchedArena::new(&ft).schedule(&ft, &msgs, 1).0;
        let mut rec = MetricsRecorder::new();
        let traced = SchedArena::new(&ft)
            .schedule_with(&ft, &msgs, 1, &mut rec)
            .0;
        assert_eq!(plain.num_cycles(), traced.num_cycles(), "n={n}");
        assert_eq!(plain.cycles(), traced.cycles(), "n={n}");
        // The λ sweep fed every tally site: its max is the load factor.
        let lambda = load_factor(&ft, &msgs);
        assert!(
            (rec.lambda_max() - lambda).abs() < 1e-9,
            "n={n}: recorder λ {} vs load_factor {lambda}",
            rec.lambda_max()
        );
        assert!(
            rec.split_sizes.total() > 0,
            "n={n}: splitter never reported"
        );
        // Phase attribution: exactly the scheduler's three phases report.
        for (p, ns) in EnginePhase::ALL.iter().zip(rec.phase_ns) {
            let own = matches!(
                p,
                EnginePhase::Ingest | EnginePhase::Refine | EnginePhase::Emit
            );
            assert_eq!(ns > 0, own, "n={n}: phase {} read {ns} ns", p.name());
        }
    }
}

#[test]
fn online_arena_outcome_identical_with_any_recorder() {
    for n in [64u32, 256] {
        let ft = FatTree::universal(n, (n / 4) as u64);
        let msgs = random2(n, 0xD0E ^ n as u64);
        let cfg = OnlineConfig::default();
        let mut arena = OnlineArena::new(&ft);
        let plain = arena.route(&ft, &msgs, &mut SplitMix64::seed_from_u64(7), cfg);
        let mut rec = MetricsRecorder::new();
        let traced = arena.route_with(&ft, &msgs, &mut SplitMix64::seed_from_u64(7), cfg, &mut rec);
        assert_eq!(plain.cycles, traced.cycles, "n={n}");
        assert_eq!(
            plain.delivered_per_cycle, traced.delivered_per_cycle,
            "n={n}"
        );
        let rec_cycles: Vec<usize> = rec
            .delivered_per_cycle
            .iter()
            .map(|&d| d as usize)
            .collect();
        assert_eq!(rec_cycles, plain.delivered_per_cycle, "n={n}");
        assert_eq!(rec.total_delivered() as usize, msgs.len(), "n={n}");
    }
}

#[test]
fn traced_run_exports_and_round_trips() {
    let n = 64u32;
    let ft = FatTree::universal(n, (n / 4) as u64);
    let msgs = random2(n, 0xFEED);
    let mut rec = MetricsRecorder::with_trace(1 << 12);
    OnlineArena::new(&ft).route_with(
        &ft,
        &msgs,
        &mut SplitMix64::seed_from_u64(3),
        OnlineConfig::default(),
        &mut rec,
    );
    assert!(!rec.ring.is_empty(), "trace captured nothing");
    let jsonl = rec.ring.export_jsonl();
    let parsed = parse_jsonl(&jsonl).expect("exported JSONL must parse");
    let original: Vec<_> = rec.ring.iter().collect();
    assert_eq!(parsed, original, "JSONL round trip must be lossless");
    // CSV carries the same rows (header + one line per event).
    let csv = rec.ring.export_csv();
    assert_eq!(csv.lines().count(), original.len() + 1);
}
