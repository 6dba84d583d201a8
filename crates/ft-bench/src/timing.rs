//! A minimal, dependency-free micro-benchmark harness.
//!
//! The workspace builds offline, so `ft-perf` cannot pull in criterion.
//! This module provides the small slice of it that binary needs: warm up,
//! run batches until a time budget is spent, and report the minimum, the
//! median and the median absolute deviation of the per-iteration batch
//! times (see EXPERIMENTS.md).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Fastest per-iteration batch time.
    pub min: Duration,
    /// Median per-iteration time across batches.
    pub median: Duration,
    /// Median absolute deviation of the batch times from `median`.
    pub mad: Duration,
    /// Total iterations executed during measurement.
    pub iters: u64,
}

impl Measurement {
    /// Summarize per-iteration batch times (at least one) and print the
    /// criterion-style one-line summary.
    fn from_samples(name: &str, mut samples: Vec<Duration>, iters: u64) -> Self {
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let mut dev: Vec<Duration> = samples.iter().map(|s| s.abs_diff(median)).collect();
        dev.sort_unstable();
        let m = Measurement {
            min: samples[0],
            median,
            mad: dev[dev.len() / 2],
            iters,
        };
        println!(
            "{name:<40} {:>12.3?}/iter  (min {:.3?}, mad {:.3?}, {iters} iters)",
            m.median, m.min, m.mad
        );
        m
    }
}

/// Time `f` within `budget`, printing a criterion-style one-line summary.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot delete the work.
pub fn bench_with_budget<T>(
    name: &str,
    budget: Duration,
    f: &mut impl FnMut() -> T,
) -> Measurement {
    // Warm-up: one timed probe iteration sizes the batches.
    let probe = Instant::now();
    black_box(f());
    let once = probe.elapsed().max(Duration::from_nanos(1));

    // Aim for ~20 batches within the budget, at least 1 iteration each.
    let per_batch = (budget.as_nanos() / 20 / once.as_nanos()).clamp(1, 1 << 20) as u64;

    let mut samples: Vec<Duration> = Vec::new();
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        let t = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        samples.push(t.elapsed() / per_batch as u32);
        iters += per_batch;
        if samples.len() >= 200 {
            break;
        }
    }
    Measurement::from_samples(name, samples, iters)
}

/// An interleaved A/B comparison (see [`bench_duel`]).
#[derive(Clone, Debug)]
pub struct Duel {
    /// Side A's measurement.
    pub a: Measurement,
    /// Side B's measurement.
    pub b: Measurement,
    /// Median over paired rounds of (B per-iter time / A per-iter time).
    pub ratio: f64,
}

/// Time two closures in alternating batches and report the median of
/// per-round time ratios.
///
/// Measuring A for its whole budget and then B for its whole budget makes
/// the ratio hostage to slow-timescale machine noise — frequency drift,
/// shared-host neighbors — that moves between the two windows. Interleaving
/// the batches exposes both sides to the same noise, and taking the median
/// of per-round ratios (rather than the ratio of medians) cancels it.
pub fn bench_duel<T, U>(
    name_a: &str,
    name_b: &str,
    budget: Duration,
    a: &mut impl FnMut() -> T,
    b: &mut impl FnMut() -> U,
) -> Duel {
    // One timed probe of each side sizes its batches.
    let t = Instant::now();
    black_box(a());
    let once_a = t.elapsed().max(Duration::from_nanos(1));
    let t = Instant::now();
    black_box(b());
    let once_b = t.elapsed().max(Duration::from_nanos(1));

    const ROUNDS: usize = 9;
    let per_side = (budget.as_nanos() / ROUNDS as u128 / 2).max(1);
    let iters_a = (per_side / once_a.as_nanos().max(1)).clamp(1, 1 << 20) as u64;
    let iters_b = (per_side / once_b.as_nanos().max(1)).clamp(1, 1 << 20) as u64;

    let mut da: Vec<Duration> = Vec::with_capacity(ROUNDS);
    let mut db: Vec<Duration> = Vec::with_capacity(ROUNDS);
    let mut ratios: Vec<f64> = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..iters_a {
            black_box(a());
        }
        let ta = t.elapsed() / iters_a as u32;
        let t = Instant::now();
        for _ in 0..iters_b {
            black_box(b());
        }
        let tb = t.elapsed() / iters_b as u32;
        da.push(ta);
        db.push(tb);
        ratios.push(tb.as_nanos() as f64 / ta.as_nanos().max(1) as f64);
    }
    ratios.sort_by(f64::total_cmp);
    Duel {
        a: Measurement::from_samples(name_a, da, iters_a * ROUNDS as u64),
        b: Measurement::from_samples(name_b, db, iters_b * ROUNDS as u64),
        ratio: ratios[ROUNDS / 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A data-dependent multiply chain: unlike `(0..n).sum()`, LLVM cannot
    /// close-form it away, so each call costs real, n-proportional time.
    fn spin(n: u64) -> u64 {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..black_box(n) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        x
    }

    #[test]
    fn measures_something() {
        let m = bench_with_budget("spin-1k", Duration::from_millis(20), &mut || spin(1_000));
        assert!(m.iters > 0);
        assert!(m.median > Duration::ZERO);
        assert!(m.min <= m.median);
        // More than half the batches are no slower than the median, and
        // none of those deviates from it by more than the median itself.
        assert!(m.mad <= m.median);
    }

    #[test]
    fn duel_orders_workloads_correctly() {
        let d = bench_duel(
            "small",
            "large",
            Duration::from_millis(40),
            &mut || spin(1_000),
            &mut || spin(100_000),
        );
        // 100x the work; demand only a coarse ordering to stay robust on
        // noisy shared machines.
        assert!(d.ratio > 2.0, "duel ratio implausibly low: {}", d.ratio);
    }
}
