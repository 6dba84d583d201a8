//! Sample arithmetic: percentiles, block rates, fingerprints.

/// `p`-th percentile (0–100) of `samples`, linearly interpolated between
/// the two nearest ranks. NaN for an empty slice: a statistic of no
/// samples is "not measured", never a finite number.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// [`percentile`] over integer nanosecond samples.
pub fn percentile_ns(samples: &[u64], p: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    percentile(&v, p)
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mean over the pool inputs of each input's `p`-th percentile op time,
/// ns. Inputs cost different amounts, so a percentile of the pooled
/// samples would rest on the cheapest input alone; this one moves when any
/// input slows. NaN if an input has no sample.
pub fn per_input_percentile_ns(by_input: &[Vec<u64>], p: f64) -> f64 {
    let sum: f64 = by_input.iter().map(|v| percentile_ns(v, p)).sum();
    sum / by_input.len() as f64
}

/// Cut `done_ns` — completion times of consecutive ops, measured from the
/// start of the timed window, ascending — into consecutive blocks of
/// `block` completions and return each block's rate in messages per
/// second: block messages ÷ time since the previous block ended (the
/// window start for the first). A trailing partial block is dropped.
pub fn block_rates(done_ns: &[u64], block: usize, msgs_per_op: u64) -> Vec<f64> {
    let mut rates = Vec::with_capacity(done_ns.len() / block.max(1));
    let mut prev = 0u64;
    for chunk in done_ns.chunks_exact(block.max(1)) {
        let end = chunk[chunk.len() - 1];
        let dt = end.saturating_sub(prev).max(1);
        rates.push((chunk.len() as u64 * msgs_per_op) as f64 * 1e9 / dt as f64);
        prev = end;
    }
    rates
}

/// One FNV-1a step over a whole word (the fingerprints fold hundreds of
/// thousands of words per op, so not byte by byte).
#[inline]
pub fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// FNV offset basis: the starting value of every fingerprint.
pub const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // rank 0.4 of 4 intervals → between 10 and 20.
        assert!((percentile(&v, 10.0) - 14.0).abs() < 1e-9);
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-9);
        assert!(percentile(&[], 10.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_ns(&[1, 2, 3], 50.0), 2.0);
    }

    #[test]
    fn per_input_percentile_gates_every_input() {
        // Two inputs, a cheap and a dear one, five samples each.
        let cheap = vec![10, 11, 12, 13, 14];
        let dear = vec![20, 21, 22, 23, 24];
        let both = [cheap.clone(), dear.clone()];
        assert_eq!(per_input_percentile_ns(&both, 0.0), 15.0);
        assert_eq!(per_input_percentile_ns(&both, 50.0), 17.0);
        // The dear input slows by half: the pooled fast end does not move,
        // the per-input statistic does.
        let slowed = [cheap, dear.iter().map(|x| x * 3 / 2).collect()];
        let pooled = |b: &[Vec<u64>]| percentile_ns(&b.concat(), 20.0);
        assert_eq!(pooled(&both), pooled(&slowed));
        assert_eq!(per_input_percentile_ns(&slowed, 0.0), 20.0);
        assert!(per_input_percentile_ns(&[vec![1], vec![]], 50.0).is_nan());
    }

    #[test]
    fn block_rates_use_time_since_previous_block() {
        // Four ops of 3 messages finishing at 1, 2, 4, 8 ms; blocks of 2.
        let done = [1_000_000, 2_000_000, 4_000_000, 8_000_000, 9_000_000];
        let r = block_rates(&done, 2, 3);
        assert_eq!(r.len(), 2, "the trailing partial block is dropped");
        assert!((r[0] - 6.0 / 0.002).abs() < 1e-6);
        assert!((r[1] - 6.0 / 0.006).abs() < 1e-6);
        // Blocks of one: each op against its predecessor's end.
        let r1 = block_rates(&done[..3], 1, 1);
        assert!((r1[2] - 1.0 / 0.002).abs() < 1e-6);
    }

    #[test]
    fn fnv_depends_on_order() {
        let a = fnv(fnv(FNV_INIT, 1), 2);
        let b = fnv(fnv(FNV_INIT, 2), 1);
        assert_ne!(a, b);
    }
}
