//! One slice = one child process: set up from scratch, warm up, run timed
//! ops until the slice's time is spent, report. The report travels to the
//! parent as `key value…` lines on the child's standard output.

use crate::workloads::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;

/// What the parent asks of a child.
#[derive(Clone, Debug)]
pub struct SliceArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Slice number: rotates which pool input the slice starts on.
    pub index: usize,
    /// Length of the timed window.
    pub millis: u64,
    /// Record spans and compute the layer metrics.
    pub traced: bool,
    /// Also make the layer measurements that take time of their own (one
    /// traced slice per workload and run).
    pub extras: bool,
    /// Verified fingerprint per pool input (batch workloads; the serve
    /// workloads check against their solo oracle themselves).
    pub expect: Vec<u64>,
    /// Where a traced slice writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// What a child measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SliceReport {
    /// Child start → first timed op.
    pub setup_ns: u64,
    /// Wall time of the timed window.
    pub window_ns: u64,
    pub ops: u64,
    pub failed: u64,
    pub msgs_per_op: u64,
    /// Timed op `i` ran pool input `(first_input + i) % inputs`. The serve
    /// workloads' requests cost the same and count as one input.
    pub first_input: u64,
    pub inputs: u64,
    /// Wall time of each timed op.
    pub lat_ns: Vec<u64>,
    /// Completion time of each timed op since the window opened, ascending.
    pub done_ns: Vec<u64>,
    /// `VmHWM` at exit.
    pub rss_kib: u64,
    /// CPU time (all threads) spent inside the window.
    pub cpu_us: u64,
    /// Simulated cycles per op from the child's own oracle (the serve
    /// workloads; the batch workloads' come from the parent's verification).
    pub cycles: f64,
    /// Fingerprint of the verified results.
    pub fnv: u64,
    /// Reference-kernel wall times taken between ops (traced slices).
    pub ref_kernel_ns: Vec<u64>,
    /// Spans written to the trace file.
    pub spans: u64,
    /// Layer metrics by name (traced slices).
    pub layer: Vec<(String, f64)>,
}

fn join(v: &[u64]) -> String {
    let mut s = String::with_capacity(v.len() * 8);
    for x in v {
        let _ = write!(s, " {x}");
    }
    s
}

impl SliceReport {
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scalars {} {} {} {} {} {} {} {} {} {} {:016x} {}",
            self.setup_ns,
            self.window_ns,
            self.ops,
            self.failed,
            self.msgs_per_op,
            self.first_input,
            self.inputs,
            self.rss_kib,
            self.cpu_us,
            self.cycles,
            self.fnv,
            self.spans
        );
        let _ = writeln!(s, "lat_ns{}", join(&self.lat_ns));
        let _ = writeln!(s, "done_ns{}", join(&self.done_ns));
        let _ = writeln!(s, "ref_kernel_ns{}", join(&self.ref_kernel_ns));
        for (k, v) in &self.layer {
            let _ = writeln!(s, "layer {k} {v}");
        }
        s.push_str("end\n");
        s
    }

    /// Parse [`SliceReport::to_text`]; lines before `scalars` (anything a
    /// library printed) are skipped, a missing `end` is an error.
    pub fn from_text(text: &str) -> Result<SliceReport, String> {
        fn nums(rest: &str) -> Result<Vec<u64>, String> {
            rest.split_whitespace()
                .map(|v| v.parse::<u64>().map_err(|e| format!("{v}: {e}")))
                .collect()
        }
        let mut r = SliceReport::default();
        let (mut seen_scalars, mut seen_end) = (false, false);
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "scalars" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    if f.len() != 12 {
                        return Err(format!("scalars: {} fields", f.len()));
                    }
                    let n = |i: usize| f[i].parse::<u64>().map_err(|e| format!("{}: {e}", f[i]));
                    r.setup_ns = n(0)?;
                    r.window_ns = n(1)?;
                    r.ops = n(2)?;
                    r.failed = n(3)?;
                    r.msgs_per_op = n(4)?;
                    r.first_input = n(5)?;
                    r.inputs = n(6)?;
                    r.rss_kib = n(7)?;
                    r.cpu_us = n(8)?;
                    r.cycles = f[9].parse().map_err(|e| format!("{}: {e}", f[9]))?;
                    r.fnv =
                        u64::from_str_radix(f[10], 16).map_err(|e| format!("{}: {e}", f[10]))?;
                    r.spans = n(11)?;
                    seen_scalars = true;
                }
                "lat_ns" => r.lat_ns = nums(rest)?,
                "done_ns" => r.done_ns = nums(rest)?,
                "ref_kernel_ns" => r.ref_kernel_ns = nums(rest)?,
                "layer" => {
                    let (k, v) = rest.split_once(' ').ok_or("layer: no value")?;
                    r.layer
                        .push((k.to_string(), v.parse().map_err(|e| format!("{v}: {e}"))?));
                }
                "end" => seen_end = true,
                _ => {}
            }
        }
        if seen_scalars && seen_end {
            Ok(r)
        } else {
            Err("truncated slice report".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_and_rejects_truncation() {
        let r = SliceReport {
            setup_ns: 312_345_678,
            window_ns: 1_666_000_000,
            ops: 3,
            failed: 0,
            msgs_per_op: 98_304,
            first_input: 5,
            inputs: 8,
            lat_ns: vec![51_000_000, 50_500_000, 52_250_000],
            done_ns: vec![51_100_000, 101_700_000, 154_000_000],
            rss_kib: 20_480,
            cpu_us: 1_640_000,
            cycles: 17.375,
            fnv: 0x0123_4567_89AB_CDEF,
            ref_kernel_ns: vec![600_000, 612_000],
            spans: 9,
            layer: vec![
                ("sim.perm_us".into(), 14_000.5),
                ("shard.retries".into(), 0.0),
            ],
        };
        let text = format!("a library said hello\n{}", r.to_text());
        assert_eq!(SliceReport::from_text(&text).unwrap(), r);
        let cut = &text[..text.len() - 4];
        assert!(SliceReport::from_text(cut).is_err());
    }
}
