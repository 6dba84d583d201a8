//! In-memory span recording for the traced pass.
//!
//! Spans are recorded in the benchmark's own code around calls into the
//! crates' public functions (or laid out from durations those calls
//! return), kept in memory, and written as JSONL when the slice ends.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span's parent; `NO_PARENT` marks a root span.
pub const NO_PARENT: i64 = -1;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the same trace) of the span that caused this one.
    pub parent: i64,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When off, every method returns without touching the
/// clock or the buffer, so the timed pass runs the same code untraced.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            epoch,
            on,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the trace epoch (0 when off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Record a finished span; returns its index (`NO_PARENT` when off).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: i64,
        op: u32,
    ) -> i64 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() as i64 - 1
    }

    /// Open a span now; close it with [`Tracer::close`]. Children name the
    /// returned index as their parent.
    pub fn open(&mut self, name: &'static str, parent: i64, op: u32) -> i64 {
        let t = self.now();
        self.push(name, t, t, parent, op)
    }

    pub fn close(&mut self, id: i64) {
        if self.on && id >= 0 {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Record a span that started at `start_ns` (from [`Tracer::now`]) and
    /// ends now.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, parent: i64, op: u32) {
        let end = self.now();
        self.push(name, start_ns, end, parent, op);
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as i64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent >= 0 {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent >= 0 && (s.parent as usize) < spans.len() {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                kids[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for &(a, b) in k.iter() {
                if b > edge {
                    covered += b - a.max(edge);
                    edge = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self times (ns) of the spans called `name`.
pub fn self_times_of(spans: &[Span], name: &str) -> Vec<u64> {
    self_times(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t)
        .collect()
}

/// One JSON object per line: `{name, start_ns, end_ns, parent, op}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.parent, s.op
        );
    }
    out
}

/// Parse what [`to_jsonl`] writes. Strict: any other shape is an error
/// naming the line.
pub fn parse_jsonl(src: &str) -> Result<Vec<Span>, String> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\":");
        let rest = &line[line.find(&pat)? + pat.len()..];
        let end = rest.find([',', '}'])?;
        Some(&rest[..end])
    }
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let bad = |what: &str| format!("line {}: {what}: {line}", i + 1);
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(bad("not an object"));
        }
        let name = field(line, "name")
            .and_then(|v| v.strip_prefix('"')?.strip_suffix('"'))
            .filter(|n| {
                !n.is_empty()
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
            })
            .ok_or_else(|| bad("bad name"))?;
        let num = |key: &str| -> Result<i64, String> {
            field(line, key)
                .and_then(|v| v.parse::<i64>().ok())
                .ok_or_else(|| bad(&format!("bad {key}")))
        };
        let (start, end, parent, op) =
            (num("start_ns")?, num("end_ns")?, num("parent")?, num("op")?);
        if start < 0 || end < start || parent < NO_PARENT || parent >= i as i64 || op < 0 {
            return Err(bad("field out of range"));
        }
        out.push(Span {
            name: Cow::Owned(name.to_string()),
            start_ns: start as u64,
            end_ns: end as u64,
            parent,
            op: op as u32,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: i64) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start_ns: a,
            end_ns: b,
            parent,
            op: 7,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100] ⊃ a [10,40], b [30,60] (overlapping a), c [90,120]
        // (sticks out of the parent); a ⊃ a1 [15,25].
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),
            span("c", 90, 120, 0),
            span("a1", 15, 25, 1),
        ];
        let st = self_times(&spans);
        // Children cover [10,60] ∪ [90,100] = 60 of the op's 100.
        assert_eq!(st, vec![40, 20, 30, 30, 10]);
        assert_eq!(self_times_of(&spans, "a"), vec![20]);
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = vec![
            span("op", 5, 900, NO_PARENT),
            span("sim.perm", 6, 400, 0),
            span("serve.stage.batch_wait", 400, 400, 0),
        ];
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 3);
        assert_eq!(parse_jsonl(&text).unwrap(), spans);
    }

    #[test]
    fn jsonl_parser_rejects_other_shapes() {
        for bad in [
            "not json",
            "{\"name\":\"x\",\"start_ns\":1,\"end_ns\":2,\"parent\":-1}",
            "{\"name\":\"x y\",\"start_ns\":1,\"end_ns\":2,\"parent\":-1,\"op\":0}",
            "{\"name\":\"x\",\"start_ns\":3,\"end_ns\":2,\"parent\":-1,\"op\":0}",
            "{\"name\":\"x\",\"start_ns\":1,\"end_ns\":2,\"parent\":4,\"op\":0}",
        ] {
            assert!(parse_jsonl(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn tracer_off_records_nothing_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(epoch, false);
        let id = off.open("op", NO_PARENT, 0);
        off.leaf("x", off.now(), id, 0);
        off.close(id);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(epoch, true);
        let pa = a.open("op", NO_PARENT, 0);
        a.close(pa);
        let mut b = Tracer::new(epoch, true);
        let pb = b.open("op", NO_PARENT, 1);
        b.leaf("x", b.now(), pb, 1);
        b.close(pb);
        a.merge(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, 1);
        assert!(a.spans()[1].end_ns >= a.spans()[1].start_ns);
    }
}
