//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans stay in memory while the benchmark runs and are written out once
//! at the end, as Chrome/Perfetto trace-event JSON. Every span of one chunk
//! carries the chunk's index as its identifier, and names the span that
//! caused it, so self time (duration minus the part covered by children)
//! can be computed per span.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval of host time.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// The chunk this span belongs to.
    pub chunk: u64,
    /// The measuring thread that recorded it.
    pub lane: u64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// Start, ns since the trace's origin.
    pub start_ns: u64,
    /// End, ns since the trace's origin.
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one measuring thread. When off,
/// [`Tracer::record`] returns without storing anything.
pub struct Tracer {
    origin: Instant,
    lane: u64,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `lane`, timing from `origin`.
    pub fn new(on: bool, origin: Instant, lane: u64) -> Tracer {
        Tracer {
            origin,
            lane,
            on,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end)` under `parent`; returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        chunk: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            chunk,
            lane: self.lane,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in trace order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// The trace as Chrome trace-event JSON (`ph: "X"` complete events,
    /// microsecond timestamps, one thread track per measuring thread).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"chunk\":{},\"span\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.chunk,
                i,
                parent,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut t = Tracer::new(true, t0, 0);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("chunk", 0, None, at(0), at(10));
        t.record("gen", 0, root, at(1), at(3));
        t.record("sim", 0, root, at(3), at(9));
        assert_eq!(t.self_times_ns(), vec![2_000_000, 2_000_000, 6_000_000]);
    }

    #[test]
    fn off_records_nothing() {
        let now = Instant::now();
        let mut t = Tracer::new(false, now, 0);
        assert_eq!(t.record("chunk", 0, None, now, now), None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let t0 = Instant::now();
        let (mut a, mut b) = (Tracer::new(true, t0, 0), Tracer::new(true, t0, 1));
        a.record("chunk", 0, None, t0, t0);
        let root = b.record("chunk", 1, None, t0, t0);
        b.record("gen", 1, root, t0, t0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].lane, 1);
    }
}
