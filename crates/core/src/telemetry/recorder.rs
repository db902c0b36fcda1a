//! A bounded flight recorder: the last N events before something broke.
//!
//! Chaos campaigns fail rarely and late — a fault-ledger imbalance at
//! invocation 900k of a million-invocation run is unreproducible by
//! staring and expensive to re-run under a debugger. The flight recorder
//! is the blackbox answer: each serving-plane worker keeps a bounded ring
//! of its most recent events (sheds, watchdog reclaims), paying O(1) per
//! event and a fixed few KiB of memory. When an invariant trips — a
//! fault-ledger assertion — the ring is dumped *deterministically* (same
//! run, same dump, byte for byte) so the failure reads like a story
//! instead of a stack trace.
//!
//! Events carry a monotone per-recorder sequence number, the simulated
//! cycle stamp, a numeric track (the worker index), a `'static`
//! label, and two bare `u64` operands — no allocation, no formatting on
//! the hot path. The ring never blocks and never reallocates after
//! construction; when full, the oldest event is evicted and counted, so a
//! dump always says how much history was lost.

use crate::time::Cycles;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One recorded event. Operands `a`/`b` are label-specific (queue depth,
/// request id, backoff cycles, …) — the dump prints them raw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone per-recorder sequence number (0-based, never reused).
    pub seq: u64,
    /// Simulated cycle stamp.
    pub at: Cycles,
    /// Which worker or CPU the event belongs to.
    pub track: usize,
    /// Static event label, e.g. `"shed-queue"` or `"wd-reclaim"`.
    pub what: &'static str,
    /// First operand (label-specific).
    pub a: u64,
    /// Second operand (label-specific).
    pub b: u64,
}

/// A fixed-capacity ring of recent [`FlightEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    cap: usize,
    next_seq: u64,
    ring: VecDeque<FlightEvent>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `cap` events (`cap > 0`).
    pub fn new(cap: usize) -> FlightRecorder {
        assert!(cap > 0, "flight recorder needs capacity");
        FlightRecorder {
            cap,
            next_seq: 0,
            ring: VecDeque::with_capacity(cap),
        }
    }

    /// Record one event, evicting the oldest when full. O(1), no
    /// allocation after construction.
    pub fn record(&mut self, at: Cycles, track: usize, what: &'static str, a: u64, b: u64) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(FlightEvent {
            seq: self.next_seq,
            at,
            track,
            what,
            a,
            b,
        });
        self.next_seq += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.ring.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> + '_ {
        self.ring.iter()
    }

    /// Render the blackbox as a deterministic multi-line dump, oldest
    /// event first, for inclusion in a panic message or failure report.
    pub fn dump(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== flight recorder: {header} ({} kept, {} dropped) ===",
            self.ring.len(),
            self.dropped()
        );
        for e in &self.ring {
            let _ = writeln!(
                out,
                "  #{:<6} @{:<12} [{}] {:<16} a={} b={}",
                e.seq, e.at.0, e.track, e.what, e.a, e.b
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(Cycles(i * 10), 0, "tick", i, 0);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }

    #[test]
    fn dump_is_deterministic_and_reports_loss() {
        let mk = || {
            let mut r = FlightRecorder::new(2);
            r.record(Cycles(1), 0, "admit", 7, 0);
            r.record(Cycles(5), 1, "shed-queue", 8, 6);
            r.record(Cycles(9), 0, "wd-reclaim", 7, 2);
            r
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b);
        let d = a.dump("ledger imbalance");
        assert_eq!(d, b.dump("ledger imbalance"));
        assert!(d.contains("2 kept, 1 dropped"));
        assert!(d.contains("wd-reclaim"));
        assert!(!d.contains("admit"), "evicted event must not appear");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        FlightRecorder::new(0);
    }
}
