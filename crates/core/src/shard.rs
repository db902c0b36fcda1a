//! A sharded deterministic discrete-event kernel with conservative
//! lookahead.
//!
//! [`EventQueue`] gives one simulator one totally-ordered timeline. This
//! module scales that to many timelines without giving up determinism:
//! a [`ShardedKernel`] holds one `EventQueue` *shard* per simulated core
//! block, and each shard advances independently. The only synchronization
//! points are the events that genuinely cross shards (the Fig. 7
//! coherence engine's round-boundary hand-offs), and those travel through
//! a deterministic cross-shard [`Mailbox`].
//!
//! Two rules make the result a pure function of the configuration, at
//! every shard count:
//!
//! 1. **Conservative lookahead.** A cross-shard send posted at sender
//!    time `τ` may not be delivered before `τ + 1`. So within the window
//!    `[W, W + 1)`, `W` being the earliest pending event across all
//!    shards, every shard can fire its events *in parallel* without ever
//!    seeing a message from inside the window (the classic CMB/YAWNS
//!    argument).
//! 2. **Canonical merge.** Mailbox envelopes leave the kernel at the
//!    window barrier in the fixed order `(delivery time, sender shard,
//!    sender sequence)`, so delivery order never depends on the order in
//!    which shards ran.
//!
//! The driver is the caller's loop: [`ShardedKernel::peek_next`] names the
//! window, each shard fires `shard_mut(s).pop_before(W)`, and
//! [`ShardedKernel::drain_sends`] closes the barrier.

use crate::event::EventQueue;
use crate::telemetry::FlightRecorder;
use crate::time::Cycles;

/// One cross-shard message in flight: posted by `from` with its
/// per-sender sequence number `seq`, to be delivered to shard `to` at
/// absolute time `at`.
#[derive(Debug, Clone)]
pub struct Envelope<E> {
    /// Absolute delivery time.
    pub at: Cycles,
    /// Sending shard.
    pub from: usize,
    /// Per-sender send sequence number (assigned at post time).
    pub seq: u64,
    /// Destination shard.
    pub to: usize,
    /// The event payload to deliver.
    pub payload: E,
}

/// Per-sender outbox lane: envelopes in post order.
#[derive(Debug, Clone, Default)]
struct Lane<E> {
    next_seq: u64,
    out: Vec<Envelope<E>>,
}

/// The deterministic cross-shard mailbox.
///
/// Each sender owns a lane (so concurrent shards never contend on a
/// shared queue), and [`Mailbox::drain_sorted`] merges all lanes in the
/// canonical order `(delivery time, sender shard, sender seq)` — the
/// fixed merge order that makes cross-shard delivery independent of the
/// order in which shards were executed.
#[derive(Debug, Clone)]
pub struct Mailbox<E> {
    lanes: Vec<Lane<E>>,
    pending: usize,
}

impl<E> Mailbox<E> {
    /// An empty mailbox with one lane per sender.
    pub fn new(senders: usize) -> Mailbox<E> {
        Mailbox {
            lanes: (0..senders)
                .map(|_| Lane {
                    next_seq: 0,
                    out: Vec::new(),
                })
                .collect(),
            pending: 0,
        }
    }

    /// Post an envelope from `from` to `to`, delivered at `at`. Sequence
    /// numbers are per-sender and monotonic, so a sender's envelopes can
    /// never reorder among themselves.
    pub fn post(&mut self, from: usize, to: usize, at: Cycles, payload: E) {
        let lane = &mut self.lanes[from];
        let seq = lane.next_seq;
        lane.next_seq += 1;
        lane.out.push(Envelope {
            at,
            from,
            seq,
            to,
            payload,
        });
        self.pending += 1;
    }

    /// Drain every pending envelope in the canonical merge order
    /// `(delivery time, sender shard, sender seq)`.
    ///
    /// Lanes are already sorted by `seq`, and within one barrier most
    /// traffic shares a delivery time, so the sort is near-linear; the
    /// key is unique (sender, seq never repeats), making the order — and
    /// everything downstream of it — fully deterministic.
    pub fn drain_sorted(&mut self) -> Vec<Envelope<E>> {
        let mut all: Vec<Envelope<E>> = Vec::with_capacity(self.pending);
        for lane in &mut self.lanes {
            all.append(&mut lane.out);
        }
        self.pending = 0;
        all.sort_unstable_by_key(|e| (e.at, e.from, e.seq));
        all
    }
}

/// The minimum latency of any cross-shard event: a send posted at `τ` is
/// delivered no earlier than `τ + LOOKAHEAD`.
const LOOKAHEAD: Cycles = Cycles(1);

/// A sharded discrete-event simulation kernel: one [`EventQueue`] per
/// shard and a cross-shard [`Mailbox`], driven one conservative window at
/// a time.
///
/// ```
/// use interweave_core::shard::ShardedKernel;
/// use interweave_core::Cycles;
///
/// let mut k: ShardedKernel<&str> = ShardedKernel::new(2);
/// k.schedule(0, Cycles(10), "a0");
/// k.schedule(1, Cycles(10), "b0");
/// k.schedule(0, Cycles(5), "early");
/// let mut fired = Vec::new();
/// while let Some((_, w)) = k.peek_next() {
///     // One window: every shard fires its events at `w`...
///     for s in 0..2 {
///         while let Some((t, e)) = k.shard_mut(s).pop_before(w) {
///             fired.push((s, t, e));
///             if e == "a0" {
///                 k.send(0, 1, t + Cycles(1), "hop");
///             }
///         }
///     }
///     // ...then the barrier hands out the cross-shard sends.
///     for env in k.drain_sends() {
///         fired.push((env.to, env.at, env.payload));
///     }
/// }
/// // Global order is (time, shard, seq): ties at t=10 resolve shard 0
/// // before shard 1, and the send leaves at its own barrier.
/// assert_eq!(
///     fired,
///     [
///         (0, Cycles(5), "early"),
///         (0, Cycles(10), "a0"),
///         (1, Cycles(10), "b0"),
///         (1, Cycles(11), "hop"),
///     ]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ShardedKernel<E> {
    shards: Vec<EventQueue<E>>,
    mailbox: Mailbox<E>,
    /// Per-shard blackboxes, `None` (zero-cost) unless enabled.
    recorders: Option<Vec<FlightRecorder>>,
}

impl<E> ShardedKernel<E> {
    /// A kernel with `n` shards.
    pub fn new(n: usize) -> ShardedKernel<E> {
        assert!(n > 0, "a kernel needs at least one shard");
        ShardedKernel {
            shards: (0..n).map(|_| EventQueue::new()).collect(),
            mailbox: Mailbox::new(n),
            recorders: None,
        }
    }

    /// Turn on the per-shard flight recorders, each keeping the most
    /// recent `cap` events (cross-shard sends and deliveries). Off by
    /// default: a disabled kernel records nothing and pays one `None`
    /// check per hop.
    pub fn enable_flight_recorder(&mut self, cap: usize) {
        self.recorders = Some(
            (0..self.shards.len())
                .map(|_| FlightRecorder::new(cap))
                .collect(),
        );
    }

    /// Shard `s`'s blackbox, if recording is enabled.
    pub fn flight_recorder(&self, s: usize) -> Option<&FlightRecorder> {
        self.recorders.as_ref().map(|r| &r[s])
    }

    /// Deterministic dump of every shard's blackbox (shard order), for
    /// attachment to an invariant-failure report. Empty when disabled.
    pub fn blackbox(&self, header: &str) -> String {
        let Some(recs) = &self.recorders else {
            return String::new();
        };
        let mut out = String::new();
        for (s, r) in recs.iter().enumerate() {
            out.push_str(&r.dump(&format!("{header} / shard {s}")));
        }
        out
    }

    /// Mutably borrow one shard's queue (shard-local scheduling and the
    /// window's `pop_before`).
    pub fn shard_mut(&mut self, s: usize) -> &mut EventQueue<E> {
        &mut self.shards[s]
    }

    /// Schedule a shard-local event at absolute time `at`.
    pub fn schedule(&mut self, s: usize, at: Cycles, payload: E) {
        self.shards[s].schedule(at, payload);
    }

    /// Post a cross-shard event for shard `to` at time `at`, which must
    /// respect the conservative lookahead (`at ≥ sender's now + 1`; an
    /// earlier request panics in debug builds and is clamped otherwise).
    /// The event stays in the mailbox until the next
    /// [`ShardedKernel::drain_sends`] barrier.
    pub fn send(&mut self, from: usize, to: usize, at: Cycles, payload: E) {
        let horizon = self.shards[from].now() + LOOKAHEAD;
        debug_assert!(
            at >= horizon,
            "cross-shard send violates lookahead: at={at}, sender now+lookahead={horizon}"
        );
        let at = at.max(horizon);
        if let Some(recs) = &mut self.recorders {
            recs[from].record(self.shards[from].now(), from, "mbox-send", to as u64, at.0);
        }
        self.mailbox.post(from, to, at, payload);
    }

    /// The window barrier: drain every pending cross-shard envelope in the
    /// canonical `(delivery time, sender shard, sender seq)` order. The
    /// caller applies them directly (e.g. region hand-offs whose cost
    /// folds into the round's critical path); nothing is enqueued.
    pub fn drain_sends(&mut self) -> Vec<Envelope<E>> {
        let envs = self.mailbox.drain_sorted();
        if let Some(recs) = &mut self.recorders {
            for env in &envs {
                recs[env.to].record(env.at, env.to, "mbox-deliver", env.from as u64, env.at.0);
            }
        }
        envs
    }

    /// The earliest pending `(shard, time)` across all shards, in global
    /// `(time, shard)` order: the start `W` of the next window. Mailbox
    /// envelopes are invisible until drained.
    pub fn peek_next(&self) -> Option<(usize, Cycles)> {
        let mut best: Option<(usize, Cycles)> = None;
        for (s, q) in self.shards.iter().enumerate() {
            if let Some(t) = q.peek_time() {
                // Strict < keeps the lowest shard id on time ties.
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((s, t));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fire one window the way Fig. 7 does: every shard pops its events at
    /// the earliest pending time, in shard order.
    fn fire_window<E>(k: &mut ShardedKernel<E>) -> Option<Vec<(usize, Cycles, E)>> {
        let (_, w) = k.peek_next()?;
        let mut fired = Vec::new();
        for s in 0..k.shards.len() {
            while let Some((t, e)) = k.shard_mut(s).pop_before(w) {
                fired.push((s, t, e));
            }
        }
        Some(fired)
    }

    #[test]
    fn single_shard_kernel_matches_plain_queue_order() {
        let mut q = EventQueue::new();
        let mut k = ShardedKernel::new(1);
        for (t, id) in [(30u64, 0u32), (10, 1), (30, 2), (20, 3), (10, 4)] {
            q.schedule(Cycles(t), id);
            k.schedule(0, Cycles(t), id);
        }
        let mut fired = Vec::new();
        while let Some(w) = fire_window(&mut k) {
            fired.extend(w);
        }
        let mut want = Vec::new();
        while let Some((t, id)) = q.pop() {
            want.push((0, t, id));
        }
        assert_eq!(fired, want);
    }

    #[test]
    fn merged_order_is_time_then_shard_then_seq() {
        let mut k = ShardedKernel::new(3);
        k.schedule(2, Cycles(5), "s2a");
        k.schedule(0, Cycles(5), "s0a");
        k.schedule(1, Cycles(5), "s1a");
        k.schedule(0, Cycles(5), "s0b");
        k.schedule(1, Cycles(3), "s1-early");
        assert_eq!(
            fire_window(&mut k).unwrap(),
            vec![(1, Cycles(3), "s1-early")]
        );
        assert_eq!(
            fire_window(&mut k).unwrap(),
            vec![
                (0, Cycles(5), "s0a"),
                (0, Cycles(5), "s0b"),
                (1, Cycles(5), "s1a"),
                (2, Cycles(5), "s2a"),
            ]
        );
        assert!(fire_window(&mut k).is_none());
    }

    #[test]
    fn mailbox_merges_by_time_sender_seq() {
        let mut mb = Mailbox::new(3);
        mb.post(2, 0, Cycles(10), "from2#0");
        mb.post(0, 1, Cycles(10), "from0#0");
        mb.post(2, 1, Cycles(7), "from2#1-earlier");
        mb.post(0, 2, Cycles(10), "from0#1");
        let order: Vec<&str> = mb.drain_sorted().into_iter().map(|e| e.payload).collect();
        assert_eq!(
            order,
            vec!["from2#1-earlier", "from0#0", "from0#1", "from2#0"]
        );
        assert!(mb.drain_sorted().is_empty());
    }

    #[test]
    fn flush_delivers_in_canonical_order_with_fifo_ties() {
        let mut k = ShardedKernel::new(2);
        // Both shards post to shard 0 at the same delivery time; sender 0
        // must come out first regardless of post order.
        k.send(1, 0, Cycles(4), "from1");
        k.send(0, 0, Cycles(4), "from0");
        let order: Vec<(usize, usize, Cycles, &str)> = k
            .drain_sends()
            .into_iter()
            .map(|e| (e.from, e.to, e.at, e.payload))
            .collect();
        assert_eq!(
            order,
            vec![(0, 0, Cycles(4), "from0"), (1, 0, Cycles(4), "from1")]
        );
        assert!(k.drain_sends().is_empty());
    }

    #[test]
    fn flight_recorder_captures_cross_shard_hops() {
        let mut k = ShardedKernel::new(2);
        k.enable_flight_recorder(8);
        k.send(0, 1, Cycles(4), "hop");
        k.drain_sends();
        let sender = k.flight_recorder(0).unwrap();
        assert_eq!(sender.len(), 1);
        let e = sender.events().next().unwrap();
        assert_eq!((e.what, e.a, e.b), ("mbox-send", 1, 4));
        let receiver = k.flight_recorder(1).unwrap();
        assert_eq!(receiver.events().next().unwrap().what, "mbox-deliver");
        let bb = k.blackbox("test");
        assert!(bb.contains("shard 0") && bb.contains("shard 1"));
        assert!(bb.contains("mbox-send") && bb.contains("mbox-deliver"));
    }

    #[test]
    fn flight_recorder_off_by_default_and_identical_runs_dump_identically() {
        let k: ShardedKernel<u32> = ShardedKernel::new(2);
        assert!(k.flight_recorder(0).is_none());
        assert_eq!(k.blackbox("x"), "");
        let run = || {
            let mut k = ShardedKernel::new(3);
            k.enable_flight_recorder(4);
            for i in 0..10u64 {
                k.schedule((i % 3) as usize, Cycles(i), i);
                while let Some(fired) = fire_window(&mut k) {
                    for (s, t, p) in fired {
                        k.send(s, (s + 1) % 3, t + Cycles(1), p);
                    }
                }
                k.drain_sends();
            }
            k.blackbox("replay")
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "violates lookahead")]
    fn lookahead_violation_panics_in_debug() {
        let mut k: ShardedKernel<()> = ShardedKernel::new(2);
        k.schedule(0, Cycles(50), ());
        fire_window(&mut k); // shard 0 now at t=50
        k.send(0, 1, Cycles(50), ()); // 50 < 50 + 1
    }
}
