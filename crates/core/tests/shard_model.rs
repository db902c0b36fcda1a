//! Model-based property test for the sharded simulation kernel: a
//! [`ShardedKernel`] driven the way the Fig. 7 engine drives it (find the
//! window with `peek_next`, fire `shard_mut(s).pop_before(w)` shard by
//! shard, drain the mailbox at the barrier) must fire exactly the
//! `(time, shard, seq)`-ordered event sequence of a reference model — a
//! flat merged event list with per-shard sequence counters, the
//! specification of what "one big sequential [`EventQueue`] partitioned by
//! shard" means — under arbitrary interleavings of shard-local schedules,
//! cancellable schedules and cancels, cross-shard sends, mailbox barriers,
//! and windows. This is the determinism contract the sharded engines build
//! on: partitioning is a scheduling decision, never an ordering one.
//!
//! [`EventQueue`]: interweave_core::EventQueue

use interweave_core::{Cycles, EventHandle, ShardedKernel};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule on shard `pick % n` at its local now + delta.
    Schedule(usize, u64),
    /// Same, keeping the cancellation handle.
    ScheduleCancellable(usize, u64),
    /// Cancel the i-th handle ever issued (mod count); stale handles must
    /// be rejected identically by kernel and model.
    Cancel(usize),
    /// Cross-shard send `from % n → to % n` at the sender's lookahead
    /// horizon + delta, parked in the mailbox until the next barrier.
    Send(usize, usize, u64),
    /// Mailbox barrier: drain every pending envelope and schedule each on
    /// its target shard.
    Flush,
    /// Fire one window: every event at the globally earliest time.
    Window,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, 0u64..6).prop_map(|(s, d)| Op::Schedule(s, d)),
        (0usize..8, 0u64..6).prop_map(|(s, d)| Op::ScheduleCancellable(s, d)),
        (0usize..64).prop_map(Op::Cancel),
        (0usize..8, 0usize..8, 0u64..5).prop_map(|(f, t, d)| Op::Send(f, t, d)),
        Just(Op::Flush),
        Just(Op::Window),
        Just(Op::Window),
    ]
}

/// One pending model event: `(time, shard, per-shard seq, payload)` —
/// popped by minimum `(time, shard, seq)`, the kernel's total order.
type Pending = (u64, usize, u64, u64);

/// The reference: what a single merged sequential event queue would do,
/// with shard ids as explicit tags and per-shard sequence counters.
struct Model {
    pending: Vec<Pending>,
    /// Next schedule sequence number, per shard.
    next_seq: Vec<u64>,
    /// Per-shard queue clock (schedules clamp to it; pops advance it).
    now: Vec<u64>,
    /// Posted-but-undelivered envelopes: `(at, from, lane seq, to, payload)`.
    outbox: Vec<(u64, usize, u64, usize, u64)>,
    /// Next send sequence number, per sender lane.
    lane_seq: Vec<u64>,
}

impl Model {
    fn new(n: usize) -> Model {
        Model {
            pending: Vec::new(),
            next_seq: vec![0; n],
            now: vec![0; n],
            outbox: Vec::new(),
            lane_seq: vec![0; n],
        }
    }

    fn schedule(&mut self, shard: usize, at: u64, payload: u64) -> u64 {
        let seq = self.next_seq[shard];
        self.next_seq[shard] += 1;
        self.pending
            .push((at.max(self.now[shard]), shard, seq, payload));
        seq
    }

    fn cancel(&mut self, shard: usize, seq: u64) -> bool {
        match self
            .pending
            .iter()
            .position(|&(_, s, q, _)| s == shard && q == seq)
        {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }

    fn send(&mut self, from: usize, to: usize, at: u64, payload: u64) {
        let seq = self.lane_seq[from];
        self.lane_seq[from] += 1;
        self.outbox.push((at, from, seq, to, payload));
    }

    /// The barrier: deliver in the canonical `(at, from, lane seq)` order,
    /// so target-shard sequence numbers are interleaving-independent.
    fn flush(&mut self) {
        let mut envs = std::mem::take(&mut self.outbox);
        envs.sort_unstable_by_key(|&(at, from, seq, _, _)| (at, from, seq));
        for (at, _, _, to, payload) in envs {
            self.schedule(to, at, payload);
        }
    }

    fn pop(&mut self) -> Option<(usize, u64, u64)> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, q, _))| (t, s, q))
            .map(|(i, _)| i)?;
        let (t, s, _, p) = self.pending.remove(i);
        self.now[s] = t;
        Some((s, t, p))
    }

    /// Every event at the earliest pending time, popped in merged order.
    fn pop_window(&mut self) -> Vec<(usize, u64, u64)> {
        let Some(w) = self.pending.iter().map(|&(t, ..)| t).min() else {
            return Vec::new();
        };
        let mut fired = Vec::new();
        while self.pending.iter().any(|&(t, ..)| t == w) {
            fired.extend(self.pop());
        }
        fired
    }
}

/// One window of the Fig. 7 driver: `peek_next` names the window start,
/// then each shard fires its events up to it, in shard order.
fn fire_window(k: &mut ShardedKernel<u64>, shards: usize) -> Vec<(usize, u64, u64)> {
    let Some((_, w)) = k.peek_next() else {
        return Vec::new();
    };
    let mut fired = Vec::new();
    for s in 0..shards {
        while let Some((t, p)) = k.shard_mut(s).pop_before(w) {
            fired.push((s, t.get(), p));
        }
    }
    fired
}

/// The barrier: drain the mailbox in canonical order and schedule each
/// envelope on its target shard, no earlier than that shard's clock.
/// Returns `(at, from, to, payload)` per envelope, in drain order.
fn flush(k: &mut ShardedKernel<u64>) -> Vec<(u64, usize, usize, u64)> {
    let mut drained = Vec::new();
    for env in k.drain_sends() {
        drained.push((env.at.get(), env.from, env.to, env.payload));
        let at = env.at.max(k.shard_mut(env.to).now());
        k.schedule(env.to, at, env.payload);
    }
    drained
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sharded_kernel_equals_the_merged_sequential_model(
        shards in 1usize..8,
        ops in prop::collection::vec(op_strategy(), 1..140),
    ) {
        // The kernel's conservative lookahead: one cycle.
        let lookahead = 1;
        let mut k: ShardedKernel<u64> = ShardedKernel::new(shards);
        let mut model = Model::new(shards);
        // Handles issued so far: (shard, kernel handle, model seq).
        let mut handles: Vec<(usize, EventHandle, u64)> = Vec::new();
        let mut next_payload = 0u64;

        for op in &ops {
            match *op {
                Op::Schedule(pick, delta) => {
                    let s = pick % shards;
                    let payload = next_payload;
                    next_payload += 1;
                    let at = k.shard_mut(s).now() + Cycles(delta);
                    prop_assert_eq!(k.shard_mut(s).now().get(), model.now[s]);
                    k.schedule(s, at, payload);
                    model.schedule(s, model.now[s] + delta, payload);
                }
                Op::ScheduleCancellable(pick, delta) => {
                    let s = pick % shards;
                    let payload = next_payload;
                    next_payload += 1;
                    let q = k.shard_mut(s);
                    let h = q.schedule_cancellable(q.now() + Cycles(delta), payload);
                    let seq = model.schedule(s, model.now[s] + delta, payload);
                    handles.push((s, h, seq));
                }
                Op::Cancel(i) => {
                    if !handles.is_empty() {
                        let (s, h, seq) = handles[i % handles.len()];
                        prop_assert_eq!(k.shard_mut(s).cancel(h), model.cancel(s, seq));
                    }
                }
                Op::Send(f, t, delta) => {
                    let (from, to) = (f % shards, t % shards);
                    let payload = next_payload;
                    next_payload += 1;
                    // At or past the conservative horizon, as the lookahead
                    // contract requires of senders.
                    let at = k.shard_mut(from).now() + Cycles(lookahead + delta);
                    k.send(from, to, at, payload);
                    model.send(from, to, model.now[from] + lookahead + delta, payload);
                }
                Op::Flush => {
                    let mut want = model.outbox.clone();
                    want.sort_unstable_by_key(|&(at, from, seq, _, _)| (at, from, seq));
                    let want: Vec<_> = want
                        .into_iter()
                        .map(|(at, from, _, to, p)| (at, from, to, p))
                        .collect();
                    prop_assert_eq!(flush(&mut k), want);
                    model.flush();
                }
                Op::Window => {
                    prop_assert_eq!(fire_window(&mut k, shards), model.pop_window());
                }
            }
        }

        // Drain to quiescence: one final barrier, then the full remaining
        // sequence must match window for window.
        flush(&mut k);
        model.flush();
        loop {
            let got = fire_window(&mut k, shards);
            prop_assert_eq!(&got, &model.pop_window());
            if got.is_empty() {
                break;
            }
        }
        prop_assert!(k.peek_next().is_none());
        prop_assert!(k.drain_sends().is_empty());
    }
}
