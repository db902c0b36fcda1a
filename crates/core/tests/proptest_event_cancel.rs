//! Model-based property test for event-queue cancellation: the tombstoning
//! [`EventQueue`] must be observationally equivalent to a naive model queue
//! (a plain Vec popped by minimum `(time, seq)`, cancelled by direct
//! removal) under arbitrary interleavings of schedule, cancellable
//! schedule, handle cancel, batched handle cancels, and pop — including
//! FIFO tie-breaking at equal times, which the small time deltas here
//! force constantly.

use interweave_core::{Cycles, EventHandle, EventQueue};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at now + delta (plain, not cancellable).
    Schedule(u64),
    /// Schedule at now + delta, keeping the handle.
    ScheduleCancellable(u64),
    /// Cancel the i-th handle ever issued (mod count); stale handles
    /// must be rejected identically by queue and model.
    Cancel(usize),
    /// Pop the earliest event.
    Pop,
    /// Cancel every handle ever issued whose payload % 3 == r — a bulk
    /// retraction that piles up tombstones and stresses prune/compaction.
    CancelBatch(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..6).prop_map(Op::Schedule),
        (0u64..6).prop_map(Op::ScheduleCancellable),
        (0usize..64).prop_map(Op::Cancel),
        Just(Op::Pop),
        (0u64..3).prop_map(Op::CancelBatch),
    ]
}

/// The reference: a flat list of pending `(time, seq, payload)` popped by
/// minimum `(time, seq)` — the specification of time-then-FIFO ordering.
#[derive(Default)]
struct ModelQueue {
    pending: Vec<(u64, u64, u64)>,
    next_seq: u64,
    now: u64,
}

impl ModelQueue {
    fn schedule(&mut self, at: u64, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at.max(self.now), seq, payload));
        seq
    }

    fn earliest(&self) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(i, _)| i)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let i = self.earliest()?;
        let (t, _, p) = self.pending.remove(i);
        self.now = t;
        Some((t, p))
    }

    fn peek_time(&self) -> Option<u64> {
        self.earliest().map(|i| self.pending[i].0)
    }

    fn cancel_seq(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tombstone_queue_equals_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = ModelQueue::default();
        // Handles issued so far, with the model's seq and the payload.
        let mut handles: Vec<(EventHandle, u64, u64)> = Vec::new();
        let mut next_payload = 0u64;

        for op in &ops {
            match *op {
                Op::Schedule(delta) => {
                    let payload = next_payload;
                    next_payload += 1;
                    q.schedule(q.now() + Cycles(delta), payload);
                    model.schedule(model.now + delta, payload);
                }
                Op::ScheduleCancellable(delta) => {
                    let payload = next_payload;
                    next_payload += 1;
                    let h = q.schedule_cancellable(q.now() + Cycles(delta), payload);
                    let seq = model.schedule(model.now + delta, payload);
                    handles.push((h, seq, payload));
                }
                Op::Cancel(i) => {
                    if !handles.is_empty() {
                        let (h, seq, _) = handles[i % handles.len()];
                        prop_assert_eq!(q.cancel(h), model.cancel_seq(seq));
                    }
                }
                Op::Pop => {
                    let got = q.pop().map(|(t, p)| (t.get(), p));
                    prop_assert_eq!(got, model.pop());
                }
                Op::CancelBatch(r) => {
                    // Every cancel in the batch must agree with the model,
                    // fired or pending alike (stale handles return false).
                    for &(h, seq, payload) in &handles {
                        if payload % 3 == r {
                            prop_assert_eq!(q.cancel(h), model.cancel_seq(seq));
                        }
                    }
                }
            }
            // Observable state must agree after every operation.
            prop_assert_eq!(q.len(), model.pending.len());
            prop_assert_eq!(q.is_empty(), model.pending.is_empty());
            prop_assert_eq!(q.now().get(), model.now);
            prop_assert_eq!(q.peek_time().map(Cycles::get), model.peek_time());
        }

        // Drain: the survivors must come out in exactly the model's order
        // (time, then FIFO by schedule order).
        loop {
            let got = q.pop().map(|(t, p)| (t.get(), p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
