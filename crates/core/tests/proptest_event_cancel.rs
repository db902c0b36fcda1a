//! Model-based property test for the executor's timer queue: [`TimerQueue`]
//! must be observationally equivalent to a naive per-id table of pending
//! `(time, seq)` pairs popped by minimum `(time, seq)`, under arbitrary
//! interleavings of `set` (fresh, or re-set earlier or later, which
//! retracts the pending timer) and `pop`. The small time deltas force FIFO
//! ties constantly, and the few ids force constant retraction.

use interweave_core::telemetry::Sink;
use interweave_core::{Cycles, TimerQueue};
use proptest::prelude::*;

const IDS: usize = 5;

#[derive(Debug, Clone)]
enum Op {
    /// Set timer `id` to fire at now + delta.
    Set(usize, u64),
    /// Pop the earliest timer.
    Pop,
}

/// Five sets to three pops.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0..IDS + 3, 0u64..6).prop_map(|(id, delta)| match id {
        id if id < IDS => Op::Set(id, delta),
        _ => Op::Pop,
    })
}

/// The reference: per id, the pending `(time, seq)` if any.
#[derive(Default)]
struct Model {
    pending: [Option<(u64, u64)>; IDS],
    next_seq: u64,
    now: u64,
    scheduled: u64,
    popped: u64,
    cancelled: u64,
}

impl Model {
    fn set(&mut self, id: usize, at: u64) {
        if self.pending[id].is_some() {
            self.cancelled += 1;
        }
        self.pending[id] = Some((at, self.next_seq));
        self.next_seq += 1;
        self.scheduled += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let (id, (at, _)) = (0..IDS)
            .filter_map(|id| self.pending[id].map(|k| (id, k)))
            .min_by_key(|&(_, k)| k)?;
        self.pending[id] = None;
        self.now = at;
        self.popped += 1;
        Some((at, id))
    }

    fn counters(&self) -> [u64; 3] {
        [self.scheduled, self.popped, self.cancelled]
    }
}

fn counters(q: &TimerQueue) -> [u64; 3] {
    let sink = Sink::on();
    q.publish_telemetry(&sink);
    ["scheduled", "popped", "cancelled"].map(|c| sink.counter(&format!("core.evq.{c}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timer_queue_equals_model(ops in prop::collection::vec(op_strategy(), 1..160)) {
        let mut q = TimerQueue::new(IDS);
        let mut model = Model::default();
        let mut last_now = Cycles::ZERO;

        for op in &ops {
            match *op {
                Op::Set(id, delta) => {
                    q.set(id, q.now() + Cycles(delta));
                    model.set(id, model.now + delta);
                }
                Op::Pop => {
                    let got = q.pop().map(|(t, id)| (t.get(), id));
                    prop_assert_eq!(got, model.pop());
                }
            }
            prop_assert_eq!(q.now().get(), model.now);
            prop_assert!(q.now() >= last_now, "now went back");
            last_now = q.now();
            for id in 0..IDS {
                prop_assert_eq!(q.pending(id).map(Cycles::get), model.pending[id].map(|(at, _)| at));
            }
            let [scheduled, popped, cancelled] = counters(&q);
            prop_assert_eq!([scheduled, popped, cancelled], model.counters());
            // Every timer set was popped, retracted, or is still pending.
            let pending = (0..IDS).filter(|&id| q.pending(id).is_some()).count() as u64;
            prop_assert_eq!(scheduled, popped + cancelled + pending);
        }

        // Drain: the pending timers come out in exactly the model's order
        // (time, then FIFO by set order), and no retracted one surfaces.
        loop {
            let got = q.pop().map(|(t, id)| (t.get(), id));
            prop_assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(counters(&q), model.counters());
    }
}
