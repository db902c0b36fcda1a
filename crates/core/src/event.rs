//! Deterministic per-id timers.
//!
//! The kernel's preemptive executor (`interweave_kernel::executor`) is the
//! one simulator that advances simulated time by popping the earliest
//! pending timer from a [`TimerQueue`]; the heartbeat, coherence and other
//! models step their own clocks. Each id (one per CPU plus the watchdog)
//! has at most one pending timer. Determinism matters: the paper's
//! comparisons (Linux vs. Nautilus stacks running *the same workload*) are
//! only meaningful if a run is a pure function of its configuration, so
//! ties in time are broken by the order the timers were set (FIFO), never
//! by heap internals.
//!
//! Each heap entry is one `u128`, `at << 64 | seq << 16 | id`, so a single
//! integer compare orders by time, then by `seq`. Re-setting an id whose
//! timer is pending retracts that timer lazily: the old entry stays in the
//! heap but goes *stale*, because the id's expected `seq` moved on. Stale
//! entries are pruned whenever they reach the heap top, and the heap is
//! rebuilt without them once they outnumber the live ones, so memory stays
//! bounded by twice the id count.

use crate::telemetry::{Key, Layer, Sink, Unit};
use crate::time::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Registry key: timers set since the queue was created.
const KEY_SCHEDULED: Key = Key::new("core.evq.scheduled", Layer::Hardware, Unit::Count);
/// Registry key: timers popped (fired).
const KEY_POPPED: Key = Key::new("core.evq.popped", Layer::Hardware, Unit::Count);
/// Registry key: pending timers retracted by a re-`set`.
const KEY_CANCELLED: Key = Key::new("core.evq.cancelled", Layer::Hardware, Unit::Count);
/// Registry key: stale-entry compaction passes.
const KEY_COMPACTIONS: Key = Key::new("core.evq.compactions", Layer::Hardware, Unit::Count);

/// Bits of a heap entry holding the id.
const ID_BITS: u32 = 16;
/// Bits of a heap entry holding the `seq` (between the id and the time).
const SEQ_BITS: u32 = 48;
/// Expected `seq` of an id with no pending timer. No `seq` reaches it.
const IDLE: u64 = u64::MAX;

/// The `(time, seq, id)` fields of a packed heap entry.
#[inline]
fn unpack(key: u128) -> (Cycles, u64, usize) {
    let at = (key >> 64) as u64;
    let seq = (key >> ID_BITS) as u64 & ((1 << SEQ_BITS) - 1);
    (Cycles(at), seq, key as u16 as usize)
}

/// One pending timer per id, popped earliest first, FIFO on equal times.
///
/// Ids are `0..ids` with `ids` ≤ 2¹⁶, and the queue accepts fewer than 2⁴⁸
/// `set` calls over its life; both bounds panic with a message rather than
/// wrap.
///
/// ```
/// use interweave_core::{Cycles, TimerQueue};
///
/// let mut q = TimerQueue::new(3);
/// q.set(0, Cycles(100));
/// q.set(1, Cycles(50));
/// q.set(2, Cycles(100)); // same time: FIFO after id 0
/// q.set(1, Cycles(150)); // retracts id 1's pending timer
///
/// assert_eq!(q.pop(), Some((Cycles(100), 0)));
/// assert_eq!(q.pop(), Some((Cycles(100), 2)));
/// assert_eq!(q.pop(), Some((Cycles(150), 1)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct TimerQueue {
    /// Min-heap of packed entries, live and stale. Its top is never stale.
    heap: BinaryHeap<Reverse<u128>>,
    /// Per id: the `seq` of its pending timer, or [`IDLE`]. An entry is
    /// stale when its id expects another `seq`.
    expect: Vec<u64>,
    /// Stale entries still in the heap.
    stale: usize,
    next_seq: u64,
    now: Cycles,
    scheduled: u64,
    popped: u64,
    cancelled: u64,
    compactions: u64,
}

impl TimerQueue {
    /// An empty queue at time zero for ids `0..ids`.
    pub fn new(ids: usize) -> Self {
        assert!(
            ids <= 1 << ID_BITS,
            "TimerQueue: {ids} ids do not fit the {ID_BITS}-bit id field"
        );
        TimerQueue {
            heap: BinaryHeap::with_capacity(2 * ids),
            expect: vec![IDLE; ids],
            stale: 0,
            next_seq: 0,
            now: Cycles::ZERO,
            scheduled: 0,
            popped: 0,
            cancelled: 0,
            compactions: 0,
        }
    }

    /// Publish the queue's lifetime counters into `sink`'s registry as
    /// gauges under telemetry shard 0, stamped with the queue's current
    /// time. Gauge semantics make re-publishing idempotent.
    pub fn publish_telemetry(&self, sink: &Sink) {
        sink.gauge_at(&KEY_SCHEDULED, 0, self.scheduled, self.now);
        sink.gauge_at(&KEY_POPPED, 0, self.popped, self.now);
        sink.gauge_at(&KEY_CANCELLED, 0, self.cancelled, self.now);
        sink.gauge_at(&KEY_COMPACTIONS, 0, self.compactions, self.now);
    }

    /// The time of the most recently popped timer (the simulator's "now").
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Set `id`'s timer to fire at `at`, retracting its pending timer if it
    /// has one (counted as a cancellation). The new timer queues FIFO
    /// behind every timer already set for the same time.
    ///
    /// Setting a time in the past is a simulator bug; it panics in debug
    /// builds and is clamped to `now` in release builds so long sweeps fail
    /// soft.
    pub fn set(&mut self, id: usize, at: Cycles) {
        assert!(
            id < self.expect.len(),
            "TimerQueue: id {id} out of range for {} ids",
            self.expect.len()
        );
        let seq = self.next_seq;
        assert!(
            seq < 1 << SEQ_BITS,
            "TimerQueue: the {SEQ_BITS}-bit seq field is exhausted"
        );
        debug_assert!(
            at >= self.now,
            "timer set in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        if self.expect[id] != IDLE {
            // The pending entry goes stale before the heap is pruned or
            // compacted, so neither keeps it.
            self.stale += 1;
            self.cancelled += 1;
            self.expect[id] = IDLE;
            if self.stale * 2 > self.heap.len() {
                self.compact();
            } else {
                self.prune_top();
            }
        }
        self.next_seq += 1;
        self.scheduled += 1;
        self.expect[id] = seq;
        self.heap.push(Reverse(
            (at.get() as u128) << 64 | (seq as u128) << ID_BITS | id as u128,
        ));
    }

    /// Pop the earliest pending timer as `(time, id)`, advancing `now` to
    /// its time.
    pub fn pop(&mut self) -> Option<(Cycles, usize)> {
        let Reverse(key) = self.heap.pop()?;
        let (at, seq, id) = unpack(key);
        debug_assert_eq!(self.expect[id], seq, "stale entry at heap top");
        self.expect[id] = IDLE;
        self.prune_top();
        self.now = at;
        self.popped += 1;
        Some((at, id))
    }

    /// Is `key` an entry whose id has since been re-set or fired?
    #[inline]
    fn is_stale(&self, key: u128) -> bool {
        let (_, seq, id) = unpack(key);
        self.expect[id] != seq
    }

    /// Discard stale entries sitting at the top of the heap.
    fn prune_top(&mut self) {
        while let Some(&Reverse(top)) = self.heap.peek() {
            if !self.is_stale(top) {
                break;
            }
            self.heap.pop();
            self.stale -= 1;
        }
    }

    /// Rebuild the heap without its stale entries (one O(n) pass).
    fn compact(&mut self) {
        self.compactions += 1;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|&Reverse(key)| !self.is_stale(key));
        self.stale = 0;
        self.heap = entries.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = TimerQueue::new(3);
        q.set(2, Cycles(30));
        q.set(0, Cycles(10));
        q.set(1, Cycles(20));
        assert_eq!(q.pop(), Some((Cycles(10), 0)));
        assert_eq!(q.pop(), Some((Cycles(20), 1)));
        assert_eq!(q.pop(), Some((Cycles(30), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = TimerQueue::new(100);
        for id in (0..100).rev() {
            q.set(id, Cycles(5));
        }
        for id in (0..100).rev() {
            assert_eq!(q.pop(), Some((Cycles(5), id)));
        }
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = TimerQueue::new(1);
        q.set(0, Cycles(42));
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles(42));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "set in the past")]
    fn schedule_in_past_panics_in_debug() {
        let mut q = TimerQueue::new(1);
        q.set(0, Cycles(100));
        q.pop();
        q.set(0, Cycles(50));
    }

    #[test]
    fn cancel_removes_pending_event() {
        // Re-setting an id retracts its pending timer, earlier or later.
        let mut q = TimerQueue::new(3);
        q.set(0, Cycles(1));
        q.set(1, Cycles(2));
        q.set(2, Cycles(3));
        q.set(1, Cycles(4));
        q.set(2, Cycles(2));
        q.set(0, Cycles(5));
        assert_eq!(q.pop(), Some((Cycles(2), 2)));
        assert_eq!(q.pop(), Some((Cycles(4), 1)));
        assert_eq!(q.pop(), Some((Cycles(5), 0)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.cancelled, 3);
    }

    #[test]
    fn cancel_is_idempotent_and_stale_after_fire() {
        // A re-`set` cancels: retracting the same id twice still leaves it
        // one pending timer, and once a timer fired nothing retracts it.
        let mut q = TimerQueue::new(2);
        q.set(0, Cycles(1));
        q.set(1, Cycles(2));
        q.set(1, Cycles(5));
        q.set(1, Cycles(5));
        assert_eq!(q.cancelled, 2);
        assert_eq!(q.pop(), Some((Cycles(1), 0)));
        // Id 0 fired: its next timer retracts nothing, and the fired entry
        // never surfaces again.
        q.set(0, Cycles(3));
        assert_eq!(q.cancelled, 2);
        assert_eq!(q.pop(), Some((Cycles(3), 0)));
        assert_eq!(q.pop(), Some((Cycles(5), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled_top() {
        // The heap top is never stale: retracting the earliest timer
        // exposes the next live one at once.
        let mut q = TimerQueue::new(2);
        q.set(0, Cycles(5));
        q.set(1, Cycles(10));
        q.set(0, Cycles(20));
        let top = q.heap.peek().map(|&Reverse(key)| unpack(key));
        assert_eq!(top, Some((Cycles(10), 1, 1)));
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(20), 0)));
    }

    #[test]
    fn stale_handle_never_cancels_the_slots_next_owner() {
        // An id's retracted entry stays in the heap ahead of the id's next
        // timer, here at the same time, so only the `seq` tells them
        // apart: the stale one never fires, and pruning it keeps the next.
        let mut q = TimerQueue::new(2);
        q.set(1, Cycles(1));
        q.set(0, Cycles(3));
        q.set(0, Cycles(3));
        assert_eq!((q.heap.len(), q.stale), (3, 1));
        assert_eq!(q.pop(), Some((Cycles(1), 1)));
        assert_eq!((q.heap.len(), q.stale), (1, 0));
        assert_eq!(q.pop(), Some((Cycles(3), 0)));
        assert_eq!(q.pop(), None);

        // Same through a compaction: it drops both of id 0's retracted
        // entries and keeps the timer set after them.
        q.set(1, Cycles(4));
        q.set(0, Cycles(5));
        q.set(0, Cycles(6));
        q.set(0, Cycles(7));
        assert_eq!(q.compactions, 1);
        assert_eq!((q.heap.len(), q.stale), (2, 0));
        assert_eq!(q.pop(), Some((Cycles(4), 1)));
        assert_eq!(q.pop(), Some((Cycles(7), 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_counts_only_live_events() {
        // The heap holds live and stale entries and `stale` counts the
        // latter, so the heap less `stale` is the number of pending ids.
        let live = |q: &TimerQueue| q.heap.len() - q.stale;
        let pending = |q: &TimerQueue| q.expect.iter().filter(|&&seq| seq != IDLE).count();
        let mut q = TimerQueue::new(3);
        q.set(0, Cycles(10));
        q.set(1, Cycles(20));
        q.set(2, Cycles(30));
        assert_eq!((live(&q), pending(&q)), (3, 3));
        q.set(1, Cycles(25));
        assert_eq!((q.heap.len(), live(&q), pending(&q)), (4, 3, 3));
        q.pop();
        assert_eq!((live(&q), pending(&q)), (2, 2));
    }

    #[test]
    fn cancellation_preserves_fifo_ties() {
        let mut q = TimerQueue::new(50);
        for id in 0..50 {
            q.set(id, Cycles(7));
        }
        // Re-set every third id to the same time: it retracts and requeues
        // behind every timer already set, and the others keep their order.
        for id in (0..50).step_by(3) {
            q.set(id, Cycles(7));
        }
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            assert_eq!(t, Cycles(7));
            popped.push(id);
        }
        let expect: Vec<usize> = (0..50)
            .filter(|i| i % 3 != 0)
            .chain((0..50).step_by(3))
            .collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn heavy_cancellation_triggers_compaction() {
        let mut q = TimerQueue::new(2);
        q.set(1, Cycles(10));
        // Each re-set pushes id 0 later, so its stale entries sit below
        // the heap top; stale entries may never outnumber live ones.
        for i in 0..1000 {
            q.set(0, Cycles(1_000 + i));
            assert!(
                2 * q.stale <= q.heap.len(),
                "stale {} in {}",
                q.stale,
                q.heap.len()
            );
        }
        assert!(q.compactions > 0);
        assert_eq!(q.cancelled, 999);
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(1_999), 0)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stats_count_and_publish_as_gauges() {
        let mut q = TimerQueue::new(3);
        q.set(0, Cycles(10));
        q.set(1, Cycles(20));
        q.set(2, Cycles(30));
        q.set(1, Cycles(25));
        q.pop();
        let sink = Sink::on();
        q.publish_telemetry(&sink);
        q.publish_telemetry(&sink); // gauge semantics: idempotent
        assert_eq!(sink.counter("core.evq.scheduled"), 4);
        assert_eq!(sink.counter("core.evq.popped"), 1);
        assert_eq!(sink.counter("core.evq.cancelled"), 1);
        assert_eq!(sink.counter("core.evq.compactions"), 0);
    }

    #[test]
    fn slot_table_stays_bounded_under_dispatch_churn() {
        // The executor's pattern: 24 CPUs, each with one pending dispatch;
        // every pop re-arms that CPU, and every tenth pop also pulls
        // another CPU's pending dispatch earlier or later. The per-id
        // table is fixed at `new`; the heap stays within twice the ids.
        const CPUS: usize = 24;
        let mut q = TimerQueue::new(CPUS);
        for cpu in 0..CPUS {
            q.set(cpu, Cycles(1 + cpu as u64));
        }
        let mut rng = crate::SplitMix64::new(7);
        for i in 0..100_000u64 {
            let (t, cpu) = q.pop().expect("24 timers stay pending");
            q.set(cpu, t + Cycles(rng.range(1, 5_000)));
            if i % 10 == 0 {
                let victim = rng.range(0, CPUS as u64 - 1) as usize;
                q.set(victim, q.now() + Cycles(rng.range(1, 5_000)));
            }
            assert_eq!(q.heap.len() - q.stale, CPUS);
            assert!(q.heap.len() <= 2 * CPUS, "heap {}", q.heap.len());
        }
        assert!(q.cancelled >= 10_000);
        assert_eq!(q.expect.len(), CPUS);
    }

    #[test]
    #[should_panic(expected = "do not fit the 16-bit id field")]
    fn new_rejects_more_ids_than_the_id_field_holds() {
        TimerQueue::new((1 << 16) + 1);
    }

    #[test]
    fn the_largest_id_round_trips() {
        let mut q = TimerQueue::new(1 << 16);
        q.set((1 << 16) - 1, Cycles(u64::MAX - 1));
        q.set(0, Cycles(u64::MAX - 1));
        assert_eq!(q.pop(), Some((Cycles(u64::MAX - 1), (1 << 16) - 1)));
        assert_eq!(q.pop(), Some((Cycles(u64::MAX - 1), 0)));
    }

    #[test]
    fn foreign_handle_with_out_of_range_slot_is_rejected() {
        // An id valid for a bigger queue (a machine with more CPUs) is
        // refused with a message before it touches this queue's state.
        let mut q = TimerQueue::new(2);
        q.set(0, Cycles(5));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.set(2, Cycles(1));
        }))
        .expect_err("id 2 of a 2-id queue is refused");
        assert_eq!(
            refused.downcast_ref::<String>().map(String::as_str),
            Some("TimerQueue: id 2 out of range for 2 ids")
        );
        assert_eq!(q.scheduled, 1);
        assert_eq!(q.pop(), Some((Cycles(5), 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "48-bit seq field is exhausted")]
    fn set_rejects_a_seq_past_the_seq_field() {
        let mut q = TimerQueue::new(1);
        q.next_seq = (1 << 48) - 1;
        q.set(0, Cycles(1)); // the last seq that fits
        assert_eq!(q.pop(), Some((Cycles(1), 0)));
        q.set(0, Cycles(2));
    }
}
