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
//! by queue internals.
//!
//! The pending timers sit in one ring in firing order. A pop takes the
//! front. A set lands behind every timer of its own time or earlier: at
//! the back when the back fires no later, else at the point a binary
//! search finds. The executor re-arms a CPU one quantum past the CPU's own
//! clock, and its CPUs advance in lockstep, so that timer is usually the
//! latest pending one and one compare places it. Re-setting a pending id
//! removes its entry at once, so the ring never holds a stale timer.

use crate::telemetry::{Key, Layer, Sink, Unit};
use crate::time::Cycles;
use std::collections::VecDeque;

/// Registry key: timers set since the queue was created.
const KEY_SCHEDULED: Key = Key::new("core.evq.scheduled", Layer::Hardware, Unit::Count);
/// Registry key: timers popped (fired).
const KEY_POPPED: Key = Key::new("core.evq.popped", Layer::Hardware, Unit::Count);
/// Registry key: pending timers retracted by a re-`set`.
const KEY_CANCELLED: Key = Key::new("core.evq.cancelled", Layer::Hardware, Unit::Count);

/// One pending timer per id, popped earliest first, FIFO on equal times.
///
/// A timer set behind every pending one costs one compare and a push. Any
/// other `set`, and every retraction, costs a binary search plus a shift
/// of the ring's shorter side around the entry: O(ids) at worst, where a
/// binary heap is O(log ids).
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
/// assert_eq!(q.pending(1), Some(Cycles(150)));
/// assert_eq!(q.pop(), Some((Cycles(100), 0)));
/// assert_eq!(q.pop(), Some((Cycles(100), 2)));
/// assert_eq!(q.pop(), Some((Cycles(150), 1)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct TimerQueue {
    /// Pending timers as `(time, id)`, in firing order: non-decreasing in
    /// time, set order within a time, one entry per pending id.
    ring: VecDeque<(Cycles, usize)>,
    /// Per id: the fire time of its pending timer.
    pending: Vec<Option<Cycles>>,
    now: Cycles,
    scheduled: u64,
    popped: u64,
    cancelled: u64,
}

impl TimerQueue {
    /// An empty queue at time zero for ids `0..ids`.
    pub fn new(ids: usize) -> Self {
        TimerQueue {
            ring: VecDeque::with_capacity(ids),
            pending: vec![None; ids],
            now: Cycles::ZERO,
            scheduled: 0,
            popped: 0,
            cancelled: 0,
        }
    }

    /// Publish the queue's lifetime counters into `sink`'s registry as
    /// gauges under telemetry shard 0, stamped with the queue's current
    /// time. Gauge semantics make re-publishing idempotent.
    pub fn publish_telemetry(&self, sink: &Sink) {
        sink.gauge_at(&KEY_SCHEDULED, 0, self.scheduled, self.now);
        sink.gauge_at(&KEY_POPPED, 0, self.popped, self.now);
        sink.gauge_at(&KEY_CANCELLED, 0, self.cancelled, self.now);
    }

    /// The time of the most recently popped timer (the simulator's "now").
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The fire time of `id`'s pending timer, if it has one.
    #[inline]
    pub fn pending(&self, id: usize) -> Option<Cycles> {
        self.pending[id]
    }

    /// Set `id`'s timer to fire at `at`, retracting its pending timer if it
    /// has one (counted as a cancellation). The new timer queues FIFO
    /// behind every timer already set for the same time.
    ///
    /// Setting a time in the past is a simulator bug; it panics in debug
    /// builds and is clamped to `now` in release builds so long sweeps fail
    /// soft.
    #[inline]
    pub fn set(&mut self, id: usize, at: Cycles) {
        assert!(
            id < self.pending.len(),
            "TimerQueue: id {id} out of range for {} ids",
            self.pending.len()
        );
        debug_assert!(
            at >= self.now,
            "timer set in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        if let Some(old) = self.pending[id] {
            self.retract(id, old);
        }
        self.pending[id] = Some(at);
        self.scheduled += 1;
        if self.ring.back().is_none_or(|&(last, _)| last <= at) {
            self.ring.push_back((at, id));
        } else {
            let i = self.ring.partition_point(|&(t, _)| t <= at);
            self.ring.insert(i, (at, id));
        }
    }

    /// Remove `id`'s pending timer, due at `at`, from the ring: a binary
    /// search for the first timer of that time, then a scan for the id.
    #[cold]
    fn retract(&mut self, id: usize, at: Cycles) {
        let first = self.ring.partition_point(|&(t, _)| t < at);
        let i = first
            + self
                .ring
                .range(first..)
                .position(|&(_, pending)| pending == id)
                .expect("a pending id has an entry in the ring");
        self.ring.remove(i);
        self.cancelled += 1;
    }

    /// Pop the earliest pending timer as `(time, id)`, advancing `now` to
    /// its time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycles, usize)> {
        let (at, id) = self.ring.pop_front()?;
        self.pending[id] = None;
        self.now = at;
        self.popped += 1;
        Some((at, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring's invariants: non-decreasing in time, exactly one entry
    /// per pending id (at that id's pending time), and nothing else.
    fn assert_ring_invariants(q: &TimerQueue) {
        let ring: Vec<_> = q.ring.iter().copied().collect();
        assert!(
            ring.windows(2).all(|w| w[0].0 <= w[1].0),
            "ring out of time order: {ring:?}"
        );
        let mut seen = vec![false; q.pending.len()];
        for &(at, id) in &ring {
            assert!(!seen[id], "id {id} has two entries");
            seen[id] = true;
            assert_eq!(q.pending[id], Some(at), "id {id}'s entry");
        }
        assert_eq!(ring.len(), q.pending.iter().flatten().count());
    }

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
        assert_eq!(q.pending(0), None);
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
        // Retracting the earliest timer removes it from the ring's front
        // at once, exposing the next pending one.
        let mut q = TimerQueue::new(2);
        q.set(0, Cycles(5));
        q.set(1, Cycles(10));
        q.set(0, Cycles(20));
        assert_eq!(q.ring.front(), Some(&(Cycles(10), 1)));
        assert_ring_invariants(&q);
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(20), 0)));
    }

    #[test]
    fn stale_handle_never_cancels_the_slots_next_owner() {
        // Re-setting an id to the time it already had leaves one entry,
        // queued behind every other timer of that time; the retracted one
        // never fires.
        let mut q = TimerQueue::new(3);
        q.set(1, Cycles(1));
        q.set(0, Cycles(3));
        q.set(2, Cycles(3));
        q.set(0, Cycles(3));
        assert_ring_invariants(&q);
        assert_eq!(q.ring.len(), 3);
        assert_eq!(q.pop(), Some((Cycles(1), 1)));
        assert_eq!(q.pop(), Some((Cycles(3), 2)));
        assert_eq!(q.pop(), Some((Cycles(3), 0)));
        assert_eq!(q.pop(), None);

        // Repeated re-sets of one id keep only its last timer.
        q.set(1, Cycles(4));
        q.set(0, Cycles(5));
        q.set(0, Cycles(6));
        q.set(0, Cycles(7));
        assert_ring_invariants(&q);
        assert_eq!(q.ring.len(), 2);
        assert_eq!(q.pop(), Some((Cycles(4), 1)));
        assert_eq!(q.pop(), Some((Cycles(7), 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_counts_only_live_events() {
        // The ring holds exactly one entry per pending id: a retraction
        // leaves its length unchanged, and a pop shortens it by one.
        let mut q = TimerQueue::new(3);
        q.set(0, Cycles(10));
        q.set(1, Cycles(20));
        q.set(2, Cycles(30));
        assert_eq!(q.ring.len(), 3);
        q.set(1, Cycles(25));
        assert_eq!(q.ring.len(), 3);
        assert_ring_invariants(&q);
        q.pop();
        assert_eq!(q.ring.len(), 2);
        assert_ring_invariants(&q);
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
        // Every timer set was popped, retracted, or is still in the ring.
        assert_eq!(q.scheduled, q.popped + q.cancelled + q.ring.len() as u64);
    }

    #[test]
    fn slot_table_stays_bounded_under_dispatch_churn() {
        // The executor's pattern: 24 CPUs, each with one pending dispatch;
        // every pop re-arms that CPU, and every tenth pop also pulls
        // another CPU's pending dispatch earlier or later. The per-id
        // table is fixed at `new`; the ring holds one entry per CPU.
        const CPUS: usize = 24;
        let mut q = TimerQueue::new(CPUS);
        let capacity = q.ring.capacity();
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
            assert_eq!(q.ring.len(), CPUS);
            if i % 1_000 == 0 {
                assert_ring_invariants(&q);
            }
        }
        assert!(q.cancelled >= 10_000);
        assert_eq!(q.pending.len(), CPUS);
        assert_eq!(q.ring.capacity(), capacity);
    }

    #[test]
    fn big_server_churn_pops_in_stable_sort_order() {
        // `big_server_8s`'s 192 CPUs plus the watchdog. Each pop
        // re-arms its id one quantum (plus jitter) on, mostly behind every
        // pending timer; every seventh pop instead re-arms it at `now`,
        // ahead of every pending timer, and every eleventh also retracts
        // the id in the middle of the ring to a time other timers share.
        // The reference is the pending timers in set order, stably sorted
        // by time: its head must be every pop.
        let ids = crate::machine::MachineConfig::big_server_8s().cores + 1;
        assert_eq!(ids, 193);
        const QUANTUM: u64 = 5_000;
        fn set(q: &mut TimerQueue, by_set_order: &mut Vec<(Cycles, usize)>, id: usize, at: Cycles) {
            q.set(id, at);
            by_set_order.retain(|&(_, pending)| pending != id);
            by_set_order.push((at, id));
        }
        let mut q = TimerQueue::new(ids);
        let mut by_set_order = Vec::new();
        let mut rng = crate::SplitMix64::new(193);
        for id in 0..ids {
            set(&mut q, &mut by_set_order, id, Cycles(rng.range(1, 40)));
        }
        let (mut fronts, mut retractions) = (0, 0);
        for i in 0..20_000u64 {
            let mut sorted = by_set_order.clone();
            sorted.sort_by_key(|&(at, _)| at); // stable: set order within a time
            let (at, id) = q.pop().expect("timers stay pending");
            assert_eq!((at, id), sorted[0], "pop {i}");
            if i % 7 == 0 && q.ring.front().is_some_and(|&(first, _)| first > at) {
                set(&mut q, &mut by_set_order, id, at);
                assert_eq!(q.ring.front(), Some(&(at, id)));
                fronts += 1;
            } else {
                let next = at + Cycles(QUANTUM + rng.range(0, 3));
                set(&mut q, &mut by_set_order, id, next);
            }
            if i % 11 == 0 {
                let (_, victim) = q.ring[q.ring.len() / 2];
                let (shared, _) = q.ring[q.ring.len() / 4];
                let cancelled = q.cancelled;
                set(&mut q, &mut by_set_order, victim, shared);
                assert_eq!(q.cancelled, cancelled + 1);
                retractions += 1;
            }
            assert_ring_invariants(&q);
        }
        assert!(fronts > 100 && retractions > 100, "{fronts} {retractions}");
        by_set_order.sort_by_key(|&(at, _)| at);
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, by_set_order);
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
}
