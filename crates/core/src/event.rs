//! A deterministic discrete-event queue.
//!
//! The kernel's preemptive executor (`interweave_kernel::executor`) is the
//! one simulator that advances simulated time by popping the earliest
//! pending event from an [`EventQueue`]; the heartbeat, coherence and other
//! models step their own clocks. Determinism matters: the paper's
//! comparisons (Linux vs. Nautilus stacks running *the same
//! workload*) are only meaningful if a run is a pure function of its
//! configuration, so ties in event time are broken by insertion order
//! (FIFO), never by heap internals.
//!
//! Cancellation is *lazy*: [`EventQueue::cancel`] tombstones the event in
//! O(1) instead of rebuilding the heap, and tombstoned entries are
//! discarded when they surface at the top. A cancellable event owns a slot
//! in a small table (`slots[slot] == seq` while it is live), so neither
//! cancelling nor popping hashes anything, and a plain event pays one
//! sentinel compare. When tombstones outnumber live events the heap is
//! compacted in one pass, so memory stays bounded by the live event count.
//! The heap top is never left tombstoned, which keeps
//! [`EventQueue::peek_time`] an `&self` read.

use crate::telemetry::{Key, Layer, Sink, Unit};
use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Registry key: events scheduled since the queue was created.
const KEY_SCHEDULED: Key = Key::new("core.evq.scheduled", Layer::Hardware, Unit::Count);
/// Registry key: events popped (fired).
const KEY_POPPED: Key = Key::new("core.evq.popped", Layer::Hardware, Unit::Count);
/// Registry key: events cancelled (tombstoned).
const KEY_CANCELLED: Key = Key::new("core.evq.cancelled", Layer::Hardware, Unit::Count);
/// Registry key: tombstone compaction passes.
const KEY_COMPACTIONS: Key = Key::new("core.evq.compactions", Layer::Hardware, Unit::Count);

/// Lifetime counters the queue maintains for the telemetry plane. Plain
/// integer increments on the hot paths; published on demand with
/// [`EventQueue::publish_telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvqStats {
    /// Events scheduled (either way).
    pub scheduled: u64,
    /// Events popped (fired).
    pub popped: u64,
    /// Events cancelled via handle or predicate.
    pub cancelled: u64,
    /// Tombstone compaction passes performed.
    pub compactions: u64,
}

/// Slot index of an event scheduled with plain [`EventQueue::schedule`]:
/// it cannot be cancelled and owns no slot.
const NO_SLOT: u32 = u32::MAX;
/// Value of a slot whose event was cancelled (tombstone) or which is on the
/// free list. No event's `seq` ever reaches it.
const DEAD: u64 = u64::MAX;

/// An event scheduled at an absolute simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: Cycles,
    seq: u64,
    /// The event's slot in [`EventQueue::slots`], or [`NO_SLOT`].
    slot: u32,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A ticket for a pending event scheduled with
/// [`EventQueue::schedule_cancellable`]; redeem it with
/// [`EventQueue::cancel`].
///
/// Handles are cheap copyable tokens. A handle whose event has already
/// fired (or already been cancelled) is simply stale: cancelling it returns
/// `false` and does nothing, even after its slot went to a newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    seq: u64,
    slot: u32,
}

/// A deterministic discrete-event queue generic over the event payload.
///
/// ```
/// use interweave_core::{EventQueue, Cycles};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles(100), "timer");
/// q.schedule(Cycles(50), "ipi");
/// q.schedule(Cycles(100), "second-timer"); // same time: FIFO after "timer"
///
/// assert_eq!(q.pop().unwrap(), (Cycles(50), "ipi"));
/// assert_eq!(q.pop().unwrap(), (Cycles(100), "timer"));
/// assert_eq!(q.pop().unwrap(), (Cycles(100), "second-timer"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Cycles,
    /// Slot table of the events scheduled via `schedule_cancellable` that
    /// are still physically in the heap: `slots[slot] == seq` while the
    /// event is live, [`DEAD`] once it is cancelled (a tombstone) or its
    /// slot is free. Equality makes `cancel` accurate and idempotent.
    slots: Vec<u64>,
    /// Slots whose heap entry is gone, ready for reuse.
    free: Vec<u32>,
    /// Tombstones: cancelled events still physically in the heap.
    tombs: usize,
    /// Lifetime telemetry counters.
    stats: EvqStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycles::ZERO,
            slots: Vec::new(),
            free: Vec::new(),
            tombs: 0,
            stats: EvqStats::default(),
        }
    }

    /// Lifetime queue counters (scheduled/popped/cancelled/compactions).
    #[inline]
    pub fn stats(&self) -> EvqStats {
        self.stats
    }

    /// Publish the queue's lifetime counters into `sink`'s registry as
    /// gauges under telemetry shard 0, stamped with the queue's current
    /// time. Gauge semantics make re-publishing idempotent.
    pub fn publish_telemetry(&self, sink: &Sink) {
        sink.gauge_at(&KEY_SCHEDULED, 0, self.stats.scheduled, self.now);
        sink.gauge_at(&KEY_POPPED, 0, self.stats.popped, self.now);
        sink.gauge_at(&KEY_CANCELLED, 0, self.stats.cancelled, self.now);
        sink.gauge_at(&KEY_COMPACTIONS, 0, self.stats.compactions, self.now);
    }

    /// The time of the most recently popped event (the simulator's "now").
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombs
    }

    /// True when no live events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is a simulator bug; it panics in debug builds
    /// and is clamped to `now` in release builds so long sweeps fail soft.
    pub fn schedule(&mut self, at: Cycles, payload: E) {
        self.push(at, NO_SLOT, payload);
    }

    /// Schedule `payload` at `at`, returning a handle that can later cancel
    /// the event in O(1) (see [`EventQueue::cancel`]).
    ///
    /// Same time semantics as [`EventQueue::schedule`], including FIFO
    /// tie-breaking against events scheduled either way.
    pub fn schedule_cancellable(&mut self, at: Cycles, payload: E) -> EventHandle {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                assert!(self.slots.len() < NO_SLOT as usize, "slot table full");
                self.slots.push(DEAD);
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.push(at, slot, payload);
        self.slots[slot as usize] = seq;
        EventHandle { seq, slot }
    }

    fn push(&mut self, at: Cycles, slot: u32, payload: E) -> u64 {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.scheduled += 1;
        self.heap.push(Scheduled {
            at,
            seq,
            slot,
            payload,
        });
        seq
    }

    /// Cancel the event behind `handle`. Returns true if the event was
    /// still pending (and is now dead), false if it already fired, was
    /// already cancelled, or the handle belongs to no event of this queue.
    ///
    /// The entry is tombstoned, not removed: it stays in the heap until it
    /// surfaces at the top or a compaction sweeps it out.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(live) if *live == handle.seq => *live = DEAD,
            _ => return false,
        }
        self.tombs += 1;
        self.stats.cancelled += 1;
        self.after_cancel();
        true
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycles> {
        // Invariant: the heap top is never tombstoned (every cancellation
        // prunes the top), so peeking needs no skipping.
        self.heap.peek().map(|s| s.at)
    }

    /// Pop the earliest live event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let s = self.heap.pop()?;
        if s.slot != NO_SLOT {
            let slot = &mut self.slots[s.slot as usize];
            debug_assert_eq!(*slot, s.seq, "tombstone at heap top");
            *slot = DEAD;
            self.free.push(s.slot);
        }
        self.prune_top();
        self.now = s.at;
        self.stats.popped += 1;
        Some((s.at, s.payload))
    }

    /// Restore the no-tombstone-at-top invariant and bound tombstone load.
    fn after_cancel(&mut self) {
        // Compact when tombstones exceed half the heap; otherwise just make
        // sure the top entry is live.
        if self.tombs * 2 > self.heap.len() {
            self.compact();
        } else {
            self.prune_top();
        }
    }

    /// True when `s` is a tombstone: it owns a slot that no longer holds
    /// its `seq`.
    #[inline]
    fn is_tomb(slots: &[u64], s: &Scheduled<E>) -> bool {
        s.slot != NO_SLOT && slots[s.slot as usize] != s.seq
    }

    /// Discard tombstoned entries sitting at the top of the heap.
    fn prune_top(&mut self) {
        while let Some(top) = self.heap.peek() {
            if !Self::is_tomb(&self.slots, top) {
                break;
            }
            self.free.push(top.slot);
            self.heap.pop();
            self.tombs -= 1;
        }
    }

    /// Rebuild the heap without its tombstoned entries (one O(n) pass).
    fn compact(&mut self) {
        self.stats.compactions += 1;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|s| {
            let tomb = Self::is_tomb(&self.slots, s);
            if tomb {
                self.free.push(s.slot);
            }
            !tomb
        });
        self.tombs = 0;
        self.heap = entries.into();
    }

    /// Physical heap entries, live + tombstoned (for tests and diagnostics).
    #[doc(hidden)]
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Size of the slot table: the most cancellable entries (live +
    /// tombstoned) ever in the heap at once (for tests and diagnostics).
    #[doc(hidden)]
    pub fn slot_table_len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(30), 3);
        q.schedule(Cycles(10), 1);
        q.schedule(Cycles(20), 2);
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(20), 2)));
        assert_eq!(q.pop(), Some((Cycles(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(5), i)));
        }
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(42), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles(42));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn schedule_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(100), ());
        q.pop();
        q.schedule(Cycles(50), ());
    }

    #[test]
    fn cancel_removes_pending_event() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(1), "a");
        let h = q.schedule_cancellable(Cycles(2), "b");
        q.schedule(Cycles(3), "c");
        assert!(q.cancel(h));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Cycles(1), "a")));
        assert_eq!(q.pop(), Some((Cycles(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_is_idempotent_and_stale_after_fire() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_cancellable(Cycles(1), "first");
        let h2 = q.schedule_cancellable(Cycles(2), "second");
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel must be a no-op");
        assert_eq!(q.pop(), Some((Cycles(1), "first")));
        assert!(!q.cancel(h1), "cancelling a fired event must be a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_top() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancellable(Cycles(5), "soon");
        q.schedule(Cycles(10), "later");
        assert_eq!(q.peek_time(), Some(Cycles(5)));
        assert!(q.cancel(h));
        // The cancelled event was the top: peek must see through it.
        assert_eq!(q.peek_time(), Some(Cycles(10)));
        assert_eq!(q.pop(), Some((Cycles(10), "later")));
    }

    #[test]
    fn cancellation_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let mut handles = Vec::new();
        for i in 0..50 {
            handles.push(q.schedule_cancellable(Cycles(7), i));
        }
        // Cancel every third event; the survivors must still pop in
        // insertion order.
        for (i, h) in handles.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*h));
            }
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            assert_eq!(t, Cycles(7));
            popped.push(i);
        }
        let expect: Vec<i32> = (0..50).filter(|i| i % 3 != 0).collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn heavy_cancellation_triggers_compaction() {
        let mut q = EventQueue::new();
        let handles: Vec<EventHandle> = (0..1000)
            .map(|i| q.schedule_cancellable(Cycles(1_000_000 + i), i))
            .collect();
        // Cancel everything except the last event. Tombstones may never
        // exceed half the physical heap.
        for h in &handles[..999] {
            assert!(q.cancel(*h));
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.raw_len() <= 2,
            "compaction failed to bound tombstones: raw_len={}",
            q.raw_len()
        );
        assert_eq!(q.pop(), Some((Cycles(1_000_999), 999)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stats_count_and_publish_as_gauges() {
        use crate::telemetry::Sink;
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), 0);
        let h = q.schedule_cancellable(Cycles(20), 1);
        q.schedule(Cycles(30), 2);
        q.cancel(h);
        q.pop();
        let st = q.stats();
        assert_eq!((st.scheduled, st.popped, st.cancelled), (3, 1, 1), "{st:?}");
        let sink = Sink::on();
        q.publish_telemetry(&sink);
        q.publish_telemetry(&sink); // gauge semantics: idempotent
        assert_eq!(sink.counter("core.evq.scheduled"), 3);
        assert_eq!(sink.counter("core.evq.popped"), 1);
        assert_eq!(sink.counter("core.evq.cancelled"), 1);
        assert_eq!(sink.counter("core.evq.compactions"), 0);
    }

    #[test]
    fn stale_handle_never_cancels_the_slots_next_owner() {
        let mut q = EventQueue::new();
        let old = q.schedule_cancellable(Cycles(1), "old");
        assert_eq!(q.pop(), Some((Cycles(1), "old")));
        // The freed slot goes to the next cancellable event.
        let new = q.schedule_cancellable(Cycles(2), "new");
        assert_eq!((old.slot, q.slot_table_len()), (new.slot, 1));
        assert!(!q.cancel(old), "a fired event's handle is stale");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Cycles(2), "new")));

        // Same after a cancel: the tombstone's slot is reused once the
        // tombstone leaves the heap, and the old handle stays dead.
        let doomed = q.schedule_cancellable(Cycles(3), "doomed");
        assert!(q.cancel(doomed));
        let next = q.schedule_cancellable(Cycles(4), "next");
        assert_eq!(next.slot, doomed.slot);
        assert!(!q.cancel(doomed));
        assert_eq!(q.pop(), Some((Cycles(4), "next")));
        assert!(q.is_empty());
    }

    #[test]
    fn foreign_handle_with_out_of_range_slot_is_rejected() {
        // A handle minted by a queue (or shard) with a bigger slot table.
        let mut other = EventQueue::new();
        let foreign: Vec<EventHandle> = (0..8)
            .map(|i| other.schedule_cancellable(Cycles(i), i))
            .collect();
        let mut q = EventQueue::new();
        q.schedule_cancellable(Cycles(5), 0);
        q.schedule(Cycles(6), 1);
        // Handles carry no queue identity, so `foreign[0]` (slot 0, seq 0)
        // would name `q`'s own first event; the rest are out of range.
        for h in &foreign[1..] {
            assert!(!q.cancel(*h), "slot {} is out of range", h.slot);
        }
        let far = EventHandle {
            seq: 0,
            slot: NO_SLOT,
        };
        assert!(!q.cancel(far));
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().cancelled, 0);
        assert_eq!(q.pop(), Some((Cycles(5), 0)));
        assert_eq!(q.pop(), Some((Cycles(6), 1)));
    }

    #[test]
    fn slot_table_stays_bounded_under_dispatch_churn() {
        // The executor's pattern: 24 CPUs, each with one pending
        // cancellable dispatch; every pop reschedules that CPU, and every
        // tenth reschedule first retracts another CPU's pending dispatch.
        const CPUS: u64 = 24;
        let mut q = EventQueue::new();
        let mut pending: Vec<EventHandle> = (0..CPUS)
            .map(|cpu| q.schedule_cancellable(Cycles(1 + cpu), cpu))
            .collect();
        let mut rng = crate::SplitMix64::new(7);
        let mut peak = q.raw_len();
        for i in 0..100_000u64 {
            let (t, cpu) = q.pop().expect("24 events stay pending");
            pending[cpu as usize] = q.schedule_cancellable(t + Cycles(rng.range(1, 5_000)), cpu);
            if i % 10 == 0 {
                let victim = rng.range(0, CPUS - 1) as usize;
                assert!(q.cancel(pending[victim]));
                pending[victim] =
                    q.schedule_cancellable(q.now() + Cycles(rng.range(1, 5_000)), victim as u64);
            }
            assert_eq!(q.len(), CPUS as usize);
            // Compaction keeps tombstones at most as many as live events.
            assert!(q.raw_len() <= 2 * CPUS as usize, "raw_len {}", q.raw_len());
            peak = peak.max(q.raw_len());
        }
        assert!(q.stats().cancelled >= 10_000);
        // The table only grows when no slot is free, i.e. when every slot
        // holds a live event or a tombstone still in the heap.
        assert!(
            q.slot_table_len() <= peak,
            "slot table {} outgrew the peak of live + tombstones {peak}",
            q.slot_table_len()
        );
    }

    #[test]
    fn len_counts_only_live_events() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), 0);
        let h = q.schedule_cancellable(Cycles(20), 1);
        q.schedule(Cycles(30), 2);
        assert_eq!(q.len(), 3);
        q.cancel(h);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
