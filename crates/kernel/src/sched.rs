//! Earliest-deadline-first scheduling with utilization-based admission
//! control.
//!
//! §III: Nautilus "provides predictable behavior through a variety of means,
//! including hard real-time scheduling". [`Edf::admit`] is the hard-RT
//! admission test that `fibers::rt` runs before accepting a periodic fiber,
//! and [`edf_simulate`] checks the guarantee it buys: an admitted set
//! misses no deadline on one CPU. The executor's round-robin run queue is a
//! plain FIFO of [`TaskId`]s.

use interweave_core::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a schedulable entity (thread or fiber).
pub type TaskId = u64;

/// An EDF task: period, worst-case slice, and the next absolute deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdfTask {
    /// Task id.
    pub id: TaskId,
    /// Absolute deadline of the current job.
    pub deadline: Cycles,
    /// Period (equals relative deadline in this implicit-deadline model).
    pub period: Cycles,
    /// Worst-case execution slice per period.
    pub slice: Cycles,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByDeadline(EdfTask);

impl Ord for ByDeadline {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (deadline, id) — id tie-break keeps pops deterministic.
        other
            .0
            .deadline
            .cmp(&self.0.deadline)
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}
impl PartialOrd for ByDeadline {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Earliest-deadline-first queue with utilization-based admission control.
#[derive(Debug, Clone, Default)]
pub struct Edf {
    heap: BinaryHeap<ByDeadline>,
    /// Total admitted utilization (Σ slice/period), in parts per million.
    util_ppm: u64,
}

impl Edf {
    /// An empty EDF queue.
    pub fn new() -> Edf {
        Edf::default()
    }

    /// Admit a periodic task if total utilization stays ≤ 100 %. Returns
    /// `false` (and does not enqueue) when admission fails — the hard-RT
    /// guarantee of §III's scheduler.
    pub fn admit(&mut self, t: EdfTask) -> bool {
        assert!(t.period.get() > 0, "EDF task must have a nonzero period");
        let u = t.slice.get().saturating_mul(1_000_000) / t.period.get();
        if self.util_ppm + u > 1_000_000 {
            return false;
        }
        self.util_ppm += u;
        self.heap.push(ByDeadline(t));
        true
    }

    /// Pop the task with the earliest deadline.
    pub fn pop_task(&mut self) -> Option<EdfTask> {
        self.heap.pop().map(|b| b.0)
    }

    /// Admitted utilization as a fraction.
    pub fn utilization(&self) -> f64 {
        self.util_ppm as f64 / 1_000_000.0
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Simulate preemptive EDF over `horizon` cycles on one CPU, returning the
/// number of deadline misses (0 for any admitted task set, by EDF
/// optimality on one processor). Jobs release periodically from time 0 and
/// the earliest-deadline pending job always runs, preempted on releases.
pub fn edf_simulate(tasks: &[EdfTask], horizon: Cycles) -> usize {
    // Admission check (assert the caller gave an admissible set).
    {
        let mut q = Edf::new();
        for &t in tasks {
            assert!(q.admit(t), "edf_simulate requires an admissible task set");
        }
    }

    // All job releases up to the horizon: (release, deadline, slice).
    let mut releases: Vec<(Cycles, Cycles, Cycles)> = Vec::new();
    for t in tasks {
        let mut r = Cycles::ZERO;
        while r < horizon {
            releases.push((r, r + t.period, t.slice));
            r += t.period;
        }
    }
    releases.sort_unstable_by_key(|&(r, d, _)| (r, d));

    // Pending jobs: min-heap by deadline with remaining work.
    let mut pending: BinaryHeap<ByDeadline> = BinaryHeap::new();
    let mut now = Cycles::ZERO;
    let mut next_rel = 0usize;
    let mut misses = 0usize;

    loop {
        // Admit all jobs released by `now`.
        while next_rel < releases.len() && releases[next_rel].0 <= now {
            let (_, d, s) = releases[next_rel];
            pending.push(ByDeadline(EdfTask {
                id: next_rel as u64,
                deadline: d,
                period: Cycles(1), // unused during simulation
                slice: s,
            }));
            next_rel += 1;
        }
        match pending.pop() {
            None => {
                // Idle: jump to the next release, or finish.
                if next_rel >= releases.len() {
                    break;
                }
                now = releases[next_rel].0;
            }
            Some(ByDeadline(mut job)) => {
                // Run until completion or the next release, whichever first.
                let until = if next_rel < releases.len() {
                    releases[next_rel].0
                } else {
                    Cycles::MAX
                };
                let finish = now + job.slice;
                if finish <= until {
                    now = finish;
                    if now > job.deadline {
                        misses += 1;
                    }
                } else {
                    job.slice = finish - until;
                    now = until;
                    pending.push(ByDeadline(job));
                }
            }
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edf_orders_by_deadline() {
        let mut q = Edf::new();
        let mk = |id, d| EdfTask {
            id,
            deadline: Cycles(d),
            period: Cycles(1000),
            slice: Cycles(10),
        };
        assert!(q.admit(mk(1, 500)));
        assert!(q.admit(mk(2, 100)));
        assert!(q.admit(mk(3, 300)));
        assert_eq!(q.pop_task().unwrap().id, 2);
        assert_eq!(q.pop_task().unwrap().id, 3);
        assert_eq!(q.pop_task().unwrap().id, 1);
    }

    #[test]
    fn edf_admission_control_rejects_overload() {
        let mut q = Edf::new();
        let t = |id, slice, period| EdfTask {
            id,
            deadline: Cycles(period),
            period: Cycles(period),
            slice: Cycles(slice),
        };
        assert!(q.admit(t(1, 600, 1000))); // 60 %
        assert!(q.admit(t(2, 300, 1000))); // 90 %
        assert!(!q.admit(t(3, 200, 1000))); // would be 110 %
        assert!(q.admit(t(4, 100, 1000))); // exactly 100 %
        assert!((q.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn admitted_task_sets_meet_deadlines() {
        let tasks = [
            EdfTask {
                id: 1,
                deadline: Cycles(100),
                period: Cycles(100),
                slice: Cycles(30),
            },
            EdfTask {
                id: 2,
                deadline: Cycles(250),
                period: Cycles(250),
                slice: Cycles(100),
            },
        ];
        assert_eq!(edf_simulate(&tasks, Cycles(10_000)), 0);
    }

    #[test]
    fn deterministic_tie_break() {
        let mut q = Edf::new();
        for id in [5, 1, 3] {
            q.admit(EdfTask {
                id,
                deadline: Cycles(100),
                period: Cycles(1000),
                slice: Cycles(1),
            });
        }
        assert_eq!(q.pop_task().unwrap().id, 1);
        assert_eq!(q.pop_task().unwrap().id, 3);
        assert_eq!(q.pop_task().unwrap().id, 5);
    }
}
