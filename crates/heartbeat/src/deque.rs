//! The work-stealing deque TPAL workers schedule with.
//!
//! Owner pushes and pops at the bottom (LIFO, cache-friendly); thieves
//! steal from the top (FIFO, oldest = biggest work first) — the Chase–Lev
//! discipline. The simulation is deterministic and single-threaded, so this
//! is the *algorithmic* deque (ownership rules enforced by the API shape),
//! not an atomics exercise; the cross-thread version would add the usual
//! acquire/release fences around `top`.

use std::collections::VecDeque;

/// A work-stealing deque of tasks `T`.
#[derive(Debug, Clone)]
pub struct WorkDeque<T> {
    q: VecDeque<T>,
    /// Lifetime counters for the invariant tests.
    pub pushed: u64,
    /// Tasks taken by the owner.
    pub popped: u64,
    /// Tasks taken by thieves.
    pub stolen: u64,
}

impl<T> Default for WorkDeque<T> {
    fn default() -> Self {
        WorkDeque {
            q: VecDeque::new(),
            pushed: 0,
            popped: 0,
            stolen: 0,
        }
    }
}

impl<T> WorkDeque<T> {
    /// An empty deque.
    pub fn new() -> WorkDeque<T> {
        WorkDeque::default()
    }

    /// Owner: push a task at the bottom.
    pub fn push(&mut self, t: T) {
        self.pushed += 1;
        self.q.push_back(t);
    }

    /// Owner: pop the most recently pushed task.
    pub fn pop(&mut self) -> Option<T> {
        let t = self.q.pop_back();
        if t.is_some() {
            self.popped += 1;
        }
        t
    }

    /// Thief: steal the oldest task.
    pub fn steal(&mut self) -> Option<T> {
        let t = self.q.pop_front();
        if t.is_some() {
            self.stolen += 1;
        }
        t
    }

    /// Conservation invariant: everything pushed is either still queued or
    /// was taken exactly once.
    pub fn conserved(&self) -> bool {
        self.pushed == self.popped + self.stolen + self.q.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let mut d = WorkDeque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), Some(1)); // oldest
        assert_eq!(d.pop(), Some(3)); // newest
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert!(d.conserved());
    }

    #[test]
    fn conservation_under_interleaving() {
        let mut d = WorkDeque::new();
        let mut taken = Vec::new();
        for i in 0..100 {
            d.push(i);
            if i % 3 == 0 {
                if let Some(t) = d.steal() {
                    taken.push(t);
                }
            }
            if i % 7 == 0 {
                if let Some(t) = d.pop() {
                    taken.push(t);
                }
            }
        }
        while let Some(t) = d.pop() {
            taken.push(t);
        }
        taken.sort_unstable();
        assert_eq!(taken, (0..100).collect::<Vec<_>>());
        assert!(d.conserved());
    }

    #[test]
    fn steal_from_empty_is_none() {
        let mut d: WorkDeque<u32> = WorkDeque::new();
        assert_eq!(d.steal(), None);
        assert_eq!(d.pop(), None);
        assert!(d.conserved());
    }
}
