//! The heartbeat-promotion state machine (logical level).
//!
//! Heartbeat scheduling's contract (Acar et al., PLDI 2018): the program
//! always runs the *sequential* variant; on each heartbeat — and only then
//! — a worker may *promote* latent parallelism by splitting its remaining
//! work and publishing half to its deque, where idle workers steal it.
//! Promotion off the critical path bounds scheduling overhead by the beat
//! frequency, which is exactly why the delivery mechanism's rate and
//! stability (Fig. 3) matter.
//!
//! This module tests that contract at the logical level (who executes what,
//! when promotion happens); the timing behaviour lives in [`crate::sim`].

use crate::deque::WorkDeque;

/// A parallel-loop task: the iteration range `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopTask {
    /// First iteration.
    pub lo: u64,
    /// One past the last iteration.
    pub hi: u64,
}

impl LoopTask {
    /// Remaining iterations.
    pub(crate) fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// True when exhausted.
    pub(crate) fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// One TPAL worker: a deque plus the task it is sequentially executing.
#[derive(Debug, Clone, Default)]
pub struct Worker {
    /// This worker's deque.
    pub deque: WorkDeque<LoopTask>,
    /// The task currently running its sequential variant.
    pub current: Option<LoopTask>,
    /// Iterations this worker has executed.
    pub executed: u64,
}

/// The logical TPAL scheduler.
#[derive(Debug, Clone)]
pub struct Tpal {
    /// Workers, one per CPU.
    pub workers: Vec<Worker>,
    /// Minimum remaining size worth splitting (the grain).
    pub grain: u64,
    /// Promotions performed (splits).
    pub promotions: u64,
    /// Successful steals.
    pub steals: u64,
}

impl Tpal {
    /// A scheduler with `n` workers and the given promotion grain.
    pub fn new(n: usize, grain: u64) -> Tpal {
        assert!(n > 0 && grain >= 2);
        Tpal {
            workers: (0..n).map(|_| Worker::default()).collect(),
            grain,
            promotions: 0,
            steals: 0,
        }
    }

    /// Submit the root loop to worker 0 (the program enters sequentially).
    pub(crate) fn submit(&mut self, t: LoopTask) {
        self.workers[0].deque.push(t);
    }

    /// Deliver a heartbeat to worker `w`: promote if its current task still
    /// has at least `grain` iterations. Returns true if a promotion
    /// happened. This is the *only* place parallelism is created.
    pub(crate) fn beat(&mut self, w: usize) -> bool {
        let worker = &mut self.workers[w];
        if let Some(cur) = worker.current.as_mut() {
            if cur.len() >= self.grain {
                let mid = cur.lo + cur.len() / 2;
                let split = LoopTask {
                    lo: mid,
                    hi: cur.hi,
                };
                cur.hi = mid;
                worker.deque.push(split);
                self.promotions += 1;
                return true;
            }
        }
        false
    }

    /// Ensure worker `w` has a current task: pop its own deque, else steal
    /// round-robin. Returns false if no work exists anywhere for it.
    pub(crate) fn acquire(&mut self, w: usize) -> bool {
        if self.workers[w]
            .current
            .as_ref()
            .is_some_and(|c| !c.is_empty())
        {
            return true;
        }
        if let Some(t) = self.workers[w].deque.pop() {
            self.workers[w].current = Some(t);
            return true;
        }
        let n = self.workers.len();
        for k in 1..n {
            let victim = (w + k) % n;
            if let Some(t) = self.workers[victim].deque.steal() {
                self.workers[w].current = Some(t);
                self.steals += 1;
                return true;
            }
        }
        self.workers[w].current = None;
        false
    }

    /// Execute up to `budget` iterations of worker `w`'s current task,
    /// marking them in `done`. Returns iterations executed.
    pub(crate) fn execute(&mut self, w: usize, budget: u64, done: &mut [bool]) -> u64 {
        let Some(cur) = self.workers[w].current.as_mut() else {
            return 0;
        };
        let n = budget.min(cur.len());
        for i in cur.lo..cur.lo + n {
            assert!(!done[i as usize], "iteration {i} executed twice");
            done[i as usize] = true;
        }
        cur.lo += n;
        if cur.is_empty() {
            self.workers[w].current = None;
        }
        self.workers[w].executed += n;
        n
    }

    /// Run a whole loop of `total` iterations to completion in rounds:
    /// each round every worker acquires + executes `chunk` iterations, and
    /// every `beat_every` rounds every worker receives a heartbeat.
    /// `beat_every == 0` means "no heartbeats ever".
    pub fn run_loop(&mut self, total: u64, chunk: u64, beat_every: u64) -> Vec<bool> {
        let mut done = vec![false; total as usize];
        self.submit(LoopTask { lo: 0, hi: total });
        let n = self.workers.len();
        let mut round = 0u64;
        loop {
            // Heartbeat first (promotion points precede the work in a
            // round), then execute.
            round += 1;
            if beat_every > 0 && round.is_multiple_of(beat_every) {
                for w in 0..n {
                    self.beat(w);
                }
            }
            let mut any = false;
            for w in 0..n {
                if self.acquire(w) {
                    any |= self.execute(w, chunk, &mut done) > 0;
                }
            }
            if !any {
                break;
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_iteration_executes_exactly_once() {
        let mut t = Tpal::new(4, 8);
        let done = t.run_loop(1000, 16, 2);
        assert!(done.iter().all(|&d| d), "missed iterations");
        // Double execution would have panicked in execute().
        let total: u64 = t.workers.iter().map(|w| w.executed).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn without_heartbeats_execution_stays_sequential() {
        let mut t = Tpal::new(8, 8);
        let done = t.run_loop(500, 16, 0);
        assert!(done.iter().all(|&d| d));
        assert_eq!(t.promotions, 0);
        assert_eq!(t.steals, 0);
        assert_eq!(t.workers[0].executed, 500);
        for w in &t.workers[1..] {
            assert_eq!(w.executed, 0);
        }
    }

    #[test]
    fn heartbeats_spread_work_across_workers() {
        let mut t = Tpal::new(4, 4);
        let done = t.run_loop(4096, 8, 1);
        assert!(done.iter().all(|&d| d));
        assert!(t.promotions > 0);
        assert!(t.steals > 0);
        for (i, w) in t.workers.iter().enumerate() {
            assert!(w.executed > 0, "worker {i} never ran");
        }
    }

    #[test]
    fn promotion_respects_grain() {
        let mut t = Tpal::new(1, 100);
        t.submit(LoopTask { lo: 0, hi: 50 });
        assert!(t.acquire(0));
        // Remaining (50) < grain (100): the beat must not split.
        assert!(!t.beat(0));
        assert_eq!(t.promotions, 0);
    }

    #[test]
    fn promotions_bounded_by_beats() {
        // One promotion per beat per worker, at most.
        let mut t = Tpal::new(2, 2);
        t.submit(LoopTask { lo: 0, hi: 1 << 14 });
        let mut done = vec![false; 1 << 14];
        let mut beats = 0u64;
        for _ in 0..200 {
            for w in 0..2 {
                t.beat(w);
                beats += 1;
                t.acquire(w);
                t.execute(w, 32, &mut done);
            }
        }
        assert!(t.promotions <= beats);
    }

    #[test]
    fn deques_conserve_tasks() {
        let mut t = Tpal::new(3, 4);
        let _ = t.run_loop(999, 7, 3);
        for w in &t.workers {
            assert!(w.deque.conserved());
        }
    }
}
