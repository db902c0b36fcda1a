//! The `Work` protocol: one workload body, many stacks.
//!
//! Every comparison in the paper runs *the same application* on two kernel
//! designs. [`Work`] is how the workspace guarantees that: a workload is a
//! resumable state machine that announces what it needs next — compute
//! cycles, a yield point, or a named kernel service — and each kernel model
//! prices and schedules those needs its own way.

use interweave_core::time::Cycles;

/// What a workload wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkStep {
    /// Run `0`-cost-free compute for this many cycles, then call `step`
    /// again. The kernel may preempt mid-slice; unconsumed cycles are
    /// re-offered.
    Compute(Cycles),
    /// A voluntary yield point (cooperative scheduling).
    Yield,
    /// Block on a kernel service identified by a workload-defined tag
    /// (barrier id, event channel, join target…). The embedding runtime
    /// interprets the tag.
    Block(u64),
    /// The workload is finished.
    Done,
}

/// A resumable workload body.
pub trait Work {
    /// Announce the next need.
    fn step(&mut self) -> WorkStep;
}

/// A fixed sequence of steps — the simplest `Work`, used in tests and
/// microbenches.
#[derive(Debug, Clone)]
pub struct ScriptedWork {
    steps: Vec<WorkStep>,
    at: usize,
}

impl ScriptedWork {
    /// A body that replays `steps`, then reports `Done` forever.
    pub fn new(steps: Vec<WorkStep>) -> ScriptedWork {
        ScriptedWork { steps, at: 0 }
    }
}

impl Work for ScriptedWork {
    fn step(&mut self) -> WorkStep {
        let s = self.steps.get(self.at).copied().unwrap_or(WorkStep::Done);
        self.at += 1;
        s
    }
}

/// A loop body: `iters` iterations of `per_iter` compute, back to back with
/// no yield between them — the canonical shape of a parallel worker between
/// barriers. Only the timer quantum takes its CPU away.
#[derive(Debug, Clone)]
pub struct LoopWork {
    remaining: u64,
    per_iter: Cycles,
}

impl LoopWork {
    /// `iters` iterations of `per_iter` cycles each.
    pub fn new(iters: u64, per_iter: Cycles) -> LoopWork {
        LoopWork {
            remaining: iters,
            per_iter,
        }
    }
}

impl Work for LoopWork {
    fn step(&mut self) -> WorkStep {
        if self.remaining == 0 {
            return WorkStep::Done;
        }
        self.remaining -= 1;
        WorkStep::Compute(self.per_iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_replays_then_done() {
        let mut w = ScriptedWork::new(vec![
            WorkStep::Compute(Cycles(10)),
            WorkStep::Block(3),
            WorkStep::Done,
        ]);
        assert_eq!(w.step(), WorkStep::Compute(Cycles(10)));
        assert_eq!(w.step(), WorkStep::Block(3));
        assert_eq!(w.step(), WorkStep::Done);
        assert_eq!(w.step(), WorkStep::Done);
    }

    #[test]
    fn loop_work_counts_iterations() {
        let mut w = LoopWork::new(3, Cycles(5));
        let mut computed = Cycles::ZERO;
        loop {
            match w.step() {
                WorkStep::Compute(c) => computed += c,
                WorkStep::Done => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(computed, Cycles(15));
    }
}
