//! # interweave-fibers
//!
//! Compiler-based timing for fine-grain preemptive parallelism (§IV-C of
//! the paper; Ghosh et al., SC 2020).
//!
//! The conventional stack derives preemption from a hardware timer
//! interrupt: ~1000 cycles of dispatch, a full-frame save, and an `iretq`
//! per switch. Compiler-based timing replaces the interrupt with *injected
//! time checks*: the whole codebase is transformed so that, on every
//! execution path, a cheap check executes at a bounded dynamic interval;
//! when the check notices the quantum has elapsed it calls `yield()`.
//! Threads become *fibers* — switched at call sites where the compiler
//! knows most state is dead — and preemption granularity drops below 600
//! cycles on KNL (Fig. 4).
//!
//! - [`timing_pass`]: the injection pass (loop headers, function entries,
//!   long straight-line runs) with its placement-bound guarantee; blended
//!   drivers run the same pass to place device polls.
//! - `runtime`: a single-CPU fiber runtime multiplexing interpreted
//!   programs under either preemption mechanism, measuring slice lengths
//!   and overheads.
//! - [`study`]: the Fig. 4 experiment — granularity floors plus measured
//!   overhead sweeps.

#![warn(missing_docs)]

pub(crate) mod runtime;
pub mod study;
pub mod timing_pass;

pub use runtime::PreemptMode;
pub use timing_pass::InjectTiming;
