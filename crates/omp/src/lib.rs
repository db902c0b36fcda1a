//! # interweave-omp
//!
//! OpenMP in the kernel (§V-A of the paper; Ma et al., "Paths to OpenMP in
//! the kernel", SC 2021).
//!
//! "The OpenMP run-time system is increasingly looking like a kernel, and
//! we are interweaving it with the Nautilus kernel framework so that it
//! *becomes* the kernel." Three interwoven designs are compared against the
//! commodity baseline:
//!
//! - **Linux user-level** (baseline): libomp-style runtime above the
//!   kernel; pays futex wakeups, fair-scheduler picks, crossings, and —
//!   decisively at scale — OS noise amplified by every barrier.
//! - **RTK** (runtime in kernel): the OpenMP runtime ported into the
//!   kernel; kernel-mode worker threads, no crossings, no noise.
//! - **PIK** (process in kernel): unmodified user programs recompiled into
//!   a kernel-mode process simulacrum; performs like RTK with a small
//!   abstraction tax.
//! - **CCK** (custom compilation for kernel): OpenMP pragmas compiled
//!   directly to kernel tasks (SoftIRQ-like); a different shape — cheap at
//!   small scale, centralized-queue contention at large scale ("not easily
//!   summarized").
//!
//! Modules: `modes` (per-design cost profiles), [`nas`] (BT/SP-like
//! workload specifications), [`sim`] (the Fig. 6 scaling simulation), and
//! [`epcc`] (EPCC-style overhead microbenchmarks).

#![warn(missing_docs)]

pub mod epcc;
pub(crate) mod modes;
pub mod nas;
pub mod sim;

pub use modes::OmpMode;
pub use sim::{run_omp, OmpResult};
