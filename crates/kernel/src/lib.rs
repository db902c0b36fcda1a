//! # interweave-kernel
//!
//! Kernel models for the Interweave laboratory: a Nautilus-like kernel
//! ([`os::NkModel`]), an Asterinas-like safe-Rust framekernel
//! ([`os::AsterModel`]), and a commodity Linux-like kernel
//! ([`os::LinuxModel`]), all expressed as *cost-and-behaviour models* over
//! the simulated machine from [`interweave_core`].
//!
//! §III of the paper describes what makes Nautilus fast and predictable:
//! kernel-mode-only execution (no crossings), identity-mapped paging with no
//! faults, per-zone buddy allocation, deterministic interrupt paths, and
//! steerable interrupts. The Linux-like model charges, per primitive, the
//! costs the commodity layered stack imposes: syscall entry/exit with
//! mitigation flushes, signal-frame construction, fair-scheduler picks,
//! timer slack, and background OS noise. Every higher experiment crate
//! (heartbeat, fibers, OpenMP, blending) composes these primitives, so a
//! single calibration here propagates to all figures.
//!
//! Layout:
//! - [`buddy`]: a real buddy allocator with NUMA zones (§III: "allocations
//!   are done with buddy system allocators that are selected based on the
//!   target zone").
//! - [`threads`]: context-switch cost composition for threads, fibers, and
//!   compiler-timed fibers (the Fig. 4 decomposition).
//! - [`os`]: the [`os::OsModel`] trait with [`os::NkModel`],
//!   [`os::AsterModel`], and [`os::LinuxModel`] implementations, including
//!   timer jitter and OS-noise sampling, plus [`os::model_for`] mapping the
//!   `OsPoint` stack axis onto a model.
//! - [`work`]: the `Work`/`WorkStep` protocol that lets one workload body
//!   run on either kernel.
//! - [`executor`]: a working preemptive multi-CPU scheduler over the Work
//!   protocol (quantum preemption, yields, block/signal fork-join).
//! - [`numa`]: thread-state placement — Nautilus's bound-thread/local-zone
//!   guarantee vs first-touch + migrations (§III's "most desirable zone").
//! - [`watchdog`]: the watchdog's retry arithmetic as data
//!   ([`watchdog::WatchdogPolicy`]), shared by the executor's stalled-CPU
//!   re-kick loop and the serving plane's stuck-virtine reclaim model.
//! - [`paging`]: the TLB/paging model the commodity stack pays for address
//!   translation (and that Nautilus's identity mapping avoids, §III).
//! - [`microbench`]: the §III primitives table (thread management, event
//!   signaling) comparing the kernels along the OS axis.

#![warn(missing_docs)]

pub mod buddy;
pub mod executor;
pub mod microbench;
pub mod numa;
pub mod os;
pub mod paging;
pub mod threads;
pub mod watchdog;
pub mod work;

pub use buddy::{AllocError, NumaAllocator};
pub use executor::Executor;
pub use os::{model_for, AsterModel, AsterParams, LinuxModel, LinuxParams, NkModel, OsModel};
pub use threads::{switch_cost, SwitchBreakdown, SwitchKind};
pub use watchdog::WatchdogPolicy;
pub use work::{Work, WorkStep};
