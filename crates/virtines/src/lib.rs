//! # interweave-virtines
//!
//! Virtines: function-granularity virtualization (§IV-D of the paper), and
//! bespoke execution contexts (§V-E).
//!
//! "Programmers write code as shown in Figure 5, and the compiler and
//! runtime cooperate to run that function in its own, isolated virtual
//! machine with start-up overheads as low as 100 µs." The pieces:
//!
//! - [`extract`]: the compiler support — outline a virtine entry function
//!   (Fig. 5's `virtine` qualifier) and its transitive callees into a
//!   self-contained module,
//!   the unit that boots inside the isolated context.
//! - [`wasp`]: the Wasp-like microhypervisor — launch-path cost models
//!   (process, container, full VM, cold virtine, snapshotted virtine,
//!   bespoke context), and real guests run through the snapshot pool.
//! - [`context`]: isolated execution — each virtine runs in its own
//!   interpreter memory; host state is unreachable by construction, and
//!   virtine traps do not propagate.
//! - [`bespoke`]: §V-E's synthesized runtime environments — compile-time
//!   analysis decides which machine features (FP, I/O, heap, long mode) the
//!   context must set up, and the cost model charges only those.
//! - [`echo`]: a FaaS-style echo service under Poisson load — the latency
//!   distributions an operator would provision against.
//! - [`serve`]: the one snapshot pool ([`WaspPool`]) and the open-loop
//!   serving plane — a sharded request-serving simulation over it, with
//!   admission control, bounded retry + backoff, watchdog reclaim of lost
//!   completion kicks, and a per-class fault ledger (injected ==
//!   recovered + shed + absorbed).

#![warn(missing_docs)]

pub mod bespoke;
pub mod context;
pub mod echo;
pub mod extract;
pub mod serve;
pub mod wasp;

pub use bespoke::BespokeSpec;
pub use context::Virtine;
pub use serve::{
    run_serve, FaultAccount, PoolOptions, PoolStats, RetryPolicy, ServeConfig, ServeError,
    ServeReport, Served, ServiceProfile, WaspPool,
};
pub use wasp::{LaunchPath, StartupBreakdown, Wasp};
