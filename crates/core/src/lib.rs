//! # interweave-core
//!
//! The hardware substrate of the Interweave laboratory: a deterministic,
//! discrete-event simulated machine with an explicit cycle-cost model.
//!
//! The paper this library reproduces — *The Case for an Interwoven Parallel
//! Hardware/Software Stack* (Hale, Campanoni, Hardavellas, Dinda; SC
//! Workshops 2021) — argues that the costs imposed by the layered commodity
//! stack (interrupt dispatch, kernel/user crossings, paging and TLBs,
//! always-on cache coherence) can be removed by *interweaving* the compiler,
//! runtime, kernel, and hardware. Every experiment in the workspace therefore
//! needs a machine on which those costs are explicit, configurable, and
//! measurable. This crate provides it:
//!
//! - [`time`]: cycle-granularity simulated time and frequency conversion.
//! - `event`: deterministic per-id timers ([`event::TimerQueue`]), one
//!   per CPU plus the watchdog, driving the kernel's preemptive executor:
//!   a ring in firing order that a lockstep quantum re-arm joins at the
//!   back in one compare.
//! - [`machine`]: machine topology ([`machine::MachineConfig`]) and the cost
//!   model ([`machine::CostModel`]) with presets for the platforms the paper
//!   evaluates on (Xeon Phi KNL, dual-socket x64 server, 8-socket 192-core).
//! - [`interrupt`]: interrupt delivery modes, including the paper's proposed
//!   *pipeline interrupts* (§V-D) delivered at predicted-branch cost.
//! - [`stack`]: the interweaving axes as data — which timing source, OS
//!   point, address translation and coherence policy a stack composition
//!   uses. How a function is launched is not an axis: the virtines crate
//!   prices each launch mechanism as a `LaunchPath`.
//! - [`stats`]: online statistics, the quantile sketch, and geometric means
//!   used to report every figure and table.
//! - [`energy`]: interconnect energy pricing of a flit-hop count (Fig. 7).
//! - [`rng`]: a small deterministic RNG so all experiments are reproducible.
//! - [`arrivals`]: seeded open-loop arrival processes (Poisson, bursty
//!   MMPP on/off, diurnal) driving the request-serving experiments.
//! - `faults`: the seeded fault-injection plane ([`faults::FaultPlan`])
//!   that higher layers consult to inject lost IPIs, allocation failures,
//!   memory bit-flips, and virtine crashes — deterministically.
//! - [`telemetry`]: the cross-layer observability plane — a counter/gauge
//!   registry, a cycle-attribution ledger whose categories must sum exactly
//!   to the machine clock, and unified span tracing exported as
//!   Chrome/Perfetto JSON with one track per layer (plus counter tracks).
//!   Zero-cost when off. Streaming additions: windowed
//!   [`telemetry::TimeSeries`] roll-ups over simulated cycles, mergeable
//!   bit-identically across the serving plane's worker groups, and the
//!   bounded [`telemetry::FlightRecorder`] blackbox each serving worker
//!   keeps.
//! - [`par`]: the one host-thread pool ([`par::parallel_map`], capped by
//!   the caller, input-ordered) that figure sweeps and the serving plane's
//!   independent workers fan out on.

#![warn(missing_docs)]

pub mod arrivals;
pub mod energy;
pub(crate) mod event;
pub(crate) mod faults;
pub mod interrupt;
pub mod machine;
pub mod par;
pub mod rng;
pub mod stack;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use arrivals::{ArrivalGen, ArrivalKind};
pub use event::TimerQueue;
pub use faults::{FaultClass, FaultConfig, FaultPlan, FaultRecord};
pub use interrupt::DeliveryMode;
pub use machine::{CostModel, MachineConfig, Platform};
pub use rng::SplitMix64;
pub use stack::StackConfig;
pub use telemetry::{FlightRecorder, Layer, Sink, Span, SpanKind, TimeSeries};
pub use time::{Cycles, Freq, MicroSeconds};
