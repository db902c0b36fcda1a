//! # interweave-blend
//!
//! Blending (§V-C of the paper): merging driver and application code so the
//! boundary between "the kernel handles devices" and "the program computes"
//! disappears.
//!
//! Two blending instances are built here:
//!
//! - [`polling`]: blended device drivers. "The normally interrupt-driven
//!   logic of the drivers is straightforwardly replaced with a constant-
//!   time poll check, and the compiler injects this polling check
//!   throughout the kernel using compiler-based timing. As a result, these
//!   devices appear to behave as if they were interrupt-driven, but no
//!   interrupts ever occur for them." Compiler-based timing's injection
//!   pass places the polls and bounds the dynamic gap between them; the device simulation compares service latency and
//!   CPU cost against interrupt-driven handling.
//! - [`block`]: a block-device completion study — blended polling versus
//!   the commodity stack's best countermeasure, interrupt coalescing.
//! - [`farmem`]: sub-page-granularity transparent far memory. "Current far
//!   memory systems either operate at page granularity ... or require
//!   programmer annotations ... Compiler blending can automatically make
//!   these decisions and evacuate objects to remote memory transparently."
//!   The model compares bytes moved and stall cycles for page- vs object-
//!   granularity transfer across object-density regimes, including the
//!   crossover where dense pages favour page granularity.

#![warn(missing_docs)]

pub mod block;
pub mod farmem;
pub mod polling;

pub use farmem::{run_farmem, FarMemConfig, FarMemReport, Granularity};
pub use polling::{run_device_experiment, DeviceConfig, DeviceReport, DriveMode};
