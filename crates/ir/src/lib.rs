//! # interweave-ir
//!
//! A small compiler intermediate representation with analyses, a pass
//! framework, and a cycle-accounted interpreter.
//!
//! The paper's interweaving examples lean on "modern compiler analysis and
//! transformation" as the enabling technology: CARAT (§IV-A) injects and
//! then elides/hoists memory guards, compiler-based timing (§IV-C) injects
//! time checks so fibers can be preempted without interrupts, blending
//! (§V-C) injects device-poll checks, and virtines (§IV-D) outline entry
//! functions into isolated contexts. All of those are *real program
//! transformations* here: passes rewrite IR, and the interpreter runs the
//! transformed programs with explicit cycle accounting so overheads are
//! measured, not asserted.
//!
//! Layout:
//! - [`types`], [`inst`], `func`, `module`: the IR itself and builders.
//! - [`verify`]: structural validation (used by every pass test).
//! - [`analysis`]: CFG, dominators, natural loops, definition points.
//! - [`passes`]: the pass manager and shared pass utilities.
//! - [`opt`]: constant folding and DCE, the cleanup optimizer that the
//!   instrumentation passes must survive.
//! - [`interp`]: the interpreter — flat memory in a page arena, runtime
//!   hooks for intrinsics and per-access policies, fuel-bounded execution
//!   slices.
//! - [`programs`]: benchmark-kernel builders shared by the experiment crates.

#![warn(missing_docs)]

pub mod analysis;
pub(crate) mod func;
pub mod inst;
pub mod interp;
pub(crate) mod module;
pub mod opt;
pub mod passes;
pub mod programs;
pub mod types;
pub mod verify;

pub use func::{Block, Function, FunctionBuilder};
pub use inst::{BinOp, CmpOp, Inst, Intrinsic, Term};
pub use interp::{ExecStatus, Interp, InterpConfig, RuntimeHooks, Trap};
pub use module::Module;
pub use types::{BlockId, FuncId, Reg, Val};
