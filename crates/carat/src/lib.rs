//! # interweave-carat
//!
//! CARAT: Compiler- And Runtime-based Address Translation (§IV-A of the
//! paper; Suchy et al., PLDI 2020).
//!
//! The premise: Nautilus runs everything on *physical addresses* with
//! identity mapping — no TLB misses, no page faults, but also no protection
//! and no memory mobility. CARAT restores both **without hardware
//! translation**: compiler passes insert guard and tracking calls into the
//! code, analyses elide and hoist most of them off the critical path, and a
//! runtime keeps an allocation map that makes protection checks and
//! arbitrary-granularity data movement possible.
//!
//! The pipeline mirrors the paper:
//! 1. `guards::InjectGuards` — a guard before every load/store, tracking
//!    after every allocation/free, escape tracking after every store of a
//!    pointer (identified by the static `taint` analysis).
//! 2. `hoist::HoistGuards` — loop-invariant object guards move to the
//!    preheader as a single range guard ("aggregate and hoist protection
//!    and tracking code ... out of the critical path").
//! 3. `elide::ElideGuards` — forward must-dataflow removes guards
//!    dominated by a guard of the same register with no intervening
//!    redefinition.
//! 4. [`runtime::CaratRuntime`] — the tracking/protection runtime the
//!    transformed code calls into.
//! 5. [`defrag`] — compaction by moving live allocations and patching every
//!    tracked pointer ("data movements operate similarly to a garbage
//!    collector").
//! 6. [`pik`] — the PIK model: separate compilation + attestation admits a
//!    transformed "process" into the kernel's single address space, with
//!    [`coverage`] statically proving every access is guard-covered.
//! 7. [`overhead`] — the TAB-CARAT experiment: per-benchmark overhead of
//!    naive vs. optimized instrumentation, against paging as the
//!    conventional alternative.

#![warn(missing_docs)]

pub mod coverage;
pub(crate) mod dataflow;
pub mod defrag;
pub(crate) mod elide;
pub(crate) mod guards;
pub(crate) mod hoist;
pub mod overhead;
pub mod pik;
pub mod runtime;
pub(crate) mod taint;

pub use defrag::{quarantine_and_relocate, RecoveryReport};
pub use runtime::{CaratRuntime, EscapeCorruption, GuardCosts};

use interweave_ir::passes::{PassManager, PassStats};
use interweave_ir::Module;

/// Run the full CARAT pipeline (inject → hoist → elide) on a module,
/// returning per-pass statistics.
pub fn instrument(m: &mut Module, optimize: bool) -> Vec<(String, PassStats)> {
    let mut pm = PassManager::new().add(guards::InjectGuards);
    if optimize {
        pm = pm.add(hoist::HoistGuards).add(elide::ElideGuards);
    }
    pm.run(m)
}
