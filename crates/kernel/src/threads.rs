//! Context-switch cost composition — the Fig. 4 decomposition.
//!
//! §IV-C: "The high cost of preemptive threads is due in large part to the
//! high costs of handling hardware timer interrupts. ... What if we replace
//! this with a software/software co-design involving the compiler toolchain
//! and the kernel?" This module composes the cost of a context switch from
//! the machine's [`CostModel`](interweave_core::machine::CostModel)
//! components for every point in the figure's parameter space:
//! {Linux, Aster-like framekernel, Nautilus-like} × {RT, non-RT} ×
//! {interrupt-timed threads, cooperative fibers, compiler-timed fibers} ×
//! {FP, no-FP}.
//!
//! The decomposition makes the interweaving argument mechanical:
//! - interrupt-timed threads pay `intr_dispatch` + full-GPR save + `iretq`;
//! - fibers switch at a *call site*, so the compiler knows caller-saved
//!   registers are dead: only the callee-saved subset is moved, and there is
//!   no interrupt entry/exit at all;
//! - compiler-timed fibers add only a predicted-branch time check
//!   (`time_check`) over cooperative fibers;
//! - at a compiler-chosen yield point some FP state is provably dead, so
//!   fibers move only `FIBER_FP_FACTOR` of the FP save/restore cost;
//! - the Linux path additionally pays the user/kernel boundary and the
//!   fair-scheduler pick.

use interweave_core::machine::MachineConfig;
use interweave_core::stack::{OsPoint, TimingSource};
use interweave_core::time::Cycles;

/// Fraction of full FP save/restore a fiber switch pays: at a compiler-
/// chosen yield point the liveness of FP registers is known, so dead state
/// is simply not moved.
pub(crate) const FIBER_FP_FACTOR: f64 = 0.75;

/// Fiber management overhead beyond register movement: stack-pointer swap,
/// TCB bookkeeping, and the fiber queue update.
pub(crate) const FIBER_MGMT: Cycles = Cycles(150);

/// Default kernel-thread stack size charged against the buddy allocator
/// when a spawn goes through the stack-backed path (§III: thread stacks are
/// "guaranteed to always be in the most desirable zone").
pub(crate) const DEFAULT_STACK_BYTES: u64 = 16 * 1024;

/// The switching mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchKind {
    /// Preemptive thread switched by a hardware timer interrupt.
    ThreadInterrupt,
    /// Fiber yielding cooperatively (explicit `yield()` in the program).
    FiberCooperative,
    /// Fiber preempted by compiler-injected time checks (§IV-C).
    FiberCompilerTimed,
}

impl SwitchKind {
    /// The switch a stack's timing source preempts with: a hardware timer
    /// interrupts threads, compiler-injected time checks switch fibers.
    pub fn preempting(timing: TimingSource) -> SwitchKind {
        match timing {
            TimingSource::HardwareTimer => SwitchKind::ThreadInterrupt,
            TimingSource::CompilerInjected => SwitchKind::FiberCompilerTimed,
        }
    }
}

/// A context-switch cost broken into the components Fig. 4 discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchBreakdown {
    /// Interrupt dispatch (or call + time check for compiler-timed fibers).
    pub entry: Cycles,
    /// Register state movement (GPRs or callee-saved subset).
    pub state: Cycles,
    /// Scheduler pick.
    pub sched: Cycles,
    /// FP/vector state movement (zero when FP-free).
    pub fp: Cycles,
    /// Kernel/user boundary costs (zero for in-kernel designs).
    pub boundary: Cycles,
    /// Return path (`iretq` for interrupt switches).
    pub ret: Cycles,
}

impl SwitchBreakdown {
    /// Total switch cost.
    pub fn total(&self) -> Cycles {
        self.entry + self.state + self.sched + self.fp + self.boundary + self.ret
    }
}

/// Safe-Rust scheduler surcharge for the Aster-like framekernel: the O(1)
/// NK-style pick plus bounds-checked runqueue operations behind a checked
/// API (no `unsafe` fast path to elide them).
pub(crate) const ASTER_SCHED_OVERHEAD: Cycles = Cycles(200);

/// In-kernel protection-domain bookkeeping an Aster-like switch pays: the
/// framekernel keeps real page tables per domain, so a task switch touches
/// them (CR3 bookkeeping, accessor revalidation) — but there is no
/// user/kernel world switch, so this is far below a full crossing.
pub(crate) const ASTER_DOMAIN_CHECK: Cycles = Cycles(150);

/// Compose the switch cost for one configuration.
pub fn switch_cost(
    mc: &MachineConfig,
    os: OsPoint,
    kind: SwitchKind,
    rt: bool,
    fp: bool,
) -> SwitchBreakdown {
    let c = &mc.cost;
    let fp_full = c.fp_save + c.fp_restore;

    let sched = match (os, kind, rt) {
        // Every fiber switch, RT or not, picks from a per-CPU fiber queue
        // as cheap as the EDF pick.
        (_, SwitchKind::FiberCooperative | SwitchKind::FiberCompilerTimed, _) => c.sched_pick_rt,
        (_, SwitchKind::ThreadInterrupt, true) => c.sched_pick_rt,
        (OsPoint::NkLike, SwitchKind::ThreadInterrupt, false) => c.sched_pick_nk,
        (OsPoint::AsterLike, SwitchKind::ThreadInterrupt, false) => {
            c.sched_pick_nk + ASTER_SCHED_OVERHEAD
        }
        (OsPoint::LinuxLike, SwitchKind::ThreadInterrupt, false) => c.sched_pick_fair,
    };

    match kind {
        SwitchKind::ThreadInterrupt => SwitchBreakdown {
            entry: mc.dispatch_cost(),
            state: c.gpr_save + c.gpr_restore,
            sched,
            fp: if fp { fp_full } else { Cycles::ZERO },
            boundary: match os {
                OsPoint::NkLike => Cycles::ZERO,
                OsPoint::AsterLike => ASTER_DOMAIN_CHECK,
                OsPoint::LinuxLike => c.kernel_crossing(),
            },
            ret: c.intr_return,
        },
        SwitchKind::FiberCooperative | SwitchKind::FiberCompilerTimed => {
            let entry = match kind {
                SwitchKind::FiberCompilerTimed => c.call_overhead + c.time_check,
                _ => c.call_overhead,
            };
            SwitchBreakdown {
                entry,
                state: c.callee_saved_save + c.callee_saved_restore + FIBER_MGMT,
                sched,
                fp: if fp {
                    Cycles((fp_full.as_f64() * FIBER_FP_FACTOR) as u64)
                } else {
                    Cycles::ZERO
                },
                // Fibers only exist in the interwoven (kernel-mode) design;
                // modelling "fibers on Linux" still charges no crossing
                // because user-level fiber libraries do not enter the
                // kernel.
                boundary: Cycles::ZERO,
                ret: Cycles::ZERO,
            }
        }
    }
}

/// All Fig. 4 rows for one machine, `(label, breakdown)`: the no-FP half,
/// then the FP half. Thread rows come in OS-axis order from most to least
/// expensive — Linux, Aster, then NK — so the table reads as a descent
/// down the stack space; the fiber rows close each half.
pub fn fig4_rows(mc: &MachineConfig) -> Vec<(String, SwitchBreakdown)> {
    use OsPoint::{AsterLike, LinuxLike, NkLike};
    use SwitchKind::{FiberCompilerTimed, FiberCooperative, ThreadInterrupt};
    // Each label is completed by the FP tag and a closing parenthesis.
    const ROWS: [(&str, OsPoint, SwitchKind, bool); 8] = [
        ("Linux threads (non-RT, ", LinuxLike, ThreadInterrupt, false),
        ("Linux threads (RT, ", LinuxLike, ThreadInterrupt, true),
        ("Aster threads (non-RT, ", AsterLike, ThreadInterrupt, false),
        ("Aster threads (RT, ", AsterLike, ThreadInterrupt, true),
        ("Threads (non-RT, ", NkLike, ThreadInterrupt, false),
        ("Threads (RT, ", NkLike, ThreadInterrupt, true),
        ("Fibers-Coop (", NkLike, FiberCooperative, false),
        ("Fibers-CompTime (", NkLike, FiberCompilerTimed, false),
    ];
    let mut rows = Vec::new();
    for fp in [false, true] {
        let fpl = if fp { "FP" } else { "no-FP" };
        for (label, os, kind, rt) in ROWS {
            rows.push((format!("{label}{fpl})"), switch_cost(mc, os, kind, rt, fp)));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_core::machine::MachineConfig;

    fn knl() -> MachineConfig {
        MachineConfig::phi_knl()
    }

    #[test]
    fn linux_nonrt_fp_is_about_5000_cycles() {
        // §IV-C: "a (non-real-time) Linux user-level thread context-switch,
        // including floating point state, takes about 5000 cycles".
        let c = switch_cost(
            &knl(),
            OsPoint::LinuxLike,
            SwitchKind::ThreadInterrupt,
            false,
            true,
        );
        let t = c.total().get();
        assert!((4200..=5800).contains(&t), "linux non-RT FP = {t}");
    }

    #[test]
    fn nk_thread_is_about_half_of_linux() {
        let linux = switch_cost(
            &knl(),
            OsPoint::LinuxLike,
            SwitchKind::ThreadInterrupt,
            false,
            true,
        )
        .total();
        let nk = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::ThreadInterrupt,
            false,
            true,
        )
        .total();
        let ratio = linux.as_f64() / nk.as_f64();
        assert!((1.5..=2.5).contains(&ratio), "linux/nk = {ratio:.2}");
    }

    #[test]
    fn comptime_fiber_fp_is_slightly_better_than_half_of_nk_thread() {
        // §IV-C: "slightly more than halved again"; caption: 2.3× lower.
        let nk = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::ThreadInterrupt,
            false,
            true,
        )
        .total();
        let fib = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::FiberCompilerTimed,
            false,
            true,
        )
        .total();
        let ratio = nk.as_f64() / fib.as_f64();
        assert!(
            (2.0..=3.0).contains(&ratio),
            "nk-thread/fiber (FP) = {ratio:.2}"
        );
    }

    #[test]
    fn comptime_fiber_nofp_is_about_4x_below_nk_thread() {
        let nk = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::ThreadInterrupt,
            false,
            false,
        )
        .total();
        let fib = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::FiberCompilerTimed,
            false,
            false,
        )
        .total();
        let ratio = nk.as_f64() / fib.as_f64();
        assert!(
            (3.2..=5.0).contains(&ratio),
            "nk-thread/fiber (no-FP) = {ratio:.2}"
        );
    }

    #[test]
    fn fp_state_becomes_the_bottleneck_at_fine_grain() {
        // §IV-C: the floor is "so low that floating point state management
        // becomes the bottleneck" — FP movement dominates a comp-timed FP
        // fiber switch.
        let b = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::FiberCompilerTimed,
            false,
            true,
        );
        let rest = b.total() - b.fp;
        assert!(b.fp > rest, "fp {} vs rest {rest}", b.fp);
    }

    #[test]
    fn rt_is_cheaper_than_nonrt_for_linux_threads() {
        let nonrt = switch_cost(
            &knl(),
            OsPoint::LinuxLike,
            SwitchKind::ThreadInterrupt,
            false,
            true,
        )
        .total();
        let rt = switch_cost(
            &knl(),
            OsPoint::LinuxLike,
            SwitchKind::ThreadInterrupt,
            true,
            true,
        )
        .total();
        assert!(rt < nonrt);
    }

    #[test]
    fn time_check_is_the_only_delta_between_fiber_kinds() {
        let coop = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::FiberCooperative,
            false,
            false,
        )
        .total();
        let comp = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::FiberCompilerTimed,
            false,
            false,
        )
        .total();
        assert_eq!(comp - coop, knl().cost.time_check);
    }

    #[test]
    fn pipeline_interrupts_shrink_thread_switch() {
        // The §V-D ablation: delivering the timer as a pipeline interrupt
        // removes most of the dispatch cost from *thread* switches.
        let idt = switch_cost(
            &knl(),
            OsPoint::NkLike,
            SwitchKind::ThreadInterrupt,
            false,
            false,
        );
        let mc = knl().with_pipeline_interrupts();
        let pipe = switch_cost(
            &mc,
            OsPoint::NkLike,
            SwitchKind::ThreadInterrupt,
            false,
            false,
        );
        assert!(pipe.total() < idt.total());
        assert_eq!(idt.total() - pipe.total(), Cycles(1000 - 2));
    }

    #[test]
    fn fig4_rows_cover_the_parameter_space() {
        let rows = fig4_rows(&knl());
        assert_eq!(rows.len(), 16);
        let find = |label: &str| {
            rows.iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("missing row {label}"))
                .1
                .total()
        };
        // Ordering of the figure: Linux threads > Aster threads > NK
        // threads > fibers — the OS axis left to right.
        assert!(find("Linux threads (non-RT, FP)") > find("Aster threads (non-RT, FP)"));
        assert!(find("Aster threads (non-RT, FP)") > find("Threads (non-RT, FP)"));
        assert!(find("Threads (non-RT, FP)") > find("Fibers-CompTime (FP)"));
        assert!(find("Fibers-CompTime (no-FP)") < find("Fibers-CompTime (FP)"));
    }

    #[test]
    fn aster_thread_switch_sits_strictly_between_nk_and_linux() {
        // The framekernel premise: no user/kernel world switch (cheaper
        // than Linux) but safe-Rust scheduling and in-kernel domain
        // bookkeeping (dearer than raw NK) — for RT and non-RT alike.
        for &rt in &[false, true] {
            for &fp in &[false, true] {
                let k = SwitchKind::ThreadInterrupt;
                let nk = switch_cost(&knl(), OsPoint::NkLike, k, rt, fp).total();
                let aster = switch_cost(&knl(), OsPoint::AsterLike, k, rt, fp).total();
                let linux = switch_cost(&knl(), OsPoint::LinuxLike, k, rt, fp).total();
                assert!(
                    nk < aster && aster < linux,
                    "rt={rt} fp={fp}: nk {nk} aster {aster} linux {linux}"
                );
            }
        }
    }
}
