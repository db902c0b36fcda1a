//! The Fig. 4 study: granularity floors and measured overhead sweeps.
//!
//! The figure's analytic rows are the kernel crate's cost composition
//! (`interweave_kernel::threads::fig4_rows`). This module adds the floor
//! those costs imply and *measured* runtime behaviour: a sweep over
//! preemption quanta finds the smallest quantum at which mechanism
//! overhead stays under 50 % — the "granularity floor" §IV-C reports as
//! <600 cycles for compiler-timed fibers on KNL, against >4× coarser for
//! the commodity Linux thread design.

use crate::runtime::{run_fibers, PreemptMode};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::OsPoint;
use interweave_ir::programs::{self, Program};
use interweave_kernel::threads::{switch_cost, SwitchKind};

/// Measured overhead for one (mode, quantum) point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Preemption mechanism.
    pub mode: PreemptMode,
    /// Quantum in cycles.
    pub quantum: u64,
    /// Mechanism overhead fraction (switches + checks over total).
    pub overhead: f64,
    /// Switches performed.
    pub switches: u64,
}

fn sweep_workload() -> Vec<Program> {
    vec![
        programs::stream_triad(32),
        programs::matvec(8),
        programs::fib(12),
        programs::histogram(128, 16),
    ]
}

/// Sweep quanta for both mechanisms.
pub fn overhead_sweep(mc: &MachineConfig, quanta: &[u64]) -> Vec<SweepPoint> {
    let w = sweep_workload();
    let mut out = Vec::new();
    for &q in quanta {
        for mode in [PreemptMode::CompilerTimed, PreemptMode::HardwareTimer] {
            let r = run_fibers(&w, q, mc, mode);
            out.push(SweepPoint {
                mode,
                quantum: q,
                overhead: r.overhead_fraction(),
                switches: r.switches,
            });
        }
    }
    out
}

/// The analytic granularity floor for a mechanism, per §IV-C's definition:
/// the smallest useful preemption quantum, the slice length at which
/// mechanism overhead reaches 50 %. A slice of `q` useful cycles costs one
/// switch of `s` cycles, an overhead fraction of `s / (q + s)`, which is
/// 50 % exactly when `q = s` — so the floor is the non-RT switch cost
/// itself. §IV-C reports "less than 600 cycles" for compiler-timed fibers
/// on KNL.
pub fn floor_cycles(mc: &MachineConfig, kind: SwitchKind, os: OsPoint, fp: bool) -> u64 {
    switch_cost(mc, os, kind, false, fp).total().get()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knl() -> MachineConfig {
        MachineConfig::phi_knl()
    }

    #[test]
    fn comptime_floor_under_600_and_4x_better_than_linux() {
        // The two headline callouts of Fig. 4. §IV-C: "The granularity
        // limit on this machine is less than 600 cycles".
        let fiber_nofp = floor_cycles(
            &knl(),
            SwitchKind::FiberCompilerTimed,
            OsPoint::NkLike,
            false,
        );
        assert!(fiber_nofp < 600, "floor {fiber_nofp}");
        let linux_fp = floor_cycles(
            &knl(),
            SwitchKind::ThreadInterrupt,
            OsPoint::LinuxLike,
            true,
        );
        let fiber_fp = floor_cycles(
            &knl(),
            SwitchKind::FiberCompilerTimed,
            OsPoint::NkLike,
            true,
        );
        let ratio = linux_fp as f64 / fiber_fp as f64;
        assert!(
            ratio > 3.0,
            "granularity ratio linux/fiber = {ratio:.1} ({linux_fp} vs {fiber_fp})"
        );
    }

    #[test]
    fn sweep_shows_crossover_structure() {
        // At fine quanta compiler timing wins decisively; at coarse quanta
        // both mechanisms' overheads converge toward zero.
        let pts = overhead_sweep(&knl(), &[2_000, 200_000]);
        let get = |q, m| {
            pts.iter()
                .find(|p| p.quantum == q && p.mode == m)
                .unwrap()
                .overhead
        };
        let fine_ct = get(2_000, PreemptMode::CompilerTimed);
        let fine_hw = get(2_000, PreemptMode::HardwareTimer);
        assert!(
            fine_ct < fine_hw,
            "fine: ct {fine_ct:.3} vs hw {fine_hw:.3}"
        );
        let coarse_ct = get(200_000, PreemptMode::CompilerTimed);
        let coarse_hw = get(200_000, PreemptMode::HardwareTimer);
        assert!(coarse_ct < 0.2 && coarse_hw < 0.2);
    }
}
