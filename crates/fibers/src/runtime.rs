//! The fiber runtime: one CPU multiplexing interpreted programs under
//! either preemption mechanism.
//!
//! - [`PreemptMode::CompilerTimed`]: programs carry injected time checks;
//!   when a check observes the quantum elapsed it yields, and the runtime
//!   performs a *fiber* switch (callee-saved state only, no interrupt).
//! - [`PreemptMode::HardwareTimer`]: programs are unmodified; a simulated
//!   LAPIC timer preempts at the quantum boundary and the runtime performs
//!   an interrupt-driven *thread* switch (dispatch + full frame + `iretq`).
//!
//! Both runs complete the identical workload, so total cycles compare
//! directly: the difference is pure mechanism cost — the Fig. 4 argument in
//! executable form.

use interweave_core::machine::MachineConfig;
use interweave_core::stack::OsPoint;
use interweave_core::stats::Summary;
use interweave_ir::interp::{ExecStatus, HookAction, Interp, InterpConfig, Memory, RuntimeHooks};
use interweave_ir::programs::Program;
use interweave_ir::types::Val;
use interweave_ir::Intrinsic;
use interweave_kernel::threads::{switch_cost, SwitchKind};

use crate::timing_pass::InjectTiming;
use interweave_ir::passes::Pass;

/// How fibers/threads are preempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMode {
    /// Compiler-injected time checks drive `yield()` (interwoven design).
    CompilerTimed,
    /// Hardware timer interrupts preempt (commodity design).
    HardwareTimer,
}

/// Per-fiber time-check hooks: yield when the quantum has elapsed.
struct QuantumHooks {
    quantum: u64,
    last_yield: u64,
    checks: u64,
}

impl RuntimeHooks for QuantumHooks {
    fn intrinsic(
        &mut self,
        which: Intrinsic,
        _args: &[Val],
        _mem: &mut Memory,
        now: u64,
    ) -> HookAction {
        match which {
            Intrinsic::TimeCheck => {
                self.checks += 1;
                // The injected check compiles to a counter decrement and a
                // predicted branch: ~2 cycles when not taken.
                if now.saturating_sub(self.last_yield) >= self.quantum {
                    self.last_yield = now;
                    HookAction::Yield { cycles: 2 }
                } else {
                    HookAction::Continue {
                        value: None,
                        cycles: 2,
                    }
                }
            }
            Intrinsic::ReadTimer => HookAction::Continue {
                value: Some(Val::I(now as i64)),
                cycles: 1,
            },
            _ => HookAction::Continue {
                value: None,
                cycles: 0,
            },
        }
    }
}

/// Outcome of multiplexing a workload to completion.
#[derive(Debug, Clone)]
pub(crate) struct FiberReport {
    /// Context switches performed.
    pub switches: u64,
    /// Cycles spent inside switches (mechanism cost).
    pub switch_cycles: u64,
    /// Cycles spent in injected checks (compiler-timed only).
    pub check_cycles: u64,
    /// Useful program cycles.
    pub work_cycles: u64,
    /// Total cycles (work + mechanism).
    pub total_cycles: u64,
    /// Distribution of slice lengths (achieved preemption granularity).
    pub slice: Summary,
    /// Program results, in submission order.
    pub results: Vec<Option<Val>>,
}

impl FiberReport {
    /// Mechanism overhead as a fraction of total time.
    pub(crate) fn overhead_fraction(&self) -> f64 {
        (self.switch_cycles + self.check_cycles) as f64 / self.total_cycles as f64
    }
}

/// Run `programs` to completion on one CPU with the given quantum.
pub(crate) fn run_fibers(
    programs: &[Program],
    quantum: u64,
    mc: &MachineConfig,
    mode: PreemptMode,
) -> FiberReport {
    assert!(quantum > 0);
    struct Fiber {
        module: interweave_ir::Module,
        interp: Interp,
        hooks: QuantumHooks,
        fp: bool,
        done: bool,
        result: Option<Val>,
    }

    let mut fibers: Vec<Fiber> = programs
        .iter()
        .map(|p| {
            let mut module = p.module.clone();
            if mode == PreemptMode::CompilerTimed {
                InjectTiming(Intrinsic::TimeCheck).run(&mut module);
            }
            let fp = module.funcs.iter().any(|f| f.touches_fp());
            let mut interp = Interp::new(InterpConfig::default());
            interp.start(&module, p.entry, &p.args);
            Fiber {
                module,
                interp,
                hooks: QuantumHooks {
                    quantum,
                    last_yield: 0,
                    checks: 0,
                },
                fp,
                done: false,
                result: None,
            }
        })
        .collect();

    let mut report = FiberReport {
        switches: 0,
        switch_cycles: 0,
        check_cycles: 0,
        work_cycles: 0,
        total_cycles: 0,
        slice: Summary::new(),
        results: vec![None; programs.len()],
    };

    // Round-robin until all fibers finish.
    let mut live = fibers.len();
    while live > 0 {
        for f in fibers.iter_mut() {
            if f.done {
                continue;
            }
            let before = f.interp.stats.cycles;
            let status = match mode {
                PreemptMode::CompilerTimed => {
                    // Fuel is effectively unbounded; the checks yield.
                    f.interp.run(&f.module, &mut f.hooks, u64::MAX / 4)
                }
                PreemptMode::HardwareTimer => {
                    // The timer preempts at the quantum boundary.
                    f.interp.run(&f.module, &mut f.hooks, quantum)
                }
            };
            let ran = f.interp.stats.cycles - before;
            report.slice.add(ran as f64);
            match status {
                ExecStatus::Done(v) => {
                    f.done = true;
                    f.result = v;
                    live -= 1;
                }
                ExecStatus::Yielded | ExecStatus::OutOfFuel => {
                    // A preemption: charge the mechanism.
                    let kind = match mode {
                        PreemptMode::CompilerTimed => SwitchKind::FiberCompilerTimed,
                        PreemptMode::HardwareTimer => SwitchKind::ThreadInterrupt,
                    };
                    let cost = switch_cost(mc, OsPoint::NkLike, kind, false, f.fp).total();
                    report.switches += 1;
                    report.switch_cycles += cost.get();
                }
                ExecStatus::Trapped(t) => panic!("fiber trapped: {t:?}"),
            }
        }
    }

    for (i, f) in fibers.iter().enumerate() {
        report.results[i] = f.result;
        report.work_cycles += f.interp.stats.cycles - f.interp.stats.injected_cycles;
        report.check_cycles += f.interp.stats.injected_cycles;
    }
    report.total_cycles = report.work_cycles + report.check_cycles + report.switch_cycles;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_ir::interp::NullHooks;
    use interweave_ir::programs;

    fn workload() -> Vec<Program> {
        vec![
            programs::stream_triad(48),
            programs::matvec(10),
            programs::fib(13),
            programs::histogram(200, 16),
        ]
    }

    fn knl() -> MachineConfig {
        MachineConfig::phi_knl()
    }

    fn baseline_results(programs: &[Program]) -> Vec<Option<Val>> {
        programs
            .iter()
            .map(|p| {
                let mut it = Interp::new(InterpConfig::default());
                it.start(&p.module, p.entry, &p.args);
                Some(it.run_to_completion(&p.module, &mut NullHooks).unwrap())
            })
            .collect()
    }

    #[test]
    fn both_modes_complete_the_workload_correctly() {
        let w = workload();
        let expected = baseline_results(&w);
        for mode in [PreemptMode::CompilerTimed, PreemptMode::HardwareTimer] {
            let r = run_fibers(&w, 5_000, &knl(), mode);
            assert_eq!(r.results, expected, "{mode:?}");
            assert!(r.switches > 0, "{mode:?} never preempted");
        }
    }

    #[test]
    fn compiler_timing_is_cheaper_at_fine_grain() {
        // §IV-C: at fine quanta the interrupt mechanism's per-switch cost
        // dominates; compiler timing wins even while paying per-check.
        let w = workload();
        let quantum = 2_000; // ~1.4 µs on KNL
        let ct = run_fibers(&w, quantum, &knl(), PreemptMode::CompilerTimed);
        let hw = run_fibers(&w, quantum, &knl(), PreemptMode::HardwareTimer);
        assert!(
            ct.total_cycles < hw.total_cycles,
            "compiler-timed {} vs hw-timer {}",
            ct.total_cycles,
            hw.total_cycles
        );
        assert!(ct.overhead_fraction() < hw.overhead_fraction());
    }

    #[test]
    fn achieved_slices_track_the_quantum() {
        // Long-running programs so completion slices are a small minority.
        let w = vec![
            programs::stream_triad(400),
            programs::matvec(24),
            programs::fib(17),
            programs::histogram(2_000, 32),
        ];
        let quantum = 3_000u64;
        let r = run_fibers(&w, quantum, &knl(), PreemptMode::CompilerTimed);
        // No slice may overshoot the quantum by more than the check-
        // placement bound (≤400 cycles, see timing_pass) plus one check.
        assert!(
            r.slice.max() <= (quantum + 600) as f64,
            "max slice {} vs quantum {quantum}",
            r.slice.max()
        );
        // The mean sits near the quantum (final partial slices pull it
        // down slightly).
        let mean = r.slice.mean();
        assert!(
            (quantum as f64 * 0.5..=quantum as f64 * 1.2).contains(&mean),
            "mean slice {mean} vs quantum {quantum}"
        );
    }

    #[test]
    fn coarse_quanta_make_overhead_negligible() {
        let w = workload();
        let r = run_fibers(&w, 500_000, &knl(), PreemptMode::CompilerTimed);
        assert!(
            r.overhead_fraction() < 0.15,
            "overhead {:.3}",
            r.overhead_fraction()
        );
    }

    #[test]
    fn switch_cost_scales_with_fp_content() {
        // A pure-integer workload switches cheaper than an FP one.
        let int_only = vec![programs::fib(16), programs::histogram(400, 16)];
        let fp_heavy = vec![programs::stream_triad(96), programs::matvec(12)];
        let a = run_fibers(&int_only, 3_000, &knl(), PreemptMode::CompilerTimed);
        let b = run_fibers(&fp_heavy, 3_000, &knl(), PreemptMode::CompilerTimed);
        let per_switch_a = a.switch_cycles as f64 / a.switches.max(1) as f64;
        let per_switch_b = b.switch_cycles as f64 / b.switches.max(1) as f64;
        assert!(
            per_switch_b > per_switch_a * 2.0,
            "fp per-switch {per_switch_b} vs int {per_switch_a}"
        );
    }
}
