//! Fig. 4: context-switch costs for threads, fibers, and compiler-timed
//! fibers on the Phi KNL preset, plus measured overhead sweeps and
//! granularity floors. Each callout's switch is its scenario's kernel, of
//! the kind its timing source preempts, on its machine.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, pct, s, Cell};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{StackConfig, TimingSource};
use interweave_fibers::study::{floor_cycles, overhead_sweep};
use interweave_kernel::threads::{fig4_rows, SwitchKind};

pub(super) fn scenarios() -> Vec<Scenario> {
    let knl = MachineConfig::phi_knl();
    vec![
        Scenario::new("linux", StackConfig::commodity(), knl.clone()),
        Scenario::new("aster", StackConfig::framekernel(), knl.clone()),
        Scenario::new("nautilus", StackConfig::nautilus(), knl.clone()),
        // The compiler-timed fiber rows: the timing axis moves into the
        // toolchain, everything else stays raw Nautilus.
        Scenario::new(
            "nautilus+comptime",
            StackConfig {
                timing: TimingSource::CompilerInjected,
                ..StackConfig::nautilus()
            },
            knl,
        ),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    let mc = sc[2].stack.machine();
    // A scenario's granularity floor: its kernel's switch, of the kind its
    // timing source preempts (threads by timer, fibers by compiler).
    let floor = |point: &Composed, fp| {
        let stack = &point.stack;
        let kind = SwitchKind::preempting(stack.config.timing);
        floor_cycles(stack.machine(), kind, stack.config.os, fp)
    };

    // The figure's bars: cost decomposition per configuration.
    h.table(
        "Fig. 4 — context-switch cost decomposition (cycles, Phi KNL preset)",
        &[
            "configuration",
            "entry",
            "state",
            "sched",
            "fp",
            "boundary",
            "ret",
            "TOTAL",
        ],
        fig4_rows(mc).into_iter().map(|(label, b)| {
            vec![
                s(label),
                s(b.entry.get()),
                s(b.state.get()),
                s(b.sched.get()),
                s(b.fp.get()),
                s(b.boundary.get()),
                s(b.ret.get()),
                s(b.total().get()),
            ]
        }),
    );

    // Headline ratios the figure calls out.
    let [linux_fp, aster_fp, nk_fp, fib_fp] = [0, 1, 2, 3].map(|i| floor(&sc[i], true));
    let fib_nofp = floor(&sc[3], false);
    h.table(
        "Fig. 4 callouts",
        &["quantity", "value"],
        vec![
            vec![s("Linux non-RT FP switch (paper ≈5000 cyc)"), s(linux_fp)],
            vec![
                s("Aster thread FP switch (framekernel mid-point)"),
                s(aster_fp),
            ],
            vec![s("NK thread FP switch (paper: ≈half of Linux)"), s(nk_fp)],
            vec![
                s("CompTime fiber FP switch (paper: 2.3× below threads)"),
                s(format!(
                    "{fib_fp}  (ratio {:.1}×)",
                    nk_fp as f64 / fib_fp as f64
                )),
            ],
            vec![s("Granularity floor, no-FP (paper: <600 cyc)"), s(fib_nofp)],
            vec![
                s("Granularity vs Linux (paper: >4× smaller)"),
                Cell::float(linux_fp as f64 / fib_fp as f64, 1, "×"),
            ],
        ],
    );

    // Measured overhead sweep: mechanism overhead vs quantum.
    let quanta = [1_000u64, 2_000, 5_000, 10_000, 50_000, 200_000];
    let pts = overhead_sweep(mc, &quanta);
    h.table(
        "Measured mechanism overhead vs preemption quantum (mixed workload)",
        &[
            "quantum (cyc)",
            "comp-timed",
            "hw-timer",
            "ct switches",
            "hw switches",
        ],
        quanta.map(|q| {
            let find = |m| {
                pts.iter()
                    .find(|p| p.quantum == q && p.mode == m)
                    .expect("swept")
            };
            let ct = find(interweave_fibers::PreemptMode::CompilerTimed);
            let hw = find(interweave_fibers::PreemptMode::HardwareTimer);
            vec![
                s(q),
                pct(100.0 * ct.overhead, 2),
                pct(100.0 * hw.overhead, 2),
                s(ct.switches),
                s(hw.switches),
            ]
        }),
    );

    let headline = format!(
        "{fib_nofp}-cycle fiber floor without FP; {}× below a Linux FP switch",
        f(linux_fp as f64 / fib_fp as f64, 1)
    );
    Ok(h.finish(&sc[3], headline))
}
