//! §V-D: pipeline interrupts — dispatch-cost comparison (the paper
//! measures IDT dispatch at ~1000 cycles and projects 100–1000×
//! improvement) and its downstream effect on every interrupt-consuming
//! subsystem.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, s, Cell};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{OsPoint, StackConfig};
use interweave_core::Cycles;
use interweave_heartbeat::sim::{run_heartbeat, HeartbeatConfig};
use interweave_kernel::threads::{switch_cost, SwitchKind};

pub(super) fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(
            "idt",
            StackConfig::nautilus(),
            MachineConfig::xeon_server_2s(),
        ),
        Scenario::new(
            "pipeline",
            StackConfig::nautilus(),
            MachineConfig::xeon_server_2s().with_pipeline_interrupts(),
        ),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    let (idt, pipe) = (sc[0].stack.machine(), sc[1].stack.machine());
    let row = |q: &str, a: f64, b: f64| {
        vec![s(q), f(a, 1), f(b, 1), Cell::float(a / b.max(1e-9), 0, "×")]
    };

    let nk_switch = |mc| {
        let c = switch_cost(
            mc,
            OsPoint::NkLike,
            SwitchKind::ThreadInterrupt,
            false,
            false,
        );
        c.total().as_f64()
    };
    let rows = vec![
        row(
            "interrupt dispatch (cycles)",
            idt.dispatch_cost().as_f64(),
            pipe.dispatch_cost().as_f64(),
        ),
        row(
            "NK thread switch, no-FP (cycles)",
            nk_switch(idt),
            nk_switch(pipe),
        ),
        {
            let h_idt = run_heartbeat(&HeartbeatConfig::fig3(OsPoint::NkLike, 20.0, Cycles(1000)));
            let mut cfg = HeartbeatConfig::fig3(OsPoint::NkLike, 20.0, Cycles(1000));
            cfg.machine = cfg.machine.with_pipeline_interrupts();
            let h_pipe = run_heartbeat(&cfg);
            row(
                "heartbeat overhead @ 20 µs (%)",
                h_idt.overhead_pct,
                h_pipe.overhead_pct,
            )
        },
    ];
    let dispatch = &rows[0];
    let headline = format!(
        "dispatch {} cheaper ({} → {} cycles)",
        dispatch[3], dispatch[1], dispatch[2]
    );
    h.table(
        "TAB-PIPE — §V-D pipeline interrupts (IDT vs pipeline-branch delivery)",
        &["quantity", "IDT", "pipeline", "improvement"],
        rows,
    );
    h.note(
        "\nPaper: dispatch ≈1000 cycles today; pipeline delivery \"would be similar\n\
         to that of a correctly predicted branch, 100–1000× better\".",
    );
    Ok(h.finish(&sc[1], headline))
}
