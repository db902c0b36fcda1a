//! §V-D: pipeline interrupts — dispatch-cost comparison (the paper
//! measures IDT dispatch at ~1000 cycles and projects 100–1000×
//! improvement) and its downstream effect on every interrupt-consuming
//! subsystem.

use interweave_bench::harness::{Harness, Scenario};
use interweave_bench::{f, print_table, s};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{OsPoint, StackConfig};
use interweave_core::Cycles;
use interweave_heartbeat::sim::{run_heartbeat, HeartbeatConfig};
use interweave_kernel::threads::{switch_cost, SwitchKind};
use serde::Serialize;

#[derive(Serialize)]
struct JsonRow {
    quantity: String,
    idt: f64,
    pipeline: f64,
    ratio: f64,
}

fn main() {
    let h = Harness::new(vec![
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
    ]);
    let idt = &h.scenario("idt").machine;
    let pipe = &h.scenario("pipeline").machine;
    let mut json = Vec::new();
    let push = |q: &str, a: f64, b: f64, json: &mut Vec<JsonRow>| {
        json.push(JsonRow {
            quantity: q.into(),
            idt: a,
            pipeline: b,
            ratio: a / b.max(1e-9),
        });
        vec![s(q), f(a, 1), f(b, 1), f(a / b.max(1e-9), 0) + "×"]
    };

    let rows = vec![
        push(
            "interrupt dispatch (cycles)",
            idt.dispatch_cost().as_f64(),
            pipe.dispatch_cost().as_f64(),
            &mut json,
        ),
        push(
            "NK thread switch, no-FP (cycles)",
            switch_cost(
                idt,
                OsPoint::NkLike,
                SwitchKind::ThreadInterrupt,
                false,
                false,
            )
            .total()
            .as_f64(),
            switch_cost(
                pipe,
                OsPoint::NkLike,
                SwitchKind::ThreadInterrupt,
                false,
                false,
            )
            .total()
            .as_f64(),
            &mut json,
        ),
        {
            let h_idt = run_heartbeat(&HeartbeatConfig::fig3(OsPoint::NkLike, 20.0, Cycles(1000)));
            let mut cfg = HeartbeatConfig::fig3(OsPoint::NkLike, 20.0, Cycles(1000));
            cfg.machine = cfg.machine.with_pipeline_interrupts();
            let h_pipe = run_heartbeat(&cfg);
            push(
                "heartbeat overhead @ 20 µs (%)",
                h_idt.overhead_pct,
                h_pipe.overhead_pct,
                &mut json,
            )
        },
    ];
    print_table(
        "TAB-PIPE — §V-D pipeline interrupts (IDT vs pipeline-branch delivery)",
        &["quantity", "IDT", "pipeline", "improvement"],
        &rows,
    );
    println!(
        "\nPaper: dispatch ≈1000 cycles today; pipeline delivery \"would be similar\n\
         to that of a correctly predicted branch, 100–1000× better\"."
    );
    h.finish(&json);
}
