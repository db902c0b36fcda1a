//! §III: the kernel primitives table — thread management and event
//! signaling costs across the OS axis (Linux-like, Aster-like framekernel,
//! Nautilus-like; "orders of magnitude faster" at the NK end), on both
//! server and KNL presets.

use crate::harness::{Cli, Harness, Report, Scenario};
use crate::{f, s};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_kernel::microbench::primitive_table;
use interweave_kernel::os::{AsterModel, LinuxModel, NkModel};
use serde::Serialize;

#[derive(Serialize)]
struct JsonRow {
    machine: String,
    primitive: String,
    linux_cycles: u64,
    aster_cycles: u64,
    nautilus_cycles: u64,
    speedup: f64,
}

pub(super) fn run(cli: &Cli) -> Report {
    let machines = [MachineConfig::xeon_server_2s(), MachineConfig::phi_knl()];
    let mut scenarios = Vec::new();
    for mc in machines.clone() {
        scenarios.push(Scenario::new("linux", StackConfig::commodity(), mc.clone()));
        scenarios.push(Scenario::new(
            "aster",
            StackConfig::framekernel(),
            mc.clone(),
        ));
        scenarios.push(Scenario::new("nautilus", StackConfig::nautilus(), mc));
    }
    let mut h = Harness::new(cli, scenarios);
    let mut json = Vec::new();
    let mut headline = String::new();
    for mc in machines {
        let lx = LinuxModel::new(mc.clone());
        let fk = AsterModel::new(mc.clone());
        let nk = NkModel::new(mc.clone());
        let table = primitive_table(&[("Linux", &lx), ("Aster", &fk), ("Nautilus", &nk)]);
        let rows: Vec<Vec<String>> = table
            .iter()
            .map(|r| {
                json.push(JsonRow {
                    machine: mc.name.clone(),
                    primitive: r.name.into(),
                    linux_cycles: r.costs[0].get(),
                    aster_cycles: r.costs[1].get(),
                    nautilus_cycles: r.costs[2].get(),
                    speedup: r.speedup(0, 2),
                });
                vec![
                    s(r.name),
                    s(r.costs[0].get()),
                    s(r.costs[1].get()),
                    s(r.costs[2].get()),
                    f(r.speedup(0, 2), 1) + "×",
                    format!("{}", mc.freq.us(r.costs[2])),
                ]
            })
            .collect();
        // The headline is the first (server) machine's table.
        if headline.is_empty() {
            let create = table.iter().find(|r| r.name == "thread create");
            let between = table
                .iter()
                .filter(|r| r.costs[2] <= r.costs[1] && r.costs[1] <= r.costs[0])
                .count();
            headline = format!(
                "thread create {}× faster on NK; Aster between on {between} of {} primitives",
                f(create.expect("thread create row").speedup(0, 2), 1),
                table.len()
            );
        }
        h.table(
            &format!("TAB-NK — kernel primitives on {}", mc.name),
            &[
                "primitive",
                "Linux (cyc)",
                "Aster (cyc)",
                "Nautilus (cyc)",
                "NK speedup",
                "Nautilus wall",
            ],
            &rows,
        );
    }
    // §III's NUMA claim: thread state "always in the most desirable zone".
    use interweave_kernel::numa::placement_comparison;
    let mut rows = Vec::new();
    for mc in [
        MachineConfig::xeon_server_2s(),
        MachineConfig::big_server_8s(),
    ] {
        let (nk, lx) = placement_comparison(&mc, 7);
        rows.push(vec![
            s(&mc.name),
            f(100.0 * nk.remote_fraction, 1) + "%",
            f(100.0 * lx.remote_fraction, 1) + "%",
            f(lx.penalty_per_quantum, 0),
        ]);
    }
    h.table(
        "NUMA placement of thread state (remote fraction; penalty cyc/quantum)",
        &[
            "machine",
            "NK bound",
            "first-touch + balancer",
            "commodity penalty",
        ],
        &rows,
    );

    h.note(
        "\nPaper (§III): \"primitives such as thread management and event signaling\n\
         are orders of magnitude faster\"; application speedups 20–40 % over Linux.\n\
         The Aster-like framekernel lands between the endpoints on every\n\
         primitive except the uncontended mutex (its checked RAII lock is\n\
         fatter than the futex fast path).",
    );
    h.finish(&json, "nautilus", headline)
}
