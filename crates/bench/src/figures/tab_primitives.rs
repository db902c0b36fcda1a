//! §III: the kernel primitives table — thread management and event
//! signaling costs across the OS axis (Linux-like, Aster-like framekernel,
//! Nautilus-like; "orders of magnitude faster" at the NK end), on both
//! server and KNL presets.

use crate::harness::{Cli, Harness, Report, Scenario};
use crate::{f, pct, s, Cell};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_kernel::microbench::primitive_table;
use interweave_kernel::os::{AsterModel, LinuxModel, NkModel};

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
    let mut headline = String::new();
    for mc in machines {
        let lx = LinuxModel::new(mc.clone());
        let fk = AsterModel::new(mc.clone());
        let nk = NkModel::new(mc.clone());
        let table = primitive_table(&[("Linux", &lx), ("Aster", &fk), ("Nautilus", &nk)]);
        let rows: Vec<Vec<Cell>> = table
            .iter()
            .map(|r| {
                vec![
                    s(r.name),
                    s(r.costs[0].get()),
                    s(r.costs[1].get()),
                    s(r.costs[2].get()),
                    Cell::float(r.speedup(0, 2), 1, "×"),
                    s(mc.freq.us(r.costs[2]).to_string()),
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
            rows,
        );
    }
    // §III's NUMA claim: thread state "always in the most desirable zone".
    use interweave_kernel::numa::placement_comparison;
    h.table(
        "NUMA placement of thread state (remote fraction; penalty cyc/quantum)",
        &[
            "machine",
            "NK bound",
            "first-touch + balancer",
            "commodity penalty",
        ],
        [
            MachineConfig::xeon_server_2s(),
            MachineConfig::big_server_8s(),
        ]
        .map(|mc| {
            let (nk, lx) = placement_comparison(&mc, 7);
            vec![
                s(&mc.name),
                pct(100.0 * nk.remote_fraction, 1),
                pct(100.0 * lx.remote_fraction, 1),
                f(lx.penalty_per_quantum, 0),
            ]
        }),
    );

    h.note(
        "\nPaper (§III): \"primitives such as thread management and event signaling\n\
         are orders of magnitude faster\"; application speedups 20–40 % over Linux.\n\
         The Aster-like framekernel lands between the endpoints on every\n\
         primitive except the uncontended mutex (its checked RAII lock is\n\
         fatter than the futex fast path).",
    );
    h.finish("nautilus", headline)
}
