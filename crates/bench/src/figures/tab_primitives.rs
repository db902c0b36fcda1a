//! §III: the kernel primitives table — thread management and event
//! signaling costs across the OS axis (Linux-like, Aster-like framekernel,
//! Nautilus-like; "orders of magnitude faster" at the NK end), on both
//! server and KNL presets.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, pct, s, Cell};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_kernel::microbench::primitive_table;

pub(super) fn scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (mc, ids) in [
        (
            MachineConfig::xeon_server_2s(),
            ["xeon-linux", "xeon-aster", "xeon-nautilus"],
        ),
        (
            MachineConfig::phi_knl(),
            ["knl-linux", "knl-aster", "knl-nautilus"],
        ),
    ] {
        let stacks = [
            StackConfig::commodity(),
            StackConfig::framekernel(),
            StackConfig::nautilus(),
        ];
        for (id, config) in ids.into_iter().zip(stacks) {
            scenarios.push(Scenario::new(id, config, mc.clone()));
        }
    }
    scenarios
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    let mut headline = String::new();
    // One table per machine, its columns that machine's three scenarios'
    // kernels.
    for columns in sc.chunks(3) {
        let mc = columns[2].stack.machine();
        let kernels: Vec<_> = columns.iter().map(|point| &*point.stack.os).collect();
        let table = primitive_table(&kernels);
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
    Ok(h.finish(&sc[2], headline))
}
