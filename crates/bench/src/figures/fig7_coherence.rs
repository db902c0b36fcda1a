//! Fig. 7: speedup of selective coherence deactivation on PBBS-archetype
//! workloads, dual-socket 24-core machine, plus the interconnect-energy
//! companion claim and the scale trend.
//!
//! Every sweep runs `experiment::fig7`'s round loop on one thread: all
//! cores share one directory, so there is nothing to partition. The binary
//! reads no flag besides `--json`.

use crate::harness::{Cli, Harness, Report, Scenario};
use crate::{f, s};
use interweave_coherence::experiment::{fig7, mean_energy_reduction, mean_speedup};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use serde::Serialize;

#[derive(Serialize)]
struct JsonRow {
    bench: String,
    speedup: f64,
    noc_energy_reduction: f64,
}

pub(super) fn run(cli: &Cli) -> Report {
    let scenarios = vec![
        Scenario::new(
            "full-mesi",
            StackConfig::commodity(),
            MachineConfig::xeon_server_2s(),
        ),
        Scenario::new(
            "selective",
            StackConfig::interwoven(),
            MachineConfig::xeon_server_2s(),
        ),
    ];
    let mut h = Harness::new(cli, scenarios);
    let rows_data = fig7(24, 11, 1);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for r in &rows_data {
        rows.push(vec![
            s(r.name),
            s(r.full_cycles),
            s(r.selective_cycles),
            f(r.speedup(), 3),
            f(100.0 * r.energy_reduction(), 1) + "%",
        ]);
        json.push(JsonRow {
            bench: r.name.into(),
            speedup: r.speedup(),
            noc_energy_reduction: r.energy_reduction(),
        });
    }
    h.table(
        "Fig. 7 — selective coherence deactivation, 24-core dual-socket preset",
        &[
            "benchmark",
            "MESI cycles",
            "selective cycles",
            "speedup",
            "NoC energy cut",
        ],
        &rows,
    );
    let speedup = f(mean_speedup(&rows_data), 3);
    let energy_cut = f(100.0 * mean_energy_reduction(&rows_data), 1);
    h.note(format!(
        "mean speedup: {speedup}  (paper: ~1.46)\nmean interconnect-energy reduction: {energy_cut}%  (paper: ~53%)"
    ));

    // Scale trend (§V-B: "benefits grow with scale"). The 24-core row is
    // the main table's run — fig7 is deterministic, so reuse it.
    let mut rows = Vec::new();
    for cores in [8usize, 16, 24, 48] {
        let r = if cores == 24 {
            rows_data.clone()
        } else {
            fig7(cores, 11, 1)
        };
        rows.push(vec![
            s(cores),
            f(mean_speedup(&r), 3),
            f(100.0 * mean_energy_reduction(&r), 1) + "%",
        ]);
    }
    h.table(
        "Scale trend",
        &["cores", "mean speedup", "mean NoC energy cut"],
        &rows,
    );

    // §V-B's other half: memory-ordering selectivity.
    use interweave_coherence::ordering::{run_ordering, FencePolicy, OrderingConfig};
    let mut rows = Vec::new();
    for unrelated in [0usize, 8, 24, 48] {
        let cfg = OrderingConfig {
            unrelated_writes: unrelated,
            ..OrderingConfig::default()
        };
        let tso = run_ordering(&cfg, FencePolicy::TsoTotal);
        let sel = run_ordering(&cfg, FencePolicy::SelectiveRelease);
        rows.push(vec![
            s(unrelated),
            f(tso.mean_stall, 1),
            f(sel.mean_stall, 1),
            f(tso.mean_stall - sel.mean_stall, 1),
        ]);
    }
    h.table(
        "Ordering selectivity — fence stall (cycles/fence) vs unrelated store traffic",
        &[
            "unrelated stores",
            "x86-TSO",
            "selective release",
            "stall removed",
        ],
        &rows,
    );
    h.note(
        "§V-B: \"a fence ... also orders all other writes the thread issued, even if\n\
         they are unrelated to the intended use of the fence.\"",
    );

    let headline = format!("{speedup}x mean speedup, −{energy_cut}% NoC energy");
    h.finish(&json, "selective", headline)
}
