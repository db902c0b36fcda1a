//! Fig. 7: speedup of selective coherence deactivation on PBBS-archetype
//! workloads, dual-socket 24-core machine, plus the interconnect-energy
//! companion claim and the scale trend.
//!
//! `--shards <n>` runs the sweeps on `n` event-queue shards. The output is
//! bit-identical at every shard count — the CI determinism gate
//! byte-compares `--shards 1` against `--shards 4`.

use interweave_bench::harness::{Harness, Scenario};
use interweave_bench::{f, print_table, s};
use interweave_coherence::experiment::{fig7_sharded, mean_energy_reduction, mean_speedup};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use serde::Serialize;

#[derive(Serialize)]
struct JsonRow {
    bench: String,
    speedup: f64,
    noc_energy_reduction: f64,
}

fn main() {
    let h = Harness::new(vec![
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
    ]);
    let shards = h.shards();
    let rows_data = fig7_sharded(24, 11, shards);
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
    print_table(
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
    println!(
        "mean speedup: {:.3}  (paper: ~1.46)\nmean interconnect-energy reduction: {:.1}%  (paper: ~53%)",
        mean_speedup(&rows_data),
        100.0 * mean_energy_reduction(&rows_data)
    );

    // Scale trend (§V-B: "benefits grow with scale"). The 24-core row is
    // the main table's run — fig7 is deterministic, so reuse it.
    let mut rows = Vec::new();
    for cores in [8usize, 16, 24, 48] {
        let r = if cores == 24 {
            rows_data.clone()
        } else {
            fig7_sharded(cores, 11, shards)
        };
        rows.push(vec![
            s(cores),
            f(mean_speedup(&r), 3),
            f(100.0 * mean_energy_reduction(&r), 1) + "%",
        ]);
    }
    print_table(
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
    print_table(
        "Ordering selectivity — fence stall (cycles/fence) vs unrelated store traffic",
        &[
            "unrelated stores",
            "x86-TSO",
            "selective release",
            "stall removed",
        ],
        &rows,
    );
    println!(
        "§V-B: \"a fence ... also orders all other writes the thread issued, even if\n\
         they are unrelated to the intended use of the fence.\""
    );

    h.finish(&json);
}
