//! Fig. 7: speedup of selective coherence deactivation on PBBS-archetype
//! workloads, dual-socket 24-core machine, plus the interconnect-energy
//! companion claim and the scale trend.
//!
//! The two scenarios differ only on the coherence axis: each run's
//! `CohMode` is its scenario's, and the core count its machine's. The
//! (core count × benchmark) runs fan out on the host's cores. The binary
//! reads no flag besides `--json`.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, pct, s};
use interweave_coherence::experiment::{fig7, mean_energy_reduction, mean_speedup};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{CoherencePolicy, StackConfig};

pub(super) fn scenarios() -> Vec<Scenario> {
    let xeon = MachineConfig::xeon_server_2s();
    let full = StackConfig {
        coherence: CoherencePolicy::FullMesi,
        ..StackConfig::interwoven()
    };
    vec![
        Scenario::new("full-mesi", full, xeon.clone()),
        Scenario::new("selective", StackConfig::interwoven(), xeon),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let (base, compared) = (&sc[0], &sc[1]);
    let mut h = Harness::new(cli, sc);
    let modes = [base.stack.coherence, compared.stack.coherence];
    let cores = compared.stack.machine().cores;
    // Scale trend (§V-B: "benefits grow with scale"): the main table's
    // run is one of its points. Largest first, so the heaviest runs start
    // first on the pool.
    let trend = [48usize, 24, 16, 8];
    let mut counts = trend.to_vec();
    if !counts.contains(&cores) {
        counts.push(cores);
    }
    let runs = fig7(&counts, modes, 11, 1);
    let at = |n| &runs[counts.iter().position(|&c| c == n).expect("run at n cores")];
    let rows_data = at(cores);
    h.table(
        &format!("Fig. 7 — selective coherence deactivation, {cores}-core dual-socket preset"),
        &[
            "benchmark",
            "MESI cycles",
            "selective cycles",
            "speedup",
            "NoC energy cut",
        ],
        rows_data.iter().map(|r| {
            vec![
                s(r.name),
                s(r.base_cycles),
                s(r.cycles),
                f(r.speedup(), 3),
                pct(100.0 * r.energy_reduction(), 1),
            ]
        }),
    );
    let speedup = f(mean_speedup(rows_data), 3);
    let energy_cut = f(100.0 * mean_energy_reduction(rows_data), 1);
    h.note(format!(
        "mean speedup: {speedup}  (paper: ~1.46)\nmean interconnect-energy reduction: {energy_cut}%  (paper: ~53%)"
    ));

    h.table(
        "Scale trend",
        &["cores", "mean speedup", "mean NoC energy cut"],
        trend.into_iter().rev().map(|n| {
            vec![
                s(n),
                f(mean_speedup(at(n)), 3),
                pct(100.0 * mean_energy_reduction(at(n)), 1),
            ]
        }),
    );

    // §V-B's other half: memory-ordering selectivity.
    use interweave_coherence::ordering::{run_ordering, FencePolicy, OrderingConfig};
    h.table(
        "Ordering selectivity — fence stall (cycles/fence) vs unrelated store traffic",
        &[
            "unrelated stores",
            "x86-TSO",
            "selective release",
            "stall removed",
        ],
        [0usize, 8, 24, 48].map(|unrelated| {
            let cfg = OrderingConfig {
                unrelated_writes: unrelated,
                ..OrderingConfig::default()
            };
            let tso = run_ordering(&cfg, FencePolicy::TsoTotal);
            let sel = run_ordering(&cfg, FencePolicy::SelectiveRelease);
            vec![
                s(unrelated),
                f(tso.mean_stall, 1),
                f(sel.mean_stall, 1),
                f(tso.mean_stall - sel.mean_stall, 1),
            ]
        }),
    );
    h.note(
        "§V-B: \"a fence ... also orders all other writes the thread issued, even if\n\
         they are unrelated to the intended use of the fence.\"",
    );

    let headline = format!("{speedup}x mean speedup, −{energy_cut}% NoC energy");
    Ok(h.finish(compared, headline))
}
