//! Fig. 3: achieved and target heartbeat rate across the OS axis —
//! Linux, the Aster-like framekernel, and Nautilus.
//!
//! Reproduces the figure's structure: for each TPAL-style benchmark and
//! ♥ ∈ {100 µs, 20 µs} on 16 CPUs, the achieved rate as a fraction of
//! target, the inter-beat stability (CV), and the scheduling overhead —
//! plus the §V-D pipeline-interrupt ablation. The mechanisms compared are
//! declared as stack compositions and composed through the harness;
//! `--os <name>` restricts the sweep to one point of the axis.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, pct, s, Cell};
use interweave::compose::ComposedStack;
use interweave_core::machine::MachineConfig;
use interweave_core::par::{host_threads, parallel_map};
use interweave_core::stack::StackConfig;
use interweave_core::Cycles;
use interweave_heartbeat::sim::{fig3_benchmarks, run_heartbeat, HeartbeatConfig};

/// The figure's heartbeat setup for one composed stack: the stack picks
/// the signaling mechanism and the machine (including delivery mode).
fn cfg_for(stack: &ComposedStack, target_us: f64, handler: Cycles) -> HeartbeatConfig {
    let mut cfg = HeartbeatConfig::fig3(stack.config.os, target_us, handler);
    cfg.machine = stack.machine().clone();
    cfg
}

pub(super) fn scenarios() -> Vec<Scenario> {
    let mc = MachineConfig::xeon_server_2s().with_cores(16);
    vec![
        Scenario::new("linux", StackConfig::commodity(), mc.clone()),
        Scenario::new("aster", StackConfig::framekernel(), mc.clone()),
        Scenario::new("nautilus", StackConfig::nautilus(), mc.clone()),
        // §V-D ablation: the same interwoven stack on pipeline-interrupt
        // hardware — a composition the builder admits only on the NK path.
        Scenario::new(
            "nautilus+pipeline",
            StackConfig::nautilus(),
            mc.with_pipeline_interrupts(),
        ),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    // The figure's mechanism columns: the whole OS axis, or the one point
    // `--os` selects.
    let mechanisms: Vec<&Composed> = sc[..3]
        .iter()
        .filter(|point| cli.os.is_none_or(|os| point.stack.config.os == os))
        .collect();

    let mut headline = String::new();
    for &target_us in &[100.0, 20.0] {
        // One parallel sweep per mechanism over the benchmark suite.
        let results: Vec<Vec<_>> = mechanisms
            .iter()
            .map(|point| {
                let stack = &point.stack;
                parallel_map(fig3_benchmarks(), host_threads(), |(bench, handler)| {
                    let r = run_heartbeat(&cfg_for(stack, target_us, handler));
                    (bench, stack.config.os.name(), r)
                })
            })
            .collect();
        // The last target, ♥ = 20 µs, is the paper's headline.
        let means: Vec<String> = results
            .iter()
            .map(|swept| {
                let sum: f64 = swept.iter().map(|(_, _, r)| r.fraction_of_target()).sum();
                format!("{} {:.0}%", swept[0].1, 100.0 * sum / swept.len() as f64)
            })
            .collect();
        headline = format!("{} of target at ♥ = {target_us} µs", means.join(", "));
        let mut rows = Vec::new();
        for i in 0..fig3_benchmarks().len() {
            for swept in &results {
                let (bench, mechanism, r) = &swept[i];
                rows.push(vec![
                    s(*bench),
                    s(*mechanism),
                    f(r.target_rate, 1),
                    f(r.achieved_rate, 1),
                    pct(100.0 * r.fraction_of_target(), 1),
                    f(r.interbeat_cv, 3),
                    pct(r.overhead_pct, 2),
                    s(r.coalesced),
                ]);
            }
        }
        h.table(
            &format!("Fig. 3 — heartbeat rate, ♥ = {target_us} µs, 16 CPUs"),
            &[
                "benchmark",
                "mechanism",
                "target/ms",
                "achieved/ms",
                "of target",
                "CV",
                "overhead",
                "coalesced",
            ],
            rows,
        );
    }

    // §V-D ablation: pipeline interrupts on the Nautilus path.
    let idt = run_heartbeat(&cfg_for(&sc[2].stack, 20.0, Cycles(1000)));
    let pipe = run_heartbeat(&cfg_for(&sc[3].stack, 20.0, Cycles(1000)));
    h.table(
        "§V-D ablation — Nautilus heartbeat overhead at ♥ = 20 µs by delivery mode",
        &["delivery", "overhead"],
        vec![
            vec![s("IDT dispatch"), pct(idt.overhead_pct, 2)],
            vec![s("pipeline-branch dispatch"), pct(pipe.overhead_pct, 2)],
        ],
    );

    // End-to-end: what the delivered beats buy — heartbeat-scheduled loop
    // speedup with bounded overhead.
    use interweave_heartbeat::scaling::{scaling_sweep, ScalingConfig};
    let cfg = ScalingConfig::default_nk();
    let pts = scaling_sweep(&cfg, &[1, 2, 4, 8, 16]);
    h.table(
        "Heartbeat scheduling payoff — loop speedup via promotion (NK path, ♥=20 µs)",
        &["workers", "speedup", "promotions", "steals", "overhead"],
        pts.iter().map(|p| {
            vec![
                s(p.workers),
                Cell::float(p.speedup, 2, "x"),
                s(p.promotions),
                s(p.steals),
                pct(100.0 * p.overhead_fraction, 2),
            ]
        }),
    );

    h.note(
        "\nPaper: Nautilus hits target with stable rate at both 100 µs and 20 µs;\n\
         Linux undershoots at 20 µs with unsteady rates. Overheads: Linux 13–22 %,\n\
         Nautilus ≤ 4.9 % (see EXPERIMENTS.md for measured-vs-paper discussion).\n\
         The Aster-like framekernel sustains both targets like Nautilus, with\n\
         slightly higher overhead and a small but nonzero rate CV.",
    );
    // The headline measures the NK end of the axis, or the `--os` point.
    let measured = mechanisms.last().expect("--os names a point on the axis");
    Ok(h.finish(measured, headline))
}
