//! §IV-A: the CARAT overhead table — naive vs. optimized instrumentation
//! per benchmark kernel, geometric means, guard statistics, and the paging
//! comparison. Also demonstrates defragmentation at a quiescent point.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{pct, s};
use interweave_carat::overhead::{geomean_overheads, run_suite};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{StackConfig, Translation};

pub(super) fn scenarios() -> Vec<Scenario> {
    let xeon = MachineConfig::xeon_server_2s();
    // The two stacks differ only on the translation axis.
    let paging = StackConfig {
        translation: Translation::Paging,
        ..StackConfig::pik()
    };
    vec![
        Scenario::new("paging", paging, xeon.clone()),
        Scenario::new("carat", StackConfig::pik(), xeon),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    // The paging column under the first scenario's translation, the guard
    // pipeline under the second's, each priced on its machine.
    let [paging, carat] =
        [&sc[0].stack, &sc[1].stack].map(|stack| (stack.config.translation, &stack.machine().cost));
    let rows_data = run_suite(6, carat, paging);
    h.table(
        "TAB-CARAT — instrumentation overhead per kernel",
        &[
            "kernel",
            "base cycles",
            "naive",
            "optimized",
            "paging",
            "static guards",
            "dynamic guards",
        ],
        rows_data.iter().map(|r| {
            vec![
                s(&r.name),
                s(r.base_cycles),
                pct(r.naive_pct(), 2),
                pct(r.opt_pct(), 2),
                pct(r.paging_pct(), 2),
                s(format!(
                    "{} → {}",
                    r.static_guards_naive, r.static_guards_opt
                )),
                s(format!("{} → {}", r.dyn_guards_naive, r.dyn_guards_opt)),
            ]
        }),
    );
    let (naive_gm, opt_gm) = geomean_overheads(&rows_data);
    h.note(format!(
        "geomean overhead: naive {naive_gm:.2}%  →  optimized {opt_gm:.2}%   (paper: <6% geomean after optimization)"
    ));

    // Defragmentation demonstration: a fragmenting linked-list process is
    // compiled, attested, admitted as a PIK process, run until its
    // quiescent yield, compacted by the kernel, and resumed.
    let n = 64i64;
    let mut p = super::quiesced_list(n);
    let report = p.defrag();
    h.table(
        "CARAT defragmentation at a PIK quiescent point",
        &["metric", "value"],
        vec![
            vec![s("allocations moved"), s(report.moves)],
            vec![s("bytes relocated"), s(report.bytes_moved)],
            vec![s("registers patched"), s(report.regs_patched)],
            vec![s("free holes before"), s(report.holes_before)],
            vec![s("free holes after"), s(report.holes_after)],
        ],
    );
    // Resume after compaction: the process must still compute the right
    // answer through its patched pointers.
    let v = super::finish_list(&mut p, n);
    h.note(format!("post-defrag list walk: sum = {v} (correct)"));

    let headline = format!("{opt_gm:.2}% optimized / {naive_gm:.2}% naive geomean");
    Ok(h.finish(&sc[1], headline))
}
