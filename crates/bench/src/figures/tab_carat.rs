//! §IV-A: the CARAT overhead table — naive vs. optimized instrumentation
//! per benchmark kernel, geometric means, guard statistics, and the paging
//! comparison. Also demonstrates defragmentation at a quiescent point.

use crate::harness::{Cli, Harness, Report, Scenario};
use crate::{f, s};
use interweave_carat::overhead::{geomean_overheads, run_suite};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use serde::Serialize;

#[derive(Serialize)]
struct JsonRow {
    bench: String,
    naive_pct: f64,
    opt_pct: f64,
    paging_pct: f64,
    dyn_guards_naive: u64,
    dyn_guards_opt: u64,
}

pub(super) fn run(cli: &Cli) -> Report {
    let scenarios = vec![
        Scenario::new(
            "paging",
            StackConfig::commodity(),
            MachineConfig::xeon_server_2s(),
        ),
        Scenario::new("carat", StackConfig::pik(), MachineConfig::xeon_server_2s()),
    ];
    let mut h = Harness::new(cli, scenarios);
    let rows_data = run_suite(6);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for r in &rows_data {
        rows.push(vec![
            s(&r.name),
            s(r.base_cycles),
            f(r.naive_pct(), 2) + "%",
            f(r.opt_pct(), 2) + "%",
            f(r.paging_pct(), 2) + "%",
            format!("{} → {}", r.static_guards_naive, r.static_guards_opt),
            format!("{} → {}", r.dyn_guards_naive, r.dyn_guards_opt),
        ]);
        json.push(JsonRow {
            bench: r.name.clone(),
            naive_pct: r.naive_pct(),
            opt_pct: r.opt_pct(),
            paging_pct: r.paging_pct(),
            dyn_guards_naive: r.dyn_guards_naive,
            dyn_guards_opt: r.dyn_guards_opt,
        });
    }
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
        &rows,
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
        &[
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
    h.finish(&json, "carat", headline)
}
