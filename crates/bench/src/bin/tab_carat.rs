//! §IV-A: the CARAT overhead table — naive vs. optimized instrumentation
//! per benchmark kernel, geometric means, guard statistics, and the paging
//! comparison. Also demonstrates defragmentation at a quiescent point.

use interweave_bench::harness::{Harness, Scenario};
use interweave_bench::{f, print_table, s};
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

fn main() {
    let h = Harness::new(vec![
        Scenario::new(
            "paging",
            StackConfig::commodity(),
            MachineConfig::xeon_server_2s(),
        ),
        Scenario::new("carat", StackConfig::pik(), MachineConfig::xeon_server_2s()),
    ]);
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
    print_table(
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
    println!(
        "geomean overhead: naive {naive_gm:.2}%  →  optimized {opt_gm:.2}%   (paper: <6% geomean after optimization)"
    );

    // Defragmentation demonstration: a fragmenting linked-list process is
    // compiled, attested, admitted as a PIK process, run until its
    // quiescent yield, compacted by the kernel, and resumed.
    use interweave_carat::defrag::{compact, fragmentation_demo};
    use interweave_carat::pik::PikSystem;
    use interweave_ir::interp::ExecStatus;
    use interweave_ir::types::Val;
    let (demo_m, demo_entry) = fragmentation_demo("list");
    let n = 64i64;
    let mut sys = PikSystem::new();
    let (m, att) = sys.compile(demo_m);
    let pid = sys
        .admit(m, att, demo_entry, vec![Val::I(n)])
        .expect("attested module admits");
    // Run until the process's quiescent yield, then compact.
    loop {
        match sys.processes[pid].run_slice(100_000) {
            ExecStatus::Yielded => break,
            ExecStatus::OutOfFuel => continue,
            other => panic!("unexpected status before quiesce: {other:?}"),
        }
    }
    let p = &mut sys.processes[pid];
    let report = compact(&mut p.interp, &mut p.runtime);
    print_table(
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
    // Resume after compaction and verify the process still computes the
    // right answer through its patched pointers.
    match sys.processes[pid].run_slice(u64::MAX / 4) {
        ExecStatus::Done(Some(Val::I(v))) => {
            assert_eq!(v, n * (n - 1) / 2, "post-defrag result corrupted");
            println!("post-defrag list walk: sum = {v} (correct)");
        }
        other => panic!("process did not finish after defrag: {other:?}"),
    }

    h.finish(&json);
}
