//! Kernel-trace example: run a small preemptive workload on the executor
//! and export a cross-layer Chrome trace (`chrome://tracing` /
//! https://ui.perfetto.dev).
//!
//! Run with: `cargo run --example kernel_trace` — writes
//! `target/trace.json` (never the repo root, so the artifact stays out of
//! version control).

use interweave::core::machine::MachineConfig;
use interweave::core::telemetry::{chrome_trace_json, find_overlap, Level, Sink};
use interweave::core::Cycles;
use interweave::kernel::executor::Executor;
use interweave::kernel::work::{LoopWork, ScriptedWork, WorkStep};

fn main() {
    let mc = MachineConfig::xeon_server_2s().with_cores(4);
    let mhz = mc.freq.mhz;
    let mut e = Executor::new(mc, Cycles(20_000));
    let sink = Sink::on(Level::Full);
    e.set_telemetry(sink.clone());

    // A mixed workload: compute-bound tasks, a cooperative yielder, and a
    // fork/join pair.
    for cpu in 0..3 {
        e.spawn(cpu, Box::new(LoopWork::new(6, Cycles(30_000))));
    }
    let yielder_steps: Vec<WorkStep> = (0..8)
        .flat_map(|_| [WorkStep::Compute(Cycles(10_000)), WorkStep::Yield])
        .chain([WorkStep::Done])
        .collect();
    e.spawn(1, Box::new(ScriptedWork::new(yielder_steps)));
    let child = e.spawn(3, Box::new(LoopWork::new(4, Cycles(25_000))));
    e.spawn(
        0,
        Box::new(ScriptedWork::new(vec![
            WorkStep::Compute(Cycles(5_000)),
            WorkStep::Block(child),
            WorkStep::Compute(Cycles(15_000)),
            WorkStep::Done,
        ])),
    );

    let all_done = e.run();
    assert!(all_done, "workload must quiesce");
    let spans = sink.spans();
    assert!(find_overlap(&spans).is_none(), "trace must be well-formed");
    sink.verify_attribution(e.attribution_clock())
        .expect("every cycle attributed");

    println!(
        "ran {} tasks: makespan {} ({}), {} preemptions, {} yields, {} blocks",
        e.stats.task_executed.len(),
        e.stats.makespan,
        interweave::core::machine::MachineConfig::xeon_server_2s()
            .freq
            .us(e.stats.makespan),
        e.stats.preemptions,
        e.stats.yields,
        e.stats.blocks
    );
    println!("cycle attribution (sums exactly to makespan × CPUs):");
    for row in sink.attribution_rows() {
        println!(
            "  {:>10} / {:<16} {:>12}",
            row.layer, row.mechanism, row.cycles
        );
    }

    let json = chrome_trace_json(&spans, &[], mhz);
    let out = std::path::Path::new("target");
    std::fs::create_dir_all(out).expect("create target/");
    let path = out.join("trace.json");
    std::fs::write(&path, &json).expect("writable target/");
    println!(
        "wrote {} ({} spans) — open it in chrome://tracing or https://ui.perfetto.dev",
        path.display(),
        spans.len()
    );
}
