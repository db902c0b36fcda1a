//! TAB-PROFILE — cross-layer cycle attribution, interwoven vs layered.
//!
//! One mixed scheduler workload (compute loops, a cooperative yielder, a
//! fork/join pair, lost/late kick IPIs rescued by the watchdog, and
//! injected stack-allocation OOMs shed by the scheduler) runs three times
//! on the same machine — once per point of the OS axis: charged at the
//! interwoven kernel's switch costs (`OsPoint::NkLike`), at the Aster-like
//! framekernel's (`OsPoint::AsterLike`), and at the layered commodity
//! stack's (`OsPoint::LinuxLike`). Each run attaches a telemetry [`Sink`]
//! and the attribution ledger charges **every** simulated cycle to a
//! `(layer, mechanism)` category — the table below is exhaustive by
//! construction, enforced by [`Sink::verify_attribution`]: the rows sum
//! exactly to makespan × CPUs for all three runs.
//!
//! The interwoven run's sink is then shared with the other layers —
//! coherence protocol, CARAT runtime, heartbeat delivery, virtine pool —
//! so the second table is one unified counter registry spanning the whole
//! stack. Pass `--trace-out <path>` to also export the collected spans as
//! Chrome/Perfetto trace-event JSON (one process track per layer); the
//! golden run passes nothing and writes nothing.
//!
//! Everything is driven by one fixed seed: two runs are byte-identical,
//! trace included, which `tests/goldens.rs` asserts.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{pct, s};
use interweave::compose::ComposedStack;
use interweave_coherence::protocol::{System, SystemConfig};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_core::telemetry::{find_overlap, well_bracketed, AttributionRow, Layer, Sink};
use interweave_core::time::Cycles;
use interweave_core::{FaultConfig, FaultPlan};
use interweave_kernel::work::{LoopWork, ScriptedWork, WorkStep};
use interweave_kernel::{Executor, NumaAllocator};
use interweave_virtines::extract::extract_one;
use interweave_virtines::wasp::Wasp;

/// The campaign seed. Fixed: the whole point is a bit-reproducible run.
const SEED: u64 = 0x0050_F11E;

/// Run the shared workload once under `stack`'s kernel switch costs, with
/// the fault plan, watchdog, and stack allocator installed, recording into
/// a fresh enabled sink. Returns the sink and the finished executor.
fn profile(stack: &ComposedStack) -> (Sink, Executor) {
    let mc = stack.machine();
    let mut e = Executor::new(mc.clone(), Cycles(10_000));
    e.set_os(stack.config.os);
    let sink = Sink::on();
    e.set_telemetry(sink.clone());
    e.set_stack_allocator(NumaAllocator::new(mc.sockets, 14, 4));
    e.set_fault_plan(FaultPlan::new(FaultConfig {
        drop_ipi: 0.25,
        delay_ipi: 0.25,
        alloc_fail: 0.15,
        ..FaultConfig::quiet(SEED)
    }));
    e.enable_watchdog(Cycles(5_000));

    // Compute loops across every CPU; the fault plan sheds some spawns.
    let mut spawned = 0u64;
    let mut shed = 0u64;
    for cpu in 0..8 {
        for _ in 0..3 {
            match e.try_spawn(cpu, Box::new(LoopWork::new(30, Cycles(400)))) {
                Ok(_) => spawned += 1,
                Err(_) => shed += 1,
            }
        }
    }
    // A cooperative yielder and a fork/join pair exercise the voluntary
    // switch and join-wait mechanisms.
    let yielder: Vec<WorkStep> = (0..6)
        .flat_map(|_| [WorkStep::Compute(Cycles(2_000)), WorkStep::Yield])
        .chain([WorkStep::Done])
        .collect();
    if e.try_spawn(1, Box::new(ScriptedWork::new(yielder))).is_ok() {
        spawned += 1;
    }
    if let Ok(child) = e.try_spawn(3, Box::new(LoopWork::new(10, Cycles(2_000)))) {
        spawned += 1;
        let parent = ScriptedWork::new(vec![
            WorkStep::Compute(Cycles(1_000)),
            WorkStep::Block(child),
            WorkStep::Compute(Cycles(3_000)),
            WorkStep::Done,
        ]);
        if e.try_spawn(0, Box::new(parent)).is_ok() {
            spawned += 1;
        }
    }

    assert!(e.run(), "surviving tasks must complete");
    assert!(spawned > 0 && shed > 0, "campaign must shed and survive");
    assert_eq!(e.stats.shed_tasks, shed);
    assert!(e.stats.preemptions > 0, "quantum must fire");
    assert!(e.stats.yields > 0, "yielder must run");
    assert!(e.stats.blocks > 0, "join must block");
    assert!(e.stats.recovered_stalls > 0, "watchdog must rescue");
    sink.verify_attribution(e.attribution_clock())
        .expect("every cycle attributed to a (layer, mechanism)");
    (sink, e)
}

/// Share the interwoven run's sink with the other layers so the registry
/// snapshot spans the whole stack: coherence gauges, CARAT runtime gauges,
/// heartbeat delivery gauges, and live virtine counters + spans.
fn cross_layer_publishers(sink: &Sink, stack: &ComposedStack) {
    let mc = stack.machine();
    // Coherence: a small access mix under the stack's policy. It
    // classifies no region, so every line resolves Shared in either mode.
    let mut sys = System::new(SystemConfig::test(8, stack.coherence));
    for l in 0..64u64 {
        sys.write((l % 8) as usize, l);
        sys.read(((l + 1) % 8) as usize, l);
    }
    sys.publish_telemetry(sink);

    // CARAT: run the list workload to its first yield, audit the escape
    // ledger once, and publish the runtime's counters.
    let mut p = super::quiesced_list(32);
    let corruptions = p.runtime.audit_escapes(&p.interp.mem);
    assert!(corruptions.is_empty(), "no faults injected here");
    p.runtime.publish_telemetry(sink);

    // Heartbeat: a short run of the stack's kernel at the paper's 20 µs
    // target.
    {
        use interweave_heartbeat::sim::{run_heartbeat, HeartbeatConfig};
        let mut cfg = HeartbeatConfig::fig3(stack.config.os, 20.0, Cycles(1_000));
        cfg.duration_us = 5_000.0;
        run_heartbeat(&cfg).publish_telemetry(sink);
    }

    // Virtines: serve a few requests under a kill plan so restart counters
    // and nested FaultRecovery/VirtineCall spans land in the trace.
    let fibp = interweave_ir::programs::fib(12);
    let image = extract_one(&fibp.module, fibp.entry);
    let mut probe = interweave_virtines::context::Virtine::new(image.clone());
    probe.invoke(&fibp.args, u64::MAX / 4);
    let budget = probe.guest_cycles + probe.guest_cycles / 3;
    let mut faults = FaultPlan::new(FaultConfig {
        virtine_kill: 0.5,
        ..FaultConfig::quiet(SEED)
    });
    let mut w = Wasp::new(image, mc.clone());
    w.set_telemetry(sink.clone());
    let mut restarts = 0u64;
    for _ in 0..6 {
        let (outcome, _, r) = w.invoke_recovering(&fibp.args, budget, &mut faults, 8);
        assert!(
            matches!(
                outcome,
                interweave_virtines::context::VirtineOutcome::Returned(_)
            ),
            "every request must eventually complete"
        );
        restarts += r as u64;
    }
    assert!(restarts > 0, "p=0.5 kills over 6 requests must land");
}

pub(super) fn scenarios() -> Vec<Scenario> {
    let mc = MachineConfig::xeon_server_2s().with_cores(8);
    vec![
        Scenario::new("interwoven", StackConfig::nautilus(), mc.clone()),
        Scenario::new("framekernel", StackConfig::framekernel(), mc.clone()),
        Scenario::new("layered", StackConfig::commodity(), mc.clone()),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    let mc = sc[0].stack.machine();
    let (nk_sink, nk) = profile(&sc[0].stack);
    let (fk_sink, fk) = profile(&sc[1].stack);
    let (lx_sink, lx) = profile(&sc[2].stack);
    cross_layer_publishers(&nk_sink, &sc[0].stack);
    // The publishers above count and gauge but never charge the ledger, so
    // the attribution invariant still holds against the executor's clock.
    nk_sink
        .verify_attribution(nk.attribution_clock())
        .expect("publishers must not perturb the ledger");

    // Attribution table: union of categories from all three runs, in the
    // ledger's deterministic (layer, mechanism) order.
    let nk_rows = nk_sink.attribution_rows();
    let fk_rows = fk_sink.attribution_rows();
    let lx_rows = lx_sink.attribution_rows();
    let nk_clock = nk.attribution_clock().get() as f64;
    let fk_clock = fk.attribution_clock().get() as f64;
    let lx_clock = lx.attribution_clock().get() as f64;
    let mut cats: Vec<(&'static str, &'static str)> =
        nk_rows.iter().map(|r| (r.layer, r.mechanism)).collect();
    for r in fk_rows.iter().chain(lx_rows.iter()) {
        if !cats.contains(&(r.layer, r.mechanism)) {
            cats.push((r.layer, r.mechanism));
        }
    }
    let lookup = |rows: &[AttributionRow], cat: (&str, &str)| {
        rows.iter()
            .find(|r| (r.layer, r.mechanism) == cat)
            .map(|r| r.cycles)
            .unwrap_or(0)
    };
    h.table(
        &format!("TAB-PROFILE — cycle attribution across the OS axis (seed {SEED:#x})"),
        &[
            "layer",
            "mechanism",
            "interwoven (cyc)",
            "share",
            "framekernel (cyc)",
            "share",
            "layered (cyc)",
            "share",
        ],
        cats.iter().map(|&cat| {
            let a = lookup(&nk_rows, cat);
            let m = lookup(&fk_rows, cat);
            let b = lookup(&lx_rows, cat);
            vec![
                s(cat.0),
                s(cat.1),
                s(a),
                pct(100.0 * a as f64 / nk_clock, 1),
                s(m),
                pct(100.0 * m as f64 / fk_clock, 1),
                s(b),
                pct(100.0 * b as f64 / lx_clock, 1),
            ]
        }),
    );
    h.note(format!(
        "all three ledgers sum exactly to makespan × {} CPUs: interwoven {} over {}, framekernel {} over {}, layered {} over {}",
        mc.cores,
        nk_sink.attributed(),
        nk.stats.makespan,
        fk_sink.attributed(),
        fk.stats.makespan,
        lx_sink.attributed(),
        lx.stats.makespan,
    ));

    // Unified counter registry: every layer publishes into one namespace.
    let snap = nk_sink.snapshot().expect("sink is on");
    h.table(
        "counter registry snapshot (interwoven run, all layers)",
        &["counter", "layer", "unit", "total", "last cycle"],
        snap.counters.iter().map(|c| {
            vec![
                s(&c.name),
                s(c.layer),
                s(c.unit),
                s(c.total),
                s(c.last_cycle),
            ]
        }),
    );

    // Trace well-formedness: kernel lanes are strict schedules; virtine
    // lanes nest restarts inside recovery episodes.
    let spans = nk_sink.spans();
    let kernel: Vec<_> = spans
        .iter()
        .copied()
        .filter(|sp| sp.layer == Layer::Kernel)
        .collect();
    let virtine = spans.len() - kernel.len();
    assert!(
        find_overlap(&kernel).is_none(),
        "kernel lanes must never overlap"
    );
    assert!(
        well_bracketed(&spans).is_none(),
        "every lane must be well-bracketed"
    );
    h.note(format!(
        "\ntrace: {} spans ({} kernel, {} virtine); kernel lanes strict, all lanes well-bracketed",
        spans.len(),
        kernel.len(),
        virtine
    ));

    // Optional Perfetto export; the golden run passes no flag.
    h.trace(&spans, &[], mc.freq.mhz);

    let headline = format!(
        "{} counters; all {} of the interwoven run attributed",
        snap.counters.len(),
        nk_sink.attributed()
    );
    Ok(h.finish(&sc[0], headline))
}
