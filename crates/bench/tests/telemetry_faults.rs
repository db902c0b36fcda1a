//! The counter registry is a faithful witness of the fault campaign: each
//! `tab_faults` segment, replayed here with a telemetry sink attached,
//! must land exactly the counts the campaign's own statistics report —
//! injections, watchdog re-kicks, shed tasks, quarantines, and virtine
//! restarts. Plus: the Perfetto trace export must be parseable JSON with
//! the documented event shape.

use interweave_carat::defrag::fragmentation_demo;
use interweave_carat::pik::PikSystem;
use interweave_carat::quarantine_and_relocate;
use interweave_core::machine::MachineConfig;
use interweave_core::telemetry::{chrome_trace_json, Sink};
use interweave_core::time::Cycles;
use interweave_core::{FaultClass, FaultConfig, FaultPlan};
use interweave_ir::types::Val;
use interweave_kernel::work::LoopWork;
use interweave_kernel::{Executor, NumaAllocator};
use interweave_virtines::extract::extract_one;
use interweave_virtines::serve::ServiceProfile;
use interweave_virtines::wasp::Wasp;

/// Same seed as `tab_faults`: the replayed segments see the identical
/// injection stream, so the registry must reproduce the table's counts.
const SEED: u64 = 0xFA017;

/// The IPI segment: lost/late kicks, watchdog rescues. The registry's
/// watchdog and fault counters must equal the executor's statistics.
#[test]
fn ipi_campaign_counters_match_stats() {
    let mc = MachineConfig::xeon_server_2s();
    let mut e = Executor::new(mc, Cycles(10_000));
    let sink = Sink::on();
    e.set_telemetry(sink.clone());
    e.set_fault_plan(FaultPlan::new(FaultConfig {
        drop_ipi: 0.25,
        delay_ipi: 0.25,
        ..FaultConfig::quiet(SEED)
    }));
    e.enable_watchdog(Cycles(5_000));
    for cpu in 0..8 {
        for _ in 0..3 {
            e.spawn(cpu, Box::new(LoopWork::new(50, Cycles(400))));
        }
    }
    assert!(e.run(), "watchdog must rescue every lost kick");
    let plan = e.take_fault_plan().expect("plan installed above");

    assert!(e.stats.recovered_stalls > 0, "campaign must stall");
    assert_eq!(
        sink.counter("kernel.watchdog.rekicks"),
        e.stats.watchdog_rekicks
    );
    assert_eq!(
        sink.counter("core.fault.lost_ipi"),
        plan.injected(FaultClass::LostIpi)
    );
    assert_eq!(
        sink.counter("core.fault.delayed_ipi"),
        plan.injected(FaultClass::DelayedIpi)
    );
    // Delivery-fabric outcomes partition the kick stream.
    assert_eq!(
        sink.counter("core.irq.dropped"),
        plan.injected(FaultClass::LostIpi)
    );
    assert_eq!(
        sink.counter("core.irq.delayed"),
        plan.injected(FaultClass::DelayedIpi)
    );
    assert_eq!(
        sink.counter("kernel.sched.preemptions"),
        e.stats.preemptions
    );
}

/// The OOM segment: injected allocation failures shed tasks. The shed
/// counter, the buddy OOM counter, and the injection counter agree.
#[test]
fn alloc_campaign_counters_match_stats() {
    let mc = MachineConfig::xeon_server_2s();
    let mut e = Executor::new(mc.clone(), Cycles(10_000));
    let sink = Sink::on();
    e.set_telemetry(sink.clone());
    e.set_stack_allocator(NumaAllocator::new(mc.sockets, 14, 4));
    e.set_fault_plan(FaultPlan::new(FaultConfig {
        alloc_fail: 0.25,
        ..FaultConfig::quiet(SEED)
    }));
    let mut shed = 0u64;
    for i in 0..24 {
        if e.try_spawn(i % mc.cores, Box::new(LoopWork::new(20, Cycles(500))))
            .is_err()
        {
            shed += 1;
        }
    }
    assert!(e.run(), "surviving tasks must complete after shedding");
    let plan = e.take_fault_plan().expect("plan installed above");

    assert!(shed > 0, "campaign must shed");
    assert_eq!(sink.counter("kernel.sched.shed_tasks"), shed);
    assert_eq!(sink.counter("kernel.sched.shed_tasks"), e.stats.shed_tasks);
    assert_eq!(
        sink.counter("core.fault.alloc_fail"),
        plan.injected(FaultClass::AllocFail)
    );
    // Capacity covers every spawn the fault plane lets through, so each
    // buddy OOM is an injected one.
    assert_eq!(sink.counter("kernel.buddy.oom"), shed);
}

/// The bit-flip segment: a CARAT audit catches the corruption and
/// quarantine-and-relocate heals it; the registry reports both.
#[test]
fn carat_campaign_counters_match_report() {
    let (m, entry) = fragmentation_demo();
    let mut sys = PikSystem::new();
    let (m, att) = sys.compile(m);
    let pid = sys
        .admit(m, att, entry, vec![Val::I(64)])
        .expect("attested module admits");
    sys.processes[pid].run_to_yield(100_000);
    let sink = Sink::on();
    let p = &mut sys.processes[pid];
    let holders = p.runtime.escape_holders();
    let mut plan = FaultPlan::new(FaultConfig {
        bit_flip: 1.0,
        ..FaultConfig::quiet(SEED)
    });
    plan.set_sink(sink.clone());
    let (site, bit) = plan
        .flip_spec(holders.len() as u64)
        .expect("p=1.0 must fire");
    p.interp
        .mem
        .flip_bit(holders[site as usize], bit)
        .expect("escape holders are integer words");

    let corruptions = p.runtime.audit_escapes(&p.interp.mem);
    assert_eq!(corruptions.len(), 1, "exactly the flipped word");
    let report = quarantine_and_relocate(&mut p.interp, &mut p.runtime, &corruptions);
    assert_eq!(report.repaired_words, 1);
    p.runtime.publish_telemetry(&sink);

    assert_eq!(
        sink.counter("core.fault.bit_flip"),
        plan.injected(FaultClass::BitFlip)
    );
    assert_eq!(sink.counter("carat.corruptions"), 1);
    // One corrupted frame → one quarantined region held out of reuse.
    assert_eq!(sink.counter("carat.quarantined"), 1);
    assert!(report.quarantined_bytes > 0);
    assert_eq!(sink.counter("carat.audits"), p.runtime.stats.audits);
}

/// The virtine segment: kills mid-call, snapshot restarts. The registry's
/// restart/detection counters equal the pool statistics exactly.
#[test]
fn virtine_campaign_counters_match_stats() {
    let mc = MachineConfig::xeon_server_2s();
    let fibp = interweave_ir::programs::fib(18);
    let image = extract_one(&fibp.module, fibp.entry);
    let guest = ServiceProfile::calibrate(&image, &fibp.args, u64::MAX / 4).guest_cycles;
    let budget = guest + guest / 3;

    let sink = Sink::on();
    let mut faults = FaultPlan::new(FaultConfig {
        virtine_kill: 0.5,
        ..FaultConfig::quiet(SEED)
    });
    faults.set_sink(sink.clone());
    let mut w = Wasp::new(image, mc);
    w.set_telemetry(sink.clone());
    let mut restarts = 0u64;
    for _ in 0..20 {
        let (outcome, _, r) = w.invoke_recovering(&fibp.args, budget, &mut faults, 16);
        assert!(matches!(
            outcome,
            interweave_virtines::context::VirtineOutcome::Returned(_)
        ));
        restarts += r as u64;
    }

    assert!(restarts > 0, "p=0.5 kills over 20 requests must land");
    assert_eq!(sink.counter("virtines.restarts"), restarts);
    assert_eq!(sink.counter("virtines.restarts"), w.stats().restarts);
    assert_eq!(
        sink.counter("virtines.faults_detected"),
        w.stats().faults_detected
    );
    assert_eq!(
        sink.counter("core.fault.virtine_kill"),
        faults.injected(FaultClass::VirtineKill)
    );
    assert_eq!(sink.counter("virtines.invocations"), w.stats().invocations);
}

/// The Chrome/Perfetto export parses as JSON and every event carries the
/// documented shape: `ph:"M"` process-name metadata first, then `ph:"X"`
/// duration events with numeric ts/dur/pid/tid.
#[test]
fn chrome_trace_export_parses_and_validates() {
    use serde::json::{parse, JsonValue};

    let mc = MachineConfig::xeon_server_2s().with_cores(4);
    let mut e = Executor::new(mc, Cycles(10_000));
    let sink = Sink::on();
    e.set_telemetry(sink.clone());
    for cpu in 0..4 {
        e.spawn(cpu, Box::new(LoopWork::new(10, Cycles(4_000))));
    }
    assert!(e.run());
    let spans = sink.spans();
    assert!(!spans.is_empty());

    let doc = parse(&chrome_trace_json(&spans, &[], 2_100)).expect("export must be valid JSON");
    let events = match &doc {
        JsonValue::Arr(events) => events,
        other => panic!("trace document must be an array, got {other:?}"),
    };
    let mut metadata = 0usize;
    let mut durations = 0usize;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has a ph");
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .expect("every event has a name");
        assert!(!name.is_empty());
        for field in ["pid", "tid"] {
            assert!(
                matches!(ev.get(field), Some(JsonValue::Num(_))),
                "{field} must be numeric"
            );
        }
        match ph {
            "M" => {
                assert_eq!(name, "process_name");
                let label = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    .expect("metadata names its process");
                assert!(!label.is_empty());
                metadata += 1;
            }
            "X" => {
                for field in ["ts", "dur"] {
                    assert!(
                        matches!(ev.get(field), Some(JsonValue::Num(_))),
                        "{field} must be numeric"
                    );
                }
                assert!(ev.get("cat").and_then(|v| v.as_str()).is_some());
                durations += 1;
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(durations, spans.len(), "one duration event per span");
    assert!(metadata >= 1, "at least one process-name track");
}
