//! TAB-FAULTS — deterministic cross-layer fault injection and recovery.
//!
//! One seeded [`FaultPlan`] drives four fault classes, each injected at the
//! layer where the real failure would occur and recovered *one layer up*:
//!
//! | fault                  | injected at              | recovered by                          |
//! |------------------------|--------------------------|---------------------------------------|
//! | lost kick IPI          | delivery fabric          | kernel watchdog re-kick               |
//! | stack allocation OOM   | buddy allocator          | scheduler sheds the task (typed `Err`)|
//! | memory word bit-flip   | interpreter page memory  | CARAT audit + quarantine-and-relocate |
//! | virtine killed mid-call| guest execution          | Wasp restart from snapshot            |
//!
//! For each class the table reports cycles to detect + recover in the
//! interwoven stack against what the layered commodity stack pays for the
//! same failure (softlockup-tick rescue, OOM-killer scan, page-granularity
//! scrub plus process restart, fork+exec restart). Everything is driven by
//! one fixed seed: two runs are byte-identical, which `tests/goldens.rs`
//! asserts.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, s, Cell};
use interweave::compose::ComposedStack;
use interweave_carat::quarantine_and_relocate;
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_core::time::Cycles;
use interweave_core::{FaultClass, FaultConfig, FaultPlan};
use interweave_ir::interp::GUEST_PAGE_BYTES;
use interweave_kernel::work::LoopWork;
use interweave_kernel::{Executor, NumaAllocator};
use interweave_virtines::context::Virtine;
use interweave_virtines::extract::extract_one;
use interweave_virtines::wasp::{startup, LaunchPath, Wasp};

/// The campaign seed. Fixed: the whole point is a bit-reproducible run.
const SEED: u64 = 0xFA017;

/// Commodity lost-wakeup rescue: nothing notices until the next scheduler
/// tick rebalance (250 Hz ⇒ 4 ms).
const LAYERED_TICK_US: f64 = 4_000.0;

/// Commodity OOM path: overcommit means the failure is only discovered at
/// page-touch time, then the OOM killer scans and kills (~10 ms).
const LAYERED_OOM_US: f64 = 10_000.0;

struct Row {
    class: FaultClass,
    injected: u64,
    detected: u64,
    recovered: u64,
    interwoven: u64,
    layered: u64,
    note: &'static str,
}

/// Lost + delayed kick IPIs, recovered by the kernel watchdog of `stack`.
fn ipi_rows(stack: &ComposedStack) -> (Row, Row) {
    let mc = stack.machine();
    let cfg = FaultConfig {
        drop_ipi: 0.25,
        delay_ipi: 0.25,
        ..FaultConfig::quiet(SEED)
    };
    let max_delay = cfg.max_ipi_delay;
    let mut e = Executor::new(mc.clone(), Cycles(10_000));
    e.set_os(stack.config.os);
    e.set_fault_plan(FaultPlan::new(cfg));
    e.enable_watchdog(Cycles(5_000));
    for cpu in 0..8 {
        for _ in 0..3 {
            e.spawn(cpu, Box::new(LoopWork::new(50, Cycles(400))));
        }
    }
    assert!(e.run(), "watchdog must rescue every lost kick");
    let plan = e.take_fault_plan().expect("plan installed above");
    let st = &e.stats;
    assert!(
        st.recovered_stalls > 0,
        "campaign must exercise the watchdog"
    );
    let lost = Row {
        class: FaultClass::LostIpi,
        injected: plan.injected(FaultClass::LostIpi),
        detected: st.recovered_stalls,
        recovered: st.recovered_stalls,
        // Measured: average stall window from the kick that vanished to the
        // watchdog-driven dispatch that closed it.
        interwoven: st.stall_cycles.get() / st.recovered_stalls,
        layered: mc.freq.cycles_per_us(LAYERED_TICK_US).get(),
        note: "watchdog re-kick vs 4 ms tick rescue",
    };
    let delayed = Row {
        class: FaultClass::DelayedIpi,
        injected: plan.injected(FaultClass::DelayedIpi),
        detected: st.delayed_kicks,
        recovered: st.delayed_kicks,
        // Bounded by the plan: a late kick is absorbed, never escalated.
        interwoven: max_delay.get(),
        layered: mc.freq.cycles_per_us(LAYERED_TICK_US).get(),
        note: "late delivery absorbed vs tick rescue",
    };
    (lost, delayed)
}

/// Injected buddy OOM at stack-carve time, shed by the scheduler.
fn alloc_row(stack: &ComposedStack) -> Row {
    let mc = stack.machine();
    let mut e = Executor::new(mc.clone(), Cycles(10_000));
    e.set_os(stack.config.os);
    // 2 zones × 16 × 16 KiB stacks: capacity for every spawn that the
    // fault plane lets through.
    e.set_stack_allocator(NumaAllocator::new(mc.sockets, 14, 4));
    e.set_fault_plan(FaultPlan::new(FaultConfig {
        alloc_fail: 0.25,
        ..FaultConfig::quiet(SEED)
    }));
    let mut spawned = 0u64;
    let mut shed = 0u64;
    for i in 0..24 {
        match e.try_spawn(i % mc.cores, Box::new(LoopWork::new(20, Cycles(500)))) {
            Ok(_) => spawned += 1,
            Err(err) => {
                // The typed error is the detection: no page-touch surprise.
                assert_eq!(err.to_string(), "out of memory");
                shed += 1;
            }
        }
    }
    assert!(e.run(), "surviving tasks must complete after shedding");
    let plan = e.take_fault_plan().expect("plan installed above");
    assert!(shed > 0 && spawned > 0, "campaign must shed and survive");
    assert_eq!(e.stats.shed_tasks, shed);
    Row {
        class: FaultClass::AllocFail,
        injected: plan.injected(FaultClass::AllocFail),
        detected: shed,
        recovered: shed,
        // Synchronous `Err` at the call site; recovery is one scheduler
        // pick to move on to the next runnable task.
        interwoven: stack.os.ctx_switch(false, false).get(),
        layered: mc.freq.cycles_per_us(LAYERED_OOM_US).get(),
        note: "typed Err + shed vs OOM-killer scan",
    }
}

/// A seeded bit-flip in a pointer word, caught by the CARAT escape audit
/// and healed by quarantine-and-relocate. The layered cost restarts the
/// process with fork+exec, the commodity stack's isolation path.
fn bit_flip_row(mc: &MachineConfig) -> Row {
    let n = 64i64;
    let p = &mut super::quiesced_list(n);
    let holders = p.runtime.escape_holders();
    let mut plan = FaultPlan::new(FaultConfig {
        bit_flip: 1.0,
        ..FaultConfig::quiet(SEED)
    });
    let (site, bit) = plan
        .flip_spec(holders.len() as u64)
        .expect("p=1.0 must fire");
    let victim = holders[site as usize];
    p.interp
        .mem
        .flip_bit(victim, bit)
        .expect("escape holders are integer words");

    let corruptions = p.runtime.audit_escapes(&p.interp.mem);
    assert_eq!(corruptions.len(), 1, "exactly the flipped word");
    let report = quarantine_and_relocate(&mut p.interp, &mut p.runtime, &corruptions);
    assert_eq!(report.repaired_words, 1);
    assert!(report.quarantined_bytes > 0);
    // Cost model, detection: the audit walks the escape ledger once, one
    // cache-hot guard-sized check per tracked pointer word.
    let detect = holders.len() as u64 * p.runtime.costs.guard;
    // Cost model, recovery: copy the damaged frame word-by-word (load +
    // store per 8 bytes), patch registers, rewrite the repaired words.
    let recover =
        (report.bytes_moved / 8) * 2 + report.regs_patched as u64 + report.repaired_words as u64;
    // Layered scrub: page-granularity, so the scrubber reads the entire
    // resident set; then the corrupted process is killed and restarted.
    let resident_words = p.interp.mem.resident_pages() as u64 * GUEST_PAGE_BYTES / 8;
    let layered = resident_words * 2 + startup(LaunchPath::Process).total_cycles(mc).get();
    super::finish_list(p, n);
    Row {
        class: FaultClass::BitFlip,
        injected: plan.injected(FaultClass::BitFlip),
        detected: 1,
        recovered: 1,
        interwoven: detect + recover,
        layered,
        note: "ledger audit + relocate vs full scrub + restart",
    }
}

/// Virtines killed mid-call, restarted from the snapshot pool; the layered
/// comparison re-launches with fork+exec, the commodity stack's isolation
/// path.
fn virtine_row(mc: &MachineConfig) -> Row {
    let fibp = interweave_ir::programs::fib(18);
    let image = extract_one(&fibp.module, fibp.entry);
    let mut probe = Virtine::new(image.clone());
    probe.invoke(&fibp.args, u64::MAX / 4);
    let guest = probe.guest_cycles;
    // A budget only 4/3 of the guest's runtime: a uniform kill point lands
    // on a live guest three times out of four.
    let budget = guest + guest / 3;
    let reqs = 20usize;

    let serve = |cfg: FaultConfig| {
        let mut faults = FaultPlan::new(cfg);
        let mut w = Wasp::new(image.clone(), mc.clone());
        let mut total = 0u64;
        let mut restarts = 0u64;
        for _ in 0..reqs {
            let (outcome, t, r) = w.invoke_recovering(&fibp.args, budget, &mut faults, 16);
            assert!(
                matches!(
                    outcome,
                    interweave_virtines::context::VirtineOutcome::Returned(_)
                ),
                "every request must eventually complete"
            );
            total += t.get();
            restarts += r as u64;
        }
        assert_eq!(w.stats.restarts, restarts);
        (faults, w.stats.faults_detected, total, restarts)
    };

    let (_, _, t_quiet, r_quiet) = serve(FaultConfig::quiet(SEED));
    assert_eq!(r_quiet, 0, "quiet plan must not restart anything");
    let (plan, detected, t_fault, restarts) = serve(FaultConfig {
        virtine_kill: 0.5,
        ..FaultConfig::quiet(SEED)
    });
    assert!(restarts > 0, "p=0.5 kills over 20 requests must land");
    Row {
        class: FaultClass::VirtineKill,
        injected: plan.injected(FaultClass::VirtineKill),
        detected,
        recovered: restarts,
        // Measured: total extra latency the kills cost (wasted partial
        // executions + snapshot restores), per recovered kill.
        interwoven: (t_fault - t_quiet) / restarts,
        // Legacy FaaS isolation restarts with fork+exec and re-runs the
        // whole request.
        layered: startup(LaunchPath::Process).total_cycles(mc).get() + guest,
        note: "snapshot restart vs fork+exec re-run",
    }
}

pub(super) fn scenarios() -> Vec<Scenario> {
    vec![Scenario::new(
        "interwoven",
        StackConfig::nautilus(),
        MachineConfig::xeon_server_2s(),
    )]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    let interwoven = &sc[0].stack;
    let mc = interwoven.machine();
    let (lost, delayed) = ipi_rows(interwoven);
    let rows_data = [
        lost,
        delayed,
        alloc_row(interwoven),
        bit_flip_row(mc),
        virtine_row(mc),
    ];

    let advantage = |r: &Row| r.layered as f64 / r.interwoven as f64;
    h.table(
        &format!("TAB-FAULTS — recovery cost per fault class (seed {SEED:#x})"),
        &[
            "fault class",
            "injected",
            "detected",
            "recovered",
            "interwoven (cyc)",
            "layered (cyc)",
            "advantage",
            "recovery path",
        ],
        rows_data.iter().map(|r| {
            assert!(r.injected > 0, "every class must inject");
            assert!(r.recovered > 0, "every class must recover");
            vec![
                s(r.class.name()),
                s(r.injected),
                s(r.detected),
                s(r.recovered),
                s(r.interwoven),
                s(r.layered),
                Cell::float(advantage(r), 1, "x"),
                s(r.note),
            ]
        }),
    );
    let total: u64 = rows_data.iter().map(|r| r.injected).sum();
    h.note(format!(
        "{} faults injected across {} classes; every one detected and recovered; no sim aborted",
        total,
        rows_data.len()
    ));
    let least = rows_data
        .iter()
        .map(advantage)
        .fold(f64::INFINITY, f64::min);
    let headline = format!(
        "{total} faults over {} classes recovered; ≥{}x cheaper than layered",
        rows_data.len(),
        f(least, 1)
    );
    Ok(h.finish(&sc[0], headline))
}
