//! Cross-layer fault-plane determinism: two runs of the same seeded
//! [`FaultPlan`] over the same kernel + CARAT workload must produce
//! bit-identical injection traces, recovery counts, and simulated clocks.
//!
//! This is the property that makes fault-injection campaigns debuggable:
//! any failure a campaign finds can be replayed exactly from its seed.

use interweave::carat::defrag::fragmentation_demo;
use interweave::carat::pik::PikSystem;
use interweave::carat::quarantine_and_relocate;
use interweave::core::machine::MachineConfig;
use interweave::core::{Cycles, FaultConfig, FaultPlan, FaultRecord};
use interweave::ir::types::Val;
use interweave::kernel::work::LoopWork;
use interweave::kernel::{Executor, NumaAllocator};
use proptest::prelude::*;

/// Everything observable about one campaign run. Two same-seed runs must
/// compare equal on all of it.
#[derive(Debug, Clone, PartialEq)]
struct CampaignOutcome {
    trace: Vec<FaultRecord>,
    total_injected: u64,
    completed: bool,
    makespan: Cycles,
    lost_kicks: u64,
    delayed_kicks: u64,
    recovered_stalls: u64,
    stall_cycles: Cycles,
    shed_tasks: u64,
    corruptions: usize,
    repaired_words: usize,
    relocations: usize,
    final_status: String,
}

/// One full cross-layer campaign: a watchdog-guarded executor with
/// fault-injected kicks and stack allocations, then a CARAT process whose
/// escape ledger is hit with a seeded bit-flip and healed by
/// quarantine-and-relocate. A single plan spans both layers, so the trace
/// interleaves classes exactly as the layers consulted it.
fn run_campaign(cfg: FaultConfig) -> CampaignOutcome {
    // Kernel layer.
    let mc = MachineConfig::xeon_server_2s();
    let mut e = Executor::new(mc.clone(), Cycles(5_000));
    e.set_stack_allocator(NumaAllocator::new(mc.sockets, 14, 4));
    e.set_fault_plan(FaultPlan::new(cfg));
    e.enable_watchdog(Cycles(2_500));
    let mut shed = 0u64;
    for i in 0..16 {
        if e.try_spawn(i % 4, Box::new(LoopWork::new(20, Cycles(300))))
            .is_err()
        {
            shed += 1;
        }
    }
    // With extreme drop rates the watchdog may legitimately give up on a
    // CPU (bounded re-kicks); determinism, not success, is the property.
    let completed = e.run();
    let mut plan = e.take_fault_plan().expect("plan installed above");
    assert_eq!(e.stats.shed_tasks, shed);

    // CARAT layer, continuing the same plan.
    let (m, entry) = fragmentation_demo();
    let mut sys = PikSystem::new();
    let (m, att) = sys.compile(m);
    let pid = sys
        .admit(m, att, entry, vec![Val::I(48)])
        .expect("attested module admits");
    sys.processes[pid].run_to_yield(100_000);
    let p = &mut sys.processes[pid];
    let holders = p.runtime.escape_holders();
    if let Some((site, bit)) = plan.flip_spec(holders.len() as u64) {
        p.interp
            .mem
            .flip_bit(holders[site as usize], bit)
            .expect("escape holders are integer words");
    }
    let corruptions = p.runtime.audit_escapes(&p.interp.mem);
    let report = quarantine_and_relocate(&mut p.interp, &mut p.runtime, &corruptions);
    let final_status = format!("{:?}", sys.processes[pid].run_slice(u64::MAX / 4));

    CampaignOutcome {
        trace: plan.trace().to_vec(),
        total_injected: plan.total_injected(),
        completed,
        makespan: e.stats.makespan,
        lost_kicks: e.stats.lost_kicks,
        delayed_kicks: e.stats.delayed_kicks,
        recovered_stalls: e.stats.recovered_stalls,
        stall_cycles: e.stats.stall_cycles,
        shed_tasks: e.stats.shed_tasks,
        corruptions: corruptions.len(),
        repaired_words: report.repaired_words,
        relocations: report.relocations,
        final_status,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed, same rates ⇒ identical trace and recovery story,
    /// end to end across both layers.
    #[test]
    fn same_seed_replays_bit_identically(
        seed in any::<u64>(),
        drop_pct in 0u32..=40,
        delay_pct in 0u32..=40,
        alloc_pct in 0u32..=40,
        flip_pct in 0u32..=100,
    ) {
        let cfg = FaultConfig {
            drop_ipi: drop_pct as f64 / 100.0,
            delay_ipi: delay_pct as f64 / 100.0,
            alloc_fail: alloc_pct as f64 / 100.0,
            bit_flip: flip_pct as f64 / 100.0,
            ..FaultConfig::quiet(seed)
        };
        let a = run_campaign(cfg);
        let b = run_campaign(cfg);
        prop_assert_eq!(&a, &b);
        // Injection bookkeeping is internally consistent.
        prop_assert_eq!(a.trace.len() as u64, a.total_injected);
        // A corrupted run must always be fully repaired before resuming.
        prop_assert_eq!(a.corruptions, a.repaired_words);
        // The workload always reaches a terminal state (fault plans never
        // wedge the simulation).
        prop_assert!(a.final_status.starts_with("Done"));
    }

    /// A quiet plan is not just "no injections": it consumes zero RNG draws
    /// and leaves every recovery counter at zero, so wiring the fault plane
    /// through a simulation cannot perturb fault-free results.
    #[test]
    fn quiet_plans_never_perturb(seed in any::<u64>()) {
        let quiet = run_campaign(FaultConfig::quiet(seed));
        prop_assert!(quiet.trace.is_empty());
        prop_assert_eq!(quiet.total_injected, 0);
        prop_assert!(quiet.completed);
        prop_assert_eq!(quiet.lost_kicks, 0);
        prop_assert_eq!(quiet.recovered_stalls, 0);
        prop_assert_eq!(quiet.shed_tasks, 0);
        prop_assert_eq!(quiet.corruptions, 0);
        // And it is seed-independent: the simulation result is the same
        // no matter what seed the disarmed plan carries.
        let other = run_campaign(FaultConfig::quiet(seed.wrapping_add(1)));
        prop_assert_eq!(quiet, other);
    }
}
