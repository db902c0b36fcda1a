//! Property tests for the telemetry plane on the executor: the
//! cycle-attribution ledger balances exactly, per-CPU span lanes never
//! overlap, and an attached sink never perturbs the simulation.

use interweave_core::machine::MachineConfig;
use interweave_core::telemetry::{find_overlap, well_bracketed, Layer, Sink};
use interweave_core::time::Cycles;
use interweave_core::{FaultConfig, FaultPlan};
use interweave_kernel::executor::Executor;
use interweave_kernel::work::{LoopWork, ScriptedWork, WorkStep};
use proptest::prelude::*;

/// Build an executor with the given workload and fault pressure, run it to
/// quiescence, and return it (the sink stays attached to its clones).
fn run_workload(
    tasks: &[(usize, u64, u64)],
    yields: &[(usize, u64)],
    quantum: u64,
    drop_ipi: f64,
    seed: u64,
    sink: Sink,
) -> Executor {
    let mc = MachineConfig::test(4);
    let mut e = Executor::new(mc, Cycles(quantum));
    e.set_telemetry(sink);
    if drop_ipi > 0.0 {
        e.set_fault_plan(FaultPlan::new(FaultConfig {
            drop_ipi,
            delay_ipi: drop_ipi / 2.0,
            ..FaultConfig::quiet(seed)
        }));
        // The watchdog is what makes lost kicks recoverable at all.
        e.enable_watchdog(Cycles(quantum / 2 + 100));
    }
    for &(cpu, iters, cost) in tasks {
        e.spawn(cpu, Box::new(LoopWork::new(iters, Cycles(cost))));
    }
    for &(cpu, cost) in yields {
        let steps: Vec<WorkStep> = (0..3)
            .flat_map(|_| [WorkStep::Compute(Cycles(cost)), WorkStep::Yield])
            .chain([WorkStep::Done])
            .collect();
        e.spawn(cpu, Box::new(ScriptedWork::new(steps)));
    }
    assert!(e.run(), "workload must quiesce");
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The attribution invariant holds on arbitrary workloads under fault
    /// pressure: every simulated cycle lands in exactly one
    /// `(layer, mechanism)` category, so the ledger sums to
    /// makespan × CPUs — no gaps, no double counting.
    #[test]
    fn attributed_cycles_sum_to_machine_clock(
        tasks in prop::collection::vec((0usize..4, 1u64..12, 50u64..3_000), 1..10),
        yields in prop::collection::vec((0usize..4, 200u64..2_000), 0..3),
        quantum in 1_000u64..20_000,
        drop_sel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let drop_ipi = [0.0, 0.2, 0.4][drop_sel];
        let sink = Sink::on();
        let e = run_workload(&tasks, &yields, quantum, drop_ipi, seed, sink.clone());
        prop_assert!(
            sink.verify_attribution(e.attribution_clock()).is_ok(),
            "ledger {} vs clock {}",
            sink.attributed(),
            e.attribution_clock()
        );
        // The ledger decomposes the clock; the registry mirrors the stats.
        prop_assert_eq!(sink.counter("kernel.sched.preemptions"), e.stats.preemptions);
        prop_assert_eq!(sink.counter("kernel.sched.yields"), e.stats.yields);
    }

    /// Spans on one `(layer, track)` lane of the kernel scheduler never
    /// overlap: one CPU runs one thing at a time, and stall intervals end
    /// exactly where the rescued dispatch begins.
    #[test]
    fn per_cpu_span_lanes_never_overlap(
        tasks in prop::collection::vec((0usize..4, 1u64..12, 50u64..3_000), 1..10),
        quantum in 1_000u64..20_000,
        drop_sel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let drop_ipi = [0.0, 0.2, 0.4][drop_sel];
        let sink = Sink::on();
        run_workload(&tasks, &[], quantum, drop_ipi, seed, sink.clone());
        let spans = sink.spans();
        prop_assert!(!spans.is_empty(), "an enabled sink must collect spans");
        prop_assert!(spans.iter().all(|s| s.layer == Layer::Kernel));
        if let Some((a, b)) = find_overlap(&spans) {
            prop_assert!(false, "overlap on cpu {}: {:?} vs {:?}", a.track, a, b);
        }
        // Strict non-overlap implies the weaker nesting invariant too.
        prop_assert!(well_bracketed(&spans).is_none());
    }

    /// An attached sink is an observer: the simulation with telemetry on is
    /// bit-identical to the same workload with telemetry off.
    #[test]
    fn sink_never_perturbs_the_simulation(
        tasks in prop::collection::vec((0usize..4, 1u64..12, 50u64..3_000), 1..10),
        quantum in 1_000u64..20_000,
        drop_sel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let drop_ipi = [0.0, 0.2, 0.4][drop_sel];
        let on = run_workload(&tasks, &[], quantum, drop_ipi, seed, Sink::on());
        let off = run_workload(&tasks, &[], quantum, drop_ipi, seed, Sink::off());
        prop_assert_eq!(on.stats.makespan, off.stats.makespan);
        prop_assert_eq!(on.stats.preemptions, off.stats.preemptions);
        prop_assert_eq!(on.stats.recovered_stalls, off.stats.recovered_stalls);
        prop_assert_eq!(on.stats.switch_cycles, off.stats.switch_cycles);
        prop_assert_eq!(&on.stats.task_executed, &off.stats.task_executed);
    }
}
