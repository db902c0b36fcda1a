//! Property tests for the preemptive executor: work conservation, makespan
//! bounds, and trace well-formedness for arbitrary task sets.

use interweave_core::machine::MachineConfig;
use interweave_core::telemetry::{find_overlap, Level, Sink};
use interweave_core::time::Cycles;
use interweave_kernel::executor::Executor;
use interweave_kernel::work::LoopWork;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every spawned task completes, executes exactly its submitted work,
    /// and the makespan is bounded below by the busiest CPU's work and
    /// above by total work plus switch costs.
    #[test]
    fn work_conservation_and_makespan_bounds(
        tasks in prop::collection::vec((0usize..4, 1u64..20, 10u64..2_000), 1..12),
        quantum in 500u64..50_000,
    ) {
        let mc = MachineConfig::test(4);
        let mut e = Executor::new(mc, Cycles(quantum));
        let sink = Sink::on(Level::Full);
        e.set_telemetry(sink.clone());
        let mut per_cpu = [0u64; 4];
        let mut per_task = Vec::new();
        for &(cpu, iters, cost) in &tasks {
            e.spawn(cpu, Box::new(LoopWork::new(iters, Cycles(cost))));
            per_cpu[cpu] += iters * cost;
            per_task.push(iters * cost);
        }
        prop_assert!(e.run(), "all tasks must complete");
        for (i, &expect) in per_task.iter().enumerate() {
            prop_assert_eq!(e.stats.task_executed[i].get(), expect, "task {}", i);
        }
        let busiest = *per_cpu.iter().max().unwrap();
        prop_assert!(e.stats.makespan.get() >= busiest);
        let total: u64 = per_task.iter().sum();
        prop_assert!(
            e.stats.makespan.get() <= total + e.stats.switch_cycles.get() + 1,
            "makespan {} vs total {} + switches {}",
            e.stats.makespan,
            total,
            e.stats.switch_cycles
        );
        // Trace intervals never overlap per CPU.
        prop_assert!(find_overlap(&sink.spans()).is_none());
    }

    /// Preemption count is bounded by total work / quantum (+1 per task).
    #[test]
    fn preemption_count_bounded(
        iters in 1u64..40,
        cost in 100u64..2_000,
        quantum in 1_000u64..20_000,
    ) {
        let mc = MachineConfig::test(1);
        let mut e = Executor::new(mc, Cycles(quantum));
        e.spawn(0, Box::new(LoopWork::new(iters, Cycles(cost))));
        e.spawn(0, Box::new(LoopWork::new(iters, Cycles(cost))));
        prop_assert!(e.run());
        let total = 2 * iters * cost;
        prop_assert!(
            e.stats.preemptions <= total / quantum + 2,
            "{} preemptions for {} work at quantum {}",
            e.stats.preemptions,
            total,
            quantum
        );
    }
}
