//! Property tests for the preemptive executor: work conservation, makespan
//! bounds, trace well-formedness, and timer-queue accounting for arbitrary
//! task sets.

use interweave_core::machine::MachineConfig;
use interweave_core::telemetry::{find_overlap, Sink};
use interweave_core::time::Cycles;
use interweave_core::{FaultConfig, FaultPlan};
use interweave_kernel::executor::Executor;
use interweave_kernel::work::{LoopWork, ScriptedWork, WorkStep};
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
        let sink = Sink::on();
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

    /// Under lost and late kicks with the watchdog on, the timer queue's
    /// counters account for every timer: each one fired is a dispatch or a
    /// watchdog scan, and each one set either fired or was retracted by a
    /// kick that landed earlier. The run stays exact: every task computes
    /// its submitted work and the ledger sums to makespan × CPUs.
    #[test]
    fn timer_counters_account_for_every_dispatch_and_retraction(
        tasks in prop::collection::vec((0usize..4, 1u64..12, 50u64..3_000), 1..10),
        joiners in prop::collection::vec((0usize..4, 0usize..10, 100u64..2_000), 0..4),
        quantum in 1_000u64..20_000,
        drop_sel in 0usize..3,
        delay_sel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let mut e = Executor::new(MachineConfig::test(4), Cycles(quantum));
        let sink = Sink::on();
        e.set_telemetry(sink.clone());
        e.set_fault_plan(FaultPlan::new(FaultConfig {
            drop_ipi: [0.0, 0.1, 0.3][drop_sel],
            delay_ipi: [0.0, 0.3, 0.6][delay_sel],
            ..FaultConfig::quiet(seed)
        }));
        e.enable_watchdog(Cycles(quantum / 2 + 100));
        let mut expect = Vec::new();
        for &(cpu, iters, cost) in &tasks {
            e.spawn(cpu, Box::new(LoopWork::new(iters, Cycles(cost))));
            expect.push(iters * cost);
        }
        // Joiners block on a loop task, usually one on another CPU.
        for &(cpu, target, cost) in &joiners {
            let target = (target % tasks.len()) as u64;
            e.spawn(cpu, Box::new(ScriptedWork::new(vec![
                WorkStep::Compute(Cycles(cost)),
                WorkStep::Yield,
                WorkStep::Block(target),
                WorkStep::Compute(Cycles(cost)),
                WorkStep::Done,
            ])));
            expect.push(2 * cost);
        }
        prop_assert!(e.run(), "the watchdog rescues every lost kick");
        let executed: Vec<u64> = e.stats.task_executed.iter().map(|c| c.get()).collect();
        prop_assert_eq!(executed, expect);
        prop_assert!(sink.verify_attribution(e.attribution_clock()).is_ok());
        let checks = sink.counter("kernel.watchdog.checks");
        prop_assert_eq!(checks, e.stats.watchdog_checks);
        prop_assert_eq!(
            sink.counter("core.evq.popped"),
            sink.counter("kernel.sched.dispatches") + checks
        );
        // The watchdog sets one timer per scan (the enabling one, then one
        // per scan but the last) and never retracts it, so every retraction
        // is a kick's.
        prop_assert_eq!(
            sink.counter("core.evq.scheduled"),
            sink.counter("core.evq.popped") + sink.counter("core.evq.cancelled")
        );
    }
}
