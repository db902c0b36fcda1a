//! Property tests for the serving plane: for arbitrary load, chaos rates,
//! arrival shapes, and topology, a serving run is thread-invariant and
//! deterministic, its fault ledger balances, and its request conservation
//! holds (offered == completed + shed).

use interweave_core::arrivals::ArrivalKind;
use interweave_core::machine::MachineConfig;
use interweave_core::time::Cycles;
use interweave_core::FaultConfig;
use interweave_ir::programs;
use interweave_ir::types::Val;
use interweave_kernel::watchdog::WatchdogPolicy;
use interweave_virtines::extract::extract_one;
use interweave_virtines::serve::{
    run_serve, MetricsPolicy, PoolOptions, RetryPolicy, ServeConfig, ServiceProfile,
};
use proptest::prelude::*;

fn cfg(
    arrival: ArrivalKind,
    mean_gap_us: f64,
    seed: u64,
    workers: usize,
    chaos: (f64, f64, f64),
    budget: u64,
    metrics: MetricsPolicy,
) -> ServeConfig {
    let (kill, drop_ipi, alloc_fail) = chaos;
    ServeConfig {
        arrival,
        mean_gap_us,
        duration_us: 20_000.0,
        seed,
        workers,
        queue_cap: 6,
        deadline_slack_us: 300.0,
        budget,
        pool: PoolOptions {
            cache_capacity: 32,
            prewarm: 1,
            retry: RetryPolicy {
                max_attempts: 4,
                base: Cycles(2_000),
                cap: Cycles(16_000),
                jitter_frac: 0.25,
            },
        },
        faults: FaultConfig {
            virtine_kill: kill,
            drop_ipi,
            alloc_fail,
            ..FaultConfig::quiet(seed ^ 0xFA)
        },
        watchdog: WatchdogPolicy::new(Cycles(50_000)),
        metrics,
        blackbox: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any configuration — with or without windowed metrics — yields a report that is bit-identical
    /// across host thread counts and across repeated runs, conserves requests,
    /// and keeps every fault class's ledger balanced.
    #[test]
    fn serve_is_shard_invariant_conserving_and_balanced(
        arrival_sel in 0usize..3,
        gap_sel in 0usize..3,
        workers in 1usize..7,
        threads in 1usize..5,
        kill_sel in 0usize..3,
        metrics_sel in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let arrival = ArrivalKind::ALL[arrival_sel];
        let mean_gap_us = [3.0, 12.0, 60.0][gap_sel];
        let kill = [0.0, 0.15, 0.5][kill_sel];
        let metrics = [
            MetricsPolicy::Sketched,
            MetricsPolicy::Windowed { window: Cycles(40_000) },
        ][metrics_sel];

        let prog = programs::fib(9);
        let image = extract_one(&prog.module, prog.entry);
        let args = [Val::I(9)];
        let profile = ServiceProfile::calibrate(&image, &args, u64::MAX / 4);
        let budget = profile.guest_cycles + profile.guest_cycles / 3 + 2;
        let mc = MachineConfig::test(2);
        let c = cfg(arrival, mean_gap_us, seed, workers, (kill, 0.04, 0.04), budget, metrics);

        let base = run_serve(&image, &args, &mc, &c, 1);
        let threaded = run_serve(&image, &args, &mc, &c, threads);
        prop_assert_eq!(&base, &threaded, "thread count changed the report");
        let again = run_serve(&image, &args, &mc, &c, 1);
        prop_assert_eq!(&base, &again, "double run diverged");

        // Request conservation: everything offered is served or shed.
        prop_assert_eq!(
            base.offered,
            base.completed + base.shed_queue + base.shed_deadline + base.shed_retry
        );
        prop_assert_eq!(base.completed, base.latency_us.count());
        prop_assert!(base.accounts_balanced(), "ledger out of balance: {:?}", base.faults);
    }
}
