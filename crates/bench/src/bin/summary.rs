//! One-screen scoreboard: every headline claim, regenerated at reduced
//! scale in a few seconds. The full-scale binaries (fig3..tab_*) remain the
//! reference; this is the "is everything still standing?" view.
//!
//! Besides the printed table, the run writes `BENCH_summary.json` — one
//! record per experiment with its claim, the [`StackConfig`] composition
//! it measures, the measured headline and wall-clock — so CI and
//! bookkeeping scripts can diff results without scraping stdout. The
//! schema lives in `interweave_bench::harness` ([`BenchSummary`]) and
//! every entry's composition is validated through the facade's
//! `StackBuilder` before the section runs.

use interweave_bench::harness::{
    section, section_sharded, BenchSummary, Cli, ExperimentSummary, FaultBreakdownEntry,
    MetricsSeries, MetricsWindow, PrimitiveEntry,
};
use interweave_bench::{f, print_table, s};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{StackConfig, TimingSource};
use interweave_core::telemetry::CounterEntry;
use interweave_core::Cycles;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let shards = Cli::parse().shards;
    let mut entries: Vec<ExperimentSummary> = Vec::new();
    let xeon = MachineConfig::xeon_server_2s();

    section(
        &mut entries,
        "Fig 3",
        "NK and Aster sustain ♥=20µs; Linux cannot",
        StackConfig::nautilus(),
        xeon.clone().with_cores(16),
        || {
            use interweave_core::stack::OsPoint;
            use interweave_heartbeat::sim::{run_heartbeat, HeartbeatConfig};
            let frac = |os| {
                let mut cfg = HeartbeatConfig::fig3(os, 20.0, Cycles(1000));
                cfg.duration_us = 10_000.0;
                100.0 * run_heartbeat(&cfg).fraction_of_target()
            };
            format!(
                "NK {:.0}%, Aster {:.0}%, Linux {:.0}% of target",
                frac(OsPoint::NkLike),
                frac(OsPoint::AsterLike),
                frac(OsPoint::LinuxLike)
            )
        },
    );

    section(
        &mut entries,
        "framekernel",
        "Aster mid-point: between the endpoints on 9 of 10 primitives",
        StackConfig::framekernel(),
        xeon.clone(),
        || {
            use interweave_kernel::microbench::primitive_table;
            use interweave_kernel::os::{AsterModel, LinuxModel, NkModel};
            let mc = MachineConfig::xeon_server_2s();
            let lx = LinuxModel::new(mc.clone());
            let fk = AsterModel::new(mc.clone());
            let nk = NkModel::new(mc);
            let t = primitive_table(&[("Linux", &lx), ("Aster", &fk), ("Nautilus", &nk)]);
            let between = t
                .iter()
                .filter(|r| r.costs[2] <= r.costs[1] && r.costs[1] <= r.costs[0])
                .count();
            format!("{between} of {} primitives between", t.len())
        },
    );

    section(
        &mut entries,
        "Fig 4",
        "fiber granularity < 600 cycles",
        StackConfig {
            timing: TimingSource::CompilerInjected,
            ..StackConfig::nautilus()
        },
        MachineConfig::phi_knl(),
        || {
            use interweave_core::stack::OsPoint;
            use interweave_kernel::threads::{switch_cost, SwitchKind};
            let knl = MachineConfig::phi_knl();
            let fiber = switch_cost(
                &knl,
                OsPoint::NkLike,
                SwitchKind::FiberCompilerTimed,
                false,
                false,
            )
            .total();
            format!("{fiber}")
        },
    );

    section(
        &mut entries,
        "Fig 6",
        "RTK ≈ +22% geomean over Linux",
        StackConfig::rtk(),
        MachineConfig::phi_knl(),
        || {
            use interweave_omp::nas::bt;
            use interweave_omp::sim::run_omp;
            use interweave_omp::OmpMode;
            let knl = MachineConfig::phi_knl();
            let lx = run_omp(&bt(), OmpMode::LinuxUser, 32, &knl, 42).total;
            let rtk = run_omp(&bt(), OmpMode::Rtk, 32, &knl, 42).total;
            format!("BT @32c: {:.2}x", lx.as_f64() / rtk.as_f64())
        },
    );

    section_sharded(
        &mut entries,
        "Fig 7",
        "selective coherence ≈1.46x, −53% NoC energy",
        StackConfig::interwoven(),
        xeon.clone(),
        shards,
        || {
            use interweave_coherence::experiment::{
                fig7_reduced_sharded, mean_energy_reduction, mean_speedup,
            };
            let r = fig7_reduced_sharded(24, 11, 4, shards);
            format!(
                "{:.2}x, −{:.0}%",
                mean_speedup(&r),
                100.0 * mean_energy_reduction(&r)
            )
        },
    );

    section(
        &mut entries,
        "§IV-A",
        "CARAT <6% geomean (naive is costly)",
        StackConfig::pik(),
        xeon.clone(),
        || {
            use interweave_carat::overhead::{geomean_overheads, run_suite};
            let (naive, opt) = geomean_overheads(&run_suite(2));
            format!("{opt:.1}% optimized / {naive:.0}% naive")
        },
    );

    section(
        &mut entries,
        "§IV-D",
        "virtine start-up ≈ 100 µs",
        StackConfig::interwoven(),
        xeon.clone(),
        || {
            use interweave_virtines::wasp::{startup, LaunchPath};
            format!("{}", startup(LaunchPath::VirtineCold).total())
        },
    );

    section(
        &mut entries,
        "§V-D",
        "dispatch 100–1000x cheaper",
        StackConfig::nautilus(),
        xeon.clone().with_pipeline_interrupts(),
        || {
            let mc = MachineConfig::xeon_server_2s();
            let pipe = mc.clone().with_pipeline_interrupts();
            format!(
                "{}x ({} → {})",
                mc.dispatch_cost().get() / pipe.dispatch_cost().get(),
                mc.dispatch_cost(),
                pipe.dispatch_cost()
            )
        },
    );

    section(
        &mut entries,
        "§V-C",
        "polled drivers, zero interrupts",
        StackConfig::nautilus(),
        xeon.clone(),
        || {
            use interweave_blend::polling::{run_device_experiment, DeviceConfig, DriveMode};
            use interweave_ir::programs;
            let mc = MachineConfig::xeon_server_2s();
            let r = run_device_experiment(
                &programs::stencil1d(64, 8),
                &DeviceConfig {
                    mean_gap: 4_000,
                    handler: 250,
                    seed: 21,
                },
                &mc,
                DriveMode::BlendedPolling,
            );
            format!("{} events, {} interrupts", r.serviced, r.interrupts)
        },
    );

    section(
        &mut entries,
        "simulator",
        "interpreter throughput (page-backed memory)",
        StackConfig::commodity(),
        xeon.clone(),
        || {
            use interweave_ir::interp::{Interp, InterpConfig, NullHooks};
            use interweave_ir::programs;
            // A memory-heavy kernel: the rate here is what every experiment
            // binary's wall-clock scales with.
            let prog = programs::stencil1d(4096, 4);
            let mut it = Interp::new(InterpConfig::default());
            it.start(&prog.module, prog.entry, &prog.args);
            let start = Instant::now();
            let result = it.run_to_completion(&prog.module, &mut NullHooks);
            let secs = start.elapsed().as_secs_f64();
            assert!(result.is_some(), "stencil kernel must run to completion");
            format!("{:.1} Minst/s", it.stats.insts as f64 / secs / 1e6)
        },
    );

    section(
        &mut entries,
        "§III",
        "primitives orders of magnitude faster",
        StackConfig::nautilus(),
        xeon.clone(),
        || {
            use interweave_kernel::microbench::primitive_table;
            use interweave_kernel::os::{AsterModel, LinuxModel, NkModel};
            let mc = MachineConfig::xeon_server_2s();
            let lx = LinuxModel::new(mc.clone());
            let fk = AsterModel::new(mc.clone());
            let nk = NkModel::new(mc);
            let t = primitive_table(&[("Linux", &lx), ("Aster", &fk), ("Nautilus", &nk)]);
            let create = t.iter().find(|r| r.name == "thread create").expect("row");
            format!("thread create {}x", f(create.speedup(0, 2), 0))
        },
    );

    let mut counters: Vec<CounterEntry> = Vec::new();
    section(
        &mut entries,
        "telemetry",
        "every cycle attributed; plane off by default",
        StackConfig::nautilus(),
        xeon.clone().with_cores(4),
        || {
            use interweave_core::telemetry::{Level, Sink};
            use interweave_kernel::work::LoopWork;
            use interweave_kernel::Executor;
            let mc = MachineConfig::xeon_server_2s().with_cores(4);
            let mut e = Executor::new(mc, Cycles(10_000));
            let sink = Sink::on(Level::Counters);
            e.set_telemetry(sink.clone());
            for cpu in 0..4 {
                e.spawn(cpu, Box::new(LoopWork::new(20, Cycles(400))));
            }
            assert!(e.run(), "scoreboard workload must quiesce");
            sink.verify_attribution(e.attribution_clock())
                .expect("every cycle attributed");
            let snap = sink.snapshot().expect("sink is on");
            let n = snap.counters.len();
            counters = snap.counters;
            format!("{n} counters, 100% of {} attributed", e.attribution_clock())
        },
    );

    let mut fault_breakdown: Vec<FaultBreakdownEntry> = Vec::new();
    let mut serve_timeseries: Vec<MetricsWindow> = Vec::new();
    section_sharded(
        &mut entries,
        "serving",
        "chaos serving: bounded tails, balanced fault ledger",
        StackConfig::interwoven(),
        xeon.clone(),
        shards,
        || {
            use interweave_core::arrivals::ArrivalKind;
            use interweave_core::time::Cycles;
            use interweave_core::{FaultClass, FaultConfig};
            use interweave_ir::programs;
            use interweave_ir::types::Val;
            use interweave_kernel::watchdog::WatchdogPolicy;
            use interweave_virtines::extract::extract_one;
            use interweave_virtines::serve::{
                run_serve, MetricsPolicy, PoolOptions, RetryPolicy, ServeConfig, ServiceProfile,
            };
            let prog = programs::fib(10);
            let image = extract_one(&prog.module, prog.entry);
            let args = [Val::I(10)];
            let profile = ServiceProfile::calibrate(&image, &args, u64::MAX / 4);
            let mc = MachineConfig::xeon_server_2s();
            let cfg = ServeConfig {
                arrival: ArrivalKind::Poisson,
                mean_gap_us: 6.0,
                duration_us: 30_000.0,
                seed: 0x5EED_BEEF,
                workers: 6,
                queue_cap: 8,
                deadline_slack_us: 400.0,
                budget: profile.guest_cycles + profile.guest_cycles / 3 + 2,
                pool: PoolOptions {
                    cache_capacity: 32,
                    prewarm: 2,
                    retry: RetryPolicy {
                        max_attempts: 4,
                        base: Cycles(2_000),
                        cap: Cycles(16_000),
                        jitter_frac: 0.25,
                    },
                },
                faults: FaultConfig {
                    virtine_kill: 0.10,
                    drop_ipi: 0.05,
                    alloc_fail: 0.05,
                    ..FaultConfig::quiet(0xC4A0)
                },
                watchdog: WatchdogPolicy::new(Cycles(100_000)),
                // Streaming sinks on: the scoreboard exercises the bounded
                // observability path and embeds the windowed trajectory.
                metrics: MetricsPolicy::Windowed {
                    window: Cycles(6_600_000),
                },
                blackbox: 32,
            };
            let r = run_serve(&image, &args, &mc, &cfg, shards);
            assert!(r.accounts_balanced(), "fault ledger must balance");
            if let Some(ts) = &r.series {
                serve_timeseries = MetricsSeries::from_series(ts).windows;
            }
            fault_breakdown = FaultClass::ALL
                .iter()
                .map(|&c| {
                    let a = r.account(c);
                    FaultBreakdownEntry {
                        class: c.name().to_string(),
                        injected: a.injected,
                        recovered: a.recovered,
                        shed: a.shed,
                        absorbed: a.absorbed,
                    }
                })
                .collect();
            format!(
                "{:.0}% goodput, p99 {:.0} µs, {} faults accounted",
                100.0 * r.goodput(),
                r.latency_us.p99(),
                fault_breakdown.iter().map(|e| e.injected).sum::<u64>()
            )
        },
    );

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| vec![s(&e.experiment), s(&e.claim), s(&e.measured)])
        .collect();
    print_table(
        "Interweave scoreboard — every headline claim at reduced scale",
        &["experiment", "claim", "measured"],
        &rows,
    );

    // The machine-readable TAB-NK: every §III primitive priced on all
    // three points of the OS axis.
    let primitives: Vec<PrimitiveEntry> = {
        use interweave_kernel::microbench::primitive_table;
        use interweave_kernel::os::{AsterModel, LinuxModel, NkModel};
        let mc = MachineConfig::xeon_server_2s();
        let lx = LinuxModel::new(mc.clone());
        let fk = AsterModel::new(mc.clone());
        let nk = NkModel::new(mc);
        primitive_table(&[("Linux", &lx), ("Aster", &fk), ("Nautilus", &nk)])
            .into_iter()
            .map(|r| PrimitiveEntry {
                name: r.name.to_string(),
                linux_cycles: r.costs[0].get(),
                aster_cycles: r.costs[1].get(),
                nautilus_cycles: r.costs[2].get(),
            })
            .collect()
    };

    let summary = BenchSummary {
        total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        experiments: entries,
        counters,
        fault_breakdown,
        serve_timeseries,
        primitives,
    };
    let json = serde_json::to_string_pretty(&summary).expect("serializable summary");
    std::fs::write("BENCH_summary.json", json).expect("writable BENCH_summary.json");
    println!("\n(machine-readable results written to BENCH_summary.json)");
    println!("\nFull-scale runs: fig3_heartbeat fig4_fibers fig6_openmp fig7_coherence");
    println!("                 tab_carat tab_primitives tab_virtines tab_pipeline tab_blend tab_ablations");
    println!("                 tab_faults tab_profile tab_serve");
}
