//! TAB-SERVE — open-loop virtine serving under chaos.
//!
//! A serving plane pushes seeded open-loop arrivals (requests do not wait
//! for completions, so queueing collapse is observable) through
//! independent FIFO workers, each over a Wasp snapshot pool serving a
//! calibrated service profile, and sweeps
//! offered load across the saturation knee while a [`FaultConfig`] chaos
//! plan scales with it. Robustness machinery under test:
//!
//! - admission control: per-worker queue-depth caps plus predicted-wait
//!   deadline shedding — overload degrades into *accounted* shedding, the
//!   tail of admitted requests stays bounded;
//! - bounded retry: killed virtines restart from snapshot with exponential
//!   backoff + seeded jitter, then surface a typed error when the budget
//!   exhausts (the request is shed, not lost);
//! - watchdog reclaim: completion kicks dropped by the delivery fabric are
//!   picked up at the next watchdog scan (latency cost, never a hang);
//! - snapshot-cache admission: alloc-fault pressure evicts warm snapshots
//!   and the next request pays a cold start — the "layered" scenario
//!   (cache capacity 0, every request cold-boots) shows what the tail
//!   looks like without an interwoven pool.
//!
//! Every fault class keeps a ledger: `injected == recovered + shed +
//! absorbed`, asserted per class. The whole sweep is driven by one fixed
//! seed, and the workers run on the host's cores but merge in worker
//! order: two runs — on any host, at any thread count — are
//! byte-identical, which `tests/goldens.rs` asserts for a second run.
//!
//! Knobs (golden runs pass none): `--offered-load <x>` serves a single
//! load point at `x`× the calibrated saturation capacity instead of the
//! sweep; `--duration-ms <ms>` and `--arrival <poisson|bursty|diurnal>`
//! override the run length and the arrival process. Latency is always
//! recorded into a fixed-memory quantile sketch, so memory stays flat over
//! million-invocation campaigns. `--metrics-out <path>` additionally rolls
//! every run into windows and writes the windowed
//! offered/completed/shed/p50/p99 trajectory as JSON; `--window-cycles <n>` overrides the roll-up width (default
//! 6.6 M cycles = 2 ms of simulated time). With `--metrics-out` set,
//! `--trace-out <path>` additionally exports the trajectory as Perfetto
//! counter tracks.

use crate::harness::{Cli, Composed, Harness, MetricsSeries, Report, Scenario, ScenarioError};
use crate::{f, pct, s, Cell};
use interweave_core::arrivals::ArrivalKind;
use interweave_core::machine::MachineConfig;
use interweave_core::par::host_threads;
use interweave_core::stack::StackConfig;
use interweave_core::time::Cycles;
use interweave_core::{FaultClass, FaultConfig};
use interweave_ir::programs;
use interweave_ir::types::Val;
use interweave_kernel::watchdog::WatchdogPolicy;
use interweave_virtines::extract::extract_one;
use interweave_virtines::serve::{
    run_serve, MetricsPolicy, PoolOptions, RetryPolicy, ServeConfig, ServeReport, ServiceProfile,
};
use interweave_virtines::wasp::snapshot_restore;

/// The campaign seed. Fixed: the whole point is a bit-reproducible run.
const SEED: u64 = 0x5E4E;

/// Offered-load sweep, as multiples of the calibrated saturation capacity.
const SWEEP: [f64; 5] = [0.3, 0.6, 0.9, 1.2, 1.5];

/// Chaos rates at 1.0× load; the plan scales linearly with offered load
/// (more traffic, more faults), capped well below certainty.
const BASE_KILL: f64 = 0.10;
const BASE_DROP_KICK: f64 = 0.05;
const BASE_CACHE_OOM: f64 = 0.05;

/// Logical serving workers. Fixed — the report is identical at every host
/// thread count, so this is a model parameter, not a thread count.
const WORKERS: usize = 8;

/// Tail bound the admission control must hold for admitted requests at
/// every load point, µs. Generous against the measured knee (p99 ≈ 450 µs
/// at 1.5×) but far below the seconds-long open-loop collapse that an
/// uncontrolled queue produces at the same load.
const P99_BOUND_US: f64 = 2_000.0;

/// Default streaming roll-up window: 2 ms of simulated time at the
/// 3.3 GHz server clock.
const DEFAULT_WINDOW_CYCLES: u64 = 6_600_000;

/// Per-worker flight-recorder ring capacity. The recorder is passive —
/// it surfaces only in the blackbox dump attached to a fault-ledger
/// panic — so keeping it armed costs nothing on pinned stdout.
const BLACKBOX_EVENTS: usize = 64;

/// The chaos plan at `load_x`× saturation.
fn chaos(load_x: f64) -> FaultConfig {
    FaultConfig {
        virtine_kill: (BASE_KILL * load_x).min(0.5),
        drop_ipi: (BASE_DROP_KICK * load_x).min(0.5),
        alloc_fail: (BASE_CACHE_OOM * load_x).min(0.5),
        ..FaultConfig::quiet(SEED ^ 0xC4A05)
    }
}

pub(super) fn scenarios() -> Vec<Scenario> {
    let mc = MachineConfig::xeon_server_2s();
    vec![
        Scenario::new("interwoven", StackConfig::interwoven(), mc.clone()),
        Scenario::new("layered", StackConfig::commodity(), mc.clone()),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    let mc = sc[0].stack.machine();
    let threads = host_threads();

    // Calibrate the service from one real isolated execution, then derive
    // the saturation capacity from the warm-path arithmetic the pool
    // charges per request.
    let prog = programs::fib(12);
    let image = extract_one(&prog.module, prog.entry);
    let args = [Val::I(12)];
    let profile = ServiceProfile::calibrate(&image, &args, u64::MAX / 4);
    assert!(profile.ok, "calibration run must return");
    let warm =
        snapshot_restore(profile.dirty_pages).total_cycles(mc) + Cycles(profile.guest_cycles);
    let warm_us = mc.freq.us(warm).get();
    // WORKERS warm servers drain one request per `warm_us` each: offered
    // load 1.0× means a global mean gap of `warm_us / WORKERS`.
    let sat_gap_us = warm_us / WORKERS as f64;

    let retry = RetryPolicy {
        max_attempts: 4,
        base: Cycles(2_000),
        cap: Cycles(16_000),
        jitter_frac: 0.25,
    };
    let arrival = cli.arrival.unwrap_or(ArrivalKind::Poisson);
    let duration_us = cli.duration_ms.unwrap_or(40.0) * 1e3;
    let loads: Vec<f64> = match cli.offered_load {
        Some(x) => vec![x],
        None => SWEEP.to_vec(),
    };
    // `--metrics-out` adds windowed trajectories to every run; golden runs
    // pass no flags and record only the run-level sketch.
    let metrics = match cli.metrics_out {
        Some(_) => MetricsPolicy::Windowed {
            window: Cycles(cli.window_cycles.unwrap_or(DEFAULT_WINDOW_CYCLES)),
        },
        None => MetricsPolicy::Sketched,
    };
    let cfg_at =
        |arrival: ArrivalKind, load_x: f64, cache_capacity: usize, prewarm: usize| ServeConfig {
            arrival,
            mean_gap_us: sat_gap_us / load_x,
            duration_us,
            seed: SEED,
            workers: WORKERS,
            queue_cap: 8,
            deadline_slack_us: 400.0,
            budget: profile.guest_cycles + profile.guest_cycles / 3 + 2,
            pool: PoolOptions {
                cache_capacity,
                prewarm,
                retry,
            },
            faults: chaos(load_x),
            watchdog: WatchdogPolicy::new(Cycles(100_000)),
            metrics,
            blackbox: BLACKBOX_EVENTS,
        };

    // ── Curve 1: goodput and tails vs offered load, interwoven pool vs
    // layered cold-boot serving, chaos scaling with load. ──
    let mut rows = Vec::new();
    let mut knee: Option<(Cell, ServeReport)> = None;
    let mut metrics_series: Option<MetricsSeries> = None;
    for &load_x in &loads {
        let iw = run_serve(&image, &args, mc, &cfg_at(arrival, load_x, 32, 2), threads);
        let ly = run_serve(&image, &args, mc, &cfg_at(arrival, load_x, 0, 0), threads);
        if let Some(ts) = &iw.series {
            metrics_series = Some(MetricsSeries::from_series(ts));
        }
        for r in [&iw, &ly] {
            assert!(
                r.accounts_balanced(),
                "fault ledger must balance at {load_x}x"
            );
            assert_eq!(
                r.offered,
                r.completed + r.shed(),
                "requests must be conserved"
            );
        }
        assert!(
            iw.latency_us.p99() <= P99_BOUND_US,
            "admitted p99 {} µs breaches the shedding bound at {load_x}x",
            iw.latency_us.p99()
        );
        let label = Cell::float(load_x, 1, "x");
        rows.push(vec![
            label.clone(),
            s(iw.offered),
            pct(100.0 * iw.goodput(), 1),
            f(iw.latency_us.p50(), 0),
            f(iw.latency_us.p99(), 0),
            f(iw.latency_us.p999(), 0),
            s(format!(
                "{}/{}/{}",
                iw.shed_queue, iw.shed_deadline, iw.shed_retry
            )),
            pct(100.0 * ly.goodput(), 1),
            f(ly.latency_us.p99(), 0),
        ]);
        if load_x >= 1.49 {
            knee = Some((label, iw));
        }
    }
    // The headline is the last (harshest) load point of the curve.
    let last = rows.last().expect("at least one load point");
    let mut headline = format!("{} goodput, p99 {} µs at {}", last[2], last[4], last[0]);
    h.table(
        &format!(
            "TAB-SERVE — open-loop {} serving vs offered load (seed {SEED:#x}, {WORKERS} workers, chaos scales with load)",
            arrival.name()
        ),
        &[
            "load",
            "offered",
            "goodput",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "shed q/d/r",
            "layered goodput",
            "layered p99 µs",
        ],
        rows,
    );

    // ── Curve 2: arrival-shape sensitivity at the 0.9× knee. ──
    if cli.offered_load.is_none() {
        let mut rows = Vec::new();
        for &kind in ArrivalKind::ALL.iter() {
            let r = run_serve(&image, &args, mc, &cfg_at(kind, 0.9, 32, 2), threads);
            assert!(
                r.accounts_balanced(),
                "ledger must balance for {}",
                kind.name()
            );
            rows.push(vec![
                s(kind.name()),
                s(r.offered),
                pct(100.0 * r.goodput(), 1),
                f(r.latency_us.p50(), 0),
                f(r.latency_us.p99(), 0),
                f(r.latency_us.p999(), 0),
                s(r.wd_reclaims),
            ]);
        }
        h.table(
            "TAB-SERVE — arrival-shape sensitivity at 0.9x load",
            &[
                "arrival",
                "offered",
                "goodput",
                "p50 µs",
                "p99 µs",
                "p999 µs",
                "wd reclaims",
            ],
            rows,
        );
    }

    // ── Ledger: where every injected fault landed, at the harshest point
    // of the sweep. ──
    if let Some((load, peak)) = &knee {
        let accounts = FaultClass::ALL.map(|class| (class, peak.account(class)));
        for (class, a) in &accounts {
            assert_eq!(
                a.injected,
                a.recovered + a.shed + a.absorbed,
                "{} ledger must balance",
                class.name()
            );
        }
        let injected_total: u64 = accounts.iter().map(|(_, a)| a.injected).sum();
        // Classes that never fired are left out, unless none did: a run
        // too short for the chaos plan to fire shows its all-zero ledger.
        h.table(
            &format!(
                "TAB-SERVE — fault ledger at {load} load (injected == recovered + shed + absorbed)"
            ),
            &["fault class", "injected", "recovered", "shed", "absorbed"],
            accounts
                .iter()
                .filter(|(_, a)| a.injected > 0 || injected_total == 0)
                .map(|(class, a)| {
                    vec![
                        s(class.name()),
                        s(a.injected),
                        s(a.recovered),
                        s(a.shed),
                        s(a.absorbed),
                    ]
                }),
        );
        if injected_total == 0 {
            h.note(format!(
                "no fault injected at the {load} point: the run is too short for the chaos plan to fire"
            ));
        } else {
            h.note(format!(
                "{injected_total} faults injected at the {load} point; every one recovered or accounted as shed; \
                 admitted p99 stayed under {P99_BOUND_US:.0} µs at every load",
            ));
        }
        headline += &format!("; {injected_total} faults accounted");
    }

    // ── Streaming exports: the interwoven trajectory at the last swept
    // load, as windowed JSON and (optionally) Perfetto counter tracks. ──
    if let Some(series) = &metrics_series {
        h.metrics(series);
        h.trace(
            &[],
            &series.counter_tracks(),
            mc.freq.cycles_per_us(1.0).get(),
        );
    }

    Ok(h.finish(&sc[0], headline))
}
