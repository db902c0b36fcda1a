//! An echo-service latency study: virtines under load.
//!
//! §IV-D motivates virtines with FaaS-style services. This experiment
//! drives a single-worker event loop with a Poisson request stream; each
//! request runs a handler function in an isolated context. Compared
//! configurations: cold-start per request (no pooling), a Wasp snapshot
//! pool, and a process-per-request baseline — reporting the latency
//! distribution (mean / p99), which is what a service operator actually
//! provisions against.

use crate::extract::VirtineImage;
use crate::serve::{PoolOptions, RetryPolicy, ServeError, ServiceProfile, WaspPool};
use crate::wasp::{startup, LaunchPath};
use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::stats::{Sketch, Summary};
use interweave_core::time::Cycles;
use interweave_core::FaultPlan;
use interweave_ir::types::Val;

/// Isolation strategy for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// fork+exec a helper process per request.
    ProcessPerRequest,
    /// Boot a fresh virtine per request (no pool).
    VirtineCold,
    /// Wasp pool with snapshot reuse.
    VirtinePooled,
}

impl ServeMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServeMode::ProcessPerRequest => "process/request",
            ServeMode::VirtineCold => "virtine (cold)",
            ServeMode::VirtinePooled => "virtine (pooled)",
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct EchoConfig {
    /// Requests to serve.
    pub requests: usize,
    /// Mean inter-arrival gap in µs (Poisson).
    pub mean_gap_us: f64,
    /// Handler argument (controls execution time).
    pub handler_arg: i64,
    /// Seed for arrivals.
    pub seed: u64,
}

impl Default for EchoConfig {
    fn default() -> EchoConfig {
        EchoConfig {
            requests: 200,
            mean_gap_us: 150.0,
            handler_arg: 12,
            seed: 31,
        }
    }
}

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct EchoReport {
    /// Serving strategy.
    pub mode: ServeMode,
    /// Requests served.
    pub served: usize,
    /// End-to-end latency distribution in µs (arrival → response).
    pub latency_us: Summary,
    /// Approximate p99 latency in µs (a [`Sketch`] quantile, relative error
    /// ≤ 2⁻⁷). When `p99_clamped` is set this is only a lower bound: the
    /// rank landed past the sketch's tracked range and the value is the
    /// range ceiling.
    pub p99_us: f64,
    /// True when the p99 rank overflowed the sketch range; tables must
    /// then print the value as a bound and surface `tail_overflow`.
    pub p99_clamped: bool,
    /// Fraction of requests whose latency overflowed the tracked range.
    pub tail_overflow: f64,
    /// Cold starts performed.
    pub cold_starts: u64,
}

/// Serve the request stream under one strategy. One calibrated
/// [`ServiceProfile`] prices every mode: the virtine modes through a
/// [`WaspPool`] (capacity 0 for cold, capacity 1 prewarmed for pooled),
/// the process mode as its start-up plus the profiled guest cycles.
pub fn run_echo(
    image: &VirtineImage,
    mc: &MachineConfig,
    cfg: &EchoConfig,
    mode: ServeMode,
) -> EchoReport {
    const BUDGET: u64 = u64::MAX / 4;
    let mut rng = SplitMix64::new(cfg.seed);
    let freq = mc.freq;
    let profile = ServiceProfile::calibrate(image, &[Val::I(cfg.handler_arg)], BUDGET);
    let process = startup(LaunchPath::Process).total_cycles(mc) + Cycles(profile.guest_cycles);
    let mut pool = (mode != ServeMode::ProcessPerRequest).then(|| {
        let warm = usize::from(mode == ServeMode::VirtinePooled);
        let opts = PoolOptions {
            cache_capacity: warm,
            prewarm: warm,
            retry: RetryPolicy::immediate(1),
        };
        WaspPool::new(mc.clone(), opts, 0)
    });
    let mut quiet = FaultPlan::quiet(cfg.seed);

    // Single-worker queueing: requests arrive Poisson; the worker serves
    // FIFO; latency = wait + service (start-up + execution).
    let mut arrive = 0f64; // µs
    let mut free_at = Cycles::ZERO;
    let mut latency = Summary::new();
    let mut tail = Sketch::for_latency_us();
    for _ in 0..cfg.requests {
        arrive += rng.exponential(cfg.mean_gap_us);
        let arrive_cyc = freq.cycles_per_us(arrive);
        let start = arrive_cyc.max(free_at);
        let cost = pool.as_mut().map_or(process, |pool| {
            match pool.invoke_recovering(BUDGET, &mut quiet, |fuel| profile.run(fuel), |_| {}) {
                Ok(served) => served.latency,
                Err(ServeError::RetriesExhausted { spent, .. }) => spent,
            }
        });
        free_at = start + cost;
        let lat_us = freq.us(free_at - arrive_cyc).get();
        latency.add(lat_us);
        tail.add(lat_us);
    }

    let (p99_us, p99_clamped) = tail.quantile_clamped(0.99).unwrap_or((0.0, false));
    EchoReport {
        mode,
        served: cfg.requests,
        p99_us,
        p99_clamped,
        tail_overflow: tail.overflow_fraction(),
        latency_us: latency,
        // Every process-per-request launch is a cold start.
        cold_starts: pool.map_or(cfg.requests as u64, |p| p.stats.cold_starts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_one;
    use interweave_ir::programs;

    fn setup() -> (VirtineImage, MachineConfig, EchoConfig) {
        let fib = programs::fib(12);
        (
            extract_one(&fib.module, fib.entry),
            MachineConfig::xeon_server_2s(),
            EchoConfig::default(),
        )
    }

    #[test]
    fn pooled_virtines_beat_cold_on_mean_and_tail() {
        let (img, mc, cfg) = setup();
        let cold = run_echo(&img, &mc, &cfg, ServeMode::VirtineCold);
        let pooled = run_echo(&img, &mc, &cfg, ServeMode::VirtinePooled);
        assert!(pooled.latency_us.mean() < cold.latency_us.mean());
        assert!(pooled.p99_us <= cold.p99_us);
        assert!(
            pooled.cold_starts <= 2,
            "pool should reuse: {}",
            pooled.cold_starts
        );
    }

    #[test]
    fn cold_virtines_beat_processes() {
        let (img, mc, cfg) = setup();
        let proc = run_echo(&img, &mc, &cfg, ServeMode::ProcessPerRequest);
        let cold = run_echo(&img, &mc, &cfg, ServeMode::VirtineCold);
        assert!(
            cold.latency_us.mean() < proc.latency_us.mean(),
            "virtine {:.1}µs vs process {:.1}µs",
            cold.latency_us.mean(),
            proc.latency_us.mean()
        );
    }

    #[test]
    fn overload_shows_up_in_the_tail() {
        // Arrivals faster than the process path can serve → queueing blows
        // the tail; pooled virtines absorb the same load.
        let (img, mc, mut cfg) = setup();
        cfg.mean_gap_us = 120.0;
        let proc = run_echo(&img, &mc, &cfg, ServeMode::ProcessPerRequest);
        let pooled = run_echo(&img, &mc, &cfg, ServeMode::VirtinePooled);
        assert!(
            proc.p99_us > 3.0 * pooled.p99_us,
            "process p99 {:.0}µs vs pooled {:.0}µs",
            proc.p99_us,
            pooled.p99_us
        );
    }

    #[test]
    fn p99_within_the_sketch_range_is_not_clamped() {
        // The latency sketch tracks up to 2^31 µs; every strategy's tail
        // sits in the low milliseconds, so the report must never claim a
        // clamp — the golden tables print the plain value.
        let (img, mc, cfg) = setup();
        for mode in [
            ServeMode::ProcessPerRequest,
            ServeMode::VirtineCold,
            ServeMode::VirtinePooled,
        ] {
            let r = run_echo(&img, &mc, &cfg, mode);
            assert!(!r.p99_clamped, "{}: p99 claimed a clamp", mode.name());
            assert_eq!(r.tail_overflow, 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (img, mc, cfg) = setup();
        let a = run_echo(&img, &mc, &cfg, ServeMode::VirtinePooled);
        let b = run_echo(&img, &mc, &cfg, ServeMode::VirtinePooled);
        assert_eq!(a.latency_us.count(), b.latency_us.count());
        assert!((a.latency_us.mean() - b.latency_us.mean()).abs() < 1e-9);
    }
}
