//! `serve` workload: the open-loop serving plane alone.
//!
//! Set-up extracts a virtine image of `fib(12)` and calibrates its service
//! profile, from which the saturation load of eight warm workers follows.
//! Each chunk is three `run_serve` calls on one host thread, one per
//! arrival shape (Poisson, bursty, diurnal), at 0.6x, 0.9x and 1.2x the
//! saturation load respectively, with load-scaled chaos (guest kills, lost
//! completion kicks, snapshot-cache OOM), each sized for about 15,000
//! requests. Every chunk thus holds the same mix of shapes and loads, and
//! the seed varies the arrival and fault streams. The check recounts
//! each arrival stream independently and verifies request conservation,
//! the per-class fault ledger and the latency sample count. Work unit: one
//! offered request.

use crate::{Tally, Workload};
use interweave_core::arrivals::{ArrivalGen, ArrivalKind};
use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::time::Cycles;
use interweave_core::FaultConfig;
use interweave_ir::programs;
use interweave_ir::types::Val;
use interweave_kernel::watchdog::WatchdogPolicy;
use interweave_virtines::extract::{extract_one, VirtineImage};
use interweave_virtines::serve::{
    run_serve, MetricsPolicy, PoolOptions, RetryPolicy, ServeConfig, ServeReport, ServiceProfile,
};
use interweave_virtines::wasp::snapshot_restore;

/// Logical serving workers.
const WORKERS: usize = 8;
/// Offered requests each serving run is sized for.
const REQUESTS: f64 = 15_000.0;
/// Offered load of each arrival shape's run, as a multiple of the
/// saturation load.
const LOADS: [f64; 3] = [0.6, 0.9, 1.2];

pub struct ServeWorkload {
    image: VirtineImage,
    args: [Val; 1],
    mc: MachineConfig,
    /// Global mean inter-arrival gap at 1.0x load, µs.
    sat_gap_us: f64,
    /// Guest fuel per attempt.
    budget: u64,
}

impl ServeWorkload {
    pub fn setup(mc: MachineConfig) -> ServeWorkload {
        let prog = programs::fib(12);
        let image = extract_one(&prog.module, prog.entry);
        let args = [Val::I(12)];
        let profile = ServiceProfile::calibrate(&image, &args, u64::MAX / 4);
        assert!(profile.ok, "the fib(12) calibration run returns");
        let warm =
            snapshot_restore(profile.dirty_pages).total_cycles(&mc) + Cycles(profile.guest_cycles);
        ServeWorkload {
            image,
            args,
            sat_gap_us: mc.freq.us(warm).get() / WORKERS as f64,
            budget: profile.guest_cycles + profile.guest_cycles / 3 + 2,
            mc,
        }
    }

    /// One serving run of `arrival` at `load` times saturation.
    fn config(&self, arrival: ArrivalKind, load: f64, rng: &mut SplitMix64) -> ServeConfig {
        let mean_gap_us = self.sat_gap_us / load;
        ServeConfig {
            arrival,
            mean_gap_us,
            duration_us: REQUESTS * mean_gap_us,
            seed: rng.next_u64(),
            workers: WORKERS,
            queue_cap: 8,
            deadline_slack_us: 400.0,
            budget: self.budget,
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
                virtine_kill: 0.1 * load,
                drop_ipi: 0.05 * load,
                alloc_fail: 0.05 * load,
                ..FaultConfig::quiet(rng.next_u64())
            },
            watchdog: WatchdogPolicy::new(Cycles(100_000)),
            metrics: MetricsPolicy::Sketched,
            blackbox: 0,
        }
    }
}

impl Workload for ServeWorkload {
    type Input = Vec<ServeConfig>;
    type Output = Vec<ServeReport>;
    const LAYER: &'static str = "serve";

    fn gen(&mut self, rng: &mut SplitMix64) -> Vec<ServeConfig> {
        ArrivalKind::ALL
            .iter()
            .zip(LOADS)
            .map(|(&arrival, load)| self.config(arrival, load, rng))
            .collect()
    }

    fn sim(&mut self, cfgs: &Self::Input) -> Vec<ServeReport> {
        cfgs.iter()
            .map(|cfg| run_serve(&self.image, &self.args, &self.mc, cfg, 1))
            .collect()
    }

    fn check(&self, cfgs: &Self::Input, reports: &Self::Output) -> Result<Tally, String> {
        let mut tally = Tally::default();
        for (cfg, r) in cfgs.iter().zip(reports) {
            check_one(cfg, r)?;
            tally.work += r.offered;
            tally.sim_cycles += self.mc.freq.cycles_per_us(cfg.duration_us).get();
        }
        Ok(tally)
    }
}

/// Verify one serving run against its configuration.
fn check_one(cfg: &ServeConfig, r: &ServeReport) -> Result<(), String> {
    let offered =
        ArrivalGen::new(cfg.arrival, cfg.mean_gap_us, cfg.duration_us, cfg.seed).count() as u64;
    if r.offered != offered {
        return Err(format!("served {} of {offered} arrivals", r.offered));
    }
    if r.offered != r.completed + r.shed() {
        return Err(format!(
            "{} offered != {} completed + {} shed",
            r.offered,
            r.completed,
            r.shed()
        ));
    }
    if !r.accounts_balanced() {
        return Err(format!("fault ledger out of balance: {:?}", r.faults));
    }
    if r.latency_us.count() as u64 != r.completed || r.completed == 0 {
        return Err(format!(
            "{} latency samples for {} completions",
            r.latency_us.count(),
            r.completed
        ));
    }
    Ok(())
}
