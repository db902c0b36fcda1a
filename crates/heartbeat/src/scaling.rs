//! Heartbeat scheduling end-to-end: parallel speedup with bounded
//! promotion overhead.
//!
//! Heartbeat scheduling's theoretical pitch (Acar et al.) is that promotion
//! *only at beats* gives work-stealing's scalability while bounding
//! scheduling overhead by the beat frequency. This module runs the logical
//! TPAL scheduler ([`crate::tpal`]) under a wall-clock cost model — compute
//! cycles per iteration, promotion/steal costs from the kernel models, the
//! per-beat delivery cost of the chosen signaling path — and measures
//! speedup curves. It closes the loop between the Fig. 3 delivery
//! simulation (can the beats arrive?) and the scheduler (what do the beats
//! buy?).

use crate::tpal::Tpal;
use interweave_core::machine::MachineConfig;
use interweave_core::stack::OsPoint;
use interweave_core::time::Cycles;
use interweave_kernel::os::model_for;

/// One scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Machine.
    pub machine: MachineConfig,
    /// Kernel under test (prices the per-beat delivery cost).
    pub kind: OsPoint,
    /// Total loop iterations.
    pub total_iters: u64,
    /// Compute cycles per iteration.
    pub iter_cost: Cycles,
    /// Heartbeat period ♥ in µs.
    pub target_us: f64,
    /// Promotion grain (iterations).
    pub grain: u64,
}

impl ScalingConfig {
    /// A medium loop on the 2-socket server via the Nautilus path.
    pub fn default_nk() -> ScalingConfig {
        ScalingConfig {
            machine: MachineConfig::xeon_server_2s(),
            kind: OsPoint::NkLike,
            total_iters: 2_000_000,
            iter_cost: Cycles(40),
            target_us: 20.0,
            grain: 512,
        }
    }
}

/// Measured outcome at one worker count.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Workers used.
    pub workers: usize,
    /// Wall cycles to complete the loop.
    pub wall: Cycles,
    /// Speedup over the 1-worker run of the same configuration.
    pub speedup: f64,
    /// Promotions performed.
    pub promotions: u64,
    /// Steals performed.
    pub steals: u64,
    /// Fraction of cycles spent on heartbeat machinery + promotion.
    pub overhead_fraction: f64,
}

/// Run the scaling experiment at one worker count; returns wall cycles and
/// the scheduler's counters.
pub(crate) fn run_scaling(cfg: &ScalingConfig, workers: usize) -> ScalingPoint {
    assert!(workers >= 1);
    let freq = cfg.machine.freq;
    let beat_period = freq.cycles_per_us(cfg.target_us);
    // Iterations one worker completes between beats.
    let chunk = (beat_period.get() / cfg.iter_cost.get()).max(1);

    // Per-beat delivery cost on a worker (the Fig. 3 receiver path).
    let deliver: Cycles = model_for(cfg.kind, cfg.machine.clone()).event_deliver();
    let promote_cost = Cycles(250); // split + deque push
    let steal_cost = Cycles(400); // cross-CPU deque steal

    let mut t = Tpal::new(workers, cfg.grain);
    let mut done = vec![false; cfg.total_iters as usize];
    t.submit(crate::tpal::LoopTask {
        lo: 0,
        hi: cfg.total_iters,
    });

    // Round-based co-simulation: one round = one beat period of wall time.
    // Every worker receives the beat (cost), may promote (cost), acquires
    // work, and executes up to `chunk` iterations.
    let mut wall = Cycles::ZERO;
    let mut overhead = Cycles::ZERO;
    let mut executed = 0u64;
    while executed < cfg.total_iters {
        wall += beat_period;
        for w in 0..workers {
            overhead += deliver;
            if t.beat(w) {
                overhead += promote_cost;
            }
            let had_current = t.workers[w].current.as_ref().is_some_and(|c| !c.is_empty());
            if t.acquire(w) {
                if !had_current && t.steals > 0 {
                    // Count a steal's cost when acquisition crossed CPUs;
                    // (acquire() already counted the event).
                    overhead += steal_cost;
                }
                executed += t.execute(w, chunk, &mut done);
            }
        }
    }

    assert!(done.iter().all(|&d| d), "scheduler lost iterations");
    let total_cpu = wall.get() * workers as u64;
    ScalingPoint {
        workers,
        wall,
        speedup: 0.0, // filled by the sweep
        promotions: t.promotions,
        steals: t.steals,
        overhead_fraction: overhead.get() as f64 / total_cpu as f64,
    }
}

/// Sweep worker counts and compute speedups against the 1-worker run.
pub fn scaling_sweep(cfg: &ScalingConfig, worker_counts: &[usize]) -> Vec<ScalingPoint> {
    let base = run_scaling(cfg, 1).wall;
    worker_counts
        .iter()
        .map(|&w| {
            let mut p = run_scaling(cfg, w);
            p.speedup = base.as_f64() / p.wall.as_f64();
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_linear_speedup_at_moderate_scale() {
        let cfg = ScalingConfig::default_nk();
        let pts = scaling_sweep(&cfg, &[1, 2, 4, 8]);
        let at = |w: usize| pts.iter().find(|p| p.workers == w).unwrap();
        assert!(at(2).speedup > 1.7, "2w speedup {}", at(2).speedup);
        assert!(at(4).speedup > 3.2, "4w speedup {}", at(4).speedup);
        assert!(at(8).speedup > 5.8, "8w speedup {}", at(8).speedup);
    }

    #[test]
    fn promotion_overhead_stays_bounded() {
        // The heartbeat guarantee: scheduling costs are bounded by the beat
        // frequency, independent of problem size.
        let cfg = ScalingConfig::default_nk();
        for w in [1usize, 4, 16] {
            let p = run_scaling(&cfg, w);
            assert!(
                p.overhead_fraction < 0.06,
                "{w} workers: overhead {:.3}",
                p.overhead_fraction
            );
        }
    }

    #[test]
    fn work_spreads_through_promotions() {
        let cfg = ScalingConfig::default_nk();
        let p = run_scaling(&cfg, 8);
        assert!(p.promotions > 0);
        assert!(p.steals > 0);
    }

    #[test]
    fn linux_signaling_costs_more_than_nk_at_fine_beats() {
        let nk = ScalingConfig::default_nk();
        let lx = ScalingConfig {
            kind: OsPoint::LinuxLike,
            ..nk.clone()
        };
        let pn = run_scaling(&nk, 8);
        let pl = run_scaling(&lx, 8);
        assert!(
            pl.overhead_fraction > 2.0 * pn.overhead_fraction,
            "linux {:.3} vs nk {:.3}",
            pl.overhead_fraction,
            pn.overhead_fraction
        );
    }

    #[test]
    fn framekernel_delivery_overhead_sits_between() {
        let nk = ScalingConfig::default_nk();
        let fk = ScalingConfig {
            kind: OsPoint::AsterLike,
            ..nk.clone()
        };
        let lx = ScalingConfig {
            kind: OsPoint::LinuxLike,
            ..nk.clone()
        };
        let pn = run_scaling(&nk, 8);
        let pf = run_scaling(&fk, 8);
        let pl = run_scaling(&lx, 8);
        assert!(
            pn.overhead_fraction < pf.overhead_fraction
                && pf.overhead_fraction < pl.overhead_fraction,
            "nk {:.4} aster {:.4} linux {:.4}",
            pn.overhead_fraction,
            pf.overhead_fraction,
            pl.overhead_fraction
        );
    }

    #[test]
    fn tiny_loops_do_not_over_promote() {
        // A loop smaller than one beat's worth of work completes with zero
        // or near-zero promotions — sequential by default.
        let cfg = ScalingConfig {
            total_iters: 500,
            ..ScalingConfig::default_nk()
        };
        let p = run_scaling(&cfg, 8);
        assert!(p.promotions <= 1, "promotions {}", p.promotions);
    }
}
