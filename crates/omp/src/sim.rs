//! The Fig. 6 scaling simulation.
//!
//! Per time step, per region: the master forks, each worker computes its
//! share (plus static imbalance, plus — on Linux — noise stolen inside the
//! compute window), everyone meets at the barrier, the master runs the
//! serial section. The makespan accumulates across regions and steps; the
//! figure's y-axis is performance relative to the Linux baseline at the
//! same CPU count.
//!
//! The dominant scale effect is *noise amplification*: one late worker
//! delays the whole barrier, and the probability that someone is late grows
//! with the worker count — which is why the kernel designs' advantage grows
//! with scale (§V-A: 22 % geometric mean on KNL; ~20 % on the 192-core
//! 8-socket machine).

use crate::modes::{ModeCosts, OmpMode};
use crate::nas::WorkloadSpec;
use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::stats::geomean;
use interweave_core::time::Cycles;

/// Result of one (workload, mode, CPU count) run.
#[derive(Debug, Clone)]
pub struct OmpResult {
    /// Execution design.
    pub mode: OmpMode,
    /// Worker count.
    pub cpus: usize,
    /// Total makespan in cycles.
    pub total: Cycles,
    /// Cycles lost to runtime machinery (forks + barriers + grabs).
    pub runtime_overhead: Cycles,
    /// Cycles stolen by OS noise (max-per-region aggregate on the critical
    /// path).
    pub noise_on_critical_path: Cycles,
}

/// Simulate `spec` under `mode` with `p` workers.
pub fn run_omp(
    spec: &WorkloadSpec,
    mode: OmpMode,
    p: usize,
    mc: &MachineConfig,
    seed: u64,
) -> OmpResult {
    assert!(p >= 1 && p <= mc.cores);
    let costs = ModeCosts::new(mode, mc);
    let mut rng = SplitMix64::new(seed ^ (p as u64) << 8 ^ spec.iters as u64);

    let mut total = Cycles::ZERO;
    let mut overhead = Cycles::ZERO;
    let mut noise_cp = Cycles::ZERO;

    let share = spec.work_per_region / p as u64;
    let smoothing = costs.task_smoothing();

    for _step in 0..spec.iters {
        for _region in 0..spec.regions_per_iter {
            // Fork.
            let fork = costs.fork_master(p);
            total += fork;
            overhead += fork;
            let start_lat = costs.fork_worker_latency(p);

            // Workers compute; the region ends when the slowest arrives.
            let mut makespan = Cycles::ZERO;
            let mut base_max = Cycles::ZERO;
            for _w in 0..p {
                // Static imbalance, smoothed by tasking designs.
                let imb = 1.0 + rng.f64() * spec.imbalance / smoothing as f64;
                let compute = Cycles((share.as_f64() * imb) as u64);
                // Per-chunk scheduling costs.
                let grabs = spec.chunks_per_worker as u64 * smoothing;
                let grab_cost = costs.chunk_grab(p) * grabs;
                let noise = costs.noise_in_window(compute, &mut rng);
                let arrive = start_lat + compute + grab_cost + noise;
                if arrive > makespan {
                    makespan = arrive;
                }
                let base = start_lat + compute + grab_cost;
                if base > base_max {
                    base_max = base;
                }
                overhead += grab_cost;
            }
            noise_cp += makespan - base_max;

            // Barrier.
            let bar = costs.barrier(p);
            total += makespan + bar;
            overhead += bar + (makespan - base_max);
        }
        total += spec.serial_per_iter;
    }

    OmpResult {
        mode,
        cpus: p,
        total,
        runtime_overhead: overhead,
        noise_on_critical_path: noise_cp,
    }
}

/// One Fig. 6 data point: mode performance relative to the baseline at
/// the same scale (higher is better).
#[derive(Debug, Clone)]
pub struct RelPerf {
    /// Benchmark name.
    pub bench: &'static str,
    /// Worker count.
    pub cpus: usize,
    /// Execution design.
    pub mode: OmpMode,
    /// Baseline time / mode time.
    pub relative: f64,
}

/// Produce the Fig. 6 series for one workload across CPU counts: each mode
/// in `modes` after the first relative to the first, the baseline (the
/// paper's is Linux), at the same scale.
pub fn fig6_series(
    spec: &WorkloadSpec,
    mc: &MachineConfig,
    cpu_counts: &[usize],
    modes: &[OmpMode],
    seed: u64,
) -> Vec<RelPerf> {
    let mut out = Vec::new();
    for &p in cpu_counts {
        let base = run_omp(spec, modes[0], p, mc, seed);
        for &mode in &modes[1..] {
            let r = run_omp(spec, mode, p, mc, seed);
            out.push(RelPerf {
                bench: spec.name,
                cpus: p,
                mode,
                relative: base.total.as_f64() / r.total.as_f64(),
            });
        }
    }
    out
}

/// Geometric-mean relative performance of one mode over a set of points.
pub fn geomean_rel(points: &[RelPerf], mode: OmpMode) -> f64 {
    let v: Vec<f64> = points
        .iter()
        .filter(|r| r.mode == mode)
        .map(|r| r.relative)
        .collect();
    geomean(&v)
}

/// The standard KNL scale sweep of Fig. 6.
pub fn knl_cpu_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

/// Noise-sensitivity ablation: RTK's advantage at a fixed scale as a
/// function of how noisy the Linux baseline is. `noise_scale` multiplies
/// the default daemon-noise frequency (1.0 = default; 0.0 = a noiseless,
/// tickless Linux). Isolates how much of Fig. 6 is noise amplification
/// versus primitive costs.
pub fn noise_sensitivity(
    spec: &WorkloadSpec,
    mc: &MachineConfig,
    p: usize,
    noise_scales: &[f64],
    seed: u64,
) -> Vec<(f64, f64)> {
    use crate::modes::ModeCosts;
    let rtk = run_omp(spec, OmpMode::Rtk, p, mc, seed).total;
    noise_scales
        .iter()
        .map(|&scale| {
            // Rebuild the Linux run with scaled noise by tweaking the
            // simulation inline (same structure as run_omp, Linux only).
            let costs = ModeCosts::new(OmpMode::LinuxUser, mc);
            let mut lx = interweave_kernel::os::LinuxModel::new(mc.clone());
            if scale <= 0.0 {
                lx.p.noise_interval_us = f64::INFINITY;
                lx.p.tick_work = Cycles(0);
            } else {
                lx.p.noise_interval_us /= scale;
            }
            let mut rng = SplitMix64::new(seed ^ (p as u64) << 8 ^ spec.iters as u64);
            let share = spec.work_per_region / p as u64;
            let mut total = Cycles::ZERO;
            for _step in 0..spec.iters {
                for _region in 0..spec.regions_per_iter {
                    total += costs.fork_master(p);
                    let start_lat = costs.fork_worker_latency(p);
                    let mut makespan = Cycles::ZERO;
                    for _w in 0..p {
                        let imb = 1.0 + rng.f64() * spec.imbalance;
                        let compute = Cycles((share.as_f64() * imb) as u64);
                        let grab = costs.chunk_grab(p) * spec.chunks_per_worker as u64;
                        // Noise via the scaled Linux model.
                        let mut stolen = Cycles::ZERO;
                        let mut t = Cycles::ZERO;
                        while let Some(n) =
                            interweave_kernel::os::OsModel::sample_noise(&lx, &mut rng)
                        {
                            t += n.after;
                            if t >= compute {
                                break;
                            }
                            stolen += n.duration;
                        }
                        let arrive = start_lat + compute + grab + stolen;
                        makespan = makespan.max(arrive);
                    }
                    total += makespan + costs.barrier(p);
                }
                total += spec.serial_per_iter;
            }
            (scale, total.as_f64() / rtk.as_f64())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::{bt, fig6_specs, sp};

    fn knl() -> MachineConfig {
        MachineConfig::phi_knl()
    }

    fn all_points() -> Vec<RelPerf> {
        let mut pts = Vec::new();
        for spec in fig6_specs() {
            pts.extend(fig6_series(
                &spec,
                &knl(),
                &knl_cpu_counts(),
                &OmpMode::all(),
                42,
            ));
        }
        pts
    }

    #[test]
    fn rtk_geomean_gain_matches_the_paper_band() {
        // §V-A: "The average performance gain of RTK over Linux OpenMP on
        // Phi KNL across all scales and benchmarks is 22% (geometric mean)."
        let g = geomean_rel(&all_points(), OmpMode::Rtk);
        assert!(
            (1.10..=1.40).contains(&g),
            "RTK geomean {g:.3} outside the expected band"
        );
    }

    #[test]
    fn pik_performs_similarly_to_rtk() {
        let pts = all_points();
        let rtk = geomean_rel(&pts, OmpMode::Rtk);
        let pik = geomean_rel(&pts, OmpMode::Pik);
        assert!(
            (rtk - pik).abs() / rtk < 0.08,
            "rtk {rtk:.3} vs pik {pik:.3}"
        );
        assert!(pik > 1.05);
    }

    #[test]
    fn gains_grow_with_scale() {
        let spec = bt();
        let pts = fig6_series(&spec, &knl(), &knl_cpu_counts(), &OmpMode::all(), 42);
        let rel = |p: usize| {
            pts.iter()
                .find(|r| r.cpus == p && r.mode == OmpMode::Rtk)
                .unwrap()
                .relative
        };
        assert!(rel(64) > rel(4), "64c {} vs 4c {}", rel(64), rel(4));
        assert!(rel(64) > 1.2, "64c gain {}", rel(64));
        // At 1 CPU there is little for interweaving to win.
        assert!(rel(1) < 1.1);
    }

    #[test]
    fn cck_is_not_easily_summarized() {
        // §V-A's wording: CCK helps at small scale (cheap tasking) and
        // hurts at large scale (centralized queue) — i.e. it crosses RTK.
        let spec = sp();
        let pts = fig6_series(&spec, &knl(), &knl_cpu_counts(), &OmpMode::all(), 42);
        let get = |p: usize, m: OmpMode| {
            pts.iter()
                .find(|r| r.cpus == p && r.mode == m)
                .unwrap()
                .relative
        };
        let small_gap = get(2, OmpMode::Cck) - get(2, OmpMode::Rtk);
        let large_gap = get(64, OmpMode::Cck) - get(64, OmpMode::Rtk);
        assert!(
            large_gap < small_gap,
            "CCK should fall behind RTK at scale: {small_gap:.3} → {large_gap:.3}"
        );
    }

    #[test]
    fn big_server_repetition_shows_similar_gains() {
        // §V-A: "A repetition of the study on an 8 socket, 192 core machine
        // found similar results (~20% for RTK and PIK)."
        let mc = MachineConfig::big_server_8s();
        let counts = [1, 4, 16, 48, 96, 192];
        let mut pts = Vec::new();
        for spec in fig6_specs() {
            let spec = spec.scaled(8);
            pts.extend(fig6_series(&spec, &mc, &counts, &OmpMode::all(), 7));
        }
        let rtk = geomean_rel(&pts, OmpMode::Rtk);
        assert!(
            (1.08..=1.45).contains(&rtk),
            "big-server RTK geomean {rtk:.3}"
        );
    }

    #[test]
    fn rtk_advantage_tracks_baseline_noise() {
        // The ablation: quieting Linux shrinks RTK's win; louder noise
        // widens it — noise amplification is the mechanism, as §V-A
        // implies.
        let spec = bt();
        let pts = noise_sensitivity(&spec, &knl(), 32, &[0.0, 1.0, 4.0], 42);
        let rel = |i: usize| pts[i].1;
        assert!(
            rel(0) < rel(1),
            "noiseless {} vs default {}",
            rel(0),
            rel(1)
        );
        assert!(rel(1) < rel(2), "default {} vs 4x noise {}", rel(1), rel(2));
        // Even a noiseless Linux still loses on primitive costs alone.
        assert!(rel(0) > 1.0, "primitive-cost-only advantage {}", rel(0));
    }

    #[test]
    fn noise_is_the_dominant_linux_penalty_at_scale() {
        let spec = bt();
        let lx = run_omp(&spec, OmpMode::LinuxUser, 64, &knl(), 42);
        assert!(
            lx.noise_on_critical_path.get() > lx.total.get() / 20,
            "noise {} of total {}",
            lx.noise_on_critical_path,
            lx.total
        );
        let rtk = run_omp(&spec, OmpMode::Rtk, 64, &knl(), 42);
        assert_eq!(rtk.noise_on_critical_path, Cycles::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = sp();
        let a = run_omp(&spec, OmpMode::LinuxUser, 16, &knl(), 9);
        let b = run_omp(&spec, OmpMode::LinuxUser, 16, &knl(), 9);
        assert_eq!(a.total, b.total);
    }
}
