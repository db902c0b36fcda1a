//! The Fig. 7 experiment: speedup and interconnect energy of selective
//! coherence deactivation.
//!
//! Each benchmark runs twice — under a baseline and a compared coherence
//! mode, full MESI against selective in the paper — on the same machine
//! with the same access streams. Per round, each core's accesses
//! accumulate latency on its own clock; the round ends at the slowest core
//! (fork-join barrier), and in selective mode the producer→consumer
//! hand-offs reclassify at the boundary (charged to the handing core).
//! Reported: makespan speedup and interconnect-energy ratio.
//!
//! ## The round loop
//!
//! Every core reads and writes the one shared [`System`], so the engine is
//! a plain loop on one thread. Each round runs three steps, each in
//! ascending core order: consume the predecessor's buffer, then the round's
//! access stream plus the produce phase, then (selective mode) the
//! round-boundary hand-offs. The round closes with the SWMR check. That
//! fixed order is what makes the makespan and the order-sensitive f64
//! energy sum a pure function of `(mix, cores, mode, seed)`; a test below
//! pins the loop against a reference built from the collected
//! per-phase access lists.

use crate::protocol::{Class, CohMode, ProtocolKind, System, SystemConfig};
use crate::workloads::{
    fig7_mixes, handoff_range, initialize_readonly, round_stream_into, Access, Layout, WorkloadMix,
};
use interweave_core::par::{host_threads, parallel_map};

/// One benchmark's outcome under a baseline and a compared policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline makespan (cycles).
    pub base_cycles: u64,
    /// Compared makespan (cycles).
    pub cycles: u64,
    /// Baseline interconnect energy (pJ).
    pub base_noc_energy: f64,
    /// Compared interconnect energy (pJ).
    pub noc_energy: f64,
}

impl Fig7Row {
    /// Speedup of the compared policy over the baseline (Fig. 7's y-axis).
    pub fn speedup(&self) -> f64 {
        self.base_cycles as f64 / self.cycles as f64
    }

    /// Interconnect-energy reduction (1 − compared/baseline).
    pub fn energy_reduction(&self) -> f64 {
        1.0 - self.noc_energy / self.base_noc_energy
    }
}

/// Run one benchmark under one policy; returns `(makespan, noc energy)`.
pub fn run_one(mix: &WorkloadMix, cores: usize, mode: CohMode, seed: u64) -> (u64, f64) {
    run_one_on_mesh(mix, cores, mode, seed, None)
}

/// [`run_one`] with an optional disaggregated NoC (tiles per domain, extra
/// cross-domain hop penalty) — the §V-B "benefits grow with ...
/// disaggregation" axis.
pub fn run_one_on_mesh(
    mix: &WorkloadMix,
    cores: usize,
    mode: CohMode,
    seed: u64,
    disaggregation: Option<(usize, u32)>,
) -> (u64, f64) {
    run_rounds(mix, cores, mode, seed, disaggregation, None)
}

/// The round loop behind [`run_one_on_mesh`]. `streams`, when given, holds
/// the pre-generated access stream for `[round * cores + core]` — the
/// streams depend only on `(mix, cores, seed)`, so [`fig7`] generates them
/// once and replays them for both coherence modes.
fn run_rounds(
    mix: &WorkloadMix,
    cores: usize,
    mode: CohMode,
    seed: u64,
    disaggregation: Option<(usize, u32)>,
    streams: Option<&[Vec<Access>]>,
) -> (u64, f64) {
    let mut sys = System::new(SystemConfig {
        cores,
        l1_lines: 512,
        mode,
        protocol: ProtocolKind::Mesi,
        lat: Default::default(),
    });
    if let Some((per_domain, penalty)) = disaggregation {
        sys.mesh = crate::noc::Mesh::disaggregated(cores, per_domain, penalty);
    }
    let layout = Layout::new(mix, cores);
    // The footprint is known up front and contiguous from the layout base:
    // back it with dense storage so the measured region never hashes.
    sys.reserve_dense(0x1000, layout.total_lines(mix));
    // Initialization phase (not measured, matching the paper's region-of-
    // interest methodology): build the read-only input, then classify.
    initialize_readonly(&mut sys, mix, &layout);
    if mode == CohMode::Selective {
        layout.classify(&mut sys, mix);
    }
    // Reset energy after init so the ROI is what we report.
    sys.energy = Default::default();

    let mut makespan = 0u64;
    let mut per_core = vec![0u64; cores];
    let mut stream = Vec::new();
    let mut handoff = Vec::new();
    for round in 0..mix.rounds {
        per_core.iter_mut().for_each(|t| *t = 0);
        if round > 0 {
            for (core, pc) in per_core.iter_mut().enumerate() {
                let prev = (core + cores - 1) % cores;
                // The consumer reads its predecessor's buffer...
                for l in handoff_range(mix, &layout, prev) {
                    *pc += sys.read(core, l);
                }
                if mode == CohMode::Selective {
                    // ...then hands the drained buffer back so the
                    // predecessor can refill it this round.
                    handoff.clear();
                    handoff.extend(handoff_range(mix, &layout, prev));
                    *pc += sys.reclassify(&handoff, Class::Private(prev));
                }
            }
        }
        for (core, pc) in per_core.iter_mut().enumerate() {
            let accs = match streams {
                Some(s) => &s[round * cores + core][..],
                None => {
                    round_stream_into(mix, &layout, core, round, seed, &mut stream);
                    &stream[..]
                }
            };
            for &acc in accs {
                *pc += match acc {
                    Access::Read(l) => sys.read(core, l),
                    Access::Write(l) => sys.write(core, l),
                };
            }
            // Produce phase: fill the hand-off buffer.
            for l in handoff_range(mix, &layout, core) {
                *pc += sys.write(core, l);
            }
        }
        // Round boundary: each freshly produced buffer reclassifies to the
        // successor core, the slowest hand-off extending the barrier.
        let mut handoff_max = 0u64;
        if mode == CohMode::Selective {
            for core in 0..cores {
                handoff.clear();
                handoff.extend(handoff_range(mix, &layout, core));
                let cost = sys.reclassify(&handoff, Class::Private((core + 1) % cores));
                handoff_max = handoff_max.max(cost);
            }
        }
        makespan += per_core.iter().max().copied().unwrap_or(0) + handoff_max;
        sys.check_swmr();
    }
    (makespan, sys.energy.interconnect.get())
}

/// One benchmark's [`fig7`] row on `cores` cores.
fn fig7_row(
    mix: &WorkloadMix,
    cores: usize,
    modes: [CohMode; 2],
    seed: u64,
    div: usize,
) -> Fig7Row {
    let mut mix = mix.clone();
    mix.accesses_per_round = (mix.accesses_per_round / div.max(1)).max(200);
    // Both coherence modes replay the identical access streams: generate
    // them once.
    let layout = Layout::new(&mix, cores);
    let mut streams = vec![Vec::new(); mix.rounds * cores];
    for round in 0..mix.rounds {
        for core in 0..cores {
            round_stream_into(
                &mix,
                &layout,
                core,
                round,
                seed,
                &mut streams[round * cores + core],
            );
        }
    }
    let run = |mode| run_rounds(&mix, cores, mode, seed, None, Some(&streams));
    let (base_cycles, base_noc_energy) = run(modes[0]);
    let (cycles, noc_energy) = if modes[1] == modes[0] {
        (base_cycles, base_noc_energy)
    } else {
        run(modes[1])
    };
    Fig7Row {
        name: mix.name,
        base_cycles,
        cycles,
        base_noc_energy,
        noc_energy,
    }
}

/// Every benchmark's row at each core count in `core_counts`, one row
/// list per count: each benchmark runs under `modes` (baseline, then
/// compared) with its access volume divided by `div` (the figure runs
/// `div = 1`; tests run a fraction of the simulation cost with the same
/// qualitative bands). The (core count × benchmark) runs fan out on the
/// host's cores and come back in order, so the rows are the same at any
/// thread count.
pub fn fig7(
    core_counts: &[usize],
    modes: [CohMode; 2],
    seed: u64,
    div: usize,
) -> Vec<Vec<Fig7Row>> {
    let mixes = fig7_mixes();
    let runs: Vec<(usize, &WorkloadMix)> = core_counts
        .iter()
        .flat_map(|&cores| mixes.iter().map(move |mix| (cores, mix)))
        .collect();
    let rows = parallel_map(runs, host_threads(), |(cores, mix)| {
        fig7_row(mix, cores, modes, seed, div)
    });
    rows.chunks(mixes.len()).map(<[Fig7Row]>::to_vec).collect()
}

/// Mean speedup across rows (the paper's "average speedup is ~46 %").
pub fn mean_speedup(rows: &[Fig7Row]) -> f64 {
    rows.iter().map(|r| r.speedup()).sum::<f64>() / rows.len() as f64
}

/// Mean interconnect-energy reduction ("~53 %").
pub fn mean_energy_reduction(rows: &[Fig7Row]) -> f64 {
    rows.iter().map(|r| r.energy_reduction()).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{consume_accesses, handoff_lines, produce_accesses, round_stream};

    const FULL_VS_SELECTIVE: [CohMode; 2] = [CohMode::Full, CohMode::Selective];

    /// Every benchmark's row on `cores` cores, full MESI against selective.
    fn rows(cores: usize, seed: u64, div: usize) -> Vec<Fig7Row> {
        fig7(&[cores], FULL_VS_SELECTIVE, seed, div).remove(0)
    }

    /// The round loop written over the collected per-phase access lists,
    /// with no dense backing and no stream reuse — the oracle the engine is
    /// proven equal to, for both stream sources.
    fn run_one_sequential(
        mix: &WorkloadMix,
        cores: usize,
        mode: CohMode,
        seed: u64,
        disaggregation: Option<(usize, u32)>,
    ) -> (u64, f64) {
        let mut sys = System::new(SystemConfig {
            cores,
            l1_lines: 512,
            mode,
            protocol: ProtocolKind::Mesi,
            lat: Default::default(),
        });
        if let Some((per_domain, penalty)) = disaggregation {
            sys.mesh = crate::noc::Mesh::disaggregated(cores, per_domain, penalty);
        }
        let layout = Layout::new(mix, cores);
        initialize_readonly(&mut sys, mix, &layout);
        if mode == CohMode::Selective {
            layout.classify(&mut sys, mix);
        }
        sys.energy = Default::default();

        let mut makespan = 0u64;
        let mut per_core = vec![0u64; cores];
        for round in 0..mix.rounds {
            per_core.iter_mut().for_each(|t| *t = 0);
            if round > 0 {
                for (core, pc) in per_core.iter_mut().enumerate() {
                    let mut t = 0u64;
                    for acc in consume_accesses(mix, &layout, core, cores) {
                        t += match acc {
                            Access::Read(l) => sys.read(core, l),
                            Access::Write(l) => sys.write(core, l),
                        };
                    }
                    if mode == CohMode::Selective {
                        let prev = (core + cores - 1) % cores;
                        let lines = handoff_lines(mix, &layout, prev);
                        t += sys.reclassify(&lines, Class::Private(prev));
                    }
                    *pc += t;
                }
            }
            for (core, pc) in per_core.iter_mut().enumerate() {
                let mut t = 0u64;
                for acc in round_stream(mix, &layout, core, round, seed)
                    .into_iter()
                    .chain(produce_accesses(mix, &layout, core))
                {
                    t += match acc {
                        Access::Read(l) => sys.read(core, l),
                        Access::Write(l) => sys.write(core, l),
                    };
                }
                *pc += t;
            }
            let mut round_max = *per_core.iter().max().expect("cores > 0");
            if mode == CohMode::Selective {
                let mut handoff_max = 0u64;
                for core in 0..cores {
                    let lines = handoff_lines(mix, &layout, core);
                    let new_owner = (core + 1) % cores;
                    let cost = sys.reclassify(&lines, Class::Private(new_owner));
                    handoff_max = handoff_max.max(cost);
                }
                round_max += handoff_max;
            }
            makespan += round_max;
            sys.check_swmr();
        }
        (makespan, sys.energy.interconnect.get())
    }

    #[test]
    fn run_one_matches_the_reference_bit_for_bit() {
        // Streams generated on the fly, one core at a time.
        let mut mix = fig7_mixes()[1].clone(); // bfs: heaviest shared traffic
        mix.accesses_per_round /= 8;
        for mode in [CohMode::Full, CohMode::Selective] {
            let (seq_mk, seq_e) = run_one_sequential(&mix, 8, mode, 11, None);
            let (mk, e) = run_one(&mix, 8, mode, 11);
            assert_eq!(mk, seq_mk, "{mode:?} makespan diverged");
            assert_eq!(e.to_bits(), seq_e.to_bits(), "{mode:?} energy diverged");
        }
    }

    #[test]
    fn fig7_rows_match_the_reference_bit_for_bit() {
        // Streams generated once per benchmark and replayed for both modes.
        let rows = rows(8, 11, 8);
        for (mix, row) in fig7_mixes().iter().zip(&rows) {
            let mut mix = mix.clone();
            mix.accesses_per_round = (mix.accesses_per_round / 8).max(200);
            let (full_mk, full_e) = run_one_sequential(&mix, 8, CohMode::Full, 11, None);
            let (sel_mk, sel_e) = run_one_sequential(&mix, 8, CohMode::Selective, 11, None);
            assert_eq!(row.base_cycles, full_mk, "{}: full makespan", row.name);
            assert_eq!(row.cycles, sel_mk, "{}: selective makespan", row.name);
            assert_eq!(
                row.base_noc_energy.to_bits(),
                full_e.to_bits(),
                "{}",
                row.name
            );
            assert_eq!(row.noc_energy.to_bits(), sel_e.to_bits(), "{}", row.name);
        }
    }

    #[test]
    fn run_one_on_mesh_matches_the_reference_on_a_disaggregated_mesh() {
        let mut mix = fig7_mixes()[4].clone(); // nbody: widest private heaps
        mix.accesses_per_round /= 8;
        let disagg = Some((8, 16));
        for mode in [CohMode::Full, CohMode::Selective] {
            let (seq_mk, seq_e) = run_one_sequential(&mix, 16, mode, 7, disagg);
            let (mk, e) = run_one_on_mesh(&mix, 16, mode, 7, disagg);
            assert_eq!(mk, seq_mk, "{mode:?} makespan diverged");
            assert_eq!(e.to_bits(), seq_e.to_bits(), "{mode:?} energy diverged");
        }
    }

    #[test]
    fn selective_wins_on_every_benchmark() {
        for row in rows(8, 11, 4) {
            assert!(
                row.speedup() > 1.0,
                "{}: speedup {:.3}",
                row.name,
                row.speedup()
            );
            assert!(
                row.energy_reduction() > 0.0,
                "{}: energy reduction {:.3}",
                row.name,
                row.energy_reduction()
            );
        }
    }

    #[test]
    fn fig7_scale_reproduces_the_papers_bands() {
        // Paper: "the average speedup is ~46%, while the interconnect
        // energy ... is reduced by ~53%" on the 24-core machine. Accept a
        // generous band around both.
        let rows = rows(24, 11, 3);
        let sp = mean_speedup(&rows);
        let er = mean_energy_reduction(&rows);
        assert!(
            (1.25..=1.75).contains(&sp),
            "mean speedup {sp:.3} (rows: {:?})",
            rows.iter()
                .map(|r| (r.name, r.speedup()))
                .collect::<Vec<_>>()
        );
        assert!((0.35..=0.75).contains(&er), "mean energy reduction {er:.3}");
    }

    #[test]
    fn benefits_grow_with_scale() {
        // §V-B: "The benefits grow with scale and disaggregation."
        let small = mean_speedup(&rows(8, 11, 4));
        let large = mean_speedup(&rows(24, 11, 4));
        assert!(
            large > small,
            "speedup should grow with scale: 8c {small:.3} vs 24c {large:.3}"
        );
    }

    #[test]
    fn benefits_grow_with_disaggregation() {
        // §V-B's closing sentence: hold the core count fixed and stretch
        // the cross-domain links; selective deactivation (which keeps
        // private traffic on-domain) wins more.
        let mut mix = fig7_mixes()[0].clone();
        mix.accesses_per_round /= 4; // reduced scale, same shape
        let speedup = |disagg| {
            let (full, _) = run_one_on_mesh(&mix, 16, CohMode::Full, 11, disagg);
            let (sel, _) = run_one_on_mesh(&mix, 16, CohMode::Selective, 11, disagg);
            full as f64 / sel as f64
        };
        let flat = speedup(None);
        let disagg = speedup(Some((8, 16)));
        assert!(
            disagg > flat,
            "disaggregated speedup {disagg:.3} should exceed flat {flat:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = rows(8, 3, 4);
        let b = rows(8, 3, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.base_cycles, y.base_cycles);
            assert_eq!(x.cycles, y.cycles);
        }
    }
}
