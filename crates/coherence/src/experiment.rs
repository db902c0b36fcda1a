//! The Fig. 7 experiment: speedup and interconnect energy of selective
//! coherence deactivation.
//!
//! Each benchmark runs twice — full MESI and selective — on the same
//! machine with the same access streams. Per round, each core's accesses
//! accumulate latency on its own clock; the round ends at the slowest core
//! (fork-join barrier), and in selective mode the producer→consumer
//! hand-offs reclassify at the boundary (charged to the handing core).
//! Reported: makespan speedup and interconnect-energy ratio.
//!
//! ## The sharded engine
//!
//! The round loop runs on [`ShardedKernel`]: each event-queue shard owns a
//! contiguous block of cores (`shard = core · shards / cores`) and fires
//! that block's consume/work events; the only cross-shard traffic is the
//! round-boundary hand-off of a produced buffer to the successor core,
//! which travels through the kernel's deterministic mailbox and is applied
//! at the window barrier in canonical `(time, sender shard, sender seq)`
//! order. Under the contiguous mapping that order *is* ascending core
//! order — exactly the sequential reference loop — so the makespan and
//! the (order-sensitive) f64 energy accumulation are bit-identical at
//! every shard count. A model-equality test below pins this against the
//! retired sequential implementation.

use crate::protocol::{Class, CohMode, ProtocolKind, System, SystemConfig};
use crate::workloads::{
    fig7_mixes, handoff_range, initialize_readonly, round_stream_into, Access, Layout, WorkloadMix,
};
use interweave_core::{Cycles, ShardedKernel};

/// One benchmark's outcome under both policies.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Full-MESI makespan (cycles).
    pub full_cycles: u64,
    /// Selective makespan (cycles).
    pub selective_cycles: u64,
    /// Full-MESI interconnect energy (pJ).
    pub full_noc_energy: f64,
    /// Selective interconnect energy (pJ).
    pub selective_noc_energy: f64,
}

impl Fig7Row {
    /// Selective speedup over full MESI (Fig. 7's y-axis).
    pub fn speedup(&self) -> f64 {
        self.full_cycles as f64 / self.selective_cycles as f64
    }

    /// Interconnect-energy reduction (1 − selective/full).
    pub fn energy_reduction(&self) -> f64 {
        1.0 - self.selective_noc_energy / self.full_noc_energy
    }
}

/// Run one benchmark under one policy; returns `(makespan, noc energy)`.
pub fn run_one(mix: &WorkloadMix, cores: usize, mode: CohMode, seed: u64) -> (u64, f64) {
    run_one_sharded(mix, cores, mode, seed, None, 1)
}

/// One core's simulated activity in the sharded round loop. The payload
/// names the core; its shard is fixed by the contiguous core→shard map.
#[derive(Debug, Clone, Copy)]
enum CohEvent {
    /// Read the predecessor's hand-off buffer (rounds after the first) —
    /// and, in selective mode, hand the region back for refilling.
    Consume(usize),
    /// The round's main access stream plus the produce phase.
    Work(usize),
    /// Round-boundary hand-off: this core's freshly produced buffer
    /// reclassifies to its successor. Travels cross-shard through the
    /// mailbox and is applied at the barrier, never enqueued.
    Handoff(usize),
}

/// Round `r` on the sharded timeline. Three timestamps per round keep the
/// phases in disjoint conservative windows: consume at `3r+1`, work at
/// `3r+2`, and hand-off envelopes delivered at `3r+3` — one cycle after
/// their `3r+2` send, satisfying the kernel's minimum lookahead.
fn consume_at(round: usize) -> Cycles {
    Cycles(3 * round as u64 + 1)
}
fn work_at(round: usize) -> Cycles {
    Cycles(3 * round as u64 + 2)
}

/// [`run_one`] with an optional disaggregated NoC (tiles per domain, extra
/// cross-domain hop penalty) — the §V-B "benefits grow with ...
/// disaggregation" axis — on `shards` event-queue shards. Bit-identical
/// results at every shard count (see the module docs for the argument);
/// `shards` is clamped to `[1, cores]`.
pub fn run_one_sharded(
    mix: &WorkloadMix,
    cores: usize,
    mode: CohMode,
    seed: u64,
    disaggregation: Option<(usize, u32)>,
    shards: usize,
) -> (u64, f64) {
    run_one_inner(mix, cores, mode, seed, disaggregation, shards, None)
}

/// The engine behind [`run_one_sharded`]. `streams`, when given, holds the
/// pre-generated access stream for `[round * cores + core]` — the streams
/// depend only on `(mix, cores, seed)`, so [`fig7`] generates them
/// once and replays them for both coherence modes.
fn run_one_inner(
    mix: &WorkloadMix,
    cores: usize,
    mode: CohMode,
    seed: u64,
    disaggregation: Option<(usize, u32)>,
    shards: usize,
    streams: Option<&[Vec<Access>]>,
) -> (u64, f64) {
    let shards = shards.clamp(1, cores);
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

    // Contiguous core→shard map: (shard asc, within-shard seq asc) equals
    // ascending core order, which is what makes the window order — and the
    // mailbox drain order — match the sequential reference exactly.
    let shard_of = |core: usize| core * shards / cores;
    let mut k: ShardedKernel<CohEvent> = ShardedKernel::new(shards);
    if mix.rounds > 0 {
        for core in 0..cores {
            k.schedule(shard_of(core), work_at(0), CohEvent::Work(core));
        }
    }

    let mut makespan = 0u64;
    let mut per_core = vec![0u64; cores];
    let mut stream = Vec::new();
    let mut handoff = Vec::new();
    while let Some((_, w)) = k.peek_next() {
        // One conservative window per phase timestamp. Each shard fires
        // its block of cores; shards only read/write their own queue plus
        // their mailbox lane, so this loop is the parallel region.
        for s in 0..shards {
            while let Some((t, ev)) = k.shard_mut(s).pop_before(w) {
                match ev {
                    CohEvent::Consume(core) => {
                        let mut tc = 0u64;
                        let prev = (core + cores - 1) % cores;
                        // The consumer reads its predecessor's buffer...
                        for l in handoff_range(mix, &layout, prev) {
                            tc += sys.read(core, l);
                        }
                        if mode == CohMode::Selective {
                            // ...then hands the drained buffer back so
                            // the predecessor can refill it this round.
                            handoff.clear();
                            handoff.extend(handoff_range(mix, &layout, prev));
                            tc += sys.reclassify(&handoff, Class::Private(prev));
                        }
                        per_core[core] += tc;
                    }
                    CohEvent::Work(core) => {
                        let round = ((t.get() - 2) / 3) as usize;
                        let mut tc = 0u64;
                        let accs = match streams {
                            Some(s) => &s[round * cores + core][..],
                            None => {
                                round_stream_into(mix, &layout, core, round, seed, &mut stream);
                                &stream[..]
                            }
                        };
                        for &acc in accs {
                            tc += match acc {
                                Access::Read(l) => sys.read(core, l),
                                Access::Write(l) => sys.write(core, l),
                            };
                        }
                        // Produce phase: fill the hand-off buffer.
                        for l in handoff_range(mix, &layout, core) {
                            tc += sys.write(core, l);
                        }
                        per_core[core] += tc;
                        if round + 1 < mix.rounds {
                            k.schedule(s, consume_at(round + 1), CohEvent::Consume(core));
                            k.schedule(s, work_at(round + 1), CohEvent::Work(core));
                        }
                        if mode == CohMode::Selective {
                            let to = shard_of((core + 1) % cores);
                            k.send(s, to, t + Cycles(1), CohEvent::Handoff(core));
                        }
                    }
                    CohEvent::Handoff(_) => {
                        unreachable!("hand-offs are barrier-applied, never enqueued")
                    }
                }
            }
        }
        // Work windows end the round: apply the hand-offs in canonical
        // mailbox order (= ascending producer core under the contiguous
        // map), close the barrier, and verify coherence.
        if w.get() % 3 == 2 {
            let mut handoff_max = 0u64;
            for env in k.drain_sends() {
                let CohEvent::Handoff(core) = env.payload else {
                    unreachable!("only hand-offs cross shards")
                };
                handoff.clear();
                handoff.extend(handoff_range(mix, &layout, core));
                let new_owner = (core + 1) % cores;
                let cost = sys.reclassify(&handoff, Class::Private(new_owner));
                handoff_max = handoff_max.max(cost);
            }
            let round_max = per_core.iter().max().copied().unwrap_or(0) + handoff_max;
            makespan += round_max;
            per_core.iter_mut().for_each(|t| *t = 0);
            sys.check_swmr();
        }
    }
    (makespan, sys.energy.interconnect.get())
}

/// All Fig. 7 rows on `cores` cores, with each benchmark's access volume
/// divided by `div` (the figure runs `div = 1`; tests run a fraction of
/// the simulation cost with the same qualitative bands), on `shards`
/// event-queue shards — the same rows bit-for-bit at every shard count.
pub fn fig7(cores: usize, seed: u64, div: usize, shards: usize) -> Vec<Fig7Row> {
    fig7_mixes()
        .iter()
        .map(|mix| {
            let mut mix = mix.clone();
            mix.accesses_per_round = (mix.accesses_per_round / div.max(1)).max(200);
            // Both coherence modes replay the identical access streams:
            // generate them once.
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
            let (full_cycles, full_noc_energy) = run_one_inner(
                &mix,
                cores,
                CohMode::Full,
                seed,
                None,
                shards,
                Some(&streams),
            );
            let (selective_cycles, selective_noc_energy) = run_one_inner(
                &mix,
                cores,
                CohMode::Selective,
                seed,
                None,
                shards,
                Some(&streams),
            );
            Fig7Row {
                name: mix.name,
                full_cycles,
                selective_cycles,
                full_noc_energy,
                selective_noc_energy,
            }
        })
        .collect()
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

    /// The retired sequential round loop, verbatim — the model against
    /// which the sharded engine is proven equal.
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
        sys.reserve_lines(layout.total_lines(mix));
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
    fn sharded_engine_matches_the_sequential_reference_bit_for_bit() {
        let mut mix = fig7_mixes()[1].clone(); // bfs: heaviest shared traffic
        mix.accesses_per_round /= 8;
        for mode in [CohMode::Full, CohMode::Selective] {
            let (seq_mk, seq_e) = run_one_sequential(&mix, 8, mode, 11, None);
            for shards in [1, 2, 3, 4, 8] {
                let (mk, e) = run_one_sharded(&mix, 8, mode, 11, None, shards);
                assert_eq!(mk, seq_mk, "{mode:?} makespan diverged at {shards} shards");
                assert_eq!(
                    e.to_bits(),
                    seq_e.to_bits(),
                    "{mode:?} energy diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn sharded_engine_matches_sequential_on_a_disaggregated_mesh() {
        let mut mix = fig7_mixes()[4].clone(); // nbody: widest private heaps
        mix.accesses_per_round /= 8;
        let disagg = Some((8, 16));
        for mode in [CohMode::Full, CohMode::Selective] {
            let (seq_mk, seq_e) = run_one_sequential(&mix, 16, mode, 7, disagg);
            for shards in [2, 5, 16] {
                let (mk, e) = run_one_sharded(&mix, 16, mode, 7, disagg, shards);
                assert_eq!(mk, seq_mk, "{mode:?} makespan diverged at {shards} shards");
                assert_eq!(e.to_bits(), seq_e.to_bits());
            }
        }
    }

    #[test]
    fn shard_count_never_changes_the_rows() {
        let base = fig7(8, 11, 8, 1);
        for shards in [2, 4, 8] {
            let rows = fig7(8, 11, 8, shards);
            for (a, b) in base.iter().zip(&rows) {
                assert_eq!(a.full_cycles, b.full_cycles, "{}@{shards}", a.name);
                assert_eq!(a.selective_cycles, b.selective_cycles);
                assert_eq!(a.full_noc_energy.to_bits(), b.full_noc_energy.to_bits());
                assert_eq!(
                    a.selective_noc_energy.to_bits(),
                    b.selective_noc_energy.to_bits()
                );
            }
        }
    }

    #[test]
    fn selective_wins_on_every_benchmark() {
        for row in fig7(8, 11, 4, 1) {
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
        let rows = fig7(24, 11, 3, 1);
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
        let small = mean_speedup(&fig7(8, 11, 4, 1));
        let large = mean_speedup(&fig7(24, 11, 4, 1));
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
            let (full, _) = run_one_sharded(&mix, 16, CohMode::Full, 11, disagg, 1);
            let (sel, _) = run_one_sharded(&mix, 16, CohMode::Selective, 11, disagg, 1);
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
        let a = fig7(8, 3, 4, 1);
        let b = fig7(8, 3, 4, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.full_cycles, y.full_cycles);
            assert_eq!(x.selective_cycles, y.selective_cycles);
        }
    }
}
