//! PBBS-archetype workloads with MPL-style region annotations.
//!
//! Fig. 7 runs PBBS benchmarks compiled with a variant of MPL whose
//! *disentanglement* semantics prove which heap data is thread-private and
//! which inputs are read-only — and drive the deactivation protocol
//! automatically. The generator reproduces that structure: fork-join rounds
//! where each core works mostly in its private heap, reads shared read-only
//! inputs, updates a small amount of genuinely shared data, and — for the
//! migratory archetypes — hands a slice of its private heap to a neighbour
//! at the round boundary.

use crate::protocol::{Class, System};
use interweave_core::rng::SplitMix64;

/// One access in a core's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Read a line.
    Read(u64),
    /// Write a line.
    Write(u64),
}

/// Mix parameters for one PBBS archetype.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Benchmark name.
    pub name: &'static str,
    /// Fork-join rounds.
    pub rounds: usize,
    /// Accesses per core per round.
    pub accesses_per_round: usize,
    /// Fraction of accesses to the core's private heap.
    pub private_frac: f64,
    /// Fraction to read-only input data.
    pub readonly_frac: f64,
    /// (Remainder goes to shared mutable data.)
    /// Write fraction within private accesses.
    pub private_write_frac: f64,
    /// Write fraction within shared accesses.
    pub shared_write_frac: f64,
    /// Private-heap working set in lines per core.
    pub private_lines: u64,
    /// Read-only input size in lines (global).
    pub readonly_lines: u64,
    /// Shared mutable set in lines (global).
    pub shared_lines: u64,
    /// Lines handed from each core to its neighbour at each round boundary
    /// (producer→consumer migration).
    pub handoff_lines: u64,
}

/// The Fig. 7 benchmark set (PBBS archetypes).
pub fn fig7_mixes() -> Vec<WorkloadMix> {
    vec![
        WorkloadMix {
            name: "samplesort",
            rounds: 4,
            accesses_per_round: 4000,
            private_frac: 0.82,
            readonly_frac: 0.12,
            private_write_frac: 0.5,
            shared_write_frac: 0.3,
            private_lines: 1200,
            readonly_lines: 2048,
            shared_lines: 64,
            handoff_lines: 96,
        },
        WorkloadMix {
            name: "bfs",
            rounds: 5,
            accesses_per_round: 3500,
            private_frac: 0.66,
            readonly_frac: 0.26,
            private_write_frac: 0.45,
            shared_write_frac: 0.4,
            private_lines: 900,
            readonly_lines: 4096,
            shared_lines: 128,
            handoff_lines: 48,
        },
        WorkloadMix {
            name: "mis",
            rounds: 5,
            accesses_per_round: 3000,
            private_frac: 0.7,
            readonly_frac: 0.2,
            private_write_frac: 0.5,
            shared_write_frac: 0.5,
            private_lines: 700,
            readonly_lines: 3072,
            shared_lines: 96,
            handoff_lines: 32,
        },
        WorkloadMix {
            name: "convex-hull",
            rounds: 4,
            accesses_per_round: 3800,
            private_frac: 0.78,
            readonly_frac: 0.16,
            private_write_frac: 0.55,
            shared_write_frac: 0.25,
            private_lines: 1000,
            readonly_lines: 2560,
            shared_lines: 48,
            handoff_lines: 64,
        },
        WorkloadMix {
            name: "nbody",
            rounds: 4,
            accesses_per_round: 4500,
            private_frac: 0.74,
            readonly_frac: 0.22,
            private_write_frac: 0.6,
            shared_write_frac: 0.2,
            private_lines: 1400,
            readonly_lines: 3584,
            shared_lines: 32,
            handoff_lines: 80,
        },
        WorkloadMix {
            name: "dedup",
            rounds: 5,
            accesses_per_round: 3200,
            private_frac: 0.62,
            readonly_frac: 0.24,
            private_write_frac: 0.4,
            shared_write_frac: 0.5,
            private_lines: 800,
            readonly_lines: 2048,
            shared_lines: 192,
            handoff_lines: 40,
        },
    ]
}

/// Line-address layout for one run: private heaps per core, then read-only
/// input, then shared data. Regions are disjoint by construction.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Private heap base per core.
    pub private_base: Vec<u64>,
    /// Read-only region base.
    pub readonly_base: u64,
    /// Shared region base.
    pub shared_base: u64,
}

impl Layout {
    /// Build the layout for `cores` cores under `mix`.
    pub(crate) fn new(mix: &WorkloadMix, cores: usize) -> Layout {
        let mut next = 0x1000u64;
        let mut private_base = Vec::with_capacity(cores);
        for _ in 0..cores {
            private_base.push(next);
            next += mix.private_lines;
        }
        let readonly_base = next;
        next += mix.readonly_lines;
        let shared_base = next;
        Layout {
            private_base,
            readonly_base,
            shared_base,
        }
    }

    /// Announce the regions to a selective-mode system. The read-only
    /// region transitions through `reclassify` so copies dirtied during
    /// initialization are flushed first (MPL's initialize-then-freeze).
    pub(crate) fn classify(&self, sys: &mut System, mix: &WorkloadMix) {
        for (c, &base) in self.private_base.iter().enumerate() {
            sys.classify(base..base + mix.private_lines, Class::Private(c));
        }
        let ro: Vec<u64> = (self.readonly_base..self.readonly_base + mix.readonly_lines).collect();
        sys.reclassify(&ro, Class::ReadOnly);
        // Shared region: default class (full protocol) — no call needed.
    }
}

/// Generate one core's access stream for one round into `out` (cleared
/// first, so the hot loop reuses one allocation across every core and
/// round). Deterministic given the seed components. Private accesses are
/// locality-skewed (70 % to a hot eighth of the heap).
pub(crate) fn round_stream_into(
    mix: &WorkloadMix,
    layout: &Layout,
    core: usize,
    round: usize,
    seed: u64,
    out: &mut Vec<Access>,
) {
    let mut rng = SplitMix64::new(seed ^ (core as u64) << 32 ^ (round as u64) << 16 ^ 0x9e37);
    out.clear();
    out.reserve(mix.accesses_per_round);
    let pbase = layout.private_base[core];
    // The tail of the heap is the hand-off buffer, written only in the
    // produce phase; the stream stays in the stable portion.
    let stable = mix.private_lines - mix.handoff_lines;
    let hot = (stable / 8).max(1);
    for _ in 0..mix.accesses_per_round {
        let r = rng.f64();
        if r < mix.private_frac {
            let line = if rng.chance(0.7) {
                pbase + rng.below(hot)
            } else {
                pbase + rng.below(stable.max(1))
            };
            if rng.chance(mix.private_write_frac) {
                out.push(Access::Write(line));
            } else {
                out.push(Access::Read(line));
            }
        } else if r < mix.private_frac + mix.readonly_frac {
            out.push(Access::Read(
                layout.readonly_base + rng.below(mix.readonly_lines),
            ));
        } else {
            let line = layout.shared_base + rng.below(mix.shared_lines);
            if rng.chance(mix.shared_write_frac) {
                out.push(Access::Write(line));
            } else {
                out.push(Access::Read(line));
            }
        }
    }
}

/// The line range core `c` hands to core `(c+1) % cores` at a round
/// boundary: the tail of its private heap (the hand-off buffer).
pub(crate) fn handoff_range(
    mix: &WorkloadMix,
    layout: &Layout,
    core: usize,
) -> std::ops::Range<u64> {
    let base = layout.private_base[core];
    let start = base + mix.private_lines - mix.handoff_lines.min(mix.private_lines);
    start..base + mix.private_lines
}

/// Pre-initialize the read-only input (writes happen *before* the region is
/// classified read-only, matching MPL's initialize-then-freeze discipline).
pub(crate) fn initialize_readonly(sys: &mut System, mix: &WorkloadMix, layout: &Layout) {
    for l in layout.readonly_base..layout.readonly_base + mix.readonly_lines {
        sys.write(0, l);
    }
}

/// Assert a mix's fractions are a valid distribution.
pub fn validate_mix(mix: &WorkloadMix) {
    assert!(mix.private_frac >= 0.0 && mix.readonly_frac >= 0.0);
    assert!(
        mix.private_frac + mix.readonly_frac <= 1.0,
        "{}: fractions exceed 1",
        mix.name
    );
    assert!(mix.handoff_lines <= mix.private_lines);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CohMode, SystemConfig};

    #[test]
    fn mixes_are_valid_distributions() {
        for m in fig7_mixes() {
            validate_mix(&m);
        }
    }

    #[test]
    fn layout_regions_are_disjoint() {
        let mix = &fig7_mixes()[0];
        let l = Layout::new(mix, 8);
        for c in 0..7 {
            assert!(l.private_base[c] + mix.private_lines <= l.private_base[c + 1]);
        }
        assert!(l.private_base[7] + mix.private_lines <= l.readonly_base);
        assert!(l.readonly_base + mix.readonly_lines <= l.shared_base);
    }

    #[test]
    fn streams_are_deterministic_and_in_region() {
        let mix = &fig7_mixes()[1];
        let layout = Layout::new(mix, 4);
        // `b` starts non-empty: the stream clears its buffer first.
        let (mut a, mut b) = (Vec::new(), vec![Access::Read(0)]);
        round_stream_into(mix, &layout, 2, 1, 99, &mut a);
        round_stream_into(mix, &layout, 2, 1, 99, &mut b);
        assert_eq!(a, b);
        for acc in &a {
            let line = match acc {
                Access::Read(l) | Access::Write(l) => *l,
            };
            let in_private = (0..4).any(|c| {
                line >= layout.private_base[c] && line < layout.private_base[c] + mix.private_lines
            });
            let in_ro =
                line >= layout.readonly_base && line < layout.readonly_base + mix.readonly_lines;
            let in_sh = line >= layout.shared_base && line < layout.shared_base + mix.shared_lines;
            assert!(in_private || in_ro || in_sh, "stray line {line:#x}");
            // A core only touches its own private heap.
            if in_private {
                assert!(
                    line >= layout.private_base[2]
                        && line < layout.private_base[2] + mix.private_lines
                );
            }
        }
    }

    #[test]
    fn readonly_region_never_written_in_streams() {
        let mix = &fig7_mixes()[0];
        let layout = Layout::new(mix, 4);
        for core in 0..4 {
            for round in 0..mix.rounds {
                let mut stream = Vec::new();
                round_stream_into(mix, &layout, core, round, 5, &mut stream);
                for acc in stream {
                    if let Access::Write(l) = acc {
                        assert!(
                            !(l >= layout.readonly_base
                                && l < layout.readonly_base + mix.readonly_lines),
                            "write to read-only line {l:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn classification_covers_the_layout() {
        let mix = &fig7_mixes()[2];
        let layout = Layout::new(mix, 4);
        let mut sys = System::new(SystemConfig::test(4, CohMode::Selective));
        initialize_readonly(&mut sys, mix, &layout);
        layout.classify(&mut sys, mix);
        // After classification, reads of read-only lines bypass the
        // directory.
        let before = sys.stats.dir_lookups;
        sys.read(3, layout.readonly_base);
        assert_eq!(sys.stats.dir_lookups, before);
    }
}
