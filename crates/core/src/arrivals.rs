//! Open-loop arrival processes for request-serving experiments.
//!
//! A closed-loop driver (issue, wait, issue again) can never observe
//! queueing collapse: when the server slows down, the load generator slows
//! down with it. Real datacenter traffic is *open-loop* — arrivals keep
//! coming whether or not earlier requests finished — and that is where an
//! interwoven stack's tail latency diverges from a layered one at
//! saturation. This module provides the arrival side of that experiment:
//! three seeded-deterministic arrival processes over a fixed duration, all
//! drawing from one [`SplitMix64`] stream so a run is a pure function of
//! `(kind, rate, duration, seed)`.
//!
//! - [`ArrivalKind::Poisson`] — memoryless arrivals at a constant rate; the
//!   M/G/1 baseline.
//! - [`ArrivalKind::Bursty`] — an MMPP-style on/off process: the rate
//!   switches between a high ("burst") and a low phase with exponentially
//!   distributed dwell times. Time-averaged rate equals the nominal rate,
//!   but arrivals clump — the queue-depth stress test.
//! - [`ArrivalKind::Diurnal`] — a piecewise-constant day cycle (eight
//!   phases, trough to peak and back) over the run's duration. The profile
//!   is a fixed multiplier table rather than a sinusoid so the generator
//!   uses no transcendental functions beyond the RNG's `ln` (which the
//!   pinned goldens already rely on being bit-stable).
//!
//! Piecewise-constant-rate streams are generated exactly: within a phase
//! the process is Poisson at the phase rate, and at a phase boundary the
//! pending gap is discarded and redrawn — valid by memorylessness, and
//! deterministic because the redraw consumes its draws in a fixed order.

use crate::rng::SplitMix64;

/// The eight-phase diurnal multiplier table (averages to exactly 1.0):
/// night trough, morning ramp, midday peak, evening decay.
const DIURNAL_PROFILE: [f64; 8] = [0.35, 0.55, 0.85, 1.25, 1.55, 1.45, 1.05, 0.95];

/// Burst-phase rate multiplier for [`ArrivalKind::Bursty`].
const BURST_HI: f64 = 1.7;
/// Quiet-phase rate multiplier for [`ArrivalKind::Bursty`] (averages with
/// [`BURST_HI`] to 1.0 under equal expected dwell).
const BURST_LO: f64 = 0.3;
/// Expected dwell time in each burst phase, as a fraction of the duration.
const BURST_DWELL_FRAC: f64 = 1.0 / 12.0;

/// Which open-loop arrival process drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalKind {
    /// Constant-rate memoryless arrivals.
    Poisson,
    /// MMPP-style on/off bursts (high/low rate, exponential dwells).
    Bursty,
    /// Eight-phase day cycle over the run duration (piecewise constant).
    Diurnal,
}

impl ArrivalKind {
    /// Every kind, in a fixed order (tables and sweeps iterate this).
    pub const ALL: [ArrivalKind; 3] = [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty,
        ArrivalKind::Diurnal,
    ];

    /// Display / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
            ArrivalKind::Diurnal => "diurnal",
        }
    }

    /// Parse a CLI name (the inverse of [`ArrivalKind::name`]).
    pub fn parse(s: &str) -> Option<ArrivalKind> {
        ArrivalKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A seeded open-loop arrival-time generator over `[0, duration_us)`.
///
/// Iterates absolute arrival times in microseconds, strictly increasing,
/// ending when the duration is exhausted. Two generators with the same
/// configuration yield bit-identical streams.
///
/// ```
/// use interweave_core::arrivals::{ArrivalGen, ArrivalKind};
/// let mut g = ArrivalGen::new(ArrivalKind::Poisson, 50.0, 10_000.0, 7);
/// let times: Vec<f64> = g.by_ref().collect();
/// assert!(times.windows(2).all(|w| w[0] < w[1]));
/// assert!(times.iter().all(|&t| t < 10_000.0));
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    kind: ArrivalKind,
    rng: SplitMix64,
    /// Mean inter-arrival gap at the nominal (time-averaged) rate, µs.
    mean_gap_us: f64,
    duration_us: f64,
    /// Current absolute time, µs.
    t_us: f64,
    /// End of the current rate phase (bursty dwell / diurnal phase), µs.
    phase_until_us: f64,
    /// Current phase's rate multiplier.
    phase_mult: f64,
    /// Bursty: true while in the high-rate phase. Diurnal: unused.
    burst_on: bool,
    /// Diurnal: index of the current profile phase.
    diurnal_phase: usize,
}

impl ArrivalGen {
    /// A generator producing arrivals with mean gap `mean_gap_us` (at the
    /// time-averaged rate) over `[0, duration_us)`, seeded by `seed`.
    pub fn new(kind: ArrivalKind, mean_gap_us: f64, duration_us: f64, seed: u64) -> ArrivalGen {
        assert!(mean_gap_us > 0.0, "mean gap must be positive");
        assert!(duration_us > 0.0, "duration must be positive");
        let mut g = ArrivalGen {
            kind,
            rng: SplitMix64::new(seed),
            mean_gap_us,
            duration_us,
            t_us: 0.0,
            phase_until_us: duration_us,
            phase_mult: 1.0,
            burst_on: false,
            diurnal_phase: 0,
        };
        match kind {
            ArrivalKind::Poisson => {}
            ArrivalKind::Bursty => {
                // Start in the quiet phase; the first dwell draw is part of
                // the deterministic stream.
                g.burst_on = false;
                g.phase_mult = BURST_LO;
                g.phase_until_us = g.rng.exponential(duration_us * BURST_DWELL_FRAC);
            }
            ArrivalKind::Diurnal => {
                g.diurnal_phase = 0;
                g.phase_mult = DIURNAL_PROFILE[0];
                g.phase_until_us = duration_us / DIURNAL_PROFILE.len() as f64;
            }
        }
        g
    }

    /// Advance into the next rate phase starting at `self.t_us`.
    fn next_phase(&mut self) {
        match self.kind {
            ArrivalKind::Poisson => self.phase_until_us = f64::INFINITY,
            ArrivalKind::Bursty => {
                self.burst_on = !self.burst_on;
                self.phase_mult = if self.burst_on { BURST_HI } else { BURST_LO };
                self.phase_until_us =
                    self.t_us + self.rng.exponential(self.duration_us * BURST_DWELL_FRAC);
            }
            ArrivalKind::Diurnal => {
                self.diurnal_phase = (self.diurnal_phase + 1) % DIURNAL_PROFILE.len();
                self.phase_mult = DIURNAL_PROFILE[self.diurnal_phase];
                self.phase_until_us += self.duration_us / DIURNAL_PROFILE.len() as f64;
            }
        }
    }
}

impl Iterator for ArrivalGen {
    type Item = f64;

    /// The next absolute arrival time in µs, or `None` past the duration.
    fn next(&mut self) -> Option<f64> {
        loop {
            if self.t_us >= self.duration_us {
                return None;
            }
            let gap = self.rng.exponential(self.mean_gap_us / self.phase_mult);
            let candidate = self.t_us + gap;
            if candidate < self.phase_until_us {
                if candidate >= self.duration_us {
                    self.t_us = self.duration_us;
                    return None;
                }
                self.t_us = candidate;
                return Some(candidate);
            }
            // Phase boundary crossed before the candidate arrival: advance
            // to the boundary and redraw at the new rate (memorylessness
            // makes the discarded gap statistically free; determinism holds
            // because the redraw order is fixed).
            self.t_us = self.phase_until_us;
            self.next_phase();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(kind: ArrivalKind, seed: u64) -> Vec<f64> {
        ArrivalGen::new(kind, 100.0, 1_000_000.0, seed).collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        for kind in ArrivalKind::ALL {
            assert_eq!(collect(kind, 42), collect(kind, 42), "{kind:?}");
            assert_ne!(collect(kind, 42), collect(kind, 43), "{kind:?}");
        }
    }

    #[test]
    fn times_strictly_increase_and_stay_in_range() {
        for kind in ArrivalKind::ALL {
            let times = collect(kind, 7);
            assert!(times.windows(2).all(|w| w[0] < w[1]), "{kind:?}");
            assert!(
                times.iter().all(|&t| (0.0..1_000_000.0).contains(&t)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn all_kinds_deliver_the_nominal_rate_on_average() {
        // 10k expected arrivals. Poisson and diurnal concentrate tightly
        // (many independent gaps / fixed phase schedule); a bursty run's
        // count is dominated by ~12 random dwells, so its per-seed variance
        // is inherently large — check it averaged over several seeds.
        for kind in [ArrivalKind::Poisson, ArrivalKind::Diurnal] {
            let n = collect(kind, 11).len() as f64;
            assert!(
                (n - 10_000.0).abs() < 600.0,
                "{kind:?} delivered {n} arrivals"
            );
        }
        let mean = (0..8)
            .map(|s| collect(ArrivalKind::Bursty, s).len())
            .sum::<usize>() as f64
            / 8.0;
        assert!(
            (mean - 10_000.0).abs() < 1_500.0,
            "Bursty delivered {mean} arrivals on average"
        );
    }

    #[test]
    fn bursty_gaps_are_more_variable_than_poisson() {
        use crate::stats::Summary;
        let cv = |kind| {
            let times = collect(kind, 13);
            let mut s = Summary::new();
            for w in times.windows(2) {
                s.add(w[1] - w[0]);
            }
            s.cv()
        };
        // Exponential gaps have CV 1; mixing two rates pushes it above.
        assert!(cv(ArrivalKind::Bursty) > 1.1 * cv(ArrivalKind::Poisson));
    }

    #[test]
    fn diurnal_peak_phase_outpaces_the_trough() {
        let times = collect(ArrivalKind::Diurnal, 17);
        let phase_len = 1_000_000.0 / 8.0;
        let in_phase = |p: usize| {
            times
                .iter()
                .filter(|&&t| (t / phase_len) as usize == p)
                .count()
        };
        // Phase 4 runs at 1.55x, phase 0 at 0.35x.
        assert!(in_phase(4) > 3 * in_phase(0));
    }

    #[test]
    fn parse_round_trips_and_rejects_unknown() {
        for kind in ArrivalKind::ALL {
            assert_eq!(ArrivalKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ArrivalKind::parse("uniform"), None);
        assert_eq!(ArrivalKind::parse(""), None);
    }
}
