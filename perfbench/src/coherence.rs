//! `coherence` workload: the cache-coherence protocol alone, on the Fig. 7
//! traffic.
//!
//! Each chunk is one Fig. 7 benchmark run, `experiment::run_one`, on the
//! 24-core Fig. 7 machine under the coherence mode of the composed
//! interwoven stack (selective deactivation): a PBBS-archetype mix from
//! `fig7_mixes`, drawn by the seed, with a seeded access stream. The run
//! builds its own system, classifies the regions, replays each core's
//! rounds with the producer/consumer hand-offs through `reclassify`, and
//! checks the single-writer/multiple-reader invariant after every round.
//! The check turns a violated invariant into a failed chunk and verifies
//! that the makespan covers every round's accesses at the L1-hit latency
//! and that interconnect energy was spent. Work unit: one simulated access.

use crate::{Tally, Workload};
use interweave::compose::ComposedStack;
use interweave_coherence::experiment::run_one;
use interweave_coherence::protocol::{CohMode, LatencyModel, SystemConfig};
use interweave_coherence::workloads::{fig7_mixes, WorkloadMix};
use interweave_core::rng::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One Fig. 7 run to make.
pub struct Run {
    mix: usize,
    seed: u64,
}

/// The run's makespan and interconnect energy, or why it panicked: the
/// run asserts the single-writer/multiple-reader invariant every round.
pub type Outcome = Result<(u64, f64), String>;

pub struct CoherenceWorkload {
    mixes: Vec<WorkloadMix>,
    mode: CohMode,
    cores: usize,
}

impl CoherenceWorkload {
    pub fn setup(stack: &ComposedStack) -> CoherenceWorkload {
        CoherenceWorkload {
            mixes: fig7_mixes(),
            mode: stack.coherence,
            cores: SystemConfig::fig7(stack.coherence).cores,
        }
    }
}

impl Workload for CoherenceWorkload {
    type Input = Run;
    type Output = Outcome;
    const LAYER: &'static str = "coherence";

    fn gen(&mut self, rng: &mut SplitMix64) -> Run {
        Run {
            mix: rng.below(self.mixes.len() as u64) as usize,
            seed: rng.next_u64(),
        }
    }

    fn sim(&mut self, run: &Run) -> Outcome {
        let mix = &self.mixes[run.mix];
        catch_unwind(AssertUnwindSafe(|| {
            run_one(mix, self.cores, self.mode, run.seed)
        }))
        .map_err(|_| format!("{}: the run panicked", mix.name))
    }

    fn check(&self, run: &Run, out: &Outcome) -> Result<Tally, String> {
        let mix = &self.mixes[run.mix];
        let (makespan, energy) = out.clone()?;
        let (rounds, cores) = (mix.rounds as u64, self.cores as u64);
        // Each round, every core issues its stream and fills its hand-off
        // buffer; from the second round on it first drains its
        // predecessor's buffer.
        let per_round = mix.accesses_per_round as u64 + mix.handoff_lines;
        let accesses = rounds * cores * per_round + (rounds - 1) * cores * mix.handoff_lines;
        let floor = rounds * per_round * LatencyModel::default().l1_hit;
        if makespan < floor {
            return Err(format!(
                "{}: makespan {makespan} below the L1-hit floor {floor}",
                mix.name
            ));
        }
        if !(energy.is_finite() && energy > 0.0) {
            return Err(format!("{}: interconnect energy {energy}", mix.name));
        }
        Ok(Tally {
            work: accesses,
            sim_cycles: makespan,
        })
    }
}
