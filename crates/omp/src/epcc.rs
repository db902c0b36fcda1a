//! EPCC-style OpenMP overhead microbenchmarks.
//!
//! §V-A: "All three implementations can run the full Edinburgh OpenMP
//! microbenchmarks." The EPCC suite measures the overhead of individual
//! constructs — `parallel`, `barrier`, `for` with each schedule — as a
//! function of thread count. This module produces that table for every
//! execution mode: the per-construct costs come straight from the mode
//! profiles, so the table doubles as a legible summary of *why* Fig. 6
//! comes out the way it does.

use crate::modes::{ModeCosts, OmpMode};
use interweave_core::machine::MachineConfig;
use interweave_core::time::Cycles;

/// The EPCC constructs measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construct {
    /// `#pragma omp parallel` (fork + join).
    Parallel,
    /// `#pragma omp barrier`.
    Barrier,
    /// `#pragma omp for schedule(dynamic, 1)` per-chunk overhead × chunks.
    ForDynamic,
    /// `#pragma omp parallel for reduction(+:x)` — the tree combine after
    /// the loop.
    Reduction,
    /// `#pragma omp task` + `taskwait` per task (the EPCC tasking suite of
    /// \[16\]; CCK's native shape).
    Task,
}

impl Construct {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Construct::Parallel => "parallel",
            Construct::Barrier => "barrier",
            Construct::ForDynamic => "for (dynamic)",
            Construct::Reduction => "reduction",
            Construct::Task => "task",
        }
    }

    /// All constructs.
    pub(crate) fn all() -> [Construct; 5] {
        [
            Construct::Parallel,
            Construct::Barrier,
            Construct::ForDynamic,
            Construct::Reduction,
            Construct::Task,
        ]
    }
}

/// One microbenchmark measurement.
#[derive(Debug, Clone)]
pub struct EpccRow {
    /// Construct measured.
    pub construct: Construct,
    /// Execution design.
    pub mode: OmpMode,
    /// Thread count.
    pub threads: usize,
    /// Overhead in cycles per construct execution.
    pub overhead: Cycles,
}

/// Overhead of one construct at one scale under one mode.
pub(crate) fn construct_overhead(
    construct: Construct,
    mode: OmpMode,
    threads: usize,
    mc: &MachineConfig,
) -> Cycles {
    let c = ModeCosts::new(mode, mc);
    match construct {
        Construct::Parallel => {
            c.fork_master(threads) + c.fork_worker_latency(threads) + c.barrier(threads)
        }
        Construct::Barrier => c.barrier(threads),
        // 16 chunks per thread, EPCC-style tiny bodies.
        Construct::ForDynamic => c.chunk_grab(threads) * 16 + c.barrier(threads),
        // Tree combine: log2(threads) levels of partial-sum exchange, then
        // the implicit barrier.
        Construct::Reduction => {
            let levels = (usize::BITS - threads.max(1).leading_zeros()) as u64;
            interweave_core::time::Cycles(90) * levels + c.barrier(threads)
        }
        // Spawn + run + completion bookkeeping for one child task; CCK's
        // chunk-grab path doubles as its task queue.
        Construct::Task => c.chunk_grab(threads) * 2 + c.fork_worker_latency(threads) / 2,
    }
}

/// The full table across modes and thread counts.
pub fn epcc_table(mc: &MachineConfig, thread_counts: &[usize]) -> Vec<EpccRow> {
    let mut rows = Vec::new();
    for &construct in Construct::all().iter() {
        for mode in OmpMode::all() {
            for &t in thread_counts {
                rows.push(EpccRow {
                    construct,
                    mode,
                    threads: t,
                    overhead: construct_overhead(construct, mode, t, mc),
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knl() -> MachineConfig {
        MachineConfig::phi_knl()
    }

    #[test]
    fn rtk_beats_linux_on_every_construct_at_every_scale() {
        for row in epcc_table(&knl(), &[2, 8, 32, 64]) {
            if row.mode != OmpMode::Rtk {
                continue;
            }
            let lx = construct_overhead(row.construct, OmpMode::LinuxUser, row.threads, &knl());
            assert!(
                row.overhead < lx,
                "{} @{}: rtk {} vs linux {}",
                row.construct.name(),
                row.threads,
                row.overhead,
                lx
            );
        }
    }

    #[test]
    fn barrier_overhead_grows_with_threads() {
        for mode in [OmpMode::LinuxUser, OmpMode::Rtk] {
            let small = construct_overhead(Construct::Barrier, mode, 2, &knl());
            let large = construct_overhead(Construct::Barrier, mode, 64, &knl());
            assert!(large > small, "{mode:?}");
        }
    }

    #[test]
    fn table_is_complete() {
        let rows = epcc_table(&knl(), &[2, 4, 8]);
        assert_eq!(rows.len(), 5 * OmpMode::all().len() * 3);
    }

    #[test]
    fn cck_tasks_are_the_cheapest_tasking_path_at_small_scale() {
        // CCK compiles tasks straight into the kernel task framework; at
        // small scale its per-task overhead beats the thread-based designs.
        let cck = construct_overhead(Construct::Task, OmpMode::Cck, 4, &knl());
        let lx = construct_overhead(Construct::Task, OmpMode::LinuxUser, 4, &knl());
        assert!(cck < lx, "cck {cck} vs linux {lx}");
    }

    #[test]
    fn reduction_tracks_barrier_plus_combine() {
        for mode in OmpMode::all() {
            let red = construct_overhead(Construct::Reduction, mode, 16, &knl());
            let bar = construct_overhead(Construct::Barrier, mode, 16, &knl());
            assert!(red > bar, "{mode:?}: reduction must exceed its barrier");
        }
    }
}
