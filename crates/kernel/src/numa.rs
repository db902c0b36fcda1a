//! NUMA placement of essential thread state.
//!
//! §III: "For threads that are bound to specific CPUs, essential thread
//! (e.g., context, stack) and scheduler state is guaranteed to always be in
//! the most desirable zone." The commodity counterpoint: first-touch
//! placement puts a thread's TCB/stack on the socket where it *started*,
//! and fair-share load balancing then migrates threads away from their
//! state — every context switch and stack access afterwards crosses the
//! interconnect.
//!
//! The model simulates a population of threads over scheduler quanta:
//! under the Linux-like policy each quantum migrates a thread cross-socket
//! with some probability (state stays behind); the Nautilus policy binds
//! threads, so state is local by construction. Reported: the steady-state
//! remote fraction and the per-quantum cycle penalty.

use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::time::Cycles;

/// DRAM access latencies by locality.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NumaCosts {
    /// Same-socket DRAM access.
    pub local: Cycles,
    /// Cross-socket DRAM access.
    pub remote: Cycles,
}

impl Default for NumaCosts {
    fn default() -> NumaCosts {
        NumaCosts {
            local: Cycles(90),
            remote: Cycles(210),
        }
    }
}

/// Thread-state placement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Placement {
    /// Nautilus: threads bound to CPUs, state allocated from the CPU's
    /// buddy zone — always local.
    NkBound,
    /// Commodity: first-touch placement + load-balancer migrations with
    /// this cross-socket probability per quantum.
    FirstTouch {
        /// Probability a thread migrates across sockets in one quantum.
        migrate_prob: f64,
    },
}

/// Outcome of one placement simulation.
#[derive(Debug, Clone)]
pub struct NumaReport {
    /// Fraction of (thread, quantum) samples whose state was remote.
    pub remote_fraction: f64,
    /// Mean state-access penalty per quantum per thread, cycles (the extra
    /// cost of touching TCB + stack working set over the all-local case).
    pub penalty_per_quantum: f64,
}

/// Simulate `threads` threads over `quanta` scheduler quanta on `mc`.
/// `state_touches` is how many thread-state cache-line fills a quantum's
/// switch + stack activity performs (cold lines after a migration).
pub(crate) fn simulate_placement(
    mc: &MachineConfig,
    policy: Placement,
    threads: usize,
    quanta: usize,
    state_touches: u64,
    costs: NumaCosts,
    seed: u64,
) -> NumaReport {
    assert!(mc.sockets >= 1);
    let mut rng = SplitMix64::new(seed);
    // Per thread: (socket where its state lives, socket where it runs).
    let mut home: Vec<usize> = (0..threads).map(|t| t % mc.sockets).collect();
    let mut runs_on: Vec<usize> = home.clone();

    let mut remote_samples = 0u64;
    let mut penalty = 0u64;
    for _q in 0..quanta {
        for t in 0..threads {
            if let Placement::FirstTouch { migrate_prob } = policy {
                if mc.sockets > 1 && rng.chance(migrate_prob) {
                    // The balancer moves the thread; its state stays put.
                    runs_on[t] =
                        (runs_on[t] + 1 + rng.below(mc.sockets as u64 - 1) as usize) % mc.sockets;
                }
            }
            let remote = runs_on[t] != home[t];
            if remote {
                remote_samples += 1;
                penalty += state_touches * (costs.remote - costs.local).get();
            }
            let _ = &mut home[t]; // state never migrates in either policy
        }
    }
    let samples = (threads * quanta) as f64;
    NumaReport {
        remote_fraction: remote_samples as f64 / samples,
        penalty_per_quantum: penalty as f64 / samples,
    }
}

/// The §III comparison on a machine: NK-bound vs first-touch-with-balancer.
pub fn placement_comparison(mc: &MachineConfig, seed: u64) -> (NumaReport, NumaReport) {
    let costs = NumaCosts::default();
    let nk = simulate_placement(mc, Placement::NkBound, 64, 200, 24, costs, seed);
    let lx = simulate_placement(
        mc,
        Placement::FirstTouch { migrate_prob: 0.02 },
        64,
        200,
        24,
        costs,
        seed,
    );
    (nk, lx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nk_bound_threads_never_touch_remote_state() {
        let mc = MachineConfig::xeon_server_2s();
        let (nk, _) = placement_comparison(&mc, 7);
        assert_eq!(nk.remote_fraction, 0.0);
        assert_eq!(nk.penalty_per_quantum, 0.0);
    }

    #[test]
    fn first_touch_drifts_remote_under_migrations() {
        let mc = MachineConfig::xeon_server_2s();
        let (_, lx) = placement_comparison(&mc, 7);
        // Migrations accumulate: with p=0.02/quantum over 200 quanta the
        // population approaches the 1/2 steady state for 2 sockets.
        assert!(
            lx.remote_fraction > 0.25,
            "remote fraction {}",
            lx.remote_fraction
        );
        assert!(lx.penalty_per_quantum > 0.0);
    }

    #[test]
    fn more_sockets_mean_more_remoteness() {
        let two = MachineConfig::xeon_server_2s();
        let eight = MachineConfig::big_server_8s();
        let costs = NumaCosts::default();
        let p = Placement::FirstTouch { migrate_prob: 0.02 };
        let r2 = simulate_placement(&two, p, 64, 400, 24, costs, 3);
        let r8 = simulate_placement(&eight, p, 64, 400, 24, costs, 3);
        // Steady state: 1 − 1/sockets.
        assert!(r8.remote_fraction > r2.remote_fraction);
    }

    #[test]
    fn single_socket_machines_cannot_be_remote() {
        let mc = MachineConfig::phi_knl(); // one socket
        let r = simulate_placement(
            &mc,
            Placement::FirstTouch { migrate_prob: 0.5 },
            32,
            100,
            24,
            NumaCosts::default(),
            1,
        );
        assert_eq!(r.remote_fraction, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mc = MachineConfig::xeon_server_2s();
        let (a, b) = (placement_comparison(&mc, 9), placement_comparison(&mc, 9));
        assert_eq!(a.1.remote_fraction, b.1.remote_fraction);
    }
}
