//! Memory-ordering selectivity: the fence half of §V-B.
//!
//! "Ordering constraints in consistency models serialize all accesses of a
//! particular type, without selectivity. A fence orders writes that produce
//! data before setting the done flag, but it also orders all other writes
//! the thread issued, even if they are unrelated to the intended use of the
//! fence. Individual writes within a producer's data production subroutine
//! could semantically proceed in any order, yet x86-TSO unnecessarily
//! enforces a total order."
//!
//! The model: a producer issues a mix of *related* writes (the data its
//! consumer will read) and *unrelated* writes (private bookkeeping, often
//! cache misses), then publishes with a release fence. Under TSO the fence
//! drains the whole store buffer — it waits for the slowest outstanding
//! write, related or not. With language-level knowledge (the compiler knows
//! which writes belong to the publication), a *selective release* waits
//! only for the related set.

use interweave_core::rng::SplitMix64;

/// How release fences order prior stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FencePolicy {
    /// x86-TSO: the fence waits for every outstanding store.
    TsoTotal,
    /// Selective: the fence waits only for stores the language marked as
    /// part of the publication.
    SelectiveRelease,
}

/// Workload and machine parameters.
#[derive(Debug, Clone)]
pub struct OrderingConfig {
    /// Publication rounds (produce + fence).
    pub rounds: usize,
    /// Related (published) writes per round.
    pub related_writes: usize,
    /// Unrelated (private) writes per round, interleaved.
    pub unrelated_writes: usize,
    /// Store completion latency on a cache hit.
    pub hit_latency: u64,
    /// Store completion latency on a miss (must reach the home node).
    pub miss_latency: u64,
    /// Probability an *unrelated* write misses (private working sets are
    /// larger, so this is where the slow stores live).
    pub unrelated_miss_rate: f64,
    /// Probability a *related* write misses (publication buffers are small
    /// and hot).
    pub related_miss_rate: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for OrderingConfig {
    fn default() -> OrderingConfig {
        OrderingConfig {
            rounds: 200,
            related_writes: 4,
            unrelated_writes: 24,
            hit_latency: 12,
            miss_latency: 220,
            unrelated_miss_rate: 0.25,
            related_miss_rate: 0.02,
            seed: 23,
        }
    }
}

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct OrderingReport {
    /// Policy measured.
    pub policy: FencePolicy,
    /// Total cycles stalled at fences.
    pub fence_stall_cycles: u64,
    /// Fences executed.
    pub fences: u64,
    /// Mean stall per fence.
    pub mean_stall: f64,
}

/// Simulate the producer under one fence policy.
///
/// Writes issue one per cycle; each completes at `issue + latency`. At the
/// fence, the stall is the gap between "now" and the latest completion of
/// the set the policy must wait for.
pub fn run_ordering(cfg: &OrderingConfig, policy: FencePolicy) -> OrderingReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut now = 0u64;
    let mut stall_total = 0u64;

    for _ in 0..cfg.rounds {
        let mut related_done = now;
        let mut all_done = now;
        // Interleave: unrelated writes spread between the related ones.
        let total = cfg.related_writes + cfg.unrelated_writes;
        for k in 0..total {
            now += 1; // issue
                      // Deterministic Bresenham interleave: exactly `related_writes`
                      // of the `total` are related, spread evenly.
            let is_related = ((k + 1) * cfg.related_writes) / total.max(1)
                > (k * cfg.related_writes) / total.max(1);
            let miss_rate = if is_related {
                cfg.related_miss_rate
            } else {
                cfg.unrelated_miss_rate
            };
            let lat = if rng.chance(miss_rate) {
                cfg.miss_latency
            } else {
                cfg.hit_latency
            };
            let done = now + lat;
            all_done = all_done.max(done);
            if is_related {
                related_done = related_done.max(done);
            }
        }
        // The release fence.
        let wait_until = match policy {
            FencePolicy::TsoTotal => all_done,
            FencePolicy::SelectiveRelease => related_done,
        };
        let stall = wait_until.saturating_sub(now);
        stall_total += stall;
        now = now.max(wait_until) + 1; // the flag store itself
    }

    OrderingReport {
        policy,
        fence_stall_cycles: stall_total,
        fences: cfg.rounds as u64,
        mean_stall: stall_total as f64 / cfg.rounds.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_never_stalls_longer_than_tso() {
        for seed in 0..10 {
            let cfg = OrderingConfig {
                seed,
                ..OrderingConfig::default()
            };
            let tso = run_ordering(&cfg, FencePolicy::TsoTotal);
            let sel = run_ordering(&cfg, FencePolicy::SelectiveRelease);
            assert!(sel.fence_stall_cycles <= tso.fence_stall_cycles);
        }
    }

    #[test]
    fn unrelated_misses_are_the_tso_tax() {
        // With hot publication buffers and miss-prone private traffic, TSO
        // pays for ordering it never needed — the paper's exact complaint.
        let cfg = OrderingConfig::default();
        let tso = run_ordering(&cfg, FencePolicy::TsoTotal);
        let sel = run_ordering(&cfg, FencePolicy::SelectiveRelease);
        // 1.0: selective removes no stall; 0.0: it removes all of it.
        let ratio = sel.fence_stall_cycles as f64 / tso.fence_stall_cycles.max(1) as f64;
        assert!(
            ratio < 0.4,
            "selective should remove most fence stall, ratio {ratio:.2}"
        );
    }

    #[test]
    fn no_unrelated_traffic_means_no_benefit() {
        let cfg = OrderingConfig {
            unrelated_writes: 0,
            ..OrderingConfig::default()
        };
        let tso = run_ordering(&cfg, FencePolicy::TsoTotal);
        let sel = run_ordering(&cfg, FencePolicy::SelectiveRelease);
        assert_eq!(tso.fence_stall_cycles, sel.fence_stall_cycles);
    }

    #[test]
    fn benefit_grows_with_unrelated_traffic() {
        // The absolute stall removed per fence grows as more unrelated
        // (miss-prone) stores crowd the buffer. (The *ratio* saturates —
        // both numerator and denominator shift — so measure the gap.)
        let saved = |unrelated| {
            let cfg = OrderingConfig {
                unrelated_writes: unrelated,
                ..OrderingConfig::default()
            };
            let tso = run_ordering(&cfg, FencePolicy::TsoTotal);
            let sel = run_ordering(&cfg, FencePolicy::SelectiveRelease);
            tso.mean_stall - sel.mean_stall
        };
        let s4 = saved(4);
        let s48 = saved(48);
        assert!(
            s48 > s4,
            "more unrelated traffic should widen the gap: {s4:.1} vs {s48:.1} cycles/fence"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = OrderingConfig::default();
        let a = run_ordering(&cfg, FencePolicy::TsoTotal);
        let b = run_ordering(&cfg, FencePolicy::TsoTotal);
        assert_eq!(a.fence_stall_cycles, b.fence_stall_cycles);
    }
}
