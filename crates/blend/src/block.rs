//! A block-device completion model: interrupt, coalesced-interrupt, and
//! blended-polling completion delivery.
//!
//! §V-C's blended-driver claim covers devices generally; block storage adds
//! a wrinkle the NIC model doesn't have: completions arrive in bursts
//! (queue depth), so the conventional mitigation is *interrupt coalescing*
//! — fire once per K completions or per timeout. Coalescing trades latency
//! for interrupt rate; blended polling gets the low interrupt count *and*
//! poll-bounded latency, which is the §V-C argument in a device class where
//! the commodity stack already has its best countermeasure deployed.

use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::stats::Summary;

/// How completions reach the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionMode {
    /// One interrupt per completion.
    InterruptPerCompletion,
    /// Interrupt per `k` completions or per timeout, whichever first.
    Coalesced {
        /// Completions per interrupt.
        k: u32,
        /// Timeout in cycles.
        timeout: u64,
    },
    /// Compiler-injected polls at a bounded gap.
    BlendedPolling {
        /// Maximum dynamic gap between polls (from the injection pass's
        /// placement bound).
        poll_gap: u64,
    },
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct BlockConfig {
    /// I/O requests submitted.
    pub requests: usize,
    /// Mean inter-submission gap (cycles).
    pub submit_gap: u64,
    /// Device service latency: uniform in `[lo, hi]` cycles.
    pub service: (u64, u64),
    /// Completion-handler work per request (cycles).
    pub handler: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for BlockConfig {
    fn default() -> BlockConfig {
        BlockConfig {
            requests: 2_000,
            submit_gap: 2_500,
            service: (8_000, 20_000),
            handler: 300,
            seed: 5,
        }
    }
}

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct BlockReport {
    /// Mode measured.
    pub mode: CompletionMode,
    /// Completion latency (device-done → handler-done), cycles.
    pub latency: Summary,
    /// Interrupts taken.
    pub interrupts: u64,
    /// Cycles spent in delivery machinery (dispatch + polls + handlers).
    pub delivery_cycles: u64,
}

/// Run the block-device experiment under one completion mode.
pub fn run_block(cfg: &BlockConfig, mc: &MachineConfig, mode: CompletionMode) -> BlockReport {
    let mut rng = SplitMix64::new(cfg.seed);
    // Generate submission and device-completion times.
    let mut done_times: Vec<u64> = Vec::with_capacity(cfg.requests);
    let mut t = 0u64;
    for _ in 0..cfg.requests {
        t += rng.range(cfg.submit_gap / 2, cfg.submit_gap * 3 / 2);
        let service = rng.range(cfg.service.0, cfg.service.1);
        done_times.push(t + service);
    }
    done_times.sort_unstable();

    let dispatch = mc.dispatch_cost().get() + mc.cost.intr_return.get();
    let mut latency = Summary::new();
    let mut interrupts = 0u64;
    let mut delivery = 0u64;

    match mode {
        CompletionMode::InterruptPerCompletion => {
            for _ in &done_times {
                interrupts += 1;
                delivery += dispatch + cfg.handler;
                latency.add((dispatch + cfg.handler) as f64);
            }
        }
        CompletionMode::Coalesced { k, timeout } => {
            // Batch completions: an interrupt fires when k are pending or
            // the oldest pending completion is `timeout` old.
            let mut pending: Vec<u64> = Vec::new();
            let mut i = 0;
            while i < done_times.len() {
                pending.push(done_times[i]);
                i += 1;
                let oldest = pending[0];
                let fire_now = pending.len() as u32 >= k
                    || done_times
                        .get(i)
                        .map(|&next| next > oldest + timeout)
                        .unwrap_or(true);
                if fire_now {
                    let fire_at = (oldest + timeout)
                        .min(*pending.last().expect("non-empty"))
                        .max(*pending.last().expect("non-empty"));
                    interrupts += 1;
                    delivery += dispatch;
                    let mut h = fire_at + dispatch;
                    for &p in &pending {
                        h += cfg.handler;
                        delivery += cfg.handler;
                        latency.add((h - p) as f64);
                    }
                    pending.clear();
                }
            }
        }
        CompletionMode::BlendedPolling { poll_gap } => {
            // Polls occur at every multiple of poll_gap (the placement
            // bound); completions wait for the next poll. Poll checks are
            // charged whether or not work is found.
            let horizon = done_times.last().copied().unwrap_or(0) + poll_gap;
            let polls = horizon / poll_gap + 1;
            delivery += polls * 3; // constant-time check
            for &d in &done_times {
                let poll_at = d.div_ceil(poll_gap) * poll_gap;
                let finish = poll_at + cfg.handler;
                delivery += cfg.handler;
                latency.add((finish - d) as f64);
            }
        }
    }

    BlockReport {
        mode,
        latency,
        interrupts,
        delivery_cycles: delivery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MachineConfig {
        MachineConfig::xeon_server_2s()
    }

    #[test]
    fn polling_eliminates_interrupts_entirely() {
        let r = run_block(
            &BlockConfig::default(),
            &mc(),
            CompletionMode::BlendedPolling { poll_gap: 400 },
        );
        assert_eq!(r.interrupts, 0);
        assert_eq!(r.latency.count(), 2_000);
    }

    #[test]
    fn coalescing_trades_latency_for_interrupt_rate() {
        let cfg = BlockConfig::default();
        let per = run_block(&cfg, &mc(), CompletionMode::InterruptPerCompletion);
        let coal = run_block(
            &cfg,
            &mc(),
            CompletionMode::Coalesced {
                k: 16,
                timeout: 30_000,
            },
        );
        assert!(
            coal.interrupts * 4 < per.interrupts,
            "coalescing must cut interrupts"
        );
        assert!(
            coal.latency.mean() > per.latency.mean(),
            "coalescing must cost latency: {} vs {}",
            coal.latency.mean(),
            per.latency.mean()
        );
    }

    #[test]
    fn blending_beats_coalescing_on_both_axes() {
        // The §V-C pitch: tight poll bounds give lower latency than the
        // coalesced configuration AND zero interrupts.
        let cfg = BlockConfig::default();
        let coal = run_block(
            &cfg,
            &mc(),
            CompletionMode::Coalesced {
                k: 16,
                timeout: 30_000,
            },
        );
        let poll = run_block(
            &cfg,
            &mc(),
            CompletionMode::BlendedPolling { poll_gap: 400 },
        );
        assert!(poll.latency.mean() < coal.latency.mean());
        assert!(poll.interrupts < coal.interrupts);
    }

    #[test]
    fn poll_gap_bounds_worst_case_latency() {
        let cfg = BlockConfig::default();
        for gap in [200u64, 1_000, 5_000] {
            let r = run_block(
                &cfg,
                &mc(),
                CompletionMode::BlendedPolling { poll_gap: gap },
            );
            assert!(
                r.latency.max() <= (gap + cfg.handler) as f64,
                "gap {gap}: max latency {}",
                r.latency.max()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = BlockConfig::default();
        let a = run_block(&cfg, &mc(), CompletionMode::InterruptPerCompletion);
        let b = run_block(&cfg, &mc(), CompletionMode::InterruptPerCompletion);
        assert_eq!(a.interrupts, b.interrupts);
        assert!((a.latency.mean() - b.latency.mean()).abs() < 1e-12);
    }
}
