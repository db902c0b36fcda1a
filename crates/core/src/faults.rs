//! Deterministic cross-layer fault injection: the fault plane.
//!
//! The paper's robustness argument is that an interwoven stack makes
//! *recovery* cheap: CARAT relocates a damaged allocation instead of killing
//! a process, a virtine restarts from its snapshot in ~10 µs instead of a
//! ~300 µs fork+exec, a kernel watchdog re-kicks a stalled CPU instead of
//! waiting for a coarse softlockup timer. Demonstrating that requires
//! *injecting* the faults — and doing so deterministically, because every
//! comparison in this workspace (interwoven vs. layered, run A vs. run B) is
//! only meaningful if a run is a pure function of its configuration.
//!
//! A [`FaultPlan`] is that injection plane. Each fault class draws from its
//! own [`SplitMix64`] stream (seeded from one plan
//! seed), so the decision sequence of one class never perturbs another's,
//! and the same seed yields a bit-identical injection trace. A class with
//! probability zero never draws at all: a quiet plan is exactly equivalent
//! to no plan, which is how the no-fault golden outputs stay byte-stable.
//!
//! The plan only *decides*; each layer owns its injection point and its
//! recovery mechanism:
//!
//! | class | injected at | recovered by |
//! |---|---|---|
//! | [`FaultClass::LostIpi`] | kick/IPI dispatch | kernel watchdog re-kick (bounded backoff) |
//! | [`FaultClass::DelayedIpi`] | kick/IPI dispatch | absorbed (late dispatch, causality kept) |
//! | [`FaultClass::AllocFail`] | buddy allocator | typed `AllocError`; scheduler sheds the task |
//! | [`FaultClass::BitFlip`] | interpreter page memory | CARAT audit → quarantine-and-relocate |
//! | [`FaultClass::VirtineKill`] | virtine mid-call | snapshot restart by the microhypervisor |

use crate::rng::SplitMix64;
use crate::telemetry::{Key, Layer, Sink, Unit};
use crate::time::Cycles;

/// Registry keys for injected faults, indexed by [`FaultClass::index`].
const FAULT_KEYS: [Key; 5] = [
    Key::new("core.fault.lost_ipi", Layer::Hardware, Unit::Count),
    Key::new("core.fault.delayed_ipi", Layer::Hardware, Unit::Count),
    Key::new("core.fault.alloc_fail", Layer::Kernel, Unit::Count),
    Key::new("core.fault.bit_flip", Layer::Runtime, Unit::Count),
    Key::new("core.fault.virtine_kill", Layer::Virtine, Unit::Count),
];

/// The injectable fault classes — one per recovery story in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// An IPI/kick dropped at the delivery fabric (lost wakeup).
    LostIpi,
    /// An IPI delayed by the fabric (late wakeup).
    DelayedIpi,
    /// A kernel buddy allocation forced to fail (out-of-memory).
    AllocFail,
    /// A single bit flipped in interpreter page memory (soft error).
    BitFlip,
    /// A running virtine killed mid-call (crashed guest).
    VirtineKill,
}

impl FaultClass {
    /// Every class, in a fixed order (indexes the plan's per-class streams).
    pub const ALL: [FaultClass; 5] = [
        FaultClass::LostIpi,
        FaultClass::DelayedIpi,
        FaultClass::AllocFail,
        FaultClass::BitFlip,
        FaultClass::VirtineKill,
    ];

    /// Display name used by reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::LostIpi => "lost IPI",
            FaultClass::DelayedIpi => "delayed IPI",
            FaultClass::AllocFail => "alloc failure",
            FaultClass::BitFlip => "memory bit-flip",
            FaultClass::VirtineKill => "virtine crash",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultClass::LostIpi => 0,
            FaultClass::DelayedIpi => 1,
            FaultClass::AllocFail => 2,
            FaultClass::BitFlip => 3,
            FaultClass::VirtineKill => 4,
        }
    }

    /// The registry key under which injections of this class are counted
    /// when the plan carries a telemetry sink.
    pub fn key(self) -> &'static Key {
        &FAULT_KEYS[self.index()]
    }
}

/// Per-class injection rates. A probability of zero disarms the class — it
/// then consumes no random draws, so a fully quiet config is bit-equivalent
/// to running with no plan at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for all per-class decision streams.
    pub seed: u64,
    /// Probability an IPI/kick is dropped at dispatch.
    pub drop_ipi: f64,
    /// Probability an IPI/kick is delayed (evaluated only if not dropped).
    pub delay_ipi: f64,
    /// Maximum injected IPI delay (uniform in `1..=max`).
    pub max_ipi_delay: Cycles,
    /// Probability a buddy allocation fails with `OutOfMemory`.
    pub alloc_fail: f64,
    /// Probability a bit flip is injected per scrub opportunity.
    pub bit_flip: f64,
    /// Probability a virtine invocation is killed mid-call.
    pub virtine_kill: f64,
}

impl FaultConfig {
    /// A fully disarmed config (no class ever fires) with the given seed.
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_ipi: 0.0,
            delay_ipi: 0.0,
            max_ipi_delay: Cycles(2_000),
            alloc_fail: 0.0,
            bit_flip: 0.0,
            virtine_kill: 0.0,
        }
    }
}

/// One injected fault, in injection order: the deterministic trace two runs
/// of the same seed must reproduce bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Which class fired.
    pub class: FaultClass,
    /// The class-local decision index (draw number) that fired.
    pub draw: u64,
}

/// The seeded fault-injection plane.
///
/// Layers consult the plan at their injection points ([`FaultPlan::drop_kick`]
/// at IPI dispatch, [`FaultPlan::fail_alloc`] in the buddy allocator, …);
/// the plan answers deterministically and records every injection in its
/// [trace](FaultPlan::trace).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// One decision stream per class, so classes never perturb each other.
    rng: [SplitMix64; 5],
    /// Decision draws consumed per class (fired or not).
    draws: [u64; 5],
    /// Injections per class.
    injected: [u64; 5],
    trace: Vec<FaultRecord>,
    /// Telemetry sink injections are published into (off by default, so a
    /// plan without a sink behaves bit-identically to one predating it).
    sink: Sink,
}

impl FaultPlan {
    /// A plan for `cfg`, with one independent stream per fault class.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        // Distinct odd salts decorrelate the per-class streams.
        const SALTS: [u64; 5] = [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0xD6E8_FEB8_6659_FD93,
            0xA24B_AED4_963E_E407,
        ];
        let rng = std::array::from_fn(|i| SplitMix64::new(cfg.seed ^ SALTS[i]));
        FaultPlan {
            cfg,
            rng,
            draws: [0; 5],
            injected: [0; 5],
            trace: Vec::new(),
            sink: Sink::off(),
        }
    }

    /// A fully disarmed plan (useful as a placeholder; injects nothing).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig::quiet(seed))
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Attach a telemetry sink: every injection is additionally counted
    /// under its class key ([`FaultClass::key`]). Decisions are unchanged —
    /// the sink observes, it never perturbs the decision streams.
    pub fn set_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// Decide one class: burn a draw, record an injection if it fired.
    fn decide(&mut self, class: FaultClass, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let i = class.index();
        let draw = self.draws[i];
        self.draws[i] += 1;
        let fired = self.rng[i].chance(p);
        if fired {
            self.injected[i] += 1;
            self.trace.push(FaultRecord { class, draw });
            self.sink.count(class.key(), 0, 1);
        }
        fired
    }

    /// Should this IPI/kick be dropped at the delivery fabric?
    pub fn drop_kick(&mut self) -> bool {
        self.decide(FaultClass::LostIpi, self.cfg.drop_ipi)
    }

    /// Extra delivery latency injected into this IPI/kick, if any.
    pub fn kick_delay(&mut self) -> Option<Cycles> {
        if !self.decide(FaultClass::DelayedIpi, self.cfg.delay_ipi) {
            return None;
        }
        let max = self.cfg.max_ipi_delay.get().max(1);
        Some(Cycles(
            self.rng[FaultClass::DelayedIpi.index()].range(1, max),
        ))
    }

    /// Should this buddy allocation fail with `OutOfMemory`?
    pub fn fail_alloc(&mut self) -> bool {
        self.decide(FaultClass::AllocFail, self.cfg.alloc_fail)
    }

    /// One scrub-interval bit-flip decision over `n_sites` candidate words:
    /// `Some((site, bit))` picks the word index and the bit to flip.
    pub fn flip_spec(&mut self, n_sites: u64) -> Option<(u64, u32)> {
        if n_sites == 0 || !self.decide(FaultClass::BitFlip, self.cfg.bit_flip) {
            return None;
        }
        let r = &mut self.rng[FaultClass::BitFlip.index()];
        let site = r.below(n_sites);
        let bit = r.below(64) as u32;
        Some((site, bit))
    }

    /// Fuel point at which to kill this virtine invocation, if the class
    /// fires; always strictly inside `budget` so the kill lands mid-call.
    pub fn virtine_kill_at(&mut self, budget: u64) -> Option<u64> {
        if budget < 2 || !self.decide(FaultClass::VirtineKill, self.cfg.virtine_kill) {
            return None;
        }
        let r = &mut self.rng[FaultClass::VirtineKill.index()];
        Some(r.range(1, budget - 1))
    }

    /// Injections of `class` so far.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.injected[class.index()]
    }

    /// Total injections across all classes.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// The injection trace, in order. Two runs of the same seed over the
    /// same workload must produce identical traces (property-tested in the
    /// facade crate).
    pub fn trace(&self) -> &[FaultRecord] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_ipi: 0.3,
            delay_ipi: 0.2,
            max_ipi_delay: Cycles(500),
            alloc_fail: 0.25,
            bit_flip: 0.4,
            virtine_kill: 0.35,
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let mut a = FaultPlan::new(noisy(7));
        let mut b = FaultPlan::new(noisy(7));
        for _ in 0..200 {
            assert_eq!(a.drop_kick(), b.drop_kick());
            assert_eq!(a.kick_delay(), b.kick_delay());
            assert_eq!(a.fail_alloc(), b.fail_alloc());
            assert_eq!(a.flip_spec(64), b.flip_spec(64));
            assert_eq!(a.virtine_kill_at(10_000), b.virtine_kill_at(10_000));
        }
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.total_injected(), b.total_injected());
        assert!(a.total_injected() > 0, "rates this high must fire");
    }

    #[test]
    fn classes_use_independent_streams() {
        // Consuming draws of one class must not change another's decisions.
        let mut a = FaultPlan::new(noisy(11));
        let mut b = FaultPlan::new(noisy(11));
        for _ in 0..50 {
            let _ = a.drop_kick(); // extra LostIpi draws in plan A only
        }
        for _ in 0..50 {
            assert_eq!(a.fail_alloc(), b.fail_alloc());
        }
    }

    #[test]
    fn quiet_plan_never_fires_and_never_draws() {
        let mut p = FaultPlan::quiet(99);
        for _ in 0..100 {
            assert!(!p.drop_kick());
            assert!(p.kick_delay().is_none());
            assert!(!p.fail_alloc());
            assert!(p.flip_spec(8).is_none());
            assert!(p.virtine_kill_at(1000).is_none());
        }
        assert_eq!(p.total_injected(), 0);
        assert!(p.trace().is_empty());
        assert_eq!(p.draws, [0; 5], "a disarmed class must not consume draws");
    }

    #[test]
    fn kill_point_lands_mid_call() {
        let mut cfg = FaultConfig::quiet(3);
        cfg.virtine_kill = 1.0;
        let mut p = FaultPlan::new(cfg);
        for _ in 0..100 {
            let k = p.virtine_kill_at(5_000).expect("p=1 must fire");
            assert!((1..5_000).contains(&k));
        }
    }

    #[test]
    fn sink_counts_injections_without_perturbing_decisions() {
        use crate::telemetry::{Level, Sink};
        let mut plain = FaultPlan::new(noisy(13));
        let mut wired = FaultPlan::new(noisy(13));
        let sink = Sink::on(Level::Counters);
        wired.set_sink(sink.clone());
        for _ in 0..200 {
            assert_eq!(plain.drop_kick(), wired.drop_kick());
            assert_eq!(plain.kick_delay(), wired.kick_delay());
            assert_eq!(plain.fail_alloc(), wired.fail_alloc());
            assert_eq!(plain.flip_spec(64), wired.flip_spec(64));
            assert_eq!(plain.virtine_kill_at(10_000), wired.virtine_kill_at(10_000));
        }
        assert_eq!(plain.trace(), wired.trace());
        for class in FaultClass::ALL {
            assert_eq!(sink.counter(class.key().name), wired.injected(class));
        }
    }

    #[test]
    fn flip_spec_within_bounds() {
        let mut cfg = FaultConfig::quiet(5);
        cfg.bit_flip = 1.0;
        let mut p = FaultPlan::new(cfg);
        for _ in 0..100 {
            let (site, bit) = p.flip_spec(17).expect("p=1 must fire");
            assert!(site < 17);
            assert!(bit < 64);
        }
        assert!(p.flip_spec(0).is_none(), "no sites, no flip");
    }
}
