//! Property tests for the heartbeat scheduler: deque conservation and the
//! exactly-once execution guarantee of promotion-based loop splitting.

use interweave_core::stack::OsPoint;
use interweave_core::Cycles;
use interweave_heartbeat::deque::WorkDeque;
use interweave_heartbeat::sim::{run_heartbeat, HeartbeatConfig};
use interweave_heartbeat::tpal::Tpal;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum DqOp {
    Push(u32),
    Pop,
    Steal,
}

fn dq_ops() -> impl Strategy<Value = Vec<DqOp>> {
    prop::collection::vec(
        prop_oneof![
            any::<u32>().prop_map(DqOp::Push),
            Just(DqOp::Pop),
            Just(DqOp::Steal),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every pushed task is taken exactly once (or still queued), under any
    /// owner/thief interleaving.
    #[test]
    fn deque_conserves_tasks(ops in dq_ops()) {
        let mut d = WorkDeque::new();
        let mut pushed = Vec::new();
        let mut taken = Vec::new();
        for op in ops {
            match op {
                DqOp::Push(v) => {
                    d.push(v);
                    pushed.push(v);
                }
                DqOp::Pop => {
                    if let Some(v) = d.pop() {
                        taken.push(v);
                    }
                }
                DqOp::Steal => {
                    if let Some(v) = d.steal() {
                        taken.push(v);
                    }
                }
            }
            prop_assert!(d.conserved());
        }
        while let Some(v) = d.pop() {
            taken.push(v);
        }
        pushed.sort_unstable();
        taken.sort_unstable();
        prop_assert_eq!(pushed, taken);
    }

    /// Heartbeat-promoted loops execute every iteration exactly once, for
    /// any worker count, grain, chunk size, and beat cadence.
    #[test]
    fn tpal_exactly_once(
        workers in 1usize..8,
        grain in 2u64..64,
        total in 1u64..4000,
        chunk in 1u64..64,
        beat_every in 0u64..8,
    ) {
        let mut t = Tpal::new(workers, grain);
        let done = t.run_loop(total, chunk, beat_every);
        prop_assert!(done.iter().all(|&d| d), "missed iterations");
        let executed: u64 = t.workers.iter().map(|w| w.executed).sum();
        prop_assert_eq!(executed, total);
        for w in &t.workers {
            prop_assert!(w.deque.conserved());
        }
    }

    /// Without beats, execution is sequential regardless of worker count —
    /// the heartbeat contract that promotion is the *only* parallelism
    /// source.
    #[test]
    fn no_beats_no_parallelism(workers in 1usize..8, total in 1u64..2000, chunk in 1u64..64) {
        let mut t = Tpal::new(workers, 4);
        let done = t.run_loop(total, chunk, 0);
        prop_assert!(done.iter().all(|&d| d));
        prop_assert_eq!(t.promotions, 0);
        prop_assert_eq!(t.workers[0].executed, total);
    }
}

// ---------------------------------------------------------------------------
// Timing-simulation properties.

/// The Nautilus path never overshoots its target rate and never loses
/// beats.
fn check_nk_path_is_exact(target_us: f64, handler: u64) -> Result<(), TestCaseError> {
    let mut cfg = HeartbeatConfig::fig3(OsPoint::NkLike, target_us, Cycles(handler));
    // Window scaled to the period so end-of-window quantization stays
    // below a percent (the property is about the mechanism, not about
    // fencepost effects at tiny windows).
    cfg.duration_us = target_us * 200.0;
    let r = run_heartbeat(&cfg);
    let f = r.fraction_of_target();
    prop_assert!(f <= 1.02, "overshoot {f}");
    prop_assert!(f >= 0.98, "undershoot {f}");
    prop_assert!(r.interbeat_cv < 1e-6);
    prop_assert_eq!(r.coalesced, 0);
    Ok(())
}

/// A minimal counterexample a shrinking proptest once recorded against
/// this file: a long period with the smallest handler.
#[test]
fn recorded_nk_period_of_419_5_us_with_a_200_cycle_handler() -> Result<(), TestCaseError> {
    check_nk_path_is_exact(419.5118317150186, 200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// [`check_nk_path_is_exact`] for any feasible period and handler size.
    #[test]
    fn nk_path_is_exact_for_any_feasible_period(
        target_us in 10.0f64..500.0,
        handler in 200u64..2_000,
    ) {
        check_nk_path_is_exact(target_us, handler)?;
    }

    /// The Linux path never *beats* the Nautilus path on any metric, under
    /// any sampled configuration.
    #[test]
    fn linux_never_dominates_nk(
        target_us in 10.0f64..200.0,
        handler in 200u64..2_000,
    ) {
        let mut lx_cfg = HeartbeatConfig::fig3(OsPoint::LinuxLike, target_us, Cycles(handler));
        lx_cfg.duration_us = target_us * 200.0;
        let mut nk_cfg = HeartbeatConfig::fig3(OsPoint::NkLike, target_us, Cycles(handler));
        nk_cfg.duration_us = target_us * 200.0;
        let lx = run_heartbeat(&lx_cfg);
        let nk = run_heartbeat(&nk_cfg);
        prop_assert!(nk.fraction_of_target() >= lx.fraction_of_target() - 1e-9);
        prop_assert!(nk.interbeat_cv <= lx.interbeat_cv + 1e-9);
        prop_assert!(nk.overhead_pct <= lx.overhead_pct + 1e-9);
    }

    /// The framekernel mid-point never dominates NK and is never dominated
    /// by Linux, under any sampled configuration.
    #[test]
    fn aster_stays_between_the_endpoints(
        target_us in 10.0f64..200.0,
        handler in 200u64..2_000,
    ) {
        let mk = |os| {
            let mut cfg = HeartbeatConfig::fig3(os, target_us, Cycles(handler));
            cfg.duration_us = target_us * 200.0;
            run_heartbeat(&cfg)
        };
        let nk = mk(OsPoint::NkLike);
        let fk = mk(OsPoint::AsterLike);
        let lx = mk(OsPoint::LinuxLike);
        prop_assert!(fk.fraction_of_target() >= lx.fraction_of_target() - 1e-9);
        prop_assert!(fk.fraction_of_target() <= nk.fraction_of_target() + 1e-9);
        prop_assert!(fk.interbeat_cv >= nk.interbeat_cv - 1e-9);
        prop_assert!(fk.interbeat_cv <= lx.interbeat_cv + 1e-9);
        prop_assert!(fk.overhead_pct >= nk.overhead_pct - 1e-9);
        prop_assert!(fk.overhead_pct <= lx.overhead_pct + 1e-9);
    }
}
