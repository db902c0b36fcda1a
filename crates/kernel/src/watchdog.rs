//! The kernel watchdog's retry arithmetic, factored out as data.
//!
//! The executor's watchdog heartbeat (re-kick stalled CPUs under bounded
//! exponential backoff) and the serving plane's stuck-virtine reclaim are
//! the same policy observed from two places: "when does the next scan run,
//! how far apart are retries, when do we give up". Keeping the arithmetic
//! in one [`WatchdogPolicy`] struct means the serving simulation's
//! reclaim-latency model is *by construction* the executor's recovery
//! schedule, not a drifting copy — and the executor's behaviour stays
//! bit-identical because every method reproduces the original inline
//! expressions exactly.

use interweave_core::time::Cycles;

/// Bound on the watchdog's exponential retry backoff, in heartbeat periods.
/// A CPU whose re-kicks keep getting dropped is retried at 1, 2, 4, ... up
/// to this many periods apart, never less often.
pub const MAX_WATCHDOG_BACKOFF: u32 = 8;

/// Consecutive failed re-kicks after which the watchdog abandons a CPU
/// (declares it failed and stops retrying). Keeps a run with a 100 %
/// drop rate terminating instead of retrying forever; the count resets on
/// any successful dispatch.
pub const MAX_WATCHDOG_REKICKS: u32 = 16;

/// The watchdog's timing policy: scan period plus the retry/abandon bounds.
///
/// All methods are pure arithmetic over the fields, so two layers sharing a
/// policy value agree exactly on the recovery schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogPolicy {
    /// Heartbeat scan period.
    pub period: Cycles,
    /// Backoff ceiling, in periods (see [`MAX_WATCHDOG_BACKOFF`]).
    pub max_backoff: u32,
    /// Re-kick budget before a CPU is abandoned (see
    /// [`MAX_WATCHDOG_REKICKS`]).
    pub max_rekicks: u32,
}

impl WatchdogPolicy {
    /// The default policy at the given scan period — the bounds every
    /// kernel run has used since the fault plane landed.
    pub fn new(period: Cycles) -> WatchdogPolicy {
        assert!(period.get() > 0, "watchdog period must be positive");
        WatchdogPolicy {
            period,
            max_backoff: MAX_WATCHDOG_BACKOFF,
            max_rekicks: MAX_WATCHDOG_REKICKS,
        }
    }

    /// First scan instant strictly after `t`: scans land on multiples of
    /// the period, so a request stuck at `t` is noticed at the next one.
    /// This is the serving plane's reclaim-latency model for lost
    /// completion kicks.
    pub fn next_scan_after(&self, t: Cycles) -> Cycles {
        let p = self.period.get();
        Cycles((t.get() / p + 1).saturating_mul(p))
    }

    /// Distance to the next permitted retry at backoff level `backoff`
    /// (the executor adds this to the scan time that re-kicked).
    pub(crate) fn retry_backoff(&self, backoff: u32) -> Cycles {
        Cycles(self.period.get().saturating_mul(backoff as u64))
    }

    /// The next backoff level after a re-kick: doubles, capped at
    /// [`Self::max_backoff`].
    pub(crate) fn escalate(&self, backoff: u32) -> u32 {
        (backoff * 2).min(self.max_backoff)
    }

    /// True once `rekicks` consecutive failed re-kicks exhaust the budget:
    /// the CPU is declared failed and no longer retried.
    pub(crate) fn abandons(&self, rekicks: u32) -> bool {
        rekicks >= self.max_rekicks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_scan_rounds_up_to_the_next_period_multiple() {
        let wd = WatchdogPolicy::new(Cycles(1_000));
        assert_eq!(wd.next_scan_after(Cycles(0)), Cycles(1_000));
        assert_eq!(wd.next_scan_after(Cycles(1)), Cycles(1_000));
        assert_eq!(wd.next_scan_after(Cycles(999)), Cycles(1_000));
        // A request stuck exactly on a scan instant waits a full period:
        // the scan at 1_000 runs before the stall is observable.
        assert_eq!(wd.next_scan_after(Cycles(1_000)), Cycles(2_000));
        assert_eq!(wd.next_scan_after(Cycles(2_500)), Cycles(3_000));
    }

    #[test]
    fn backoff_escalates_geometrically_and_saturates() {
        let wd = WatchdogPolicy::new(Cycles(500));
        let mut b = 1;
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(wd.retry_backoff(b));
            b = wd.escalate(b);
        }
        assert_eq!(
            seen,
            [500, 1_000, 2_000, 4_000, 4_000, 4_000]
                .map(Cycles)
                .to_vec()
        );
        assert_eq!(b, MAX_WATCHDOG_BACKOFF);
    }

    #[test]
    fn rekick_budget_abandons_at_the_bound() {
        let wd = WatchdogPolicy::new(Cycles(100));
        assert!(!wd.abandons(0));
        assert!(!wd.abandons(MAX_WATCHDOG_REKICKS - 1));
        assert!(wd.abandons(MAX_WATCHDOG_REKICKS));
        assert!(wd.abandons(MAX_WATCHDOG_REKICKS + 1));
    }

    #[test]
    fn default_policy_carries_the_executor_bounds() {
        let wd = WatchdogPolicy::new(Cycles(42));
        assert_eq!(wd.max_backoff, MAX_WATCHDOG_BACKOFF);
        assert_eq!(wd.max_rekicks, MAX_WATCHDOG_REKICKS);
    }
}
