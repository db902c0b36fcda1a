//! Per-design cost profiles for the OpenMP execution modes.
//!
//! Every mode runs the same workload semantics; these profiles price the
//! runtime events — parallel-region fork, barrier, per-chunk scheduling —
//! and say whether the design suffers OS noise. Costs compose from the
//! machine's `CostModel` through the kernel crate's OS models, so a
//! hardware change propagates to Fig. 6 automatically.

use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::time::Cycles;
use interweave_kernel::os::{AsterModel, LinuxModel, OsModel};

/// The execution designs of §V-A, plus the framekernel mid-point of the
/// OS axis (unmodified libomp on an Aster-like kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OmpMode {
    /// Commodity baseline: user-level libomp on Linux.
    LinuxUser,
    /// Unmodified libomp on the Aster-like framekernel: the runtime still
    /// calls thread/synchronization services, but they are bounds-checked
    /// in-kernel calls rather than syscalls, and background noise is far
    /// lighter.
    AsterUser,
    /// Runtime in kernel.
    Rtk,
    /// Process in kernel.
    Pik,
    /// Custom compilation for kernel (task-based).
    Cck,
}

impl OmpMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OmpMode::LinuxUser => "Linux",
            OmpMode::AsterUser => "Aster",
            OmpMode::Rtk => "RTK",
            OmpMode::Pik => "PIK",
            OmpMode::Cck => "CCK",
        }
    }

    /// All modes, baseline first, then down the OS axis into the kernel
    /// designs.
    pub fn all() -> [OmpMode; 5] {
        [
            OmpMode::LinuxUser,
            OmpMode::AsterUser,
            OmpMode::Rtk,
            OmpMode::Pik,
            OmpMode::Cck,
        ]
    }
}

/// Priced runtime events for one mode on one machine.
pub(crate) struct ModeCosts {
    mode: OmpMode,
    linux: LinuxModel,
    aster: AsterModel,
}

impl ModeCosts {
    /// Cost profile for `mode` on `mc`.
    pub(crate) fn new(mode: OmpMode, mc: &MachineConfig) -> ModeCosts {
        ModeCosts {
            mode,
            linux: LinuxModel::new(mc.clone()),
            aster: AsterModel::new(mc.clone()),
        }
    }

    fn log2p(p: usize) -> u64 {
        (usize::BITS - p.max(1).leading_zeros()) as u64
    }

    /// Master-side cost to open a parallel region with `p` workers.
    pub(crate) fn fork_master(&self, p: usize) -> Cycles {
        let p64 = p as u64;
        match self.mode {
            // Tree release of spinning workers, some of which have dozed
            // off into futex waits between regions.
            OmpMode::LinuxUser => {
                Cycles(600) + Cycles(25) * p64 + {
                    let (wake, _) = self.linux.wake_remote();
                    // A fraction of workers (grows with p) passed their spin
                    // timeout and must be woken through the kernel.
                    Cycles(wake.get() * (p64 / 16))
                }
            }
            // Same tree release, but the dozed-off fraction is woken
            // through an in-kernel service call, not a futex syscall.
            OmpMode::AsterUser => {
                Cycles(450) + Cycles(18) * p64 + {
                    let (wake, _) = self.aster.wake_remote();
                    Cycles(wake.get() * (p64 / 16))
                }
            }
            OmpMode::Rtk => Cycles(300) + Cycles(12) * p64,
            OmpMode::Pik => Cycles(380) + Cycles(13) * p64,
            // Serial enqueue of the region's task batch into the kernel
            // task framework (4 tasks per worker).
            OmpMode::Cck => Cycles(200) + Cycles(120) * (4 * p64),
        }
    }

    /// Latency until a worker starts executing region work after the fork.
    pub(crate) fn fork_worker_latency(&self, p: usize) -> Cycles {
        let l = Self::log2p(p);
        match self.mode {
            OmpMode::LinuxUser => Cycles(300) + Cycles(60) * l,
            OmpMode::AsterUser => Cycles(220) + Cycles(50) * l,
            OmpMode::Rtk => Cycles(150) + Cycles(40) * l,
            OmpMode::Pik => Cycles(170) + Cycles(42) * l,
            // Tasks start when dequeued; contention on the central queue
            // grows with p.
            OmpMode::Cck => Cycles(80) + Cycles(80) * (1 + p as u64 / 32),
        }
    }

    /// Per-participant barrier cost once everyone has arrived.
    pub(crate) fn barrier(&self, p: usize) -> Cycles {
        let l = Self::log2p(p);
        match self.mode {
            // Spin tree + a futex component that grows with the blocking
            // fraction at scale.
            OmpMode::LinuxUser => {
                Cycles(150) * l + Cycles(self.linux.barrier_block().get() * (p as u64 / 24))
            }
            // The blocking fraction blocks through the checked waitqueue —
            // no crossings, so the superlogarithmic component is milder.
            OmpMode::AsterUser => {
                Cycles(125) * l + Cycles(self.aster.barrier_block().get() * (p as u64 / 24))
            }
            OmpMode::Rtk => Cycles(100) * l,
            OmpMode::Pik => Cycles(110) * l,
            // Completion counter, no barrier proper.
            OmpMode::Cck => Cycles(250),
        }
    }

    /// Per-chunk scheduling cost (dynamic grabs; static pays once).
    pub(crate) fn chunk_grab(&self, p: usize) -> Cycles {
        match self.mode {
            OmpMode::LinuxUser | OmpMode::AsterUser | OmpMode::Rtk | OmpMode::Pik => Cycles(60),
            OmpMode::Cck => Cycles(80) * (1 + p as u64 / 32),
        }
    }

    /// Sample stolen cycles from OS noise within a compute window of
    /// `window` cycles. Zero for kernel-interwoven designs (§III:
    /// interrupts steered away; no daemons).
    pub(crate) fn noise_in_window(&self, window: Cycles, rng: &mut SplitMix64) -> Cycles {
        let os: &dyn OsModel = match self.mode {
            OmpMode::LinuxUser => &self.linux,
            // The framekernel has no per-CPU tick, only rare maintenance
            // work — light but nonzero.
            OmpMode::AsterUser => &self.aster,
            _ => return Cycles::ZERO,
        };
        let mut stolen = Cycles::ZERO;
        let mut t = Cycles::ZERO;
        while let Some(n) = os.sample_noise(rng) {
            t += n.after;
            if t >= window {
                break;
            }
            stolen += n.duration;
        }
        stolen
    }

    /// Whether this design smooths imbalance through tasking (CCK maps
    /// regions to 4 tasks per worker, so static imbalance averages out).
    pub(crate) fn task_smoothing(&self) -> u64 {
        match self.mode {
            OmpMode::Cck => 4,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(mode: OmpMode) -> ModeCosts {
        ModeCosts::new(mode, &MachineConfig::phi_knl())
    }

    #[test]
    fn kernel_modes_fork_cheaper_than_linux() {
        for p in [2, 8, 64] {
            let lx = costs(OmpMode::LinuxUser).fork_master(p);
            let rtk = costs(OmpMode::Rtk).fork_master(p);
            assert!(rtk < lx, "p={p}: rtk {rtk} vs linux {lx}");
        }
    }

    #[test]
    fn linux_barrier_grows_superlogarithmically_at_scale() {
        let small = costs(OmpMode::LinuxUser).barrier(8);
        let large = costs(OmpMode::LinuxUser).barrier(64);
        let rtk_small = costs(OmpMode::Rtk).barrier(8);
        let rtk_large = costs(OmpMode::Rtk).barrier(64);
        let lx_growth = large.as_f64() / small.as_f64();
        let rtk_growth = rtk_large.as_f64() / rtk_small.as_f64();
        assert!(lx_growth > rtk_growth, "{lx_growth} vs {rtk_growth}");
    }

    #[test]
    fn only_linux_suffers_noise() {
        let mut rng = SplitMix64::new(7);
        let window = Cycles(50_000_000);
        assert!(costs(OmpMode::LinuxUser).noise_in_window(window, &mut rng) > Cycles::ZERO);
        for m in [OmpMode::Rtk, OmpMode::Pik, OmpMode::Cck] {
            assert_eq!(costs(m).noise_in_window(window, &mut rng), Cycles::ZERO);
        }
    }

    #[test]
    fn aster_sits_between_linux_and_the_kernel_modes() {
        for p in [2, 8, 64] {
            let lx = costs(OmpMode::LinuxUser).fork_master(p);
            let aster = costs(OmpMode::AsterUser).fork_master(p);
            let rtk = costs(OmpMode::Rtk).fork_master(p);
            assert!(rtk < aster && aster < lx, "p={p}: {rtk} {aster} {lx}");
            let lx_b = costs(OmpMode::LinuxUser).barrier(p);
            let aster_b = costs(OmpMode::AsterUser).barrier(p);
            let rtk_b = costs(OmpMode::Rtk).barrier(p);
            assert!(
                rtk_b < aster_b && aster_b <= lx_b,
                "p={p}: {rtk_b} {aster_b} {lx_b}"
            );
        }
    }

    #[test]
    fn aster_noise_is_much_lighter_than_linux() {
        let window = Cycles(500_000_000);
        let mut rng_lx = SplitMix64::new(11);
        let mut rng_as = SplitMix64::new(11);
        let lx = costs(OmpMode::LinuxUser).noise_in_window(window, &mut rng_lx);
        let aster = costs(OmpMode::AsterUser).noise_in_window(window, &mut rng_as);
        assert!(aster < lx / 10, "aster {aster} vs linux {lx}");
    }

    #[test]
    fn cck_fork_scales_worst_but_barrier_is_flat() {
        let cck = costs(OmpMode::Cck);
        let rtk = costs(OmpMode::Rtk);
        assert!(cck.fork_master(64) > rtk.fork_master(64) * 5);
        assert!(cck.barrier(64) < rtk.barrier(64));
    }

    #[test]
    fn pik_tracks_rtk_closely() {
        for p in [4, 16, 64] {
            let pik = costs(OmpMode::Pik).fork_master(p).as_f64();
            let rtk = costs(OmpMode::Rtk).fork_master(p).as_f64();
            assert!((pik / rtk) < 1.4, "p={p}: pik/rtk {}", pik / rtk);
        }
    }
}
