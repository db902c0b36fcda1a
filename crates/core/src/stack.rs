//! The interweaving axes as data.
//!
//! Figure 1 of the paper sketches a system where the compiler, runtime,
//! kernel, and hardware are blended per application. [`StackConfig`] names
//! the design axes that the paper's examples vary, so an experiment can say
//! precisely *which* stack composition it is measuring and reports can label
//! series consistently. Each axis corresponds to one section of the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Where timing events come from (§IV-C, compiler-based timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimingSource {
    /// Hardware timer interrupts through the interrupt path.
    HardwareTimer,
    /// Compiler-injected calls into the timer framework — no interrupts.
    CompilerInjected,
}

impl TimingSource {
    /// Every value of this axis, in declaration order.
    pub const ALL: [TimingSource; 2] =
        [TimingSource::HardwareTimer, TimingSource::CompilerInjected];
}

/// Which kernel personality the stack runs on (§III and ROADMAP item 4).
///
/// The OS is one axis of the blended stack, not a fixed backdrop. The two
/// endpoints are the paper's: a Nautilus-like kernel (kernel-mode
/// everything, deterministic paths) and a Linux-like commodity kernel
/// (user/kernel split, timing pathologies). Between them sits an
/// Asterinas-style *framekernel*: a safe-Rust kernel with real page-table
/// isolation but no user/kernel world switch on the task path — services
/// are bounds-checked calls, not syscalls.
///
/// The out-of-band signal topology follows the kernel: Linux-like stacks
/// deliver per-CPU POSIX signals; NK-like and Aster-like stacks own the
/// timer and broadcast by IPI directly to kernel-mode workers (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OsPoint {
    /// Nautilus-like: kernel-mode everything, identity-friendly, no
    /// crossings anywhere (§III).
    NkLike,
    /// Asterinas-like framekernel: safe-Rust kernel, in-kernel page-table
    /// isolation, syscall-free but bounds-checked fast paths.
    AsterLike,
    /// Commodity Linux-like kernel: user/kernel split, signals, ticks.
    LinuxLike,
}

impl OsPoint {
    /// Every value of this axis, in declaration order (most to least
    /// interwoven).
    pub const ALL: [OsPoint; 3] = [OsPoint::NkLike, OsPoint::AsterLike, OsPoint::LinuxLike];

    /// Display name matching the `OsModel` impl this point materializes to.
    pub fn name(self) -> &'static str {
        match self {
            OsPoint::NkLike => "Nautilus",
            OsPoint::AsterLike => "Aster",
            OsPoint::LinuxLike => "Linux",
        }
    }

    /// Parse a CLI spelling (`--os nk|nautilus|aster|linux`).
    pub fn parse(s: &str) -> Option<OsPoint> {
        match s.to_ascii_lowercase().as_str() {
            "nk" | "nautilus" => Some(OsPoint::NkLike),
            "aster" => Some(OsPoint::AsterLike),
            "linux" => Some(OsPoint::LinuxLike),
            _ => None,
        }
    }
}

/// How addresses are translated and protected (§IV-A, CARAT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Translation {
    /// Conventional paging with TLBs; protection by hardware.
    Paging,
    /// Identity mapping with the largest page size; no protection (raw
    /// Nautilus).
    Identity,
    /// CARAT: physical addressing everywhere, protection and mobility by
    /// compiler-inserted guards and a tracking runtime.
    Carat,
}

impl Translation {
    /// Every value of this axis, in declaration order.
    pub const ALL: [Translation; 3] = [
        Translation::Paging,
        Translation::Identity,
        Translation::Carat,
    ];
}

/// Cache-coherence policy (§V-B, selective coherence deactivation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoherencePolicy {
    /// Hardware MESI for all memory, always on.
    FullMesi,
    /// MESI extended with selective deactivation driven by language-level
    /// sharing knowledge.
    Selective,
}

impl CoherencePolicy {
    /// Every value of this axis, in declaration order.
    pub const ALL: [CoherencePolicy; 2] = [CoherencePolicy::FullMesi, CoherencePolicy::Selective];
}

/// A complete stack composition: one point in the interweaving design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StackConfig {
    /// Timing-event source.
    pub timing: TimingSource,
    /// Kernel personality (which `OsModel` the stack materializes).
    pub os: OsPoint,
    /// Address translation and protection scheme.
    pub translation: Translation,
    /// Cache-coherence policy.
    pub coherence: CoherencePolicy,
}

impl StackConfig {
    /// The commodity layered stack the paper's figures use as a baseline:
    /// Linux-like kernel, hardware timers, signals, paging, full coherence.
    pub fn commodity() -> StackConfig {
        StackConfig {
            timing: TimingSource::HardwareTimer,
            os: OsPoint::LinuxLike,
            translation: Translation::Paging,
            coherence: CoherencePolicy::FullMesi,
        }
    }

    /// The fully interwoven stack of Fig. 1: compiler timing, NK-like
    /// kernel, CARAT translation, selective coherence.
    pub fn interwoven() -> StackConfig {
        StackConfig {
            timing: TimingSource::CompilerInjected,
            os: OsPoint::NkLike,
            translation: Translation::Carat,
            coherence: CoherencePolicy::Selective,
        }
    }

    /// Raw Nautilus as described in §III: kernel-mode everything, identity
    /// mapping, hardware timers but direct (no crossing) delivery.
    pub fn nautilus() -> StackConfig {
        StackConfig {
            timing: TimingSource::HardwareTimer,
            os: OsPoint::NkLike,
            translation: Translation::Identity,
            coherence: CoherencePolicy::FullMesi,
        }
    }

    /// The framekernel mid-point (ROADMAP item 4): an Asterinas-like
    /// safe-Rust kernel. Real page tables (the framekernel premise is
    /// enforced in-kernel isolation, so `Paging` is mandatory), hardware
    /// timers, full coherence — everything the commodity stack offers,
    /// minus the user/kernel world switch.
    pub fn framekernel() -> StackConfig {
        StackConfig {
            timing: TimingSource::HardwareTimer,
            os: OsPoint::AsterLike,
            translation: Translation::Paging,
            coherence: CoherencePolicy::FullMesi,
        }
    }

    /// The PIK composition of §V-A: an unmodified *process in the kernel*,
    /// kept safe without paging by CARAT-style compiler guards and
    /// attestation (the `carat::pik` admission path). The RTK composition
    /// (the OpenMP *runtime in the kernel*) is raw [`StackConfig::nautilus`]
    /// with the runtime linked in.
    pub fn pik() -> StackConfig {
        StackConfig {
            translation: Translation::Carat,
            ..StackConfig::nautilus()
        }
    }

    /// The CCK composition of §V-A: *custom compilation for the kernel* —
    /// the PIK guarantees plus a compiler-interwoven toolchain that owns
    /// timing (task-based execution, no timer interrupts).
    pub fn cck() -> StackConfig {
        StackConfig {
            timing: TimingSource::CompilerInjected,
            ..StackConfig::pik()
        }
    }

    /// Every point in the design space: the cartesian product of all four
    /// axes (2 × 3 × 3 × 2 = 36 compositions), in a fixed
    /// lexicographic order. Not every point is a *coherent* stack — the
    /// facade's `compose` rejects the incoherent ones with typed errors.
    pub fn enumerate() -> impl Iterator<Item = StackConfig> {
        TimingSource::ALL.into_iter().flat_map(|timing| {
            OsPoint::ALL.into_iter().flat_map(move |os| {
                Translation::ALL.into_iter().flat_map(move |translation| {
                    CoherencePolicy::ALL
                        .into_iter()
                        .map(move |coherence| StackConfig {
                            timing,
                            os,
                            translation,
                            coherence,
                        })
                })
            })
        })
    }

    /// Count of axes on which `self` differs from the commodity stack — a
    /// crude "degree of interweaving" used in reports.
    pub fn interweaving_degree(&self) -> usize {
        let c = StackConfig::commodity();
        usize::from(self.timing != c.timing)
            + usize::from(self.os != c.os)
            + usize::from(self.translation != c.translation)
            + usize::from(self.coherence != c.coherence)
    }
}

impl fmt::Display for StackConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timing={:?} os={:?} translation={:?} coherence={:?}",
            self.timing, self.os, self.translation, self.coherence
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_has_degree_zero() {
        assert_eq!(StackConfig::commodity().interweaving_degree(), 0);
    }

    #[test]
    fn interwoven_differs_on_every_axis() {
        assert_eq!(StackConfig::interwoven().interweaving_degree(), 4);
    }

    #[test]
    fn nautilus_is_partially_interwoven() {
        let d = StackConfig::nautilus().interweaving_degree();
        assert!(d > 0 && d < 4, "nautilus degree = {d}");
    }

    #[test]
    fn framekernel_sits_between_the_endpoints() {
        let fk = StackConfig::framekernel();
        assert_eq!(fk.os, OsPoint::AsterLike);
        // The framekernel differs from commodity only on the OS axis.
        assert_eq!(fk.interweaving_degree(), 1);
        assert_eq!(
            StackConfig {
                os: OsPoint::LinuxLike,
                ..fk
            },
            StackConfig::commodity()
        );
    }

    #[test]
    fn os_point_names_and_parse_round_trip() {
        for os in OsPoint::ALL {
            assert_eq!(OsPoint::parse(&os.name().to_lowercase()), Some(os));
        }
        assert_eq!(OsPoint::parse("nk"), Some(OsPoint::NkLike));
        assert_eq!(OsPoint::parse("Aster"), Some(OsPoint::AsterLike));
        assert_eq!(OsPoint::parse("windows"), None);
    }

    #[test]
    fn enumerate_covers_the_whole_design_space() {
        let all: Vec<StackConfig> = StackConfig::enumerate().collect();
        assert_eq!(all.len(), 2 * 3 * 3 * 2);
        assert_eq!(all.len(), 36);
        // No duplicates, and every named preset is in the space.
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "duplicate composition {a}");
        }
        for preset in [
            StackConfig::commodity(),
            StackConfig::interwoven(),
            StackConfig::nautilus(),
            StackConfig::framekernel(),
            StackConfig::pik(),
            StackConfig::cck(),
        ] {
            assert!(all.contains(&preset));
        }
    }

    #[test]
    fn omp_presets_differ_only_on_the_expected_axes() {
        let (rtk, pik, cck) = (
            StackConfig::nautilus(),
            StackConfig::pik(),
            StackConfig::cck(),
        );
        assert_eq!(pik.translation, Translation::Carat);
        assert_eq!(
            StackConfig {
                translation: rtk.translation,
                ..pik
            },
            rtk
        );
        assert_eq!(cck.timing, TimingSource::CompilerInjected);
        assert_eq!(
            StackConfig {
                timing: pik.timing,
                ..cck
            },
            pik
        );
    }

    #[test]
    fn display_is_informative() {
        let s = StackConfig::commodity().to_string();
        assert!(s.contains("Paging"));
        assert!(s.contains("LinuxLike"));
        assert!(StackConfig::framekernel().to_string().contains("AsterLike"));
    }
}
