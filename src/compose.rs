//! Cross-layer stack composition: make [`StackConfig`] load-bearing.
//!
//! The paper's Figure 1 thesis is that the *composition of the stack* is
//! the experimental variable. [`StackConfig`] names the five axes; this
//! module makes each named point buildable: [`compose`] takes a
//! configuration plus a [`MachineConfig`] preset and materializes the
//! composed objects its callers read — the OS personality ([`OsModel`])
//! on the machine, and the coherence policy — after rejecting incoherent
//! axis combinations with a typed [`ComposeError`].
//!
//! Every harness-run experiment routes its stack selection through here,
//! so a figure binary cannot measure a composition that could not exist:
//! `StackConfig` provably maps to one runtime composition, and new stacks
//! (the §V-A RTK/PIK/CCK kernel modes, the RISC-V preset) are one-line
//! scenarios instead of hand-rolled per-binary machine setup.
//!
//! ```
//! use interweave::compose::{compose, ComposeError};
//! use interweave::prelude::*;
//!
//! // The fully interwoven stack builds...
//! let stack = compose(StackConfig::interwoven(), MachineConfig::xeon_server_2s()).unwrap();
//! assert_eq!(stack.os.name(), "Nautilus");
//!
//! // ...the framekernel mid-point of the OS axis builds too...
//! let fk = compose(StackConfig::framekernel(), MachineConfig::xeon_server_2s()).unwrap();
//! assert_eq!(fk.os.name(), "Aster");
//!
//! // ...while CARAT translation on the commodity kernel is rejected.
//! let mut broken = StackConfig::commodity();
//! broken.translation = interweave::core::stack::Translation::Carat;
//! let err = compose(broken, MachineConfig::xeon_server_2s()).unwrap_err();
//! assert_eq!(err, ComposeError::CaratOnCommodityKernel);
//! ```

use interweave_coherence::protocol::CohMode;
use interweave_core::interrupt::DeliveryMode;
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{
    CoherencePolicy, Isolation, OsPoint, StackConfig, TimingSource, Translation,
};
use interweave_kernel::os::{model_for, OsModel};
use interweave_omp::OmpMode;
use std::fmt;

/// An incoherent axis combination, rejected at composition time.
///
/// Each variant names the cross-layer dependency the configuration broke.
/// The rules are the contract the table-driven validation test enumerates:
/// a `StackConfig` either builds, or returns exactly one of these — never a
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComposeError {
    /// The framekernel's whole premise is enforced in-kernel isolation by
    /// real page tables (the OSTD split keeps domains apart with paging,
    /// not trust). An Aster-like kernel with raw `Identity` mapping — or
    /// with CARAT's guards *instead of* page tables — is a contradiction,
    /// so `OsPoint::AsterLike` requires `Translation::Paging`.
    FramekernelRequiresPaging,
    /// CARAT translation (§IV-A) replaces paging with compiler guards and a
    /// tracking runtime *inside one address space*. The commodity kernel's
    /// user/kernel split (signals, per-process page tables) is exactly what
    /// CARAT removes, so `Translation::Carat` requires an NK-like kernel.
    CaratOnCommodityKernel,
    /// Identity mapping (§III) exposes physical addresses to every task; a
    /// commodity kernel cannot identity-map untrusted user processes, so
    /// `Translation::Identity` requires an NK-like kernel.
    IdentityOnCommodityKernel,
    /// Selective coherence deactivation (§V-B) is "driven by language-level
    /// sharing knowledge" — it needs the compiler in the loop, so
    /// `CoherencePolicy::Selective` requires
    /// `TimingSource::CompilerInjected` (the compiler-interwoven toolchain).
    SelectiveCoherenceWithoutCompilerToolchain,
    /// Bespoke contexts (§V-E) are *synthesized by the compiler* from the
    /// workload, so `Isolation::Bespoke` requires
    /// `TimingSource::CompilerInjected`.
    BespokeWithoutCompilerToolchain,
    /// Pipeline interrupts (§V-D) inject delivery into instruction fetch
    /// with no privilege-level change — only sound when every recipient
    /// runs raw kernel-mode with nothing to revalidate on entry. The
    /// framekernel's checked handler trampolines and Linux's user/kernel
    /// split both break that, so a machine with
    /// `DeliveryMode::PipelineBranch` requires `OsPoint::NkLike`.
    PipelineDeliveryRequiresNkKernel,
}

impl ComposeError {
    /// Short machine-readable rule name (tables, JSON).
    pub fn rule(&self) -> &'static str {
        match self {
            ComposeError::FramekernelRequiresPaging => "aster-needs-paging",
            ComposeError::CaratOnCommodityKernel => "carat-needs-nk",
            ComposeError::IdentityOnCommodityKernel => "identity-needs-nk",
            ComposeError::SelectiveCoherenceWithoutCompilerToolchain => "selective-needs-compiler",
            ComposeError::BespokeWithoutCompilerToolchain => "bespoke-needs-compiler",
            ComposeError::PipelineDeliveryRequiresNkKernel => "pipeline-needs-nk",
        }
    }
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::FramekernelRequiresPaging => {
                write!(
                    f,
                    "the framekernel's isolation is enforced by page tables (paging required)"
                )
            }
            ComposeError::CaratOnCommodityKernel => {
                write!(
                    f,
                    "CARAT translation requires the interwoven (NK) kernel path"
                )
            }
            ComposeError::IdentityOnCommodityKernel => {
                write!(
                    f,
                    "identity mapping requires the interwoven (NK) kernel path"
                )
            }
            ComposeError::SelectiveCoherenceWithoutCompilerToolchain => write!(
                f,
                "selective coherence needs language-level sharing knowledge (compiler timing)"
            ),
            ComposeError::BespokeWithoutCompilerToolchain => write!(
                f,
                "bespoke contexts are compiler-synthesized (compiler timing required)"
            ),
            ComposeError::PipelineDeliveryRequiresNkKernel => write!(
                f,
                "pipeline interrupt delivery requires the raw NK kernel path"
            ),
        }
    }
}

impl std::error::Error for ComposeError {}

/// One runtime composition: the objects a `StackConfig` names that
/// experiments price against, built and ready.
pub struct ComposedStack {
    /// The configuration this stack was built from.
    pub config: StackConfig,
    /// The kernel personality (the `OsPoint` axis materialized) on the
    /// machine.
    pub os: Box<dyn OsModel>,
    /// The coherence policy, in the protocol simulator's terms.
    pub coherence: CohMode,
}

impl fmt::Debug for ComposedStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComposedStack")
            .field("config", &self.config)
            .field("os", &self.os.name())
            .field("coherence", &self.coherence)
            .finish()
    }
}

impl ComposedStack {
    /// The machine this stack runs on.
    pub fn machine(&self) -> &MachineConfig {
        self.os.machine()
    }

    /// The OpenMP mode this composition runs, derived from its OS,
    /// translation and timing axes: user-level libomp on paged Linux or on
    /// the paged framekernel; in the NK kernel, the runtime in the kernel
    /// (RTK) on identity mapping, a process in the kernel (PIK) once CARAT
    /// guards replace paging, and custom compilation for the kernel (CCK)
    /// when the compiler also owns timing. Every mode but CCK runs on
    /// hardware timers. Other compositions have no OpenMP incarnation.
    pub fn omp_mode(&self) -> Option<OmpMode> {
        use {OsPoint::*, TimingSource::*, Translation::*};
        let c = self.config;
        match (c.os, c.translation, c.timing) {
            (LinuxLike, Paging, HardwareTimer) => Some(OmpMode::LinuxUser),
            (AsterLike, Paging, HardwareTimer) => Some(OmpMode::AsterUser),
            (NkLike, Identity, HardwareTimer) => Some(OmpMode::Rtk),
            (NkLike, Carat, HardwareTimer) => Some(OmpMode::Pik),
            (NkLike, Carat, CompilerInjected) => Some(OmpMode::Cck),
            _ => None,
        }
    }
}

/// Compose `config` on `machine`: materialize the composition, or return
/// the first broken rule. Rules are checked in a fixed order (framekernel
/// premise, translation, coherence, isolation, delivery) so rejections
/// are deterministic.
pub fn compose(config: StackConfig, machine: MachineConfig) -> Result<ComposedStack, ComposeError> {
    let c = &config;
    if c.os == OsPoint::AsterLike && c.translation != Translation::Paging {
        return Err(ComposeError::FramekernelRequiresPaging);
    }
    if c.translation == Translation::Carat && c.os == OsPoint::LinuxLike {
        return Err(ComposeError::CaratOnCommodityKernel);
    }
    if c.translation == Translation::Identity && c.os == OsPoint::LinuxLike {
        return Err(ComposeError::IdentityOnCommodityKernel);
    }
    if c.coherence == CoherencePolicy::Selective && c.timing != TimingSource::CompilerInjected {
        return Err(ComposeError::SelectiveCoherenceWithoutCompilerToolchain);
    }
    if c.isolation == Isolation::Bespoke && c.timing != TimingSource::CompilerInjected {
        return Err(ComposeError::BespokeWithoutCompilerToolchain);
    }
    if machine.delivery == DeliveryMode::PipelineBranch && c.os != OsPoint::NkLike {
        return Err(ComposeError::PipelineDeliveryRequiresNkKernel);
    }
    let coherence = match config.coherence {
        CoherencePolicy::FullMesi => CohMode::Full,
        CoherencePolicy::Selective => CohMode::Selective,
    };
    Ok(ComposedStack {
        config,
        os: model_for(config.os, machine),
        coherence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MachineConfig {
        MachineConfig::test(8)
    }

    #[test]
    fn named_presets_all_build() {
        for cfg in [
            StackConfig::commodity(),
            StackConfig::interwoven(),
            StackConfig::nautilus(),
            StackConfig::framekernel(),
            StackConfig::pik(),
            StackConfig::cck(),
        ] {
            let stack = compose(cfg, mc()).unwrap_or_else(|e| panic!("{cfg} rejected: {e}"));
            assert_eq!(stack.config, cfg);
        }
    }

    #[test]
    fn composed_objects_track_the_axes() {
        let c = compose(StackConfig::commodity(), mc()).unwrap();
        assert_eq!(c.os.name(), "Linux");
        assert_eq!(c.coherence, CohMode::Full);
        assert_eq!(c.omp_mode(), Some(OmpMode::LinuxUser));

        let fk = compose(StackConfig::framekernel(), mc()).unwrap();
        assert_eq!(fk.os.name(), "Aster");
        assert_eq!(fk.omp_mode(), Some(OmpMode::AsterUser));

        let i = compose(StackConfig::interwoven(), mc()).unwrap();
        assert_eq!(i.os.name(), "Nautilus");
        assert_eq!(i.coherence, CohMode::Selective);
        // NK kernel, CARAT guards, compiler timing: the CCK design.
        assert_eq!(i.omp_mode(), Some(OmpMode::Cck));
        let timed = StackConfig {
            timing: TimingSource::CompilerInjected,
            ..StackConfig::commodity()
        };
        assert_eq!(compose(timed, mc()).unwrap().omp_mode(), None);
    }

    #[test]
    fn omp_presets_map_to_their_modes() {
        let modes: Vec<Option<OmpMode>> = [
            StackConfig::nautilus(),
            StackConfig::pik(),
            StackConfig::cck(),
        ]
        .into_iter()
        .map(|c| compose(c, mc()).unwrap().omp_mode())
        .collect();
        assert_eq!(
            modes,
            vec![Some(OmpMode::Rtk), Some(OmpMode::Pik), Some(OmpMode::Cck)]
        );
    }

    #[test]
    fn carat_on_commodity_kernel_is_typed_rejection() {
        let cfg = StackConfig {
            translation: Translation::Carat,
            ..StackConfig::commodity()
        };
        assert_eq!(
            compose(cfg, mc()).unwrap_err(),
            ComposeError::CaratOnCommodityKernel
        );
    }

    #[test]
    fn pipeline_delivery_needs_nk_kernel() {
        let pipeline = mc().with_pipeline_interrupts();
        assert_eq!(
            compose(StackConfig::commodity(), pipeline.clone()).unwrap_err(),
            ComposeError::PipelineDeliveryRequiresNkKernel
        );
        // The framekernel's checked trampolines disqualify it too.
        assert_eq!(
            compose(StackConfig::framekernel(), pipeline.clone()).unwrap_err(),
            ComposeError::PipelineDeliveryRequiresNkKernel
        );
        let nk = compose(StackConfig::nautilus(), pipeline).unwrap();
        assert_eq!(nk.machine().delivery, DeliveryMode::PipelineBranch);
    }

    #[test]
    fn framekernel_requires_paging() {
        // Aster + Identity and Aster + Carat are both contradictions of
        // the framekernel premise, and both reject with the same rule.
        for translation in [Translation::Identity, Translation::Carat] {
            let cfg = StackConfig {
                translation,
                ..StackConfig::framekernel()
            };
            assert_eq!(
                compose(cfg, mc()).unwrap_err(),
                ComposeError::FramekernelRequiresPaging,
                "{translation:?}"
            );
        }
    }

    #[test]
    fn composed_stack_is_shareable_across_sweep_workers() {
        fn assert_sync<T: Sync + Send>(_: &T) {}
        let stack = compose(StackConfig::interwoven(), mc()).unwrap();
        assert_sync(&stack);
    }
}
