//! Table-driven validation of the whole stack design space.
//!
//! [`StackConfig::enumerate`] yields all 36 combinations of the four axes
//! (the OS axis has three points: Nautilus, the Aster-like framekernel,
//! and Linux); every one must either build a [`ComposedStack`] or come back as
//! exactly the typed [`ComposeError`] this test's independent rule table
//! predicts — never a panic. The rule table deliberately restates the
//! composition rules (first match in check order wins) so a drift in
//! either place fails loudly.

use interweave::compose::{compose, ComposeError};
use interweave::core::machine::MachineConfig;
use interweave::core::stack::{CoherencePolicy, OsPoint, StackConfig, TimingSource, Translation};
use interweave::core::DeliveryMode;

/// Independent statement of the composition rules, in `compose`'s
/// documented check order (framekernel premise, translation, coherence,
/// delivery).
fn expected_rejection(c: StackConfig, machine: &MachineConfig) -> Option<ComposeError> {
    let commodity_kernel = c.os == OsPoint::LinuxLike;
    if c.os == OsPoint::AsterLike && c.translation != Translation::Paging {
        return Some(ComposeError::FramekernelRequiresPaging);
    }
    if c.translation == Translation::Carat && commodity_kernel {
        return Some(ComposeError::CaratOnCommodityKernel);
    }
    if c.translation == Translation::Identity && commodity_kernel {
        return Some(ComposeError::IdentityOnCommodityKernel);
    }
    if c.coherence == CoherencePolicy::Selective && c.timing != TimingSource::CompilerInjected {
        return Some(ComposeError::SelectiveCoherenceWithoutCompilerToolchain);
    }
    if machine.delivery == DeliveryMode::PipelineBranch && c.os != OsPoint::NkLike {
        return Some(ComposeError::PipelineDeliveryRequiresNkKernel);
    }
    None
}

#[test]
fn every_axis_combination_builds_or_is_rejected_with_the_predicted_error() {
    // Both delivery regimes: the pipeline machine adds the §V-D rule.
    let machines = [
        MachineConfig::xeon_server_2s(),
        MachineConfig::xeon_server_2s().with_pipeline_interrupts(),
    ];
    let mut built = 0usize;
    let mut rejected = 0usize;
    for machine in &machines {
        for cfg in StackConfig::enumerate() {
            let result = compose(cfg, machine.clone());
            match expected_rejection(cfg, machine) {
                None => {
                    let stack = result.unwrap_or_else(|e| {
                        panic!("{cfg} on {} must build, got {e}", machine.name)
                    });
                    // The composition mirrors the configuration it came from.
                    assert_eq!(stack.config, cfg);
                    assert_eq!(stack.os.name(), cfg.os.name());
                    assert_eq!(stack.machine().delivery, machine.delivery);
                    built += 1;
                }
                Some(err) => {
                    assert_eq!(
                        result.unwrap_err(),
                        err,
                        "{cfg} on {} must be rejected as {err:?}",
                        machine.name
                    );
                    rejected += 1;
                }
            }
        }
    }
    assert_eq!(built + rejected, 2 * 36, "the sweep covers the full space");
    // The exact split is a function of the rule table; pinning it makes a
    // silent rule change (or an axis-size change) fail loudly. Per machine:
    // IDT builds 15 (9 NK + 3 Aster + 3 Linux); the pipeline machine
    // builds only the 9 NK points.
    assert_eq!(built, 24, "built {built} compositions");
    assert_eq!(rejected, 48, "rejected {rejected} compositions");
}

#[test]
fn every_rejection_rule_fires_and_names_itself() {
    let machines = [
        MachineConfig::xeon_server_2s(),
        MachineConfig::xeon_server_2s().with_pipeline_interrupts(),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for machine in &machines {
        for cfg in StackConfig::enumerate() {
            if let Err(e) = compose(cfg, machine.clone()) {
                seen.insert(e.rule());
            }
        }
    }
    let all: Vec<&str> = seen.into_iter().collect();
    assert_eq!(
        all,
        vec![
            "aster-needs-paging",
            "carat-needs-nk",
            "identity-needs-nk",
            "pipeline-needs-nk",
            "selective-needs-compiler",
        ],
        "every ComposeError variant must be reachable from the design space"
    );
}

#[test]
fn stack_config_serde_round_trips_across_the_whole_space() {
    for cfg in StackConfig::enumerate() {
        let json = serde_json::to_string(&cfg).expect("serializable");
        let back: StackConfig = serde_json::from_str(&json).expect("parseable");
        assert_eq!(back, cfg, "round-trip must be lossless for {cfg}");
    }
}
