//! Interrupt delivery modes.
//!
//! §V-D of the paper measures IDT-based interrupt dispatch at ~1000 cycles
//! and proposes *pipeline interrupts*: in an interwoven stack with no
//! privilege-level change, a simple interrupt can be injected into the
//! instruction-fetch logic like a predicted branch, making delivery
//! 100–1000× cheaper. Both modes are first-class here so every subsystem
//! (heartbeat signaling, fibers, device handling) can be re-run under the
//! proposed hardware as an ablation.

use crate::faults::FaultPlan;
use crate::telemetry::{Key, Layer, Sink, Unit};
use crate::time::Cycles;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Registry key: interrupts delivered on time.
pub(crate) const KEY_DELIVERED: Key = Key::new("core.irq.delivered", Layer::Hardware, Unit::Count);
/// Registry key: interrupts delivered late (fault plane delay).
pub(crate) const KEY_DELAYED: Key = Key::new("core.irq.delayed", Layer::Hardware, Unit::Count);
/// Registry key: interrupts dropped by the fabric.
pub(crate) const KEY_DROPPED: Key = Key::new("core.irq.dropped", Layer::Hardware, Unit::Count);

/// How the hardware delivers interrupts to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryMode {
    /// Conventional x64 IDT vectoring: microcoded dispatch, stack switch,
    /// full architectural serialization. ~1000 cycles on the machines the
    /// paper measured.
    Idt,
    /// The paper's proposed extension: delivery as a branch injected into
    /// instruction fetch, with an MSR-based return path akin to `sysret`.
    /// Latency comparable to a correctly predicted branch.
    PipelineBranch,
}

impl fmt::Display for DeliveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryMode::Idt => write!(f, "IDT"),
            DeliveryMode::PipelineBranch => write!(f, "pipeline-branch"),
        }
    }
}

/// The interrupt classes §V-D calls out as candidates for pipeline delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IrqClass {
    /// LAPIC timer — "the first interrupt for consideration" (on-chip, next
    /// to the core).
    LapicTimer,
    /// Inter-processor interrupt (heartbeat broadcast, reschedule).
    Ipi,
    /// Device interrupt (NIC, block).
    Device,
    /// Math-fault style instruction exception (#MF/#XF) — would enable
    /// efficient FP-ISA virtualization.
    MathFault,
    /// General-protection style exception (#GP) — would support CARAT
    /// protection faults and transparent far memory.
    ProtectionFault,
}

/// What the delivery fabric did with one interrupt once the fault plane had
/// its say. With no fault plan (or a quiet one) every interrupt is
/// [`DeliveryOutcome::Delivered`], bit-identically to the pre-fault-plane
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Delivered normally.
    Delivered,
    /// Delivered, but the given cycles later than asserted.
    Delayed(Cycles),
    /// Dropped by the fabric: the target core never sees it. Recovery is
    /// the layer above's job (the kernel watchdog, for kicks).
    Dropped,
}

/// Present an interrupt of `class` to the delivery fabric under `plan`.
///
/// Only fabric-crossing classes ([`IrqClass::Ipi`], [`IrqClass::Device`])
/// can be lost or delayed — core-local traps (timer, math/protection
/// faults) have no wire to drop them on, so they always deliver.
pub(crate) fn present(class: IrqClass, plan: &mut FaultPlan) -> DeliveryOutcome {
    match class {
        IrqClass::Ipi | IrqClass::Device => {
            if plan.drop_kick() {
                DeliveryOutcome::Dropped
            } else if let Some(d) = plan.kick_delay() {
                DeliveryOutcome::Delayed(d)
            } else {
                DeliveryOutcome::Delivered
            }
        }
        IrqClass::LapicTimer | IrqClass::MathFault | IrqClass::ProtectionFault => {
            DeliveryOutcome::Delivered
        }
    }
}

/// `present`, publishing the outcome into `sink`'s registry under the
/// target CPU's shard, stamped at `now`. With the sink off this is exactly
/// `present`.
pub fn present_on(
    class: IrqClass,
    plan: &mut FaultPlan,
    sink: &Sink,
    cpu: usize,
    now: Cycles,
) -> DeliveryOutcome {
    let out = present(class, plan);
    let key = match out {
        DeliveryOutcome::Delivered => &KEY_DELIVERED,
        DeliveryOutcome::Delayed(_) => &KEY_DELAYED,
        DeliveryOutcome::Dropped => &KEY_DROPPED,
    };
    sink.count_at(key, cpu, 1, now);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;

    #[test]
    fn display_names() {
        assert_eq!(DeliveryMode::Idt.to_string(), "IDT");
        assert_eq!(DeliveryMode::PipelineBranch.to_string(), "pipeline-branch");
    }

    #[test]
    fn quiet_plan_always_delivers() {
        let mut plan = FaultPlan::quiet(1);
        for c in [IrqClass::Ipi, IrqClass::Device, IrqClass::LapicTimer] {
            assert_eq!(present(c, &mut plan), DeliveryOutcome::Delivered);
        }
    }

    #[test]
    fn core_local_traps_cannot_be_dropped() {
        let mut cfg = FaultConfig::quiet(2);
        cfg.drop_ipi = 1.0;
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(
            present(IrqClass::LapicTimer, &mut plan),
            DeliveryOutcome::Delivered
        );
        assert_eq!(
            present(IrqClass::ProtectionFault, &mut plan),
            DeliveryOutcome::Delivered
        );
        // The fabric-crossing class does get dropped at p=1.
        assert_eq!(present(IrqClass::Ipi, &mut plan), DeliveryOutcome::Dropped);
    }

    #[test]
    fn present_on_counts_each_outcome() {
        use crate::telemetry::Sink;
        let mut cfg = FaultConfig::quiet(4);
        cfg.drop_ipi = 0.5;
        cfg.delay_ipi = 0.5;
        let mut plan = FaultPlan::new(cfg);
        let sink = Sink::on();
        let (mut delivered, mut delayed, mut dropped) = (0u64, 0u64, 0u64);
        for i in 0..200 {
            match present_on(IrqClass::Ipi, &mut plan, &sink, i % 4, Cycles(i as u64)) {
                DeliveryOutcome::Delivered => delivered += 1,
                DeliveryOutcome::Delayed(_) => delayed += 1,
                DeliveryOutcome::Dropped => dropped += 1,
            }
        }
        assert_eq!(sink.counter("core.irq.delivered"), delivered);
        assert_eq!(sink.counter("core.irq.delayed"), delayed);
        assert_eq!(sink.counter("core.irq.dropped"), dropped);
        assert_eq!(delivered + delayed + dropped, 200);
        assert!(dropped > 0 && delayed > 0, "p=0.5 must fire both ways");
    }

    #[test]
    fn delayed_delivery_carries_bounded_latency() {
        let mut cfg = FaultConfig::quiet(3);
        cfg.delay_ipi = 1.0;
        cfg.max_ipi_delay = Cycles(250);
        let mut plan = FaultPlan::new(cfg);
        for _ in 0..50 {
            match present(IrqClass::Ipi, &mut plan) {
                DeliveryOutcome::Delayed(d) => assert!(d.get() >= 1 && d.get() <= 250),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }
}
