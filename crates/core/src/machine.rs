//! Machine topology and the cycle-cost model.
//!
//! The interweaving argument is quantitative: an interrupt costs ~1000 cycles
//! to dispatch (§V-D), a Linux context switch with FP state costs ~5000
//! cycles on Xeon Phi KNL (§IV-C), a kernel/user crossing costs hundreds of
//! cycles plus mitigation flushes, and so on. [`CostModel`] makes every such
//! cost an explicit, named parameter; [`MachineConfig`] bundles a cost model
//! with a topology and frequency. Presets reproduce the platforms in the
//! paper's figures.

use crate::interrupt::DeliveryMode;
use crate::time::{Cycles, Freq};
use serde::{Deserialize, Serialize};

/// Identifier of a CPU (hardware thread) in the simulated machine.
pub type CpuId = usize;

/// The platforms the paper's figures were produced on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Platform {
    /// Intel Xeon Phi Knights Landing (Figs. 4 and 6): many slow cores,
    /// expensive FP state (AVX-512), 1.4 GHz.
    PhiKnl,
    /// Dual-socket x64 server (Fig. 7 caption: 2× 3.3 GHz 12-core).
    XeonServer2S,
    /// The 8-socket, 192-core machine of §V-A's repetition study.
    BigServer8S,
    /// RISC-V on OpenPiton (§V-F): the open-hardware port target. In-order
    /// cores, lean trap entry, no speculation mitigations.
    RiscvOpenPiton,
    /// A deliberately small machine for fast unit tests.
    Test,
}

/// Per-mechanism cycle costs for a simulated machine.
///
/// Grouped by the stack layer that pays them. Every cost that a figure in
/// the paper attributes to the commodity stack appears here by name, so the
/// experiments can show exactly which costs interweaving removes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    // ---- interrupt path (hardware) ----
    /// IDT-based interrupt/exception dispatch: from interrupt assertion to
    /// the first instruction of the handler. The paper measures ~1000 cycles
    /// on x64 (§V-D).
    pub intr_dispatch: Cycles,
    /// Return from interrupt (`iretq`).
    pub intr_return: Cycles,
    /// The paper's proposed *pipeline interrupt* (§V-D): delivery injected
    /// into instruction fetch like a predicted branch; 100–1000× cheaper.
    pub pipeline_branch_dispatch: Cycles,
    /// Writing the APIC ICR to send an IPI.
    pub ipi_send: Cycles,
    /// Wire latency from ICR write to remote-core interrupt assertion.
    pub ipi_latency: Cycles,
    /// Arming the LAPIC one-shot timer.
    pub timer_program: Cycles,

    // ---- kernel/user boundary (layered stacks only) ----
    /// `syscall` entry path.
    pub syscall_entry: Cycles,
    /// `sysret` exit path.
    pub syscall_exit: Cycles,
    /// Spectre/Meltdown mitigation work added to each crossing (§V-D notes
    /// these dominate crossing costs on commodity stacks).
    pub mitigation_flush: Cycles,
    /// Building a user signal frame and entering the handler (the cost the
    /// heartbeat work in §IV-B must pay per signal on Linux).
    pub signal_frame: Cycles,
    /// `sigreturn` back out of a user signal handler.
    pub sigreturn: Cycles,

    // ---- context state (architecture) ----
    /// Save all general-purpose registers (full interrupt frame).
    pub gpr_save: Cycles,
    /// Restore all general-purpose registers.
    pub gpr_restore: Cycles,
    /// Save only the callee-saved subset (a fiber switch at a call site —
    /// the compiler knows caller-saved state is dead, §IV-C).
    pub callee_saved_save: Cycles,
    /// Restore the callee-saved subset.
    pub callee_saved_restore: Cycles,
    /// Save FP/vector state (`xsave`); very expensive on KNL (AVX-512).
    pub fp_save: Cycles,
    /// Restore FP/vector state (`xrstor`).
    pub fp_restore: Cycles,

    // ---- scheduling (software, but cost depends on the kernel design) ----
    /// Real-time (table-driven / EDF) scheduler pick: deterministic.
    pub sched_pick_rt: Cycles,
    /// Fair-share (CFS-like) scheduler pick: red-black tree + load tracking.
    pub sched_pick_fair: Cycles,
    /// Nautilus-like run-queue pick: per-CPU queue, no locks on fast path.
    pub sched_pick_nk: Cycles,

    // ---- memory translation (paging stacks only) ----
    /// A TLB miss page-table walk.
    pub tlb_walk: Cycles,
    /// A minor page fault (fault dispatch + kernel fill path).
    pub page_fault: Cycles,
    /// Data-TLB capacity in entries (per core).
    pub tlb_entries: usize,
    /// Page size in bytes for the paging configuration.
    pub page_size: u64,

    // ---- miscellaneous ----
    /// A call+return pair: the cost compiler-based timing pays instead of
    /// `intr_dispatch` (§IV-C).
    pub call_overhead: Cycles,
    /// A compiler-injected time check (`rdtsc` + compare + predicted branch).
    pub time_check: Cycles,
    /// One kernel-watchdog liveness scan of a CPU's dispatch state (a few
    /// loads and compares over per-CPU bookkeeping; the recovery path the
    /// fault-injection experiments charge per check).
    pub watchdog_check: Cycles,
    /// Cache line size in bytes.
    pub cacheline: u64,
}

impl CostModel {
    /// Baseline x64 cost model; presets tweak from here.
    pub fn x64_default() -> CostModel {
        CostModel {
            intr_dispatch: Cycles(1000),
            intr_return: Cycles(300),
            pipeline_branch_dispatch: Cycles(2),
            ipi_send: Cycles(150),
            ipi_latency: Cycles(400),
            timer_program: Cycles(60),
            syscall_entry: Cycles(150),
            syscall_exit: Cycles(150),
            mitigation_flush: Cycles(450),
            signal_frame: Cycles(4200),
            sigreturn: Cycles(1600),
            gpr_save: Cycles(150),
            gpr_restore: Cycles(150),
            callee_saved_save: Cycles(60),
            callee_saved_restore: Cycles(60),
            fp_save: Cycles(400),
            fp_restore: Cycles(400),
            sched_pick_rt: Cycles(100),
            sched_pick_fair: Cycles(900),
            sched_pick_nk: Cycles(150),
            tlb_walk: Cycles(80),
            page_fault: Cycles(2500),
            tlb_entries: 1536,
            page_size: 4096,
            call_overhead: Cycles(5),
            time_check: Cycles(15),
            watchdog_check: Cycles(25),
            cacheline: 64,
        }
    }

    /// Cost of one full kernel/user round trip (syscall in + out with
    /// mitigations) — what every layered-stack primitive pays at least once.
    pub fn kernel_crossing(&self) -> Cycles {
        self.syscall_entry + self.syscall_exit + self.mitigation_flush
    }

    /// Cost of delivering one signal to a user handler and returning.
    pub fn signal_round_trip(&self) -> Cycles {
        self.signal_frame + self.sigreturn + self.mitigation_flush
    }
}

/// A complete simulated machine: topology, clock, costs, delivery mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Which preset (or `Test`) this machine models.
    pub platform: Platform,
    /// Human-readable name for reports.
    pub name: String,
    /// Core clock.
    pub freq: Freq,
    /// Total hardware threads.
    pub cores: usize,
    /// Socket count (NUMA domains = sockets).
    pub sockets: usize,
    /// Cycle costs.
    pub cost: CostModel,
    /// How interrupts are delivered on this machine (IDT vs. the paper's
    /// pipeline-interrupt extension, §V-D).
    pub delivery: DeliveryMode,
}

impl MachineConfig {
    /// Xeon Phi Knights Landing: the platform of Figs. 4 and 6.
    ///
    /// 64 cores at 1.4 GHz. FP state is AVX-512 (2 KB), so `fp_save`/
    /// `fp_restore` are far more expensive than on a desktop part; the
    /// layered stack additionally pays an eager-save penalty folded into the
    /// fair-scheduler pick. Calibrated so a Linux non-RT thread context
    /// switch with FP state costs ≈5000 cycles (§IV-C).
    pub fn phi_knl() -> MachineConfig {
        let mut cost = CostModel::x64_default();
        cost.fp_save = Cycles(800);
        cost.fp_restore = Cycles(800);
        cost.sched_pick_fair = Cycles(1400);
        cost.sched_pick_nk = Cycles(200);
        cost.gpr_save = Cycles(200);
        cost.gpr_restore = Cycles(200);
        MachineConfig {
            platform: Platform::PhiKnl,
            name: "Xeon Phi KNL (64c, 1.4 GHz)".into(),
            freq: Freq::ghz(1.4),
            cores: 64,
            sockets: 1,
            cost,
            delivery: DeliveryMode::Idt,
        }
    }

    /// Dual-socket Xeon server: Fig. 7's host (2× 3.3 GHz 12-core) and the
    /// 16-CPU heartbeat platform of Fig. 3.
    pub fn xeon_server_2s() -> MachineConfig {
        MachineConfig {
            platform: Platform::XeonServer2S,
            name: "2-socket Xeon (24c, 3.3 GHz)".into(),
            freq: Freq::ghz(3.3),
            cores: 24,
            sockets: 2,
            cost: CostModel::x64_default(),
            delivery: DeliveryMode::Idt,
        }
    }

    /// The 8-socket, 192-core machine on which §V-A repeats the OpenMP study.
    pub fn big_server_8s() -> MachineConfig {
        let mut cost = CostModel::x64_default();
        // Cross-socket IPIs and scheduling get slower with 8 sockets.
        cost.ipi_latency = Cycles(900);
        cost.sched_pick_fair = Cycles(1300);
        MachineConfig {
            platform: Platform::BigServer8S,
            name: "8-socket x64 (192c, 2.1 GHz)".into(),
            freq: Freq::ghz(2.1),
            cores: 192,
            sockets: 8,
            cost,
            delivery: DeliveryMode::Idt,
        }
    }

    /// RISC-V on OpenPiton (§V-F: "By working on open hardware, we
    /// anticipate being able to more deeply explore hardware changes
    /// prompted by the interweaving model"). The cost structure differs
    /// from x64 in the directions that matter to interweaving: trap entry
    /// is lean (no microcoded IDT walk, no TSS stack switch), in-order
    /// cores carry no Spectre/Meltdown mitigation tax, and FP state is a
    /// fraction of AVX-512's — so the *relative* wins of compiler timing
    /// and pipeline interrupts shift, which is exactly what the port is
    /// for.
    pub fn riscv_openpiton() -> MachineConfig {
        let mut cost = CostModel::x64_default();
        cost.intr_dispatch = Cycles(350); // mtvec direct-mode trap entry
        cost.intr_return = Cycles(120); // mret
        cost.mitigation_flush = Cycles(0); // in-order, no transient leaks
        cost.fp_save = Cycles(150); // 32 × 64-bit F/D regs
        cost.fp_restore = Cycles(150);
        cost.signal_frame = Cycles(2600);
        cost.sigreturn = Cycles(900);
        cost.sched_pick_fair = Cycles(700);
        MachineConfig {
            platform: Platform::RiscvOpenPiton,
            name: "RISC-V OpenPiton (16c, 1 GHz)".into(),
            freq: Freq::ghz(1.0),
            cores: 16,
            sockets: 1,
            cost,
            delivery: DeliveryMode::Idt,
        }
    }

    /// A tiny machine for unit tests: `n` cores, 1 GHz (so µs = 1000 cycles).
    pub fn test(n: usize) -> MachineConfig {
        MachineConfig {
            platform: Platform::Test,
            name: format!("test machine ({n}c, 1 GHz)"),
            freq: Freq::ghz(1.0),
            cores: n,
            sockets: 1,
            cost: CostModel::x64_default(),
            delivery: DeliveryMode::Idt,
        }
    }

    /// Same machine with the pipeline-interrupt hardware extension enabled
    /// (§V-D). Used by the ablation benches.
    pub fn with_pipeline_interrupts(mut self) -> MachineConfig {
        self.delivery = DeliveryMode::PipelineBranch;
        self
    }

    /// Restrict the machine to `n` cores (parameter sweeps over scale).
    pub fn with_cores(mut self, n: usize) -> MachineConfig {
        assert!(n >= 1, "a machine needs at least one core");
        self.cores = n;
        self
    }

    /// Cost of dispatching an interrupt under this machine's delivery mode.
    pub fn dispatch_cost(&self) -> Cycles {
        match self.delivery {
            DeliveryMode::Idt => self.cost.intr_dispatch,
            DeliveryMode::PipelineBranch => self.cost.pipeline_branch_dispatch,
        }
    }

    /// Socket that owns a CPU (block distribution).
    pub fn socket_of(&self, cpu: CpuId) -> usize {
        let per = self.cores.div_ceil(self.sockets);
        (cpu / per).min(self.sockets - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        let knl = MachineConfig::phi_knl();
        assert_eq!(knl.cores, 64);
        assert_eq!(knl.freq, Freq::ghz(1.4));
        let xs = MachineConfig::xeon_server_2s();
        assert_eq!(xs.sockets, 2);
        assert_eq!(xs.cores, 24);
        let big = MachineConfig::big_server_8s();
        assert_eq!(big.cores, 192);
        assert_eq!(big.sockets, 8);
    }

    #[test]
    fn pipeline_interrupts_change_dispatch_cost() {
        let m = MachineConfig::test(4);
        assert_eq!(m.dispatch_cost(), Cycles(1000));
        let m = m.with_pipeline_interrupts();
        assert_eq!(m.dispatch_cost(), Cycles(2));
        // The §V-D claim: 100–1000× better.
        let ratio = 1000.0 / 2.0;
        assert!((100.0..=1000.0).contains(&ratio));
    }

    #[test]
    fn socket_mapping_is_block_distributed() {
        let m = MachineConfig::xeon_server_2s();
        assert_eq!(m.socket_of(0), 0);
        assert_eq!(m.socket_of(11), 0);
        assert_eq!(m.socket_of(12), 1);
        assert_eq!(m.socket_of(23), 1);
    }

    #[test]
    fn kernel_crossing_sums_components() {
        let c = CostModel::x64_default();
        assert_eq!(
            c.kernel_crossing(),
            c.syscall_entry + c.syscall_exit + c.mitigation_flush
        );
    }

    #[test]
    fn riscv_preset_reflects_open_hardware_costs() {
        let rv = MachineConfig::riscv_openpiton();
        let x64 = MachineConfig::xeon_server_2s();
        // Lean trap entry and no mitigation tax.
        assert!(rv.cost.intr_dispatch < x64.cost.intr_dispatch);
        assert_eq!(rv.cost.mitigation_flush, Cycles(0));
        // Small FP state (no AVX-512).
        assert!(rv.cost.fp_save < x64.cost.fp_save);
        // Pipeline interrupts still help, but by a smaller factor — open
        // hardware starts closer to the interwoven ideal.
        let ratio = rv.cost.intr_dispatch.as_f64() / rv.cost.pipeline_branch_dispatch.as_f64();
        assert!(ratio < 500.0 && ratio > 50.0, "ratio {ratio}");
    }

    #[test]
    fn with_cores_restricts_scale() {
        let m = MachineConfig::phi_knl().with_cores(16);
        assert_eq!(m.cores, 16);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = MachineConfig::test(4).with_cores(0);
    }
}
