//! PIK: process-in-kernel via separate compilation and attestation.
//!
//! §IV-A (enhanced CARAT): "a Linux user-level program can be compiled,
//! transformed, linked, and cryptographically attested such that it can run
//! as a part of Nautilus, at kernel-level, using physical addresses, in a
//! simulacrum of a process." The kernel has no hardware protection, so
//! admission rests on two checks: the module's content hash matches an
//! attestation produced by the trusted compiler (no post-compilation
//! tampering), and the module is fully instrumented (defence in depth: all
//! memory operations are guarded/tracked).

use crate::instrument;
use crate::runtime::CaratRuntime;
use interweave_ir::inst::{Inst, Intrinsic};
use interweave_ir::interp::{ExecStatus, Interp, InterpConfig};
use interweave_ir::types::{FuncId, Val};
use interweave_ir::Module;
use std::collections::HashSet;

/// The attestation token accompanying a compiled module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attestation {
    /// Content hash of the transformed module, signed (by construction) by
    /// the trusted compiler.
    pub hash: u64,
}

/// Why admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The module's hash does not match the presented attestation
    /// (tampered after attestation).
    HashMismatch,
    /// The attestation is not from this system's trusted compiler.
    NotAttested,
    /// The module is not fully instrumented (an unguarded memory operation
    /// exists).
    NotInstrumented,
}

/// Static check: every memory access sits in a function that carries
/// guards, and every allocation/free is tracked.
pub fn is_fully_instrumented(m: &Module) -> bool {
    for f in &m.funcs {
        let has_access = f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| i.is_mem_access()));
        let has_guard = f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Intr(_, Intrinsic::CaratGuard | Intrinsic::CaratGuardRange, _)
                )
            })
        });
        if has_access && !has_guard {
            return false;
        }
        // Every Alloc must be immediately followed by tracking of the same
        // register; every Free immediately preceded by tracking.
        for b in &f.blocks {
            for (i, inst) in b.insts.iter().enumerate() {
                match inst {
                    Inst::Alloc(d, _) => {
                        let ok = matches!(
                            b.insts.get(i + 1),
                            Some(Inst::Intr(_, Intrinsic::CaratTrackAlloc, args))
                                if args.first() == Some(d)
                        );
                        if !ok {
                            return false;
                        }
                    }
                    Inst::Free(p) => {
                        let ok = i > 0
                            && matches!(
                                &b.insts[i - 1],
                                Inst::Intr(_, Intrinsic::CaratTrackFree, args)
                                    if args.first() == Some(p)
                            );
                        if !ok {
                            return false;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    true
}

/// A PIK "process": an admitted module plus its execution state. It runs in
/// kernel mode on physical addresses; isolation comes entirely from its
/// instrumentation and the CARAT runtime.
pub struct PikProcess {
    /// The admitted (transformed) module.
    pub module: Module,
    /// Interpreter state (registers, memory, statistics).
    pub interp: Interp,
    /// This process's CARAT runtime (allocation map, permissions).
    pub runtime: CaratRuntime,
    entry: FuncId,
    started: bool,
    args: Vec<Val>,
}

impl PikProcess {
    /// Run one scheduling slice of at most `fuel` cycles.
    pub fn run_slice(&mut self, fuel: u64) -> ExecStatus {
        if !self.started {
            self.interp.start(&self.module, self.entry, &self.args);
            self.started = true;
        }
        self.interp.run(&self.module, &mut self.runtime, fuel)
    }

    /// Run slices of `fuel` cycles until the process yields at its
    /// quiescent point. Any other stop means the workload never reaches
    /// one, which is a bug in the caller: it panics with the status.
    pub fn run_to_yield(&mut self, fuel: u64) {
        loop {
            match self.run_slice(fuel) {
                ExecStatus::Yielded => return,
                ExecStatus::OutOfFuel => continue,
                other => panic!("unexpected status before quiesce: {other:?}"),
            }
        }
    }

    /// Defragment this process's memory at the current quiescent point.
    pub fn defrag(&mut self) -> crate::defrag::DefragReport {
        crate::defrag::compact(&mut self.interp, &mut self.runtime)
    }
}

/// The PIK system: trusted compiler registry + admitted processes.
#[derive(Default)]
pub struct PikSystem {
    registry: HashSet<u64>,
    /// Admitted processes.
    pub processes: Vec<PikProcess>,
}

impl PikSystem {
    /// A fresh system with an empty trust registry.
    pub fn new() -> PikSystem {
        PikSystem::default()
    }

    /// The trusted compiler: transform (full CARAT pipeline) and attest.
    pub fn compile(&mut self, mut m: Module) -> (Module, Attestation) {
        instrument(&mut m, true);
        let hash = m.content_hash();
        self.registry.insert(hash);
        (m, Attestation { hash })
    }

    /// Kernel admission: verify the attestation and instrumentation, then
    /// install the module as a process. Returns its index.
    pub fn admit(
        &mut self,
        module: Module,
        att: Attestation,
        entry: FuncId,
        args: Vec<Val>,
    ) -> Result<usize, AdmitError> {
        if module.content_hash() != att.hash {
            return Err(AdmitError::HashMismatch);
        }
        if !self.registry.contains(&att.hash) {
            return Err(AdmitError::NotAttested);
        }
        if !is_fully_instrumented(&module) {
            return Err(AdmitError::NotInstrumented);
        }
        // Defence in depth: statically prove every access is covered by a
        // guard on every path (crate::coverage), not just that guards exist.
        if !crate::coverage::verify_coverage(&module).is_empty() {
            return Err(AdmitError::NotInstrumented);
        }
        self.processes.push(PikProcess {
            module,
            interp: Interp::new(InterpConfig::default()),
            runtime: CaratRuntime::new(),
            entry,
            started: false,
            args,
        });
        Ok(self.processes.len() - 1)
    }
}

/// A PIK kernel with a *shared* physical address space: all admitted
/// processes' allocations live in one [`Memory`](interweave_ir::interp::Memory), exactly as §IV-A
/// describes ("run as a part of Nautilus, at kernel-level, using physical
/// addresses"). Isolation between processes is enforced purely by their
/// guards: each process's CARAT runtime tracks only its own allocations,
/// so a cross-process access — however the address was forged — faults at
/// the guard.
pub struct SharedPikKernel {
    sys: PikSystem,
    /// The single shared physical memory, lent to the running process.
    memory: Option<interweave_ir::interp::Memory>,
}

impl Default for SharedPikKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedPikKernel {
    /// A kernel with an empty shared space.
    pub fn new() -> SharedPikKernel {
        SharedPikKernel {
            sys: PikSystem::new(),
            memory: Some(interweave_ir::interp::Memory::new(&InterpConfig::default())),
        }
    }

    /// Compile + attest (trusted toolchain).
    pub fn compile(&mut self, m: Module) -> (Module, Attestation) {
        self.sys.compile(m)
    }

    /// Admit a process into the shared space.
    pub fn admit(
        &mut self,
        module: Module,
        att: Attestation,
        entry: FuncId,
        args: Vec<Val>,
    ) -> Result<usize, AdmitError> {
        self.sys.admit(module, att, entry, args)
    }

    /// Run one slice of process `pid` inside the shared memory.
    pub fn run_slice(&mut self, pid: usize, fuel: u64) -> ExecStatus {
        let shared = self.memory.take().expect("memory present between slices");
        let proc = &mut self.sys.processes[pid];
        let placeholder = proc.interp.swap_memory(shared);
        let status = proc.run_slice(fuel);
        let shared = proc.interp.swap_memory(placeholder);
        self.memory = Some(shared);
        status
    }

    /// Whole-system defragmentation (§IV-A: the enhanced in-kernel CARAT
    /// "can perform per-'process' and whole system memory defragmentation").
    /// Compacts the single shared space at a quiescent point; every move
    /// patches *all* admitted processes — registers via provenance, runtime
    /// tracking tables via [`CaratRuntime::relocate`] (a no-op for
    /// processes that do not own the moved allocation).
    pub fn defrag_all(&mut self) -> crate::defrag::DefragReport {
        let mut shared = self.memory.take().expect("memory present between slices");
        let mut report = crate::defrag::DefragReport {
            holes_before: shared.free_holes(),
            ..Default::default()
        };
        while let Some(a) = crate::defrag::compaction_candidate(&shared) {
            let (old, new) = shared
                .move_allocation(a.id)
                .expect("moving a live allocation cannot fail");
            debug_assert_eq!(shared.base_of(a.id), Some(new));
            for proc in &mut self.sys.processes {
                // Register patching touches only frames, so it is safe (and
                // required) while each process holds a placeholder memory.
                report.regs_patched += proc.interp.patch_provenance(a.id, old, new);
                proc.runtime.relocate(old, new);
            }
            report.moves += 1;
            report.bytes_moved += a.size;
        }
        report.holes_after = shared.free_holes();
        self.memory = Some(shared);
        report
    }

    /// Direct access to an admitted process (inspection).
    pub fn process(&mut self, pid: usize) -> &mut PikProcess {
        &mut self.sys.processes[pid]
    }

    /// Live allocations in the shared space.
    pub fn shared_allocations(&self) -> usize {
        self.memory.as_ref().map(|m| m.n_allocs()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_ir::programs;

    #[test]
    fn compile_admit_run_roundtrip() {
        let prog = programs::stream_triad(32);
        let mut sys = PikSystem::new();
        let (m, att) = sys.compile(prog.module.clone());
        let pid = sys
            .admit(m, att, prog.entry, prog.args.clone())
            .expect("admission");
        let st = sys.processes[pid].run_slice(u64::MAX / 4);
        // Same checksum as a plain run: 7 * n(n-1)/2.
        assert_eq!(
            st,
            ExecStatus::Done(Some(Val::F(7.0 * (31.0 * 32.0 / 2.0))))
        );
    }

    #[test]
    fn tampered_module_is_rejected() {
        let prog = programs::stream_triad(8);
        let mut sys = PikSystem::new();
        let (mut m, att) = sys.compile(prog.module.clone());
        // Attacker strips a guard after attestation.
        for f in &mut m.funcs {
            for b in &mut f.blocks {
                if let Some(pos) = b.insts.iter().position(|i| {
                    matches!(
                        i,
                        Inst::Intr(_, Intrinsic::CaratGuard | Intrinsic::CaratGuardRange, _)
                    )
                }) {
                    b.insts.remove(pos);
                    let err = sys
                        .admit(m, att, prog.entry, prog.args.clone())
                        .unwrap_err();
                    assert_eq!(err, AdmitError::HashMismatch);
                    return;
                }
            }
        }
        panic!("no guard found to strip");
    }

    #[test]
    fn unattested_module_is_rejected_even_if_instrumented() {
        let prog = programs::stream_triad(8);
        let mut sys = PikSystem::new();
        // Instrument outside the trusted compiler (identical transformation,
        // but no registry entry).
        let mut m = prog.module.clone();
        crate::instrument(&mut m, true);
        let att = Attestation {
            hash: m.content_hash(),
        };
        let err = sys.admit(m, att, prog.entry, prog.args).unwrap_err();
        assert_eq!(err, AdmitError::NotAttested);
    }

    #[test]
    fn partially_stripped_but_rehashed_module_fails_coverage() {
        // An attacker who strips one guard AND re-registers the hash (e.g.
        // via a compromised-but-registry-writing toolchain) is still caught
        // by the coverage verifier.
        let prog = programs::stream_triad(8);
        let mut sys = PikSystem::new();
        let (mut m, _) = sys.compile(prog.module.clone());
        'strip: for f in &mut m.funcs {
            for b in &mut f.blocks {
                if let Some(pos) = b.insts.iter().position(|i| {
                    matches!(
                        i,
                        Inst::Intr(_, Intrinsic::CaratGuard | Intrinsic::CaratGuardRange, _)
                    )
                }) {
                    b.insts.remove(pos);
                    break 'strip;
                }
            }
        }
        // Re-attest the tampered module through the trusted path (worst
        // case for the hash check).
        let att = Attestation {
            hash: m.content_hash(),
        };
        sys.registry.insert(att.hash);
        let err = sys
            .admit(m, att, prog.entry, prog.args.clone())
            .unwrap_err();
        assert_eq!(err, AdmitError::NotInstrumented);
    }

    #[test]
    fn uninstrumented_module_fails_the_static_check() {
        let prog = programs::stream_triad(8);
        assert!(!is_fully_instrumented(&prog.module));
        let mut m = prog.module.clone();
        crate::instrument(&mut m, true);
        assert!(is_fully_instrumented(&m));
    }

    #[test]
    fn shared_space_holds_every_processes_allocations() {
        let mut kern = SharedPikKernel::new();
        let mut pids = Vec::new();
        for n in [64i64, 96] {
            let prog = programs::histogram(200, 16);
            let (m, att) = kern.compile(prog.module.clone());
            let pid = kern
                .admit(m, att, prog.entry, vec![Val::I(200), Val::I(n)])
                .expect("admits");
            pids.push(pid);
        }
        // Interleave slices: both processes allocate in the one space.
        let mut done = [false; 2];
        while !done.iter().all(|&d| d) {
            for (i, &pid) in pids.iter().enumerate() {
                if done[i] {
                    continue;
                }
                match kern.run_slice(pid, 10_000) {
                    ExecStatus::Done(_) => done[i] = true,
                    ExecStatus::OutOfFuel | ExecStatus::Yielded => {}
                    ExecStatus::Trapped(t) => panic!("trapped: {t:?}"),
                }
            }
        }
    }

    #[test]
    fn guards_isolate_processes_within_one_address_space() {
        use interweave_ir::interp::Trap;
        use interweave_ir::{BinOp, CmpOp, FunctionBuilder};

        let mut kern = SharedPikKernel::new();

        // Process A: allocates, writes a secret, then spins at yields.
        let mut fb = FunctionBuilder::new("victim", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let secret = fb.const_i(12345);
        fb.store(p, 0, secret);
        let head = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        fb.intr_void(interweave_ir::Intrinsic::Yield, &[]);
        fb.br(head);
        let mut m_a = Module::new();
        m_a.add(fb.finish());
        let (m_a, att_a) = kern.compile(m_a);
        let a = kern.admit(m_a, att_a, FuncId(0), vec![]).unwrap();

        // Run A until it has allocated (first yield).
        assert_eq!(kern.run_slice(a, u64::MAX / 4), ExecStatus::Yielded);
        assert_eq!(kern.shared_allocations(), 1);

        // Process B: scans the low heap looking for someone else's data —
        // a forged-pointer attack inside the shared physical space.
        let mut fb = FunctionBuilder::new("attacker", 0);
        let base = fb.const_i(0x10_000); // the shared heap base
        let zero = fb.const_i(0);
        let i = fb.mov(zero);
        let limit = fb.const_i(64);
        let one = fb.const_i(1);
        let h = fb.new_block();
        let b = fb.new_block();
        let exit = fb.new_block();
        fb.br(h);
        fb.switch_to(h);
        let c = fb.cmp(CmpOp::Lt, i, limit);
        fb.cond_br(c, b, exit);
        fb.switch_to(b);
        let addr = fb.gep(base, i, 8, 0);
        let _v = fb.load(addr, 0); // guarded: must fault on A's memory
        fb.bin_to(i, BinOp::Add, i, one);
        fb.br(h);
        fb.switch_to(exit);
        fb.ret(None);
        let mut m_b = Module::new();
        m_b.add(fb.finish());
        let (m_b, att_b) = kern.compile(m_b);
        let bpid = kern.admit(m_b, att_b, FuncId(0), vec![]).unwrap();

        // B's very first probe into A's allocation faults at the guard —
        // same physical space, zero hardware protection, full isolation.
        match kern.run_slice(bpid, u64::MAX / 4) {
            ExecStatus::Trapped(Trap::ProtectionFault { addr }) => {
                assert_eq!(addr, 0x10_000);
            }
            other => panic!("expected cross-process fault, got {other:?}"),
        }
        // A is unharmed and still scheduled (it parks at its next yield).
        assert!(matches!(
            kern.run_slice(a, 5_000),
            ExecStatus::Yielded | ExecStatus::OutOfFuel
        ));
    }

    #[test]
    fn whole_system_defrag_patches_every_process_in_the_shared_space() {
        use crate::defrag::fragmentation_demo;

        // Two processes fragment the one shared physical space, park at
        // their yields, and the kernel compacts the whole system at once.
        let mut kern = SharedPikKernel::new();
        let mut pids = Vec::new();
        for n in [8i64, 12] {
            let (m, entry) = fragmentation_demo("n");
            let (m, att) = kern.compile(m);
            let pid = kern.admit(m, att, entry, vec![Val::I(n)]).expect("admits");
            pids.push((pid, n));
        }
        for &(pid, _) in &pids {
            assert_eq!(kern.run_slice(pid, u64::MAX / 4), ExecStatus::Yielded);
        }

        let report = kern.defrag_all();
        assert!(report.moves >= 1, "shared space had holes to repair");
        assert!(
            report.regs_patched >= 1,
            "some process held a register into a moved allocation"
        );
        assert!(report.holes_after <= report.holes_before);

        // Both processes resume through patched pointers and produce the
        // same sums as an undisturbed run: n(n-1)/2.
        for &(pid, n) in &pids {
            match kern.run_slice(pid, u64::MAX / 4) {
                ExecStatus::Done(Some(Val::I(v))) => assert_eq!(v, n * (n - 1) / 2),
                other => panic!("process {pid} ended with {other:?}"),
            }
        }
    }

    #[test]
    fn kernel_can_defrag_a_process_mid_run() {
        // Run a process with a slice budget so the kernel gets control, then
        // defragment; the process must still complete correctly.
        let prog = programs::histogram(200, 16);
        let mut sys = PikSystem::new();
        let (m, att) = sys.compile(prog.module.clone());
        let pid = sys.admit(m, att, prog.entry, prog.args.clone()).unwrap();

        let mut result = None;
        for _ in 0..10_000 {
            match sys.processes[pid].run_slice(5_000) {
                ExecStatus::Done(v) => {
                    result = v;
                    break;
                }
                ExecStatus::OutOfFuel | ExecStatus::Yielded => {
                    sys.processes[pid].defrag();
                }
                ExecStatus::Trapped(t) => panic!("trapped: {t:?}"),
            }
        }
        // Compare against an uninstrumented run.
        use interweave_ir::interp::NullHooks;
        let mut base = Interp::new(InterpConfig::default());
        base.start(&prog.module, prog.entry, &prog.args);
        let expected = base.run_to_completion(&prog.module, &mut NullHooks);
        assert_eq!(result, expected);
    }
}
