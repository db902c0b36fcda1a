//! Memory defragmentation by compaction.
//!
//! §IV-A: with CARAT, "memory can be managed at arbitrary granularity,
//! instead of being restricted to page sizes", and the enhanced in-kernel
//! version "can perform per-'process' and whole system memory
//! defragmentation". Compaction here moves live allocations *downward* into
//! free holes; the memory layer patches every stored pointer (tracked by
//! provenance) and [`compact`] patches every live register, so the program
//! resumes as if nothing happened — the property test in `tests/` proves it
//! by comparing final results with and without mid-run compaction.

use crate::runtime::{CaratRuntime, EscapeCorruption};
use interweave_ir::interp::{Allocation, Interp, Memory};
use interweave_ir::types::Val;
use std::collections::BTreeSet;

/// What a compaction pass accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefragReport {
    /// Allocations moved.
    pub moves: usize,
    /// Bytes relocated.
    pub bytes_moved: u64,
    /// Live registers patched across all frames.
    pub regs_patched: usize,
    /// Free holes before compaction.
    pub holes_before: usize,
    /// Free holes after compaction.
    pub holes_after: usize,
}

/// The next allocation a compaction pass would move: the first allocation
/// (ascending base) with a strictly lower free hole that fits it. `None`
/// means the heap is fully compacted. Shared by per-process [`compact`] and
/// the PIK kernel's whole-system defragmentation.
pub(crate) fn compaction_candidate(mem: &Memory) -> Option<Allocation> {
    let holes = mem.free_blocks();
    mem.allocations().into_iter().find(|a| {
        holes
            .iter()
            .any(|&(hb, hs)| hb + a.size <= a.base && hs >= a.size)
    })
}

/// Compact the interpreter's heap: repeatedly move the lowest allocation
/// that can migrate into a strictly lower free hole. Runs at a quiescent
/// point (between [`Interp::run`] slices). The runtime's tracking table is
/// relocated alongside.
pub fn compact(it: &mut Interp, rt: &mut CaratRuntime) -> DefragReport {
    let mut report = DefragReport {
        holes_before: it.mem.free_holes(),
        ..DefragReport::default()
    };
    while let Some(a) = compaction_candidate(&it.mem) {
        let (old, new) = it
            .mem
            .move_allocation(a.id)
            .expect("moving a live allocation cannot fail");
        debug_assert!(new < old, "compaction must move downward");
        debug_assert_eq!(
            it.mem.base_of(a.id),
            Some(new),
            "the id index must track the move"
        );
        report.regs_patched += it.patch_provenance(a.id, old, new);
        rt.relocate(old, new);
        report.moves += 1;
        report.bytes_moved += a.size;
    }
    report.holes_after = it.mem.free_holes();
    report
}

/// What a corruption-recovery pass accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Corrupted words rewritten from the runtime's escape records.
    pub repaired_words: usize,
    /// Damaged allocations relocated to fresh frames.
    pub relocations: usize,
    /// Bytes moved by those relocations.
    pub bytes_moved: u64,
    /// Live registers patched across all frames.
    pub regs_patched: usize,
    /// Bytes of damaged frame withdrawn from service.
    pub quarantined_bytes: u64,
}

/// Recover from memory corruption the escape audit found: repair each
/// corrupted word from the runtime's record, then move every allocation
/// that held a corrupted word to a fresh frame — reusing the compaction
/// machinery ([`Memory::move_allocation`] + provenance/register patching +
/// `CaratRuntime::relocate`) — and quarantine the suspect old frame on
/// both sides (free list and guard table) so it is never handed out again.
///
/// This is the §IV-A claim inverted: because the interwoven runtime manages
/// memory in software, a fault that the layered stack could only handle by
/// killing the process (or scrubbing whole pages) is repaired at allocation
/// granularity while the program keeps running.
pub fn quarantine_and_relocate(
    it: &mut Interp,
    rt: &mut CaratRuntime,
    corruptions: &[EscapeCorruption],
) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    // 1. Repair each corrupted word back to the recorded pointer value,
    //    restoring its provenance from the allocation it points into.
    for c in corruptions {
        let prov = it.mem.containing(c.expected).map(|a| a.id);
        if it
            .mem
            .store(c.holder, Val::I(c.expected as i64), prov)
            .is_ok()
        {
            report.repaired_words += 1;
        }
    }
    // 2. The frames that held corrupted words are suspect (whatever flipped
    //    one bit may flip more): relocate each damaged allocation once,
    //    deterministically ordered by id.
    let damaged: BTreeSet<_> = corruptions
        .iter()
        .filter_map(|c| it.mem.containing(c.holder).map(|a| a.id))
        .collect();
    for id in damaged {
        let Some(a) = it.mem.base_of(id).and_then(|b| it.mem.containing(b)) else {
            continue;
        };
        let size = a.size;
        let Ok((old, new)) = it.mem.move_allocation(id) else {
            continue;
        };
        report.regs_patched += it.patch_provenance(id, old, new);
        rt.relocate(old, new);
        report.relocations += 1;
        report.bytes_moved += size;
        // 3. Withdraw the damaged frame on both sides: the memory layer
        //    stops reusing it, the guard table denies access to it.
        if it.mem.quarantine_range(old, size) {
            rt.quarantine(old, size);
            report.quarantined_bytes += size;
        }
    }
    report
}

/// Build a deliberately fragmenting program for demonstrations and tests:
/// a linked list interleaved with padding allocations; the pads are freed
/// in a second pass (leaving holes between the surviving nodes), the
/// program yields (the compaction point), then walks the list summing
/// values — through pointers that compaction must have patched. Returns
/// `(module, entry)`; call with one argument `n` (list length ≥ 2); the
/// final sum is `n(n-1)/2`.
pub fn fragmentation_demo() -> (interweave_ir::Module, interweave_ir::FuncId) {
    use interweave_ir::{BinOp, CmpOp, FunctionBuilder, Intrinsic, Module};
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("frag_demo", 1);
    let n = fb.param(0);
    let node_sz = fb.const_i(24);
    let pad_sz = fb.const_i(64);
    let zero = fb.const_i(0);
    let one = fb.const_i(1);

    let head = fb.alloc(node_sz);
    fb.store(head, 8, zero);
    let pad0 = fb.alloc(pad_sz);
    fb.store(head, 16, pad0);
    let prev = fb.mov(head);
    let i = fb.mov(one);
    let lh = fb.new_block();
    let lb = fb.new_block();
    let free_pre = fb.new_block();
    fb.br(lh);
    fb.switch_to(lh);
    let c = fb.cmp(CmpOp::Lt, i, n);
    fb.cond_br(c, lb, free_pre);
    fb.switch_to(lb);
    let node = fb.alloc(node_sz);
    fb.store(node, 8, i);
    let pad = fb.alloc(pad_sz);
    fb.store(node, 16, pad);
    fb.store(prev, 0, node);
    fb.mov_to(prev, node);
    fb.bin_to(i, BinOp::Add, i, one);
    fb.br(lh);

    fb.switch_to(free_pre);
    let fcur = fb.mov(head);
    let fk = fb.mov(zero);
    let fh = fb.new_block();
    let fbod = fb.new_block();
    let walk_pre = fb.new_block();
    fb.br(fh);
    fb.switch_to(fh);
    let fc = fb.cmp(CmpOp::Lt, fk, n);
    fb.cond_br(fc, fbod, walk_pre);
    fb.switch_to(fbod);
    let fpad = fb.load(fcur, 16);
    fb.free(fpad);
    let fnxt = fb.load(fcur, 0);
    fb.mov_to(fcur, fnxt);
    fb.bin_to(fk, BinOp::Add, fk, one);
    fb.br(fh);

    fb.switch_to(walk_pre);
    fb.intr_void(Intrinsic::Yield, &[]);
    let cur = fb.mov(head);
    let sum = fb.mov(zero);
    let k = fb.mov(zero);
    let wh = fb.new_block();
    let wb = fb.new_block();
    let exit = fb.new_block();
    fb.br(wh);
    fb.switch_to(wh);
    let c2 = fb.cmp(CmpOp::Lt, k, n);
    fb.cond_br(c2, wb, exit);
    fb.switch_to(wb);
    let v = fb.load(cur, 8);
    fb.bin_to(sum, BinOp::Add, sum, v);
    let nxt = fb.load(cur, 0);
    fb.mov_to(cur, nxt);
    fb.bin_to(k, BinOp::Add, k, one);
    fb.br(wh);
    fb.switch_to(exit);
    fb.ret(Some(sum));
    let entry = m.add(fb.finish());
    (m, entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument;
    use interweave_ir::interp::{ExecStatus, Interp, InterpConfig};
    use interweave_ir::types::Val;
    use interweave_ir::{BinOp, CmpOp, FunctionBuilder, Intrinsic, Module};

    /// A program that (1) builds a fragmented heap holding pointers both in
    /// registers and in memory, (2) yields, (3) reads everything back
    /// through the stored pointers.
    fn fragmenting_program() -> (Module, interweave_ir::FuncId) {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("frag", 0);
        let small = fb.const_i(32);
        let big = fb.const_i(256);

        // Interleave small/big allocations, then free the bigs → holes.
        let keep0 = fb.alloc(small);
        let dead0 = fb.alloc(big);
        let keep1 = fb.alloc(small);
        let dead1 = fb.alloc(big);
        let keep2 = fb.alloc(small);
        // A directory allocation holding pointers to the keeps (escapes).
        let dir = fb.alloc(small);
        fb.store(dir, 0, keep0);
        fb.store(dir, 8, keep1);
        fb.store(dir, 16, keep2);
        // Distinct values in each keep.
        let v0 = fb.const_i(111);
        let v1 = fb.const_i(222);
        let v2 = fb.const_i(333);
        fb.store(keep0, 0, v0);
        fb.store(keep1, 0, v1);
        fb.store(keep2, 0, v2);
        fb.free(dead0);
        fb.free(dead1);

        // Quiescent point: the embedder defragments here.
        fb.intr_void(Intrinsic::Yield, &[]);

        // Read back through the *stored* pointers and through a register.
        let p0 = fb.load(dir, 0);
        let p1 = fb.load(dir, 8);
        let a0 = fb.load(p0, 0);
        let a1 = fb.load(p1, 0);
        let a2 = fb.load(keep2, 0); // register-held pointer
        let s01 = fb.bin(BinOp::Add, a0, a1);
        let sum = fb.bin(BinOp::Add, s01, a2);
        fb.ret(Some(sum));
        let id = m.add(fb.finish());
        (m, id)
    }

    #[test]
    fn compaction_preserves_results_and_reduces_fragmentation() {
        let (mut m, entry) = fragmenting_program();
        instrument(&mut m, true);

        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, entry, &[]);
        assert_eq!(it.run(&m, &mut rt, u64::MAX / 4), ExecStatus::Yielded);

        let holes_before = it.mem.free_holes();
        assert!(holes_before >= 1, "test needs fragmentation to repair");
        let report = compact(&mut it, &mut rt);
        assert!(report.moves >= 1, "nothing moved: {report:?}");
        assert!(report.regs_patched >= 1, "register-held pointer must patch");

        // Resume: all three values must read back intact through patched
        // pointers.
        match it.run(&m, &mut rt, u64::MAX / 4) {
            ExecStatus::Done(Some(Val::I(v))) => assert_eq!(v, 111 + 222 + 333),
            other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn bit_flip_is_audited_repaired_and_survivors_relocated() {
        // Full recovery cycle: run to the quiescent point, corrupt a stored
        // pointer with a bit-flip, let the audit find it, quarantine-and-
        // relocate, and resume — the program must still produce the right
        // answer, through pointers living in a *fresh* frame.
        let (mut m, entry) = fragmenting_program();
        instrument(&mut m, true);
        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, entry, &[]);
        assert_eq!(it.run(&m, &mut rt, u64::MAX / 4), ExecStatus::Yielded);

        let holders = rt.escape_holders();
        assert!(!holders.is_empty(), "test needs escape records");
        let victim = holders[0];
        it.mem.flip_bit(victim, 9).expect("pointer word is an int");

        let corruptions = rt.audit_escapes(&it.mem);
        assert_eq!(corruptions.len(), 1, "exactly the flipped word");
        assert_eq!(corruptions[0].holder, victim);

        let report = quarantine_and_relocate(&mut it, &mut rt, &corruptions);
        assert_eq!(report.repaired_words, 1);
        assert_eq!(report.relocations, 1, "the damaged frame must move");
        assert!(report.quarantined_bytes > 0);
        // Post-recovery the ledger and memory agree again.
        assert!(rt.audit_escapes(&it.mem).is_empty());

        match it.run(&m, &mut rt, u64::MAX / 4) {
            ExecStatus::Done(Some(Val::I(v))) => assert_eq!(v, 111 + 222 + 333),
            other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn recovery_with_no_corruptions_is_a_noop() {
        let (mut m, entry) = fragmenting_program();
        instrument(&mut m, true);
        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, entry, &[]);
        let _ = it.run(&m, &mut rt, u64::MAX / 4);
        let report = quarantine_and_relocate(&mut it, &mut rt, &[]);
        assert_eq!(report, RecoveryReport::default());
    }

    #[test]
    fn compaction_is_idempotent() {
        let (mut m, entry) = fragmenting_program();
        instrument(&mut m, true);
        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, entry, &[]);
        let _ = it.run(&m, &mut rt, u64::MAX / 4);
        let first = compact(&mut it, &mut rt);
        let second = compact(&mut it, &mut rt);
        assert!(first.moves >= 1);
        assert_eq!(second.moves, 0, "second pass should find nothing to move");
    }

    #[test]
    fn compaction_with_loop_built_structure() {
        // Build a linked list with a loop, fragment around it, compact at a
        // yield, then walk the list — exercises provenance through loops.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("list", 1);
        let n = fb.param(0);
        let node_sz = fb.const_i(24);
        let pad_sz = fb.const_i(64);
        let zero = fb.const_i(0);
        let one = fb.const_i(1);

        // Nodes are {next, value, pad_ptr} (24 B). Build the list with a
        // pad allocation interleaved between nodes, THEN free all pads in a
        // second walk — leaving real holes between surviving nodes that
        // only compaction can reclaim.
        let head = fb.alloc(node_sz);
        fb.store(head, 8, zero); // value 0
        let pad0 = fb.alloc(pad_sz);
        fb.store(head, 16, pad0);
        let prev = fb.mov(head);
        let i = fb.mov(one);
        let lh = fb.new_block();
        let lb = fb.new_block();
        let free_pre = fb.new_block();
        fb.br(lh);
        fb.switch_to(lh);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, lb, free_pre);
        fb.switch_to(lb);
        let node = fb.alloc(node_sz);
        fb.store(node, 8, i);
        let pad = fb.alloc(pad_sz);
        fb.store(node, 16, pad);
        fb.store(prev, 0, node); // escape: prev->next = node
        fb.mov_to(prev, node);
        fb.bin_to(i, BinOp::Add, i, one);
        fb.br(lh);

        // Free every pad (creating holes), then yield for compaction.
        fb.switch_to(free_pre);
        let fcur = fb.mov(head);
        let fk = fb.mov(zero);
        let fh = fb.new_block();
        let fbod = fb.new_block();
        let walk_pre = fb.new_block();
        fb.br(fh);
        fb.switch_to(fh);
        let fc = fb.cmp(CmpOp::Lt, fk, n);
        fb.cond_br(fc, fbod, walk_pre);
        fb.switch_to(fbod);
        let fpad = fb.load(fcur, 16);
        fb.free(fpad);
        let fnxt = fb.load(fcur, 0);
        fb.mov_to(fcur, fnxt);
        fb.bin_to(fk, BinOp::Add, fk, one);
        fb.br(fh);

        // yield, then walk summing values
        fb.switch_to(walk_pre);
        fb.intr_void(Intrinsic::Yield, &[]);
        let cur = fb.mov(head);
        let sum = fb.mov(zero);
        let k = fb.mov(zero);
        let wh = fb.new_block();
        let wb = fb.new_block();
        let exit = fb.new_block();
        fb.br(wh);
        fb.switch_to(wh);
        let c2 = fb.cmp(CmpOp::Lt, k, n);
        fb.cond_br(c2, wb, exit);
        fb.switch_to(wb);
        let v = fb.load(cur, 8);
        fb.bin_to(sum, BinOp::Add, sum, v);
        let nxt = fb.load(cur, 0);
        fb.mov_to(cur, nxt);
        fb.bin_to(k, BinOp::Add, k, one);
        fb.br(wh);
        fb.switch_to(exit);
        fb.ret(Some(sum));
        let entry = m.add(fb.finish());
        instrument(&mut m, true);

        let n = 10i64;
        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, entry, &[Val::I(n)]);
        assert_eq!(it.run(&m, &mut rt, u64::MAX / 4), ExecStatus::Yielded);
        let report = compact(&mut it, &mut rt);
        assert!(report.moves > 0);
        match it.run(&m, &mut rt, u64::MAX / 4) {
            ExecStatus::Done(Some(Val::I(v))) => assert_eq!(v, n * (n - 1) / 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
