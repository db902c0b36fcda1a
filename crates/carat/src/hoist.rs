//! Guard hoisting: replace per-iteration guards with one preheader check.
//!
//! The dense-loop case that makes CARAT cheap (§IV-A: overheads "<6 %
//! (geometric mean)" on NAS/Mantevo/PARSEC-class codes): an access
//! `a[i]` inside a loop is guarded per iteration after injection, but when
//! the *object* (`a`) is loop-invariant one object check in the preheader
//! covers every iteration. The pass hoists:
//!
//! - guards whose address is a `gep` off a loop-invariant, single-def base
//!   (the `a[i]` shape), and
//! - guards whose address register is itself loop-invariant and single-def,
//! - already-hoisted range guards out of enclosing loops (processing loops
//!   inner-to-outer lets a guard migrate from an inner preheader to the
//!   outermost one).
//!
//! Hoisting is slightly eager: a zero-trip loop executes a range guard the
//! original program would have skipped. Guards are side-effect-free checks
//! of tracked state, so the only observable difference is a protection
//! fault firing earlier on an *already-invalid* pointer — the same
//! compromise CARAT makes.

use crate::dataflow::gep_base;
use interweave_ir::analysis::{Cfg, DefInfo, Dominators, LoopForest};
use interweave_ir::inst::{Inst, Intrinsic};
use interweave_ir::passes::{Pass, PassStats};
use interweave_ir::types::Reg;
use interweave_ir::Module;
use std::collections::BTreeSet;

/// The hoisting pass. Run between injection and elision.
#[derive(Debug, Default, Clone)]
pub(crate) struct HoistGuards;

impl Pass for HoistGuards {
    fn name(&self) -> &'static str {
        "carat-hoist"
    }

    fn run(&mut self, m: &mut Module) -> PassStats {
        let mut stats = PassStats::default();
        for f in &mut m.funcs {
            let cfg = Cfg::build(f);
            let dom = Dominators::compute(&cfg);
            let mut loops = LoopForest::find(&cfg, &dom).loops;
            if loops.is_empty() {
                continue;
            }
            // Inner loops first (smaller bodies), so hoisted range guards
            // can be re-hoisted by enclosing loops in the same pass run.
            loops.sort_by_key(|l| l.body.len());
            let defs = DefInfo::compute(f);

            // Planned edits: removals (block, inst index) and one range
            // guard per (preheader, object).
            let mut removals: Vec<(usize, usize)> = Vec::new();
            let mut inserts: BTreeSet<(usize, Reg)> = BTreeSet::new();

            for l in &loops {
                let Some(pre) = l.preheader else { continue };
                for &bid in &l.body {
                    let bi = bid.index();
                    for (ii, inst) in f.blocks[bi].insts.iter().enumerate() {
                        let (kind, args) = match inst {
                            Inst::Intr(None, Intrinsic::CaratGuard, a) => {
                                (Intrinsic::CaratGuard, a)
                            }
                            Inst::Intr(None, Intrinsic::CaratGuardRange, a) => {
                                (Intrinsic::CaratGuardRange, a)
                            }
                            _ => continue,
                        };
                        if removals.contains(&(bi, ii)) {
                            continue; // already claimed by an inner loop
                        }
                        let addr = args[0];
                        // Identify the hoistable object.
                        let object = if defs.is_single_def(addr) && defs.invariant_in(addr, &l.body)
                        {
                            Some(addr)
                        } else if kind == Intrinsic::CaratGuard {
                            gep_base(f, &defs, addr)
                                .filter(|&b| defs.is_single_def(b) && defs.invariant_in(b, &l.body))
                        } else {
                            None
                        };
                        let Some(object) = object else { continue };
                        removals.push((bi, ii));
                        inserts.insert((pre.index(), object));
                        stats.bump("guards_hoisted", 1);
                    }
                }
            }

            // Apply removals (per block, descending index).
            removals.sort_unstable();
            for &(bi, ii) in removals.iter().rev() {
                f.blocks[bi].insts.remove(ii);
            }
            // Apply preheader insertions (after the preheader's own insts,
            // i.e. just before its terminator).
            for (pre, obj) in inserts {
                f.blocks[pre]
                    .insts
                    .push(Inst::Intr(None, Intrinsic::CaratGuardRange, vec![obj]));
                stats.bump("range_guards_inserted", 1);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards::InjectGuards;
    use crate::instrument;
    use interweave_ir::programs;
    use interweave_ir::types::BlockId;
    use interweave_ir::verify::assert_valid;
    use interweave_ir::{BinOp, CmpOp, FunctionBuilder};

    fn count(m: &Module, which: Intrinsic) -> usize {
        m.funcs
            .iter()
            .map(|f| f.count_insts(|i| matches!(i, Inst::Intr(_, w, _) if *w == which)))
            .sum()
    }

    #[test]
    fn array_loop_guard_hoists_to_preheader() {
        // for i in 0..n: s += a[i]  — the per-iteration guard becomes one
        // range guard before the loop.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        let n = fb.param(0);
        let eight = fb.const_i(8);
        let bytes = fb.bin(BinOp::Mul, n, eight);
        let a = fb.alloc(bytes);
        let zero = fb.const_i(0);
        let i = fb.mov(zero);
        let s = fb.mov(zero);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let p = fb.gep(a, i, 8, 0);
        let v = fb.load(p, 0);
        fb.bin_to(s, BinOp::Add, s, v);
        let one = fb.const_i(1);
        fb.bin_to(i, BinOp::Add, i, one);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(Some(s));
        m.add(fb.finish());

        InjectGuards.run(&mut m);
        assert_eq!(count(&m, Intrinsic::CaratGuard), 1);
        let stats = HoistGuards.run(&mut m);
        assert_valid(&m);
        assert_eq!(stats.get("guards_hoisted"), 1);
        assert_eq!(count(&m, Intrinsic::CaratGuard), 0);
        assert_eq!(count(&m, Intrinsic::CaratGuardRange), 1);
    }

    #[test]
    fn data_dependent_pointer_does_not_hoist() {
        // Pointer chase: `cur` is redefined every iteration — its guard
        // must stay in the loop.
        let p = programs::pointer_chase(15, 30);
        let mut m = p.module;
        InjectGuards.run(&mut m);
        let in_loop_before = count(&m, Intrinsic::CaratGuard);
        let stats = HoistGuards.run(&mut m);
        assert_valid(&m);
        // The chase-loop guard on `cur` survives; the init-loop guards on
        // gep(nodes, i) hoist.
        assert!(stats.get("guards_hoisted") >= 1);
        assert!(count(&m, Intrinsic::CaratGuard) >= 1);
        assert!(count(&m, Intrinsic::CaratGuard) < in_loop_before);
    }

    #[test]
    fn nested_loops_hoist_to_outermost_preheader() {
        // matvec's inner-loop guards should end up outside the outer loop
        // where the matrices are invariant.
        let p = programs::matvec(6);
        let mut m = p.module;
        InjectGuards.run(&mut m);
        HoistGuards.run(&mut m);
        assert_valid(&m);
        // No plain guards remain: every access is through an invariant base.
        assert_eq!(count(&m, Intrinsic::CaratGuard), 0);
        let f = &m.funcs[0];
        // Range guards must not sit inside the innermost (j) loops: check
        // none of the range guards is in a depth-2 block.
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::find(&cfg, &dom);
        for (bi, b) in f.blocks.iter().enumerate() {
            for inst in &b.insts {
                if matches!(inst, Inst::Intr(_, Intrinsic::CaratGuardRange, _)) {
                    let depth = forest.depth(BlockId(bi as u32));
                    assert!(depth <= 1, "range guard at loop depth {depth}");
                }
            }
        }
    }

    #[test]
    fn full_pipeline_preserves_program_results() {
        use interweave_ir::interp::{Interp, InterpConfig, NullHooks};
        for prog in programs::suite(1) {
            let mut base = Interp::new(InterpConfig::default());
            base.start(&prog.module, prog.entry, &prog.args);
            let expected = base.run_to_completion(&prog.module, &mut NullHooks);

            let mut m = prog.module.clone();
            instrument(&mut m, true);
            let mut rt = crate::runtime::CaratRuntime::new();
            let mut it = Interp::new(InterpConfig::default());
            it.start(&m, prog.entry, &prog.args);
            let got = it.run_to_completion(&m, &mut rt);
            assert_eq!(got, expected, "{} changed result", prog.name);
        }
    }

    #[test]
    fn one_range_guard_per_object() {
        // Loop with a[i] read and a[i] written: both guards hoist into one
        // range guard of `a`.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        let n = fb.param(0);
        let eight = fb.const_i(8);
        let bytes = fb.bin(BinOp::Mul, n, eight);
        let a = fb.alloc(bytes);
        let zero = fb.const_i(0);
        let i = fb.mov(zero);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let p = fb.gep(a, i, 8, 0);
        let v = fb.load(p, 0);
        let one = fb.const_i(1);
        let v2 = fb.bin(BinOp::Add, v, one);
        fb.store(p, 0, v2);
        fb.bin_to(i, BinOp::Add, i, one);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(None);
        m.add(fb.finish());

        InjectGuards.run(&mut m);
        let stats = HoistGuards.run(&mut m);
        assert_valid(&m);
        assert_eq!(stats.get("guards_hoisted"), 2);
        assert_eq!(stats.get("range_guards_inserted"), 1);
        assert_eq!(count(&m, Intrinsic::CaratGuard), 0);
        assert_eq!(count(&m, Intrinsic::CaratGuardRange), 1);
    }
}
