//! Guard elision: remove guards made redundant by an earlier guard.
//!
//! §IV-A: "modern code analysis techniques can provide the information
//! necessary to aggregate and hoist protection and tracking code, thus
//! taking it out of the critical path in most instances."
//!
//! A guard of register `r` is redundant when, on *every* path reaching it,
//! a guard of `r` has executed with no intervening redefinition of `r`, no
//! free, and no call (frees/calls may invalidate any guarantee). A guard
//! carries one fact, "`r` points into a live allocation", and every tracked
//! allocation is readable and writable, so any earlier guard of `r` (load
//! or store, object or range) covers a later one. This is the forward
//! must-dataflow of [`crate::dataflow`] over one guarded bit per register;
//! joins intersect.

use crate::dataflow::{intersect, solve};
use interweave_ir::analysis::{Cfg, DefInfo};
use interweave_ir::inst::{Inst, Intrinsic};
use interweave_ir::passes::{Pass, PassStats};
use interweave_ir::{Function, Module};

/// The elision pass. Run after injection (and hoisting, if enabled).
#[derive(Debug, Default, Clone)]
pub(crate) struct ElideGuards;

impl Pass for ElideGuards {
    fn name(&self) -> &'static str {
        "carat-elide"
    }

    fn run(&mut self, m: &mut Module) -> PassStats {
        let mut stats = PassStats::default();
        for f in &mut m.funcs {
            if f.n_regs == 0 || f.blocks.is_empty() {
                continue;
            }
            let cfg = Cfg::build(f);
            let defs = DefInfo::compute(f);

            // Transfer over one block: `guarded[r]` says `r` is guarded on
            // every path. Redundant guards are recorded in `elided`.
            let apply = |guarded: &mut Vec<bool>,
                         bi: usize,
                         f: &Function,
                         mut elided: Option<&mut Vec<usize>>| {
                for (ii, inst) in f.blocks[bi].insts.iter().enumerate() {
                    match inst {
                        Inst::Intr(_, Intrinsic::CaratGuard | Intrinsic::CaratGuardRange, args) => {
                            let a = args[0].0 as usize;
                            if guarded[a] {
                                if let Some(elided) = elided.as_deref_mut() {
                                    elided.push(ii);
                                }
                            } else if defs.is_single_def(args[0]) {
                                // A guard only provides a *lasting*
                                // guarantee if its register has a single
                                // static definition; otherwise another def
                                // may change the value on some path this
                                // analysis folded together.
                                guarded[a] = true;
                            }
                        }
                        Inst::Intr(_, Intrinsic::CaratTrackFree, _)
                        | Inst::Free(_)
                        | Inst::Call(..) => guarded.fill(false),
                        _ => {
                            if let Some(d) = inst.def() {
                                guarded[d.0 as usize] = false;
                            }
                        }
                    }
                }
            };

            let entry = vec![false; f.n_regs];
            let ins = solve(
                &cfg,
                entry,
                |a, b| intersect(a, b),
                |g, bi| apply(g, bi, f, None),
            );
            for (b, mut guarded) in ins {
                let bi = b.index();
                let mut elided = Vec::new();
                apply(&mut guarded, bi, f, Some(&mut elided));
                if !elided.is_empty() {
                    stats.bump("guards_elided", elided.len() as u64);
                    let mut idx = 0;
                    f.blocks[bi].insts.retain(|_| {
                        let keep = !elided.contains(&idx);
                        idx += 1;
                        keep
                    });
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards::InjectGuards;
    use interweave_ir::verify::assert_valid;
    use interweave_ir::{CmpOp, FunctionBuilder};

    fn guards_in(m: &Module) -> usize {
        m.funcs
            .iter()
            .map(|f| f.count_insts(|i| matches!(i, Inst::Intr(_, Intrinsic::CaratGuard, _))))
            .sum()
    }

    #[test]
    fn second_guard_on_same_register_elided() {
        // load p; load p+8 — both guard `p`; the second is redundant.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let _a = fb.load(p, 0);
        let _b = fb.load(p, 8);
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        assert_eq!(guards_in(&m), 2);
        let stats = ElideGuards.run(&mut m);
        assert_valid(&m);
        assert_eq!(stats.get("guards_elided"), 1);
        assert_eq!(guards_in(&m), 1);
    }

    #[test]
    fn write_guard_covers_subsequent_read() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let k = fb.const_i(3);
        fb.store(p, 0, k); // the store's guard
        let _v = fb.load(p, 0); // read covered by it
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        ElideGuards.run(&mut m);
        assert_eq!(guards_in(&m), 1);
    }

    #[test]
    fn any_guard_covers_later_loads_and_stores() {
        // One guard of a single-def register covers every later access
        // through it, whether the guarded access loads or stores.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let v = fb.load(p, 0); // the one guard that stays
        fb.store(p, 8, v); // a store after a load's guard
        let _w = fb.load(p, 8); // a load after both
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        let stats = ElideGuards.run(&mut m);
        assert_valid(&m);
        assert_eq!(stats.get("guards_elided"), 2);
        assert_eq!(guards_in(&m), 1);
    }

    #[test]
    fn redefinition_kills_the_guarantee() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let q = fb.alloc(sz);
        let cur = fb.mov(p);
        let _a = fb.load(cur, 0);
        fb.mov_to(cur, q); // redefinition
        let _b = fb.load(cur, 0); // must be re-guarded
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        let stats = ElideGuards.run(&mut m);
        assert_eq!(stats.get("guards_elided"), 0);
        assert_eq!(guards_in(&m), 2);
    }

    #[test]
    fn free_invalidates_guards() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let q = fb.alloc(sz);
        let _a = fb.load(p, 0);
        fb.free(q); // any free clears the guarantee (conservative)
        let _b = fb.load(p, 0);
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        let stats = ElideGuards.run(&mut m);
        assert_eq!(stats.get("guards_elided"), 0);
    }

    #[test]
    fn joins_intersect_across_diamond() {
        // Guard only on one arm → join must NOT treat p as guarded.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        let c = fb.param(0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let zero = fb.const_i(0);
        let cond = fb.cmp(CmpOp::Gt, c, zero);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(cond, t, e);
        fb.switch_to(t);
        let _a = fb.load(p, 0); // guarded here only
        fb.br(j);
        fb.switch_to(e);
        fb.br(j);
        fb.switch_to(j);
        let _b = fb.load(p, 0); // must keep its guard
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        let stats = ElideGuards.run(&mut m);
        assert_eq!(stats.get("guards_elided"), 0);
        assert_eq!(guards_in(&m), 2);
    }

    #[test]
    fn guard_survives_across_loop_iterations_when_invariant() {
        // Guard before the loop (both arms of the backedge carry it) —
        // the in-loop guard of the same single-def register elides.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        let n = fb.param(0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let _warm = fb.load(p, 0); // guard established in entry
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
        let _v = fb.load(p, 0); // elidable: p guarded on all paths
        let one = fb.const_i(1);
        fb.bin_to(i, interweave_ir::BinOp::Add, i, one);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        let stats = ElideGuards.run(&mut m);
        assert_valid(&m);
        assert_eq!(stats.get("guards_elided"), 1);
        assert_eq!(guards_in(&m), 1);
    }
}
