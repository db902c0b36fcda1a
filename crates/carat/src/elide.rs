//! Guard elision: remove guards made redundant by an earlier guard.
//!
//! §IV-A: "modern code analysis techniques can provide the information
//! necessary to aggregate and hoist protection and tracking code, thus
//! taking it out of the critical path in most instances."
//!
//! A guard of register `r` is redundant when, on *every* path reaching it,
//! an equivalent guard of `r` has executed with no intervening redefinition
//! of `r`, no free, and no call (frees/calls may invalidate any guarantee).
//! This is a forward must-dataflow: the per-block state is the pair of
//! register sets (guarded-for-read, guarded-for-write); joins intersect.
//! A write guard implies readability (tracked allocations are readable
//! unless protected read-only — and protection changes are modelled as
//! calls).

use crate::guards::flag_value;
use interweave_ir::analysis::{Cfg, DefInfo};
use interweave_ir::inst::{Inst, Intrinsic};
use interweave_ir::passes::{Pass, PassStats};
use interweave_ir::Module;

/// The elision pass. Run after injection (and hoisting, if enabled).
#[derive(Debug, Default, Clone)]
pub(crate) struct ElideGuards;

#[derive(Clone, PartialEq)]
struct GuardSet {
    read: Vec<bool>,
    write: Vec<bool>,
}

impl GuardSet {
    fn empty(n: usize) -> GuardSet {
        GuardSet {
            read: vec![false; n],
            write: vec![false; n],
        }
    }

    fn intersect(&mut self, other: &GuardSet) {
        for (a, b) in self.read.iter_mut().zip(&other.read) {
            *a &= b;
        }
        for (a, b) in self.write.iter_mut().zip(&other.write) {
            *a &= b;
        }
    }

    fn clear(&mut self) {
        self.read.iter_mut().for_each(|b| *b = false);
        self.write.iter_mut().for_each(|b| *b = false);
    }

    fn kill(&mut self, r: u32) {
        self.read[r as usize] = false;
        self.write[r as usize] = false;
    }
}

impl Pass for ElideGuards {
    fn name(&self) -> &'static str {
        "carat-elide"
    }

    fn run(&mut self, m: &mut Module) -> PassStats {
        let mut stats = PassStats::default();
        for f in &mut m.funcs {
            let n = f.n_regs;
            if n == 0 || f.blocks.is_empty() {
                continue;
            }
            let cfg = Cfg::build(f);
            let defs = DefInfo::compute(f);

            // Transfer function over one block from a given entry state.
            // When `elide` is set, redundant guards are recorded in `kill`.
            let apply = |state: &mut GuardSet,
                         bi: usize,
                         f: &interweave_ir::Function,
                         mut on_elide: Option<&mut Vec<usize>>| {
                for (ii, inst) in f.blocks[bi].insts.iter().enumerate() {
                    match inst {
                        Inst::Intr(_, Intrinsic::CaratGuard, args)
                        | Inst::Intr(_, Intrinsic::CaratGuardRange, args) => {
                            let a = args[0];
                            // A guard only provides a *lasting* guarantee if
                            // its register has a single static definition;
                            // otherwise another def may change the value on
                            // some path this analysis folded together.
                            let single = defs.is_single_def(a);
                            let is_write = flag_value(f, &defs, args[1]) == Some(1);
                            let covered = if is_write {
                                state.write[a.0 as usize]
                            } else {
                                state.read[a.0 as usize]
                            };
                            if covered {
                                if let Some(kill) = on_elide.as_deref_mut() {
                                    kill.push(ii);
                                }
                            } else if single {
                                state.read[a.0 as usize] = true;
                                if is_write {
                                    state.write[a.0 as usize] = true;
                                }
                            }
                        }
                        Inst::Intr(_, Intrinsic::CaratTrackFree, _) | Inst::Free(_) => {
                            state.clear();
                        }
                        Inst::Call(d, _, _) => {
                            state.clear();
                            if let Some(d) = d {
                                state.kill(d.0);
                            }
                        }
                        _ => {
                            if let Some(d) = inst.def() {
                                state.kill(d.0);
                            }
                        }
                    }
                }
            };

            // Fixpoint over reachable blocks in RPO. `outs[b] = None` means
            // "not yet computed" (⊤ for the must-intersection).
            let mut outs: Vec<Option<GuardSet>> = vec![None; f.blocks.len()];
            let mut changed = true;
            while changed {
                changed = false;
                for &b in &cfg.rpo {
                    let bi = b.index();
                    let mut state = if bi == 0 {
                        GuardSet::empty(n)
                    } else {
                        // Intersect over computed predecessors; if none are
                        // computed yet, skip (state unknown).
                        let mut acc: Option<GuardSet> = None;
                        for &p in &cfg.preds[bi] {
                            if let Some(o) = &outs[p.index()] {
                                match &mut acc {
                                    None => acc = Some(o.clone()),
                                    Some(a) => a.intersect(o),
                                }
                            }
                        }
                        match acc {
                            Some(a) => a,
                            None => continue,
                        }
                    };
                    apply(&mut state, bi, f, None);
                    if outs[bi].as_ref() != Some(&state) {
                        outs[bi] = Some(state);
                        changed = true;
                    }
                }
            }

            // Rewrite: recompute each block's entry state from final outs
            // and drop redundant guards.
            for &b in &cfg.rpo {
                let bi = b.index();
                let mut state = if bi == 0 {
                    GuardSet::empty(n)
                } else {
                    let mut acc: Option<GuardSet> = None;
                    for &p in &cfg.preds[bi] {
                        if let Some(o) = &outs[p.index()] {
                            match &mut acc {
                                None => acc = Some(o.clone()),
                                Some(a) => a.intersect(o),
                            }
                        }
                    }
                    match acc {
                        Some(a) => a,
                        None => continue,
                    }
                };
                let mut kills = Vec::new();
                apply(&mut state, bi, f, Some(&mut kills));
                if !kills.is_empty() {
                    stats.bump("guards_elided", kills.len() as u64);
                    let kill_set: std::collections::HashSet<usize> = kills.into_iter().collect();
                    let mut idx = 0;
                    f.blocks[bi].insts.retain(|_| {
                        let keep = !kill_set.contains(&idx);
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
        fb.store(p, 0, k); // write guard
        let _v = fb.load(p, 0); // read covered by write guard
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        ElideGuards.run(&mut m);
        assert_eq!(guards_in(&m), 1);
    }

    #[test]
    fn read_guard_does_not_cover_write() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let v = fb.load(p, 0); // read guard
        fb.store(p, 8, v); // write guard must survive
        fb.ret(None);
        m.add(fb.finish());
        InjectGuards.run(&mut m);
        ElideGuards.run(&mut m);
        assert_eq!(guards_in(&m), 2);
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
