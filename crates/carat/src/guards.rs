//! Guard and tracking injection.
//!
//! "Conceptually, protection check code is introduced at each read or write,
//! and data movements operate similarly to a garbage collector" (§IV-A).
//! This pass inserts:
//!
//! - an object guard `carat_guard(addr)` before every load/store — guards
//!   are *object-granularity*: the runtime checks the allocation containing
//!   `addr` (offsets within an object are covered, matching CARAT's
//!   allocation-level tracking). Loads and stores get the same guard: every
//!   tracked allocation is readable and writable, so the guard carries one
//!   fact, "`addr` lies in a live allocation";
//! - `carat_track_alloc(ptr, size)` after every allocation and
//!   `carat_track_free(ptr)` before every free;
//! - `carat_track_escape(value, holder)` after every store whose stored
//!   value is pointer-like (per [`crate::taint`]), so the runtime learns
//!   every memory location that holds a pointer.

use crate::taint::PointerLikeness;
use interweave_ir::inst::{Inst, Intrinsic};
use interweave_ir::passes::{Pass, PassStats};
use interweave_ir::Module;

/// The injection pass.
#[derive(Debug, Default, Clone)]
pub(crate) struct InjectGuards;

impl Pass for InjectGuards {
    fn name(&self) -> &'static str {
        "carat-inject"
    }

    fn run(&mut self, m: &mut Module) -> PassStats {
        let mut stats = PassStats::default();
        for f in &mut m.funcs {
            let has_mem = f.blocks.iter().any(|b| {
                b.insts
                    .iter()
                    .any(|i| i.is_mem_access() || matches!(i, Inst::Alloc(_, _) | Inst::Free(_)))
            });
            if !has_mem {
                continue;
            }
            let taint = PointerLikeness::compute(f);

            for b in &mut f.blocks {
                let mut out = Vec::with_capacity(b.insts.len() * 2);
                for inst in b.insts.drain(..) {
                    match &inst {
                        Inst::Load(_, a, _) => {
                            out.push(Inst::Intr(None, Intrinsic::CaratGuard, vec![*a]));
                            stats.bump("guards_inserted", 1);
                            out.push(inst);
                        }
                        Inst::Store(a, _, v) => {
                            out.push(Inst::Intr(None, Intrinsic::CaratGuard, vec![*a]));
                            stats.bump("guards_inserted", 1);
                            let escape = taint.is_pointer(*v);
                            let (vv, aa) = (*v, *a);
                            out.push(inst);
                            if escape {
                                out.push(Inst::Intr(
                                    None,
                                    Intrinsic::CaratTrackEscape,
                                    vec![vv, aa],
                                ));
                                stats.bump("escapes_tracked", 1);
                            }
                        }
                        Inst::Alloc(d, s) => {
                            let (dd, ss) = (*d, *s);
                            out.push(inst);
                            out.push(Inst::Intr(None, Intrinsic::CaratTrackAlloc, vec![dd, ss]));
                            stats.bump("allocs_tracked", 1);
                        }
                        Inst::Free(p) => {
                            out.push(Inst::Intr(None, Intrinsic::CaratTrackFree, vec![*p]));
                            stats.bump("frees_tracked", 1);
                            out.push(inst);
                        }
                        _ => out.push(inst),
                    }
                }
                b.insts = out;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_ir::verify::assert_valid;
    use interweave_ir::FunctionBuilder;

    fn count(m: &Module, which: Intrinsic) -> usize {
        m.funcs
            .iter()
            .map(|f| f.count_insts(|i| matches!(i, Inst::Intr(_, w, _) if *w == which)))
            .sum()
    }

    #[test]
    fn injects_guard_per_access_and_tracking_per_alloc() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let v = fb.load(p, 0);
        fb.store(p, 8, v);
        fb.free(p);
        fb.ret(None);
        m.add(fb.finish());

        let mut pass = InjectGuards;
        let stats = pass.run(&mut m);
        assert_valid(&m);
        assert_eq!(stats.get("guards_inserted"), 2);
        assert_eq!(stats.get("allocs_tracked"), 1);
        assert_eq!(stats.get("frees_tracked"), 1);
        assert_eq!(count(&m, Intrinsic::CaratGuard), 2);
        assert_eq!(count(&m, Intrinsic::CaratTrackAlloc), 1);
        assert_eq!(count(&m, Intrinsic::CaratTrackFree), 1);
    }

    #[test]
    fn pointer_stores_get_escape_tracking() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let q = fb.alloc(sz);
        fb.store(p, 0, q); // stores a pointer → escape
        let k = fb.const_i(7);
        fb.store(p, 8, k); // stores an integer → no escape
        fb.ret(None);
        m.add(fb.finish());

        let stats = InjectGuards.run(&mut m);
        assert_valid(&m);
        assert_eq!(stats.get("escapes_tracked"), 1);
        assert_eq!(count(&m, Intrinsic::CaratTrackEscape), 1);
    }

    #[test]
    fn memory_free_functions_left_untouched() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("pure", 1);
        let x = fb.param(0);
        let one = fb.const_i(1);
        let r = fb.bin(interweave_ir::BinOp::Add, x, one);
        fb.ret(Some(r));
        m.add(fb.finish());
        let before = m.inst_count();
        InjectGuards.run(&mut m);
        assert_eq!(m.inst_count(), before);
    }
}
