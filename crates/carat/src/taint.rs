//! Static pointer-likeness analysis.
//!
//! CARAT must know which stored values are pointers so it can track
//! *escapes* (pointer values written to memory) — the information
//! defragmentation needs to patch every reference to a moved allocation.
//! In LLVM this comes from types; our IR erases types, so this analysis
//! recovers pointer-likeness by dataflow from allocation sites:
//!
//! - `alloc` and `gep` results are pointers;
//! - `mov`/`select` propagate;
//! - `add`/`sub` with exactly-one pointer operand produce a pointer;
//! - everything else (including loads) is optimistically non-pointer. The
//!   optimism is safe for the workloads in this repository — none stores a
//!   *reloaded* pointer — and mirrors what a typed front end would know
//!   exactly. See `DESIGN.md` for the substitution note.

use interweave_ir::inst::{BinOp, Inst};
use interweave_ir::types::Reg;
use interweave_ir::Function;

/// Per-register pointer-likeness for one function (union over all defs).
#[derive(Debug, Clone)]
pub(crate) struct PointerLikeness {
    ptr: Vec<bool>,
}

impl PointerLikeness {
    /// Analyse `f` to a fixpoint.
    pub(crate) fn compute(f: &Function) -> PointerLikeness {
        let mut ptr = vec![false; f.n_regs];
        let mut changed = true;
        while changed {
            changed = false;
            for b in &f.blocks {
                for inst in &b.insts {
                    let new = match inst {
                        Inst::Alloc(d, _) | Inst::Gep(d, _, _, _, _) => Some((*d, true)),
                        Inst::Mov(d, s) => Some((*d, ptr[s.0 as usize])),
                        Inst::Select(d, _, a, b) => {
                            Some((*d, ptr[a.0 as usize] || ptr[b.0 as usize]))
                        }
                        Inst::Bin(d, BinOp::Add | BinOp::Sub, a, b) => {
                            Some((*d, ptr[a.0 as usize] ^ ptr[b.0 as usize]))
                        }
                        _ => None,
                    };
                    if let Some((d, v)) = new {
                        // Union over definitions: once a pointer, always
                        // treated as one.
                        if v && !ptr[d.0 as usize] {
                            ptr[d.0 as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        PointerLikeness { ptr }
    }

    /// True when `r` may hold a pointer.
    pub(crate) fn is_pointer(&self, r: Reg) -> bool {
        self.ptr[r.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_ir::inst::BinOp;
    use interweave_ir::FunctionBuilder;

    #[test]
    fn alloc_and_gep_are_pointers() {
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let one = fb.const_i(1);
        let q = fb.gep(p, one, 8, 0);
        fb.ret(None);
        let f = fb.finish();
        let t = PointerLikeness::compute(&f);
        assert!(!t.is_pointer(sz));
        assert!(t.is_pointer(p));
        assert!(t.is_pointer(q));
    }

    #[test]
    fn arithmetic_propagates_one_sided() {
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let k = fb.const_i(8);
        let q = fb.bin(BinOp::Add, p, k); // ptr + int = ptr
        let d = fb.bin(BinOp::Sub, q, p); // ptr - ptr = int
        let n = fb.bin(BinOp::Add, k, k); // int + int = int
        fb.ret(None);
        let f = fb.finish();
        let t = PointerLikeness::compute(&f);
        assert!(t.is_pointer(q));
        assert!(!t.is_pointer(d));
        assert!(!t.is_pointer(n));
    }

    #[test]
    fn mov_and_select_propagate() {
        let mut fb = FunctionBuilder::new("f", 1);
        let c = fb.param(0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let m = fb.mov(p);
        let s = fb.select(c, m, sz); // may be pointer
        fb.ret(None);
        let f = fb.finish();
        let t = PointerLikeness::compute(&f);
        assert!(t.is_pointer(m));
        assert!(t.is_pointer(s));
    }

    #[test]
    fn loop_carried_pointer_reaches_fixpoint() {
        // cur starts as gep, then mov'd from a load each iteration. The
        // load result is optimistically non-pointer, but the initial gep
        // definition makes `cur` a pointer by union.
        let mut fb = FunctionBuilder::new("f", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let zero = fb.const_i(0);
        let cur = fb.gep(p, zero, 8, 0);
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        fb.cond_br(zero, body, exit);
        fb.switch_to(body);
        let nxt = fb.load(cur, 0);
        fb.mov_to(cur, nxt);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(None);
        let f = fb.finish();
        let t = PointerLikeness::compute(&f);
        assert!(t.is_pointer(cur));
        assert!(!t.is_pointer(nxt));
    }
}
