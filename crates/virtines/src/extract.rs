//! Virtine extraction: outline an entry function into a self-contained
//! module.
//!
//! Fig. 5's `virtine int fib(int n)` compiles to (a) a host-side stub that
//! asks the hypervisor to launch the function and (b) a standalone image
//! containing the function and everything it transitively calls. This pass
//! produces (b): a fresh [`Module`] whose function ids are remapped so the
//! virtine entry is function 0. Host and virtine share *nothing* — the
//! isolation argument is structural.

use interweave_ir::inst::Inst;
use interweave_ir::types::FuncId;
use interweave_ir::Module;
use std::collections::BTreeMap;

/// One extracted virtine image.
#[derive(Debug, Clone)]
pub struct VirtineImage {
    /// The entry function's name.
    pub name: String,
    /// The self-contained module; entry is `FuncId(0)`.
    pub module: Module,
}

/// Extract a single function (plus transitive callees) as an image.
pub fn extract_one(m: &Module, entry: FuncId) -> VirtineImage {
    // Transitive closure of callees, deterministic order (BFS).
    let mut order: Vec<FuncId> = vec![entry];
    let mut seen: BTreeMap<FuncId, FuncId> = BTreeMap::new();
    seen.insert(entry, FuncId(0));
    let mut at = 0;
    while at < order.len() {
        let f = order[at];
        at += 1;
        for b in &m.func(f).blocks {
            for i in &b.insts {
                if let Inst::Call(_, g, _) = i {
                    if !seen.contains_key(g) {
                        seen.insert(*g, FuncId(order.len() as u32));
                        order.push(*g);
                    }
                }
            }
        }
    }

    // Copy functions with remapped call targets.
    let mut out = Module::new();
    for &f in &order {
        let mut func = m.func(f).clone();
        for b in &mut func.blocks {
            for i in &mut b.insts {
                if let Inst::Call(_, g, _) = i {
                    *g = seen[g];
                }
            }
        }
        out.add(func);
    }
    VirtineImage {
        name: m.func(entry).name.clone(),
        module: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_ir::interp::{Interp, InterpConfig, NullHooks};
    use interweave_ir::types::Val;
    use interweave_ir::verify::assert_valid;
    use interweave_ir::{BinOp, CmpOp, FunctionBuilder};

    /// Host module: main calls helper; fib is the virtine entry and calls
    /// helper too.
    fn host_module() -> Module {
        let mut m = Module::new();
        // f0: helper(x) = x + 1
        let mut fb = FunctionBuilder::new("helper", 1);
        let x = fb.param(0);
        let one = fb.const_i(1);
        let r = fb.bin(BinOp::Add, x, one);
        fb.ret(Some(r));
        let helper = m.add(fb.finish());

        // f1: virtine fib(n) = n<2 ? helper(n)-1 : fib(n-1)+fib(n-2)
        let mut fb = FunctionBuilder::new("fib", 1);
        let n = fb.param(0);
        let two = fb.const_i(2);
        let c = fb.cmp(CmpOp::Lt, n, two);
        let base = fb.new_block();
        let rec = fb.new_block();
        fb.cond_br(c, base, rec);
        fb.switch_to(base);
        let h = fb.call(helper, &[n]);
        let one = fb.const_i(1);
        let r = fb.bin(BinOp::Sub, h, one);
        fb.ret(Some(r));
        fb.switch_to(rec);
        let one2 = fb.const_i(1);
        let n1 = fb.bin(BinOp::Sub, n, one2);
        let n2 = fb.bin(BinOp::Sub, n, two);
        let fib = FuncId(1); // self
        let a = fb.call(fib, &[n1]);
        let b = fb.call(fib, &[n2]);
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        m.add(fb.finish());

        // f2: main — not part of any virtine image.
        let mut fb = FunctionBuilder::new("main", 0);
        let z = fb.const_i(0);
        fb.ret(Some(z));
        m.add(fb.finish());
        m
    }

    #[test]
    fn extracts_entry_and_transitive_callees_only() {
        let m = host_module();
        let img = extract_one(&m, FuncId(1));
        assert_eq!(img.name, "fib");
        // fib + helper, but not main.
        assert_eq!(img.module.funcs.len(), 2);
        assert!(img.module.by_name("main").is_none());
        assert_valid(&img.module);
    }

    #[test]
    fn extracted_image_runs_standalone_with_correct_semantics() {
        let m = host_module();
        let img = &extract_one(&m, FuncId(1));
        let mut it = Interp::new(InterpConfig::default());
        it.start(&img.module, FuncId(0), &[Val::I(10)]);
        let v = it.run_to_completion(&img.module, &mut NullHooks);
        // fib(n) with base case helper(n)-1 = n: ordinary fib. fib(10)=55.
        assert_eq!(v, Some(Val::I(55)));
    }

    #[test]
    fn recursion_remaps_to_image_local_ids() {
        let m = host_module();
        let img = &extract_one(&m, FuncId(1));
        // Entry must be id 0 and self-calls must target 0.
        let entry = img.module.func(FuncId(0));
        assert_eq!(entry.name, "fib");
        let mut self_calls = 0;
        for b in &entry.blocks {
            for i in &b.insts {
                if let Inst::Call(_, g, _) = i {
                    if img.module.func(*g).name == "fib" {
                        assert_eq!(*g, FuncId(0));
                        self_calls += 1;
                    }
                }
            }
        }
        assert_eq!(self_calls, 2);
    }
}
