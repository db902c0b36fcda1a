//! Static guard-coverage verification.
//!
//! PIK admission (§IV-A) rests on the claim that a transformed module
//! cannot perform an unchecked access. The attestation hash proves the
//! module wasn't modified; this verifier proves the stronger property
//! *directly*: on every path to every load/store, the accessed register is
//! covered — by an earlier guard of the same register with no redefinition
//! in between, or by a range guard of the single-definition base it was
//! derived through a `gep`. A guard carries one fact (its register points
//! into a live allocation), so a load's guard covers a later store and vice
//! versa. Guard elision runs on the same must-dataflow solver (the crate's
//! `dataflow::solve`), as a rewriter instead of a checker: elision removes
//! guards the analysis proves redundant, coverage rejects accesses the
//! analysis cannot prove guarded.

use crate::dataflow::{gep_base, intersect, solve};
use interweave_ir::analysis::{Cfg, DefInfo};
use interweave_ir::inst::{Inst, Intrinsic};
use interweave_ir::types::Reg;
use interweave_ir::Module;

/// One uncovered access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageError {
    /// Function name.
    pub func: String,
    /// Block index.
    pub block: usize,
    /// Instruction index within the block.
    pub inst: usize,
    /// Whether the access was a write.
    pub write: bool,
}

impl std::fmt::Display for CoverageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: bb{} inst {} performs an unguarded {}",
            self.func,
            self.block,
            self.inst,
            if self.write { "write" } else { "read" }
        )
    }
}

#[derive(Clone, PartialEq)]
struct CovState {
    /// Registers proven guarded.
    reg: Vec<bool>,
    /// Objects (base registers) proven range-guarded.
    obj: Vec<bool>,
}

impl CovState {
    fn clear(&mut self) {
        self.reg.fill(false);
        self.obj.fill(false);
    }
}

/// Verify every access in every function is guard-covered. Returns all
/// violations (empty = fully covered).
pub fn verify_coverage(m: &Module) -> Vec<CoverageError> {
    let mut errors = Vec::new();
    for f in &m.funcs {
        if f.blocks.is_empty() {
            continue;
        }
        let cfg = Cfg::build(f);
        let defs = DefInfo::compute(f);

        let covered = |st: &CovState, addr: Reg| -> bool {
            st.reg[addr.0 as usize]
                || gep_base(f, &defs, addr)
                    .is_some_and(|b| defs.is_single_def(b) && st.obj[b.0 as usize])
        };

        let apply = |st: &mut CovState, bi: usize, mut report: Option<&mut Vec<CoverageError>>| {
            for (ii, inst) in f.blocks[bi].insts.iter().enumerate() {
                let access = match inst {
                    Inst::Load(_, a, _) => Some((*a, false)),
                    Inst::Store(a, _, _) => Some((*a, true)),
                    _ => None,
                };
                if let (Some((addr, write)), Some(out)) = (access, report.as_deref_mut()) {
                    if !covered(st, addr) {
                        out.push(CoverageError {
                            func: f.name.clone(),
                            block: bi,
                            inst: ii,
                            write,
                        });
                    }
                }
                match inst {
                    Inst::Intr(_, Intrinsic::CaratGuard, args) => {
                        // Sound even for multi-definition registers: the
                        // kill-on-def rule removes the fact the moment the
                        // register could hold a different value.
                        st.reg[args[0].0 as usize] = true;
                    }
                    Inst::Intr(_, Intrinsic::CaratGuardRange, args) => {
                        let a = args[0];
                        // Object coverage through gep bases demands a
                        // single-definition base (otherwise a gep-derived
                        // address may refer to an older base value).
                        if defs.is_single_def(a) {
                            st.obj[a.0 as usize] = true;
                        }
                        // A range guard also covers direct accesses through
                        // the base register itself.
                        st.reg[a.0 as usize] = true;
                    }
                    Inst::Intr(_, Intrinsic::CaratTrackFree, _)
                    | Inst::Free(_)
                    | Inst::Call(..) => st.clear(),
                    _ => {
                        if let Some(d) = inst.def() {
                            st.reg[d.0 as usize] = false;
                            st.obj[d.0 as usize] = false;
                        }
                    }
                }
            }
        };

        let entry = CovState {
            reg: vec![false; f.n_regs],
            obj: vec![false; f.n_regs],
        };
        let meet = |a: &mut CovState, b: &CovState| {
            intersect(&mut a.reg, &b.reg);
            intersect(&mut a.obj, &b.obj);
        };
        for (b, mut st) in solve(&cfg, entry, meet, |st, bi| apply(st, bi, None)) {
            apply(&mut st, b.index(), Some(&mut errors));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument;
    use interweave_ir::programs;

    #[test]
    fn uninstrumented_programs_fail_coverage() {
        for p in programs::suite(1) {
            let has_mem = p.module.funcs.iter().any(|f| {
                f.blocks
                    .iter()
                    .any(|b| b.insts.iter().any(|i| i.is_mem_access()))
            });
            let errs = verify_coverage(&p.module);
            assert_eq!(errs.is_empty(), !has_mem, "{}", p.name);
        }
    }

    #[test]
    fn naive_instrumentation_is_fully_covered() {
        for p in programs::suite(1) {
            let mut m = p.module.clone();
            instrument(&mut m, false);
            let errs = verify_coverage(&m);
            assert!(errs.is_empty(), "{}: {errs:?}", p.name);
        }
    }

    #[test]
    fn optimized_instrumentation_is_still_fully_covered() {
        // The load-bearing theorem: hoisting + elision never lose coverage.
        for p in programs::suite(2) {
            let mut m = p.module.clone();
            instrument(&mut m, true);
            let errs = verify_coverage(&m);
            assert!(errs.is_empty(), "{}: {errs:?}", p.name);
        }
    }

    #[test]
    fn stripping_one_guard_is_detected() {
        let p = programs::stream_triad(16);
        let mut m = p.module.clone();
        instrument(&mut m, true);
        // Remove the first range guard.
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
        let errs = verify_coverage(&m);
        assert!(!errs.is_empty(), "stripped guard must be caught");
    }

    #[test]
    fn joins_demand_a_guard_on_every_arm() {
        use interweave_ir::{CmpOp, FunctionBuilder};
        // An access after a diamond is covered only if both arms guarded
        // its register.
        let diamond = |guard_else: bool| {
            let mut fb = FunctionBuilder::new("f", 1);
            let c = fb.param(0);
            let sz = fb.const_i(64);
            let p = fb.alloc(sz);
            let zero = fb.const_i(0);
            let cond = fb.cmp(CmpOp::Gt, c, zero);
            let (t, e, j) = (fb.new_block(), fb.new_block(), fb.new_block());
            fb.cond_br(cond, t, e);
            fb.switch_to(t);
            fb.intr_void(Intrinsic::CaratGuard, &[p]);
            fb.br(j);
            fb.switch_to(e);
            if guard_else {
                fb.intr_void(Intrinsic::CaratGuard, &[p]);
            }
            fb.br(j);
            fb.switch_to(j);
            let _v = fb.load(p, 0);
            fb.ret(None);
            let mut m = Module::new();
            m.add(fb.finish());
            verify_coverage(&m)
        };
        let errs = diamond(false);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!((errs[0].block, errs[0].write), (3, false));
        assert_eq!(diamond(true), vec![]);
    }

    #[test]
    fn errors_carry_usable_locations() {
        let p = programs::dot(8);
        let errs = verify_coverage(&p.module);
        assert!(!errs.is_empty());
        let e = &errs[0];
        assert_eq!(e.func, "dot");
        let rendered = e.to_string();
        assert!(rendered.contains("unguarded"));
    }
}
