//! Structural IR validation.
//!
//! Every interweaving pass in the workspace is followed by `verify` in its
//! tests: a transformation that produces malformed IR must fail loudly, not
//! miscompute an overhead number.

use crate::inst::{Inst, Term};
use crate::module::Module;
use crate::types::FuncId;

/// A structural error found in a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VerifyError {
    /// Function where the error occurred.
    pub func: String,
    /// Description of the problem.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.func, self.msg)
    }
}

/// Verify a whole module; returns all errors found.
pub(crate) fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        let err = |msg: String| VerifyError {
            func: f.name.clone(),
            msg,
        };
        if f.blocks.is_empty() {
            errs.push(err("function has no blocks".into()));
            continue;
        }
        if f.n_params > f.n_regs {
            errs.push(err(format!(
                "n_params {} exceeds n_regs {}",
                f.n_params, f.n_regs
            )));
        }
        let nb = f.blocks.len() as u32;
        let nr = f.n_regs as u32;
        for (bi, b) in f.blocks.iter().enumerate() {
            let mut uses = Vec::new();
            for inst in &b.insts {
                if let Some(d) = inst.def() {
                    if d.0 >= nr {
                        errs.push(err(format!("bb{bi}: def of out-of-range {d}")));
                    }
                }
                uses.clear();
                inst.uses(&mut uses);
                for u in &uses {
                    if u.0 >= nr {
                        errs.push(err(format!("bb{bi}: use of out-of-range {u}")));
                    }
                }
                if let Inst::Call(_, g, _) = inst {
                    if g.index() >= m.funcs.len() {
                        errs.push(err(format!("bb{bi}: call to unknown {g}")));
                    }
                }
            }
            match &b.term {
                None => errs.push(err(format!("bb{bi}: missing terminator"))),
                Some(t) => {
                    for s in t.succs() {
                        if s.0 >= nb {
                            errs.push(err(format!("bb{bi}: branch to unknown {s}")));
                        }
                    }
                    if let Term::CondBr(c, _, _) = t {
                        if c.0 >= nr {
                            errs.push(err(format!("bb{bi}: branch on out-of-range {c}")));
                        }
                    }
                    if let Term::Ret(Some(v)) = t {
                        if v.0 >= nr {
                            errs.push(err(format!("bb{bi}: return of out-of-range {v}")));
                        }
                    }
                }
            }
        }
        // fi is only used to make the unused-variable lint happy about the
        // enumerate; function identity is reported by name.
        let _ = FuncId(fi as u32);
    }
    errs
}

/// Panic with a readable report if the module is malformed. Pass tests call
/// this after every transformation.
pub fn assert_valid(m: &Module) {
    let errs = verify_module(m);
    assert!(
        errs.is_empty(),
        "IR verification failed:\n{}",
        errs.iter()
            .map(|e| format!("  {e}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Block, Function, FunctionBuilder};
    use crate::inst::{BinOp, Inst, Term};
    use crate::types::{BlockId, Reg};

    #[test]
    fn valid_function_passes() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("ok", 1);
        let p = fb.param(0);
        let c = fb.const_i(1);
        let s = fb.bin(BinOp::Add, p, c);
        fb.ret(Some(s));
        m.add(fb.finish());
        assert!(verify_module(&m).is_empty());
    }

    #[test]
    fn detects_out_of_range_register() {
        let mut m = Module::new();
        m.add(Function {
            name: "bad".into(),
            n_params: 0,
            n_regs: 1,
            blocks: vec![Block {
                insts: vec![Inst::Mov(Reg(0), Reg(99))],
                term: Some(Term::Ret(None)),
            }],
        });
        let errs = verify_module(&m);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].msg.contains("out-of-range"));
    }

    #[test]
    fn detects_bad_branch_target() {
        let mut m = Module::new();
        m.add(Function {
            name: "bad".into(),
            n_params: 0,
            n_regs: 0,
            blocks: vec![Block {
                insts: vec![],
                term: Some(Term::Br(BlockId(5))),
            }],
        });
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("unknown bb5")));
    }

    #[test]
    fn detects_missing_terminator() {
        let mut m = Module::new();
        m.add(Function {
            name: "bad".into(),
            n_params: 0,
            n_regs: 0,
            blocks: vec![Block {
                insts: vec![],
                term: None,
            }],
        });
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("missing terminator")));
    }

    #[test]
    fn detects_unknown_callee() {
        let mut m = Module::new();
        m.add(Function {
            name: "bad".into(),
            n_params: 0,
            n_regs: 0,
            blocks: vec![Block {
                insts: vec![Inst::Call(None, crate::types::FuncId(9), vec![])],
                term: Some(Term::Ret(None)),
            }],
        });
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("unknown @f9")));
    }
}
