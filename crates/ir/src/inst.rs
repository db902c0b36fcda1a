//! Instructions, terminators, and interweaving intrinsics.

use crate::types::{BlockId, FuncId, Reg};
use std::fmt;

/// Integer/float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide (trap on zero).
    Div,
    /// Integer remainder (trap on zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
}

impl BinOp {
    /// True for the floating-point operators — used by the fiber study
    /// (Fig. 4) to decide whether a function touches FP state.
    pub(crate) fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }
}

/// Comparison operators (integer compare; result is 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

/// Interweaving intrinsics: the points where compiler-transformed code calls
/// into a runtime/kernel layer. Each corresponds to one of the paper's
/// examples; their behaviour is supplied by the executing environment via
/// [`crate::interp::RuntimeHooks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// CARAT (§IV-A): check that `args[0]` points into a live tracked
    /// allocation before a load or store through it. Inserted by the
    /// guard-injection pass; elided/hoisted by the optimization passes.
    CaratGuard,
    /// CARAT: the hoisted form — one check that the allocation containing
    /// `args[0]` (a loop-invariant object base) is live, covering every
    /// access a loop makes through that object.
    CaratGuardRange,
    /// CARAT: record a new allocation `(ptr=args[0], size=args[1])` in the
    /// tracking runtime.
    CaratTrackAlloc,
    /// CARAT: record a free of `args[0]`.
    CaratTrackFree,
    /// CARAT: record that a pointer value `args[0]` has been stored to
    /// memory location `args[1]` (an *escape*) so defragmentation can patch
    /// it when the allocation moves.
    CaratTrackEscape,
    /// Compiler-based timing (§IV-C): a time check that may yield to the
    /// timer framework. Injected so that it executes at a target cycle rate
    /// on every path.
    TimeCheck,
    /// Blending (§V-C): constant-time poll of blended device driver state.
    /// Injected by the same placement machinery as `TimeCheck`.
    PollDevices,
    /// Cooperative yield (baseline fibers without compiler timing).
    Yield,
    /// Heartbeat promotion hook (§IV-B): the runtime may promote latent
    /// parallelism at this point.
    Promote,
    /// Read the cycle counter (`rdtsc`-like) into the destination.
    ReadTimer,
    /// Emit `args[0]` to the trace buffer (testing/debugging).
    Trace,
}

impl Intrinsic {
    /// True for the intrinsics injected by interweaving passes (as opposed
    /// to ones a source program may contain organically).
    pub(crate) fn is_injected(self) -> bool {
        matches!(
            self,
            Intrinsic::CaratGuard
                | Intrinsic::CaratGuardRange
                | Intrinsic::CaratTrackAlloc
                | Intrinsic::CaratTrackFree
                | Intrinsic::CaratTrackEscape
                | Intrinsic::TimeCheck
                | Intrinsic::PollDevices
        )
    }
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = imm`
    ConstI(Reg, i64),
    /// `dst = imm` (float)
    ConstF(Reg, f64),
    /// `dst = src`
    Mov(Reg, Reg),
    /// `dst = op(a, b)`
    Bin(Reg, BinOp, Reg, Reg),
    /// `dst = cmp(a, b)` producing 0/1
    Cmp(Reg, CmpOp, Reg, Reg),
    /// `dst = cond ? a : b`
    Select(Reg, Reg, Reg, Reg),
    /// `dst = alloc(size_reg)` — heap allocation returning an address.
    Alloc(Reg, Reg),
    /// `free(ptr_reg)`
    Free(Reg),
    /// `dst = load(addr + offset)` — one 8-byte word.
    Load(Reg, Reg, i64),
    /// `store(addr + offset, val)` — one 8-byte word.
    Store(Reg, i64, Reg),
    /// `dst = base + index * scale + offset` — pointer arithmetic that the
    /// CARAT analyses recognize as derived from `base`.
    Gep(Reg, Reg, Reg, i64, i64),
    /// `dst? = call f(args...)`
    Call(Option<Reg>, FuncId, Vec<Reg>),
    /// `dst? = intrinsic(args...)`
    Intr(Option<Reg>, Intrinsic, Vec<Reg>),
}

impl Inst {
    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Inst::ConstI(d, _)
            | Inst::ConstF(d, _)
            | Inst::Mov(d, _)
            | Inst::Bin(d, _, _, _)
            | Inst::Cmp(d, _, _, _)
            | Inst::Select(d, _, _, _)
            | Inst::Alloc(d, _)
            | Inst::Load(d, _, _)
            | Inst::Gep(d, _, _, _, _) => Some(d),
            Inst::Call(d, _, _) | Inst::Intr(d, _, _) => d,
            Inst::Free(_) | Inst::Store(_, _, _) => None,
        }
    }

    /// Registers this instruction reads, appended to `out`.
    pub(crate) fn uses(&self, out: &mut Vec<Reg>) {
        match self {
            Inst::ConstI(_, _) | Inst::ConstF(_, _) => {}
            Inst::Mov(_, s) => out.push(*s),
            Inst::Bin(_, _, a, b) | Inst::Cmp(_, _, a, b) => {
                out.push(*a);
                out.push(*b);
            }
            Inst::Select(_, c, a, b) => {
                out.push(*c);
                out.push(*a);
                out.push(*b);
            }
            Inst::Alloc(_, s) => out.push(*s),
            Inst::Free(p) => out.push(*p),
            Inst::Load(_, a, _) => out.push(*a),
            Inst::Store(a, _, v) => {
                out.push(*a);
                out.push(*v);
            }
            Inst::Gep(_, b, i, _, _) => {
                out.push(*b);
                out.push(*i);
            }
            Inst::Call(_, _, args) | Inst::Intr(_, _, args) => out.extend_from_slice(args),
        }
    }

    /// True if this is a memory access (the instructions CARAT guards).
    pub fn is_mem_access(&self) -> bool {
        matches!(self, Inst::Load(_, _, _) | Inst::Store(_, _, _))
    }

    /// True if this instruction uses floating point (Fig. 4's FP-state
    /// criterion).
    pub(crate) fn touches_fp(&self) -> bool {
        match self {
            Inst::ConstF(_, _) => true,
            Inst::Bin(_, op, _, _) => op.is_float(),
            _ => false,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::ConstI(d, v) => write!(f, "{d} = const {v}"),
            Inst::ConstF(d, v) => write!(f, "{d} = fconst {v}"),
            Inst::Mov(d, s) => write!(f, "{d} = {s}"),
            Inst::Bin(d, op, a, b) => write!(f, "{d} = {op:?} {a}, {b}"),
            Inst::Cmp(d, op, a, b) => write!(f, "{d} = cmp.{op:?} {a}, {b}"),
            Inst::Select(d, c, a, b) => write!(f, "{d} = select {c}, {a}, {b}"),
            Inst::Alloc(d, s) => write!(f, "{d} = alloc {s}"),
            Inst::Free(p) => write!(f, "free {p}"),
            Inst::Load(d, a, o) => write!(f, "{d} = load [{a}+{o}]"),
            Inst::Store(a, o, v) => write!(f, "store [{a}+{o}], {v}"),
            Inst::Gep(d, b, i, s, o) => write!(f, "{d} = gep {b}, {i}*{s}+{o}"),
            Inst::Call(Some(d), g, args) => write!(f, "{d} = call {g} {args:?}"),
            Inst::Call(None, g, args) => write!(f, "call {g} {args:?}"),
            Inst::Intr(Some(d), i, args) => write!(f, "{d} = intr {i:?} {args:?}"),
            Inst::Intr(None, i, args) => write!(f, "intr {i:?} {args:?}"),
        }
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on a register's truthiness.
    CondBr(Reg, BlockId, BlockId),
    /// Return, optionally with a value.
    Ret(Option<Reg>),
}

impl Term {
    /// Successor blocks of this terminator.
    pub(crate) fn succs(&self) -> Vec<BlockId> {
        match *self {
            Term::Br(b) => vec![b],
            Term::CondBr(_, t, e) => vec![t, e],
            Term::Ret(_) => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses() {
        let i = Inst::Bin(Reg(3), BinOp::Add, Reg(1), Reg(2));
        assert_eq!(i.def(), Some(Reg(3)));
        let mut u = vec![];
        i.uses(&mut u);
        assert_eq!(u, vec![Reg(1), Reg(2)]);

        let s = Inst::Store(Reg(4), 8, Reg(5));
        assert_eq!(s.def(), None);
        assert!(s.is_mem_access());
    }

    #[test]
    fn fp_detection() {
        assert!(Inst::Bin(Reg(0), BinOp::FMul, Reg(1), Reg(2)).touches_fp());
        assert!(!Inst::Bin(Reg(0), BinOp::Mul, Reg(1), Reg(2)).touches_fp());
        assert!(Inst::ConstF(Reg(0), 1.0).touches_fp());
    }

    #[test]
    fn term_successors() {
        assert_eq!(Term::Br(BlockId(1)).succs(), vec![BlockId(1)]);
        assert_eq!(
            Term::CondBr(Reg(0), BlockId(1), BlockId(2)).succs(),
            vec![BlockId(1), BlockId(2)]
        );
        assert!(Term::Ret(None).succs().is_empty());
    }

    #[test]
    fn injected_intrinsics() {
        assert!(Intrinsic::CaratGuard.is_injected());
        assert!(Intrinsic::TimeCheck.is_injected());
        assert!(!Intrinsic::Yield.is_injected());
        assert!(!Intrinsic::Trace.is_injected());
    }
}
