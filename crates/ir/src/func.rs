//! Functions, basic blocks, and the builder API.

use crate::inst::{BinOp, CmpOp, Inst, Intrinsic, Term};
use crate::types::{BlockId, FuncId, Reg};
use std::fmt;

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block's instructions, in order.
    pub insts: Vec<Inst>,
    /// The terminator. `None` only transiently during construction; a
    /// verified function has a terminator in every block.
    pub term: Option<Term>,
}

impl Block {
    /// An empty, unterminated block.
    pub fn new() -> Block {
        Block {
            insts: Vec::new(),
            term: None,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// A function: blocks, parameter count, register count.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Human-readable name.
    pub name: String,
    /// Number of parameters; parameters occupy registers `0..n_params`.
    pub n_params: usize,
    /// Total registers used (parameters included).
    pub n_regs: usize,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Marked as a virtine entry point (§IV-D): the virtine-extraction pass
    /// honours this the way the paper's `virtine` keyword (Fig. 5) does.
    pub is_virtine: bool,
}

impl Function {
    /// Total instruction count (excluding terminators).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Count instructions matching a predicate (used by pass tests to count
    /// guards before/after optimization).
    pub fn count_insts(&self, mut pred: impl FnMut(&Inst) -> bool) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| pred(i))
            .count()
    }

    /// True if any instruction touches floating point (Fig. 4's criterion
    /// for whether a context switch must save FP state).
    pub fn touches_fp(&self) -> bool {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .any(|i| i.touches_fp())
    }

    /// Allocate a fresh register (for passes that add temporaries).
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.n_regs as u32);
        self.n_regs += 1;
        r
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fn {}({} params) {{", self.name, self.n_params)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{i}:")?;
            for inst in &b.insts {
                writeln!(f, "  {inst}")?;
            }
            match &b.term {
                Some(t) => writeln!(f, "  {t:?}")?,
                None => writeln!(f, "  <unterminated>")?,
            }
        }
        write!(f, "}}")
    }
}

/// Builder for constructing a [`Function`] block by block.
///
/// ```
/// use interweave_ir::{FunctionBuilder, BinOp, Term};
///
/// // fn add1(x) { return x + 1 }
/// let mut fb = FunctionBuilder::new("add1", 1);
/// let x = fb.param(0);
/// let one = fb.const_i(1);
/// let sum = fb.bin(BinOp::Add, x, one);
/// fb.ret(Some(sum));
/// let f = fb.finish();
/// assert_eq!(f.n_params, 1);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    f: Function,
    cur: BlockId,
}

impl FunctionBuilder {
    /// Start a function with `n_params` parameters; the entry block is
    /// current.
    pub fn new(name: &str, n_params: usize) -> FunctionBuilder {
        FunctionBuilder {
            f: Function {
                name: name.to_string(),
                n_params,
                n_regs: n_params,
                blocks: vec![Block::new()],
                is_virtine: false,
            },
            cur: BlockId(0),
        }
    }

    /// Mark this function as a virtine entry point (Fig. 5's `virtine`
    /// qualifier).
    pub fn virtine(&mut self) -> &mut Self {
        self.f.is_virtine = true;
        self
    }

    /// The register holding parameter `i`.
    pub fn param(&self, i: usize) -> Reg {
        assert!(i < self.f.n_params, "parameter index out of range");
        Reg(i as u32)
    }

    /// Create a new (empty) block, returning its id; does not change the
    /// current block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.f.blocks.len() as u32);
        self.f.blocks.push(Block::new());
        id
    }

    /// Switch the insertion point to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(b.index() < self.f.blocks.len());
        self.cur = b;
    }

    /// The current insertion block.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    fn push(&mut self, i: Inst) {
        let b = &mut self.f.blocks[self.cur.index()];
        assert!(
            b.term.is_none(),
            "appending instruction to terminated block {}",
            self.cur
        );
        b.insts.push(i);
    }

    fn def(&mut self) -> Reg {
        self.f.fresh_reg()
    }

    /// `const` integer.
    pub fn const_i(&mut self, v: i64) -> Reg {
        let d = self.def();
        self.push(Inst::ConstI(d, v));
        d
    }

    /// `const` float.
    pub fn const_f(&mut self, v: f64) -> Reg {
        let d = self.def();
        self.push(Inst::ConstF(d, v));
        d
    }

    /// Copy a register.
    pub fn mov(&mut self, s: Reg) -> Reg {
        let d = self.def();
        self.push(Inst::Mov(d, s));
        d
    }

    /// Copy into an *existing* register (loop induction updates).
    pub fn mov_to(&mut self, dst: Reg, s: Reg) {
        self.push(Inst::Mov(dst, s));
    }

    /// Binary operation.
    pub fn bin(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        let d = self.def();
        self.push(Inst::Bin(d, op, a, b));
        d
    }

    /// Binary operation into an existing register.
    pub fn bin_to(&mut self, dst: Reg, op: BinOp, a: Reg, b: Reg) {
        self.push(Inst::Bin(dst, op, a, b));
    }

    /// Comparison producing 0/1.
    pub fn cmp(&mut self, op: CmpOp, a: Reg, b: Reg) -> Reg {
        let d = self.def();
        self.push(Inst::Cmp(d, op, a, b));
        d
    }

    /// Conditional select.
    pub fn select(&mut self, c: Reg, a: Reg, b: Reg) -> Reg {
        let d = self.def();
        self.push(Inst::Select(d, c, a, b));
        d
    }

    /// Heap allocation of `size` bytes (register).
    pub fn alloc(&mut self, size: Reg) -> Reg {
        let d = self.def();
        self.push(Inst::Alloc(d, size));
        d
    }

    /// Free an allocation.
    pub fn free(&mut self, p: Reg) {
        self.push(Inst::Free(p));
    }

    /// Load a word from `[addr + off]`.
    pub fn load(&mut self, addr: Reg, off: i64) -> Reg {
        let d = self.def();
        self.push(Inst::Load(d, addr, off));
        d
    }

    /// Store a word to `[addr + off]`.
    pub fn store(&mut self, addr: Reg, off: i64, v: Reg) {
        self.push(Inst::Store(addr, off, v));
    }

    /// Pointer arithmetic: `base + idx*scale + off`.
    pub fn gep(&mut self, base: Reg, idx: Reg, scale: i64, off: i64) -> Reg {
        let d = self.def();
        self.push(Inst::Gep(d, base, idx, scale, off));
        d
    }

    /// Call a function, capturing its return value.
    pub fn call(&mut self, f: FuncId, args: &[Reg]) -> Reg {
        let d = self.def();
        self.push(Inst::Call(Some(d), f, args.to_vec()));
        d
    }

    /// Call a function, ignoring any return value.
    pub fn call_void(&mut self, f: FuncId, args: &[Reg]) {
        self.push(Inst::Call(None, f, args.to_vec()));
    }

    /// Invoke an intrinsic with a result.
    pub fn intr(&mut self, i: Intrinsic, args: &[Reg]) -> Reg {
        let d = self.def();
        self.push(Inst::Intr(Some(d), i, args.to_vec()));
        d
    }

    /// Invoke an intrinsic without a result.
    pub fn intr_void(&mut self, i: Intrinsic, args: &[Reg]) {
        self.push(Inst::Intr(None, i, args.to_vec()));
    }

    fn terminate(&mut self, t: Term) {
        let b = &mut self.f.blocks[self.cur.index()];
        assert!(b.term.is_none(), "block {} already terminated", self.cur);
        b.term = Some(t);
    }

    /// Unconditional branch.
    pub fn br(&mut self, b: BlockId) {
        self.terminate(Term::Br(b));
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, c: Reg, t: BlockId, e: BlockId) {
        self.terminate(Term::CondBr(c, t, e));
    }

    /// Return.
    pub fn ret(&mut self, v: Option<Reg>) {
        self.terminate(Term::Ret(v));
    }

    /// Finish, returning the function. Every block must be terminated.
    pub fn finish(self) -> Function {
        for (i, b) in self.f.blocks.iter().enumerate() {
            assert!(
                b.term.is_some(),
                "function {}: block bb{i} left unterminated",
                self.f.name
            );
        }
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Intrinsic;

    #[test]
    fn builds_straight_line_function() {
        let mut fb = FunctionBuilder::new("f", 2);
        let a = fb.param(0);
        let b = fb.param(1);
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        let f = fb.finish();
        assert_eq!(f.n_params, 2);
        assert_eq!(f.n_regs, 3);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.inst_count(), 1);
    }

    #[test]
    fn builds_loop_shape() {
        // for (i = 0; i < n; i++) {}
        let mut fb = FunctionBuilder::new("loop", 1);
        let n = fb.param(0);
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
        let one = fb.const_i(1);
        fb.bin_to(i, BinOp::Add, i, one);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(None);
        let f = fb.finish();
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    fn fp_propagates_to_function() {
        let mut fb = FunctionBuilder::new("fp", 0);
        let a = fb.const_f(1.0);
        let b = fb.const_f(2.0);
        let _ = fb.bin(BinOp::FAdd, a, b);
        fb.ret(None);
        assert!(fb.finish().touches_fp());
    }

    #[test]
    fn count_insts_filters() {
        let mut fb = FunctionBuilder::new("g", 1);
        let p = fb.param(0);
        fb.intr_void(Intrinsic::CaratGuard, &[p]);
        let _ = fb.load(p, 0);
        fb.ret(None);
        let f = fb.finish();
        assert_eq!(
            f.count_insts(|i| matches!(i, Inst::Intr(_, Intrinsic::CaratGuard, _))),
            1
        );
    }

    #[test]
    #[should_panic(expected = "unterminated")]
    fn finish_rejects_unterminated_blocks() {
        let mut fb = FunctionBuilder::new("bad", 0);
        let _ = fb.new_block(); // never terminated
        fb.ret(None);
        let _ = fb.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut fb = FunctionBuilder::new("bad2", 0);
        fb.ret(None);
        fb.ret(None);
    }
}
