//! Natural-loop detection.
//!
//! Loops matter twice in the paper: CARAT hoists guards out of them (§IV-A)
//! and compiler-based timing places time checks in them at a rate derived
//! from estimated iteration cost (§IV-C).

use crate::analysis::cfg::Cfg;
use crate::analysis::dom::Dominators;
use crate::types::BlockId;

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop body, header included.
    pub body: Vec<BlockId>,
    /// The unique out-of-loop predecessor of the header, if there is exactly
    /// one — the *preheader*, where hoisted guards land.
    pub preheader: Option<BlockId>,
}

impl Loop {
    /// True if `b` is inside the loop.
    pub(crate) fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }
}

/// All natural loops of a function. Loops sharing a header are merged.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// The loops, in discovery order (outer loops may appear after inner).
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Find natural loops: for every edge `t → h` where `h` dominates `t`,
    /// collect the blocks that reach `t` without passing through `h`.
    pub fn find(cfg: &Cfg, dom: &Dominators) -> LoopForest {
        use std::collections::BTreeMap;
        let mut bodies: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();

        for &b in &cfg.rpo {
            for &s in &cfg.succs[b.index()] {
                if dom.dominates(s, b) {
                    // Back edge b → s; s is a header.
                    let body = bodies.entry(s).or_insert_with(|| vec![s]);
                    // Walk predecessors backward from the latch.
                    let mut stack = vec![b];
                    while let Some(x) = stack.pop() {
                        if body.contains(&x) {
                            continue;
                        }
                        body.push(x);
                        for &p in &cfg.preds[x.index()] {
                            if cfg.reachable(p) {
                                stack.push(p);
                            }
                        }
                    }
                }
            }
        }

        let loops = bodies
            .into_iter()
            .map(|(header, mut body)| {
                body.sort_unstable();
                body.dedup();
                // Preheader: unique predecessor of the header outside the
                // loop.
                let outside: Vec<BlockId> = cfg.preds[header.index()]
                    .iter()
                    .copied()
                    .filter(|p| !body.contains(p))
                    .collect();
                let preheader = if outside.len() == 1 {
                    Some(outside[0])
                } else {
                    None
                };
                Loop {
                    header,
                    body,
                    preheader,
                }
            })
            .collect();
        LoopForest { loops }
    }

    /// Loop depth of a block (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> usize {
        self.loops.iter().filter(|l| l.contains(b)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Function, FunctionBuilder};
    use crate::inst::{BinOp, CmpOp};

    /// entry(bb0) → head(bb1); head → body(bb2)|exit(bb3); body → head.
    fn simple_loop() -> Function {
        let mut fb = FunctionBuilder::new("l", 1);
        let n = fb.param(0);
        let z = fb.const_i(0);
        let i = fb.mov(z);
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
        fb.finish()
    }

    /// Nested: outer head bb1, inner head bb3.
    fn nested_loops() -> Function {
        let mut fb = FunctionBuilder::new("n", 1);
        let n = fb.param(0);
        let z = fb.const_i(0);
        let i = fb.mov(z);
        let ohead = fb.new_block(); // bb1
        let obody = fb.new_block(); // bb2 (inner preheader)
        let ihead = fb.new_block(); // bb3
        let ibody = fb.new_block(); // bb4
        let olatch = fb.new_block(); // bb5
        let exit = fb.new_block(); // bb6
        fb.br(ohead);

        fb.switch_to(ohead);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, obody, exit);

        fb.switch_to(obody);
        let j = fb.mov(z);
        fb.br(ihead);

        fb.switch_to(ihead);
        let c2 = fb.cmp(CmpOp::Lt, j, n);
        fb.cond_br(c2, ibody, olatch);

        fb.switch_to(ibody);
        let one = fb.const_i(1);
        fb.bin_to(j, BinOp::Add, j, one);
        fb.br(ihead);

        fb.switch_to(olatch);
        let one2 = fb.const_i(1);
        fb.bin_to(i, BinOp::Add, i, one2);
        fb.br(ohead);

        fb.switch_to(exit);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn finds_simple_loop_with_preheader() {
        let f = simple_loop();
        let cfg = Cfg::build(&f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::find(&cfg, &dom);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(3)));
        assert_eq!(l.preheader, Some(BlockId(0)));
    }

    #[test]
    fn nested_loops_have_correct_depths() {
        let f = nested_loops();
        let cfg = Cfg::build(&f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::find(&cfg, &dom);
        assert_eq!(forest.loops.len(), 2);
        // Inner body is depth 2; outer latch depth 1; exit depth 0.
        assert_eq!(forest.depth(BlockId(4)), 2);
        assert_eq!(forest.depth(BlockId(5)), 1);
        assert_eq!(forest.depth(BlockId(6)), 0);
    }

    #[test]
    fn innermost_selection() {
        let f = nested_loops();
        let cfg = Cfg::build(&f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::find(&cfg, &dom);
        // The innermost loop holding the inner body: the smallest one.
        let inner = forest
            .loops
            .iter()
            .filter(|l| l.contains(BlockId(4)))
            .min_by_key(|l| l.body.len())
            .unwrap();
        assert_eq!(inner.header, BlockId(3));
        // The inner loop's preheader is the outer body block.
        assert_eq!(inner.preheader, Some(BlockId(2)));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut fb = FunctionBuilder::new("s", 0);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        let dom = Dominators::compute(&cfg);
        assert!(LoopForest::find(&cfg, &dom).loops.is_empty());
    }
}
