//! Dominator analysis (Cooper–Harvey–Kennedy "a simple, fast dominance
//! algorithm").
//!
//! Dominance is what lets CARAT elide a guard: a check of pointer `p` is
//! redundant when another check of `p` *dominates* it with no intervening
//! redefinition (§IV-A's "aggregate and hoist protection and tracking
//! code").

use crate::analysis::cfg::Cfg;
use crate::types::BlockId;

/// Dominator tree for one function.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Immediate dominator of each block (`idom[entry] == entry`);
    /// `None` for unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Compute dominators from a CFG.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.len();
        let mut idom: Vec<Option<usize>> = vec![None; n];
        if n == 0 {
            return Dominators { idom: vec![] };
        }
        idom[0] = Some(0);

        // Intersect in RPO-position space.
        let intersect = |idom: &[Option<usize>], pos: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while pos[a] > pos[b] {
                    a = idom[a].expect("processed block must have idom");
                }
                while pos[b] > pos[a] {
                    b = idom[b].expect("processed block must have idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let bi = b.index();
                let mut new_idom: Option<usize> = None;
                for &p in &cfg.preds[bi] {
                    let pi = p.index();
                    if idom[pi].is_none() {
                        continue; // unprocessed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => pi,
                        Some(cur) => intersect(&idom, &cfg.rpo_pos, cur, pi),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[bi] != Some(ni) {
                        idom[bi] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        Dominators {
            idom: idom
                .into_iter()
                .map(|o| o.map(|i| BlockId(i as u32)))
                .collect(),
        }
    }

    /// True if `a` dominates `b` (reflexive).
    pub(crate) fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Function, FunctionBuilder};
    use crate::inst::CmpOp;

    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("d", 1);
        let p = fb.param(0);
        let z = fb.const_i(0);
        let c = fb.cmp(CmpOp::Gt, p, z);
        let t = fb.new_block();
        let e = fb.new_block();
        let j = fb.new_block();
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.br(j);
        fb.switch_to(e);
        fb.br(j);
        fb.switch_to(j);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn diamond_dominance() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        let dom = Dominators::compute(&cfg);
        let (entry, t, e, j) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert!(dom.dominates(entry, j));
        assert!(dom.dominates(entry, t));
        assert!(!dom.dominates(t, j)); // join reachable around `t`
        assert!(!dom.dominates(e, j));
        assert!(!dom.dominates(j, entry));
    }

    #[test]
    fn loop_header_dominates_body() {
        // entry → head; head → body|exit; body → head.
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
        fb.bin_to(i, crate::inst::BinOp::Add, i, one);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret(None);
        let f = fb.finish();

        let cfg = Cfg::build(&f);
        let dom = Dominators::compute(&cfg);
        assert!(dom.dominates(head, body));
        assert!(dom.dominates(head, exit));
        assert!(!dom.dominates(body, exit));
    }

    #[test]
    fn reflexive_dominance() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        let dom = Dominators::compute(&cfg);
        for b in 0..4 {
            assert!(dom.dominates(BlockId(b), BlockId(b)));
        }
    }
}
