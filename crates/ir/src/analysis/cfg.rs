//! Control-flow graph: successors, predecessors, reverse postorder.

use crate::func::Function;
use crate::types::BlockId;

/// The control-flow graph of one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successor lists, indexed by block.
    pub succs: Vec<Vec<BlockId>>,
    /// Predecessor lists, indexed by block.
    pub preds: Vec<Vec<BlockId>>,
    /// Blocks in reverse postorder from the entry. Unreachable blocks are
    /// absent.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo`; `usize::MAX` for unreachable blocks.
    pub rpo_pos: Vec<usize>,
}

impl Cfg {
    /// Build the CFG for `f`.
    pub fn build(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (i, b) in f.blocks.iter().enumerate() {
            let term = b
                .term
                .as_ref()
                .unwrap_or_else(|| panic!("bb{i} unterminated; verify the function first"));
            for s in term.succs() {
                succs[i].push(s);
                preds[s.index()].push(BlockId(i as u32));
            }
        }

        // Iterative DFS postorder from the entry.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        // Stack of (block, next-successor-index).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut si)) = stack.last_mut() {
            if *si < succs[b].len() {
                let s = succs[b][*si].index();
                *si += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(BlockId(b as u32));
                stack.pop();
            }
        }
        post.reverse();
        let rpo = post;
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_pos,
        }
    }

    /// True if the block is reachable from the entry.
    pub(crate) fn reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()] != usize::MAX
    }

    /// Number of blocks (including unreachable ones).
    pub(crate) fn len(&self) -> usize {
        self.succs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;
    use crate::inst::CmpOp;

    /// Build a diamond: entry → (then | else) → join.
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
    fn diamond_edges() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.succs[0].len(), 2);
        assert_eq!(cfg.preds[3].len(), 2);
        assert_eq!(cfg.preds[0].len(), 0);
    }

    #[test]
    fn rpo_starts_at_entry_and_joins_last() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(*cfg.rpo.last().unwrap(), BlockId(3));
        assert_eq!(cfg.rpo.len(), 4);
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut fb = FunctionBuilder::new("u", 0);
        let dead = fb.new_block();
        fb.ret(None);
        fb.switch_to(dead);
        fb.ret(None);
        let f = fb.finish();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.rpo.len(), 1);
        assert!(cfg.reachable(BlockId(0)));
        assert!(!cfg.reachable(dead));
    }
}
