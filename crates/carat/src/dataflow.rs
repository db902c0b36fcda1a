//! The analyses the guard passes share: the forward must-dataflow under
//! guard elision and coverage checking, and the `gep` base lookup under
//! hoisting and coverage.
//!
//! Elision and coverage ask the same question of every block: which facts
//! ("this register is guarded") hold on *every* path reaching it. The
//! solver iterates the caller's transfer function to a fixpoint over the
//! reachable blocks in reverse postorder and hands back each block's entry
//! state; the caller then runs its transfer once more per block to rewrite
//! (elision) or to report (coverage).

use interweave_ir::analysis::{Cfg, DefInfo};
use interweave_ir::inst::Inst;
use interweave_ir::types::{BlockId, Reg};
use interweave_ir::Function;

/// Solve a forward must-dataflow: `entry` is the state on function entry,
/// `meet` folds one computed predecessor's out-state into an accumulator,
/// and `transfer` (side-effect-free) carries a state across one block.
/// Returns `(block, entry state)` for every reachable block, in reverse
/// postorder.
pub(crate) fn solve<S: Clone + PartialEq>(
    cfg: &Cfg,
    entry: S,
    meet: impl Fn(&mut S, &S),
    transfer: impl Fn(&mut S, usize),
) -> Vec<(BlockId, S)> {
    // `outs[b] = None` means "not yet computed" (⊤ for the meet).
    let mut outs: Vec<Option<S>> = vec![None; cfg.preds.len()];
    let entry_state = |outs: &[Option<S>], bi: usize| -> Option<S> {
        if bi == 0 {
            return Some(entry.clone());
        }
        let mut acc: Option<S> = None;
        for o in cfg.preds[bi]
            .iter()
            .filter_map(|p| outs[p.index()].as_ref())
        {
            match &mut acc {
                None => acc = Some(o.clone()),
                Some(a) => meet(a, o),
            }
        }
        acc
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let bi = b.index();
            let Some(mut state) = entry_state(&outs, bi) else {
                continue;
            };
            transfer(&mut state, bi);
            if outs[bi].as_ref() != Some(&state) {
                outs[bi] = Some(state);
                changed = true;
            }
        }
    }
    cfg.rpo
        .iter()
        .filter_map(|&b| entry_state(&outs, b.index()).map(|s| (b, s)))
        .collect()
}

/// The must-meet of per-register fact bits: a fact survives a join only
/// if it holds on every incoming path.
pub(crate) fn intersect(acc: &mut [bool], other: &[bool]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a &= b;
    }
}

/// The base register of the `gep` that is `r`'s only definition, if any.
/// Callers apply their own single-definition test to the base.
pub(crate) fn gep_base(f: &Function, defs: &DefInfo, r: Reg) -> Option<Reg> {
    if !defs.is_single_def(r) {
        return None;
    }
    let site = defs.sites[r.0 as usize].first()?;
    match f.blocks[site.block.index()].insts[site.inst] {
        Inst::Gep(_, base, _, _, _) => Some(base),
        _ => None,
    }
}
