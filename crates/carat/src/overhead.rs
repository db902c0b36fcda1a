//! The CARAT overhead experiment (TAB-CARAT).
//!
//! For each benchmark kernel, measure total cycles four ways:
//!
//! 1. **baseline** — the original program, identity-mapped, no translation,
//!    no instrumentation (raw Nautilus);
//! 2. **naive CARAT** — guards injected at every access, no optimization
//!    ("the potentially high costs of the compiler-introduced protection and
//!    tracking code");
//! 3. **optimized CARAT** — after hoisting + elision (the paper's <6 %
//!    geometric-mean configuration);
//! 4. **paging** — the original program paying conventional translation
//!    costs (TLB misses + demand faults) through the kernel crate's
//!    [`PagingModel`].
//!
//! Columns 2–3 and column 4 each run under a translation scheme priced on
//! a machine's cost model ([`measure`]); the table's are CARAT and paging,
//! and any scheme fills either: identity mapping runs bare, paging charges
//! the TLB, CARAT instruments.
//!
//! Every variant must produce the identical program result — asserted on
//! each run, making the whole table double as a correctness test of the
//! transformation pipeline.

use crate::instrument;
use crate::runtime::CaratRuntime;
use interweave_core::machine::CostModel;
use interweave_core::par::{host_threads, parallel_map};
use interweave_core::stack::Translation;
use interweave_core::stats::geomean;
use interweave_ir::interp::{HookAction, Interp, InterpConfig, Memory, RuntimeHooks, Trap};
use interweave_ir::programs::{self, Program};
use interweave_ir::types::Val;
use interweave_ir::Intrinsic;
use interweave_kernel::paging::PagingModel;

/// Hooks that charge conventional paging/TLB costs on every access.
pub(crate) struct PagingHooks {
    /// The TLB + demand-fault model.
    pub model: PagingModel,
}

impl PagingHooks {
    /// Paging priced on `cost`: its TLB geometry, walk and fault costs.
    pub(crate) fn new(cost: &CostModel) -> PagingHooks {
        PagingHooks {
            model: PagingModel::new(cost),
        }
    }
}

impl RuntimeHooks for PagingHooks {
    fn intrinsic(
        &mut self,
        which: Intrinsic,
        _args: &[Val],
        _mem: &mut Memory,
        now: u64,
    ) -> HookAction {
        match which {
            Intrinsic::ReadTimer => HookAction::Continue {
                value: Some(Val::I(now as i64)),
                cycles: 1,
            },
            _ => HookAction::Continue {
                value: None,
                cycles: 0,
            },
        }
    }

    fn check_access(&mut self, addr: u64, _now: u64) -> Result<u64, Trap> {
        Ok(self.model.access(addr).get())
    }
}

/// One benchmark's overhead measurements.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Kernel name.
    pub name: String,
    /// Baseline cycles (no instrumentation, identity mapping).
    pub base_cycles: u64,
    /// Cycles with naive (unoptimized) CARAT instrumentation.
    pub naive_cycles: u64,
    /// Cycles with optimized CARAT instrumentation.
    pub opt_cycles: u64,
    /// Cycles under the paging column's scheme (conventional paging).
    pub paging_cycles: u64,
    /// Static guard count before optimization.
    pub static_guards_naive: u64,
    /// Static guard count (object + range) after optimization.
    pub static_guards_opt: u64,
    /// Dynamic guard executions, naive.
    pub dyn_guards_naive: u64,
    /// Dynamic guard executions (object + range), optimized.
    pub dyn_guards_opt: u64,
}

impl OverheadRow {
    /// Naive instrumentation overhead vs. baseline, in percent.
    pub fn naive_pct(&self) -> f64 {
        100.0 * (self.naive_cycles as f64 / self.base_cycles as f64 - 1.0)
    }

    /// Optimized instrumentation overhead vs. baseline, in percent.
    pub fn opt_pct(&self) -> f64 {
        100.0 * (self.opt_cycles as f64 / self.base_cycles as f64 - 1.0)
    }

    /// Paging overhead vs. baseline, in percent.
    pub fn paging_pct(&self) -> f64 {
        100.0 * (self.paging_cycles as f64 / self.base_cycles as f64 - 1.0)
    }
}

fn run_with(
    m: &interweave_ir::Module,
    p: &Program,
    hooks: &mut dyn RuntimeHooks,
) -> (Option<Val>, u64) {
    let mut it = Interp::new(InterpConfig::default());
    it.start(m, p.entry, &p.args);
    let v = it.run_to_completion(m, hooks);
    (v, it.stats.cycles)
}

fn count_guards(m: &interweave_ir::Module) -> u64 {
    m.funcs
        .iter()
        .map(|f| {
            f.count_insts(|i| {
                matches!(
                    i,
                    interweave_ir::Inst::Intr(
                        _,
                        Intrinsic::CaratGuard | Intrinsic::CaratGuardRange,
                        _
                    )
                )
            }) as u64
        })
        .sum()
}

/// Run `p` under `translation` priced on `cost`: identity mapping runs it
/// bare, paging charges `cost`'s TLB and demand faults, CARAT runs it
/// instrumented with guards `optimize`d (hoisted and elided) or naive.
/// Returns the result, the cycles, and the static and dynamic guards.
fn translated(
    p: &Program,
    translation: Translation,
    cost: &CostModel,
    optimize: bool,
) -> (Option<Val>, u64, u64, u64) {
    let mut m = p.module.clone();
    let (value, cycles, dyn_guards) = match translation {
        Translation::Identity => {
            let (v, cycles) = run_with(&m, p, &mut interweave_ir::interp::NullHooks);
            (v, cycles, 0)
        }
        Translation::Paging => {
            let (v, cycles) = run_with(&m, p, &mut PagingHooks::new(cost));
            (v, cycles, 0)
        }
        Translation::Carat => {
            instrument(&mut m, optimize);
            let mut rt = CaratRuntime::new();
            let (v, cycles) = run_with(&m, p, &mut rt);
            (v, cycles, rt.stats.guards + rt.stats.range_guards)
        }
    };
    (value, cycles, count_guards(&m), dyn_guards)
}

/// Measure one program: the bare baseline, the naive and optimized
/// columns under `guarded` and the paging column under `paged`, each a
/// translation scheme priced on a cost model.
pub fn measure(
    p: &Program,
    guarded: (Translation, &CostModel),
    paged: (Translation, &CostModel),
) -> OverheadRow {
    let (base, base_cycles, ..) = translated(p, Translation::Identity, paged.1, false);
    let naive = translated(p, guarded.0, guarded.1, false);
    let opt = translated(p, guarded.0, guarded.1, true);
    let paging = translated(p, paged.0, paged.1, true);
    for (column, run) in [("naive", &naive), ("optimized", &opt), ("paging", &paging)] {
        assert_eq!(run.0, base, "{}: {column} changed the result", p.name);
    }
    OverheadRow {
        name: p.name.clone(),
        base_cycles,
        naive_cycles: naive.1,
        opt_cycles: opt.1,
        paging_cycles: paging.1,
        static_guards_naive: naive.2,
        static_guards_opt: opt.2,
        dyn_guards_naive: naive.3,
        dyn_guards_opt: opt.3,
    }
}

/// Run the whole suite at a scale factor, each column's scheme priced as
/// in [`measure`]. Both cost models run on a deliberately small TLB (64
/// entries of 4 KiB) so capacity effects appear at laptop scale (the real
/// machines have proportionally larger footprints). The programs run on
/// the host's threads; rows come back in suite order.
pub fn run_suite(
    scale: i64,
    guarded: (Translation, &CostModel),
    paged: (Translation, &CostModel),
) -> Vec<OverheadRow> {
    let small = |cost: &CostModel| CostModel {
        tlb_entries: 64,
        page_size: 4096,
        ..cost.clone()
    };
    let (guard_cost, paging_cost) = (small(guarded.1), small(paged.1));
    parallel_map(programs::suite(scale), host_threads(), |p| {
        measure(&p, (guarded.0, &guard_cost), (paged.0, &paging_cost))
    })
}

/// Geometric-mean overhead percentages `(naive, optimized)` across rows,
/// computed over (1 + overhead) ratios as the paper does.
pub fn geomean_overheads(rows: &[OverheadRow]) -> (f64, f64) {
    let naive: Vec<f64> = rows
        .iter()
        .map(|r| r.naive_cycles as f64 / r.base_cycles as f64)
        .collect();
    let opt: Vec<f64> = rows
        .iter()
        .map(|r| r.opt_cycles as f64 / r.base_cycles as f64)
        .collect();
    (
        100.0 * (geomean(&naive) - 1.0),
        100.0 * (geomean(&opt) - 1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suite as the table runs it: CARAT against paging on x64 costs.
    fn suite(scale: i64) -> Vec<OverheadRow> {
        let x64 = CostModel::x64_default();
        run_suite(
            scale,
            (Translation::Carat, &x64),
            (Translation::Paging, &x64),
        )
    }

    #[test]
    fn optimized_overhead_is_under_the_papers_bound() {
        // §IV-A: "the overheads are <6 % (geometric mean)". Allow a small
        // margin for the synthetic suite's irregular members.
        let rows = suite(2);
        let (naive, opt) = geomean_overheads(&rows);
        assert!(
            opt < 8.0,
            "optimized geomean overhead {opt:.2}% (rows: {:?})",
            rows.iter()
                .map(|r| (r.name.clone(), r.opt_pct()))
                .collect::<Vec<_>>()
        );
        assert!(
            naive > 25.0,
            "naive instrumentation should be expensive, got {naive:.2}%"
        );
    }

    #[test]
    fn dense_kernels_are_nearly_free_after_optimization() {
        // Larger scale so one-time tracking costs (alloc/free bookkeeping)
        // amortize the way they do on real inputs.
        let rows = suite(6);
        for r in &rows {
            if ["stream-triad", "matvec", "histogram"].contains(&r.name.as_str()) {
                assert!(
                    r.opt_pct() < 3.0,
                    "{}: optimized overhead {:.2}%",
                    r.name,
                    r.opt_pct()
                );
            }
        }
    }

    #[test]
    fn optimization_reduces_dynamic_guards_massively() {
        let rows = suite(2);
        let total_naive: u64 = rows.iter().map(|r| r.dyn_guards_naive).sum();
        let total_opt: u64 = rows.iter().map(|r| r.dyn_guards_opt).sum();
        assert!(
            total_opt * 5 < total_naive,
            "dynamic guards: naive {total_naive}, optimized {total_opt}"
        );
    }

    #[test]
    fn paging_costs_more_than_optimized_carat() {
        // The motivating comparison: compiler-based translation beats
        // hardware paging once TLB capacity is exceeded.
        let rows = suite(2);
        let (_, opt) = geomean_overheads(&rows);
        let paging_gm: f64 = {
            let ratios: Vec<f64> = rows
                .iter()
                .map(|r| r.paging_cycles as f64 / r.base_cycles as f64)
                .collect();
            100.0 * (interweave_core::stats::geomean(&ratios) - 1.0)
        };
        assert!(
            paging_gm > opt,
            "paging {paging_gm:.2}% should exceed optimized CARAT {opt:.2}%"
        );
    }

    #[test]
    fn fib_has_zero_memory_overhead() {
        let p = programs::fib(12);
        let x64 = CostModel::x64_default();
        let row = measure(&p, (Translation::Carat, &x64), (Translation::Paging, &x64));
        assert_eq!(row.base_cycles, row.opt_cycles);
        assert_eq!(row.dyn_guards_opt, 0);
    }
}
