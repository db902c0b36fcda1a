//! The pass framework.
//!
//! Interweaving transformations (CARAT guard injection/elision/hoisting,
//! timing-call injection, device-poll injection, virtine extraction) are
//! module-to-module rewrites implementing [`Pass`]. The [`PassManager`]
//! runs them in order, verifying the module after each pass, and collects
//! per-pass statistics that the experiment reports surface (e.g. "guards
//! inserted / elided / hoisted" in the CARAT table).

use crate::module::Module;
use crate::verify::assert_valid;
use std::collections::BTreeMap;

/// Statistics reported by one pass run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Named counters (e.g. `guards_inserted`, `checks_hoisted`).
    pub counters: BTreeMap<String, u64>,
}

impl PassStats {
    /// Increment a named counter by `n`.
    pub fn bump(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Read a counter (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A module transformation.
pub trait Pass {
    /// Pass name for reports.
    fn name(&self) -> &'static str;
    /// Transform the module, returning statistics.
    fn run(&mut self, m: &mut Module) -> PassStats;
}

/// Runs a pipeline of passes, verifying after each.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> PassManager {
        PassManager { passes: Vec::new() }
    }

    /// Append a pass.
    #[allow(clippy::should_implement_trait)] // builder idiom, not arithmetic
    pub fn add(mut self, p: impl Pass + 'static) -> PassManager {
        self.passes.push(Box::new(p));
        self
    }

    /// Run all passes in order; returns `(pass name, stats)` per pass.
    /// Panics if any pass produces structurally invalid IR.
    pub fn run(&mut self, m: &mut Module) -> Vec<(String, PassStats)> {
        let mut out = Vec::with_capacity(self.passes.len());
        for p in &mut self.passes {
            let stats = p.run(m);
            assert_valid(m);
            out.push((p.name().to_string(), stats));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;
    use crate::inst::Inst;

    /// A toy pass that deletes every `Mov` and counts them.
    struct StripMovs;
    impl Pass for StripMovs {
        fn name(&self) -> &'static str {
            "strip-movs"
        }
        fn run(&mut self, m: &mut Module) -> PassStats {
            let mut stats = PassStats::default();
            for f in &mut m.funcs {
                for b in &mut f.blocks {
                    let before = b.insts.len();
                    b.insts.retain(|i| !matches!(i, Inst::Mov(_, _)));
                    stats.bump("movs_removed", (before - b.insts.len()) as u64);
                }
            }
            stats
        }
    }

    #[test]
    fn manager_runs_passes_and_collects_stats() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        let p = fb.param(0);
        let _a = fb.mov(p);
        let _b = fb.mov(p);
        fb.ret(None);
        m.add(fb.finish());

        let results = PassManager::new().add(StripMovs).run(&mut m);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, "strip-movs");
        assert_eq!(results[0].1.get("movs_removed"), 2);
        assert_eq!(m.inst_count(), 0);
    }
}
