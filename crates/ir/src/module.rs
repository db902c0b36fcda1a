//! Modules: collections of functions plus entry-point metadata.

use crate::func::Function;
use crate::types::FuncId;

/// A compilation unit. CARAT's PIK mode (§IV-A) treats a module as the unit
/// of separate compilation and attestation; the virtine pass treats each
/// `is_virtine` function as an isolation boundary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Functions; `FuncId(i)` indexes this vector.
    pub funcs: Vec<Function>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Add a function, returning its id.
    pub fn add(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Look up a function by name.
    pub fn by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Borrow a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Total instruction count across functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }

    /// Ids of functions marked `virtine`.
    pub fn virtine_funcs(&self) -> Vec<FuncId> {
        self.funcs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_virtine)
            .map(|(i, _)| FuncId(i as u32))
            .collect()
    }

    /// A stable content hash of the module (used by PIK attestation, §IV-A:
    /// a transformed module is "cryptographically attested" before being
    /// admitted to the kernel; we model the attestation token as a hash).
    pub fn content_hash(&self) -> u64 {
        // FNV-1a over the debug rendering: stable, dependency-free, and
        // sensitive to any instruction change, which is all attestation
        // needs in this model.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for f in &self.funcs {
            for byte in format!("{f}").bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;
    use crate::inst::BinOp;

    fn simple(name: &str, virtine: bool) -> Function {
        let mut fb = FunctionBuilder::new(name, 1);
        if virtine {
            fb.virtine();
        }
        let p = fb.param(0);
        let one = fb.const_i(1);
        let r = fb.bin(BinOp::Add, p, one);
        fb.ret(Some(r));
        fb.finish()
    }

    #[test]
    fn add_and_lookup() {
        let mut m = Module::new();
        let a = m.add(simple("a", false));
        let b = m.add(simple("b", true));
        assert_eq!(m.by_name("a"), Some(a));
        assert_eq!(m.by_name("b"), Some(b));
        assert_eq!(m.by_name("c"), None);
        assert_eq!(m.virtine_funcs(), vec![b]);
    }

    #[test]
    fn content_hash_changes_with_code() {
        let mut m1 = Module::new();
        m1.add(simple("a", false));
        let mut m2 = Module::new();
        m2.add(simple("a", false));
        assert_eq!(m1.content_hash(), m2.content_hash());

        // Different code → different hash.
        let mut fb = FunctionBuilder::new("a", 1);
        let p = fb.param(0);
        let two = fb.const_i(2);
        let r = fb.bin(BinOp::Mul, p, two);
        fb.ret(Some(r));
        let mut m3 = Module::new();
        m3.add(fb.finish());
        assert_ne!(m1.content_hash(), m3.content_hash());
    }
}
