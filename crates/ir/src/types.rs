//! Core identifier and value types of the IR.

use std::fmt;

/// A virtual register. Registers are function-local mutable slots (the IR is
/// a register machine, not strict SSA — CARAT's dataflow analyses track
/// redefinitions explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic-block identifier, local to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into a function's block vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A function identifier, local to a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index into a module's function vector.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@f{}", self.0)
    }
}

/// A runtime value. Pointers are plain integers — the whole point of CARAT
/// (§IV-A) is that all code runs on *physical* addresses, so a pointer has
/// no hardware-enforced provenance; protection comes from compiler-inserted
/// guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// 64-bit integer (also used for pointers and booleans 0/1).
    I(i64),
    /// 64-bit float.
    F(f64),
}

impl Val {
    /// Integer value; panics on a float (an IR type error caught in debug).
    #[inline]
    pub fn as_i(self) -> i64 {
        match self {
            Val::I(v) => v,
            Val::F(v) => panic!("expected integer value, found float {v}"),
        }
    }

    /// Float value; integers are converted (supports mixed arithmetic in
    /// generated kernels).
    #[inline]
    pub(crate) fn as_f(self) -> f64 {
        match self {
            Val::F(v) => v,
            Val::I(v) => v as f64,
        }
    }

    /// Pointer (unsigned address) view of an integer value.
    #[inline]
    pub fn as_ptr(self) -> u64 {
        self.as_i() as u64
    }

    /// Truthiness for conditional branches: nonzero integers are true.
    #[inline]
    pub(crate) fn is_true(self) -> bool {
        match self {
            Val::I(v) => v != 0,
            Val::F(v) => v != 0.0,
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::I(v) => write!(f, "{v}"),
            Val::F(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Val {
    fn from(v: i64) -> Val {
        Val::I(v)
    }
}

impl From<f64> for Val {
    fn from(v: f64) -> Val {
        Val::F(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn val_conversions() {
        assert_eq!(Val::I(7).as_i(), 7);
        assert_eq!(Val::I(7).as_f(), 7.0);
        assert_eq!(Val::F(2.5).as_f(), 2.5);
        assert_eq!(Val::I(-1).as_ptr(), u64::MAX);
    }

    #[test]
    fn truthiness() {
        assert!(Val::I(1).is_true());
        assert!(!Val::I(0).is_true());
        assert!(Val::F(0.1).is_true());
        assert!(!Val::F(0.0).is_true());
    }

    #[test]
    #[should_panic(expected = "expected integer")]
    fn float_as_int_panics() {
        let _ = Val::F(1.0).as_i();
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(3).to_string(), "%3");
        assert_eq!(BlockId(2).to_string(), "bb2");
        assert_eq!(FuncId(1).to_string(), "@f1");
    }
}
