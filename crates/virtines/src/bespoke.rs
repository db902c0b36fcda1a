//! Bespoke execution contexts (§V-E): synthesized runtime environments.
//!
//! "Bespoke contexts eliminate unnecessary overheads and carry little
//! 'runtime baggage.' ... A piece of code which leverages only integer math
//! need not have the OS layer set up the floating point unit ... we may
//! even leave the machine in 16-bit mode as it boots up for certain simple
//! services. The key is that these contexts are constructed at compile
//! time." [`synthesize`] is that compile-time construction: static analysis
//! of the image decides exactly which features the context must set up.

use interweave_core::time::MicroSeconds;
use interweave_ir::inst::{Inst, Intrinsic};
use interweave_ir::Module;

/// What a context must provide, feature by feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BespokeSpec {
    /// FP/vector unit initialization (XCR0, MXCSR, lazy-save plumbing).
    pub needs_fp: bool,
    /// A heap allocator in the runtime shim.
    pub needs_heap: bool,
    /// Device/IO plumbing (ports, a virtio queue).
    pub needs_io: bool,
    /// 64-bit long mode (page tables, GDT); pure-integer, small-memory
    /// services can stay in 16/32-bit mode.
    pub needs_long_mode: bool,
}

impl BespokeSpec {
    /// The minimal context: integer math only.
    pub(crate) fn minimal() -> BespokeSpec {
        BespokeSpec {
            needs_fp: false,
            needs_heap: false,
            needs_io: false,
            needs_long_mode: false,
        }
    }

    /// Setup cost of this context in microseconds: a base (vCPU entry +
    /// stub runtime) plus each selected feature's cost. Calibrated so the
    /// full set lands near the classic minimal-unikernel boot and the
    /// minimal set is a few µs.
    pub(crate) fn setup_us(&self) -> MicroSeconds {
        let mut us = 3.0; // enter guest, zero state, call the function
        if self.needs_long_mode {
            us += 9.0; // page tables + GDT + mode switches
        }
        if self.needs_fp {
            us += 6.0; // xsave area + control registers
        }
        if self.needs_heap {
            us += 7.0; // allocator arena setup
        }
        if self.needs_io {
            us += 17.0; // virtio queue negotiation
        }
        MicroSeconds(us)
    }
}

/// Compile-time synthesis: inspect the image and require only what its
/// code can actually exercise.
pub fn synthesize(image: &Module) -> BespokeSpec {
    let mut spec = BespokeSpec::minimal();
    let mut mem_words = 0u64;
    for f in &image.funcs {
        if f.touches_fp() {
            spec.needs_fp = true;
        }
        for b in &f.blocks {
            for i in &b.insts {
                match i {
                    Inst::Alloc(_, _) => {
                        spec.needs_heap = true;
                        mem_words += 1;
                    }
                    Inst::Intr(_, Intrinsic::PollDevices, _) => spec.needs_io = true,
                    Inst::Load(_, _, _) | Inst::Store(_, _, _) => mem_words += 1,
                    _ => {}
                }
            }
        }
    }
    // Long mode is needed for a heap (arbitrary addresses) or any
    // non-trivial memory footprint; register-only integer code can stay in
    // real/protected mode.
    spec.needs_long_mode = spec.needs_heap || mem_words > 0;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_ir::programs;

    #[test]
    fn fib_needs_almost_nothing() {
        // Fig. 5's example: pure integer recursion.
        let p = programs::fib(10);
        let spec = synthesize(&p.module);
        assert_eq!(spec, BespokeSpec::minimal());
        assert!(spec.setup_us().get() < 5.0);
    }

    #[test]
    fn fp_kernels_require_the_fpu() {
        let p = programs::stream_triad(8);
        let spec = synthesize(&p.module);
        assert!(spec.needs_fp);
        assert!(spec.needs_heap);
        assert!(spec.needs_long_mode);
        assert!(!spec.needs_io);
    }

    #[test]
    fn integer_memory_code_skips_fp_but_needs_long_mode() {
        let p = programs::histogram(64, 8);
        let spec = synthesize(&p.module);
        assert!(!spec.needs_fp);
        assert!(spec.needs_heap);
        assert!(spec.needs_long_mode);
    }

    /// The everything-on context a general-purpose unikernel sets up
    /// regardless of need.
    fn full() -> BespokeSpec {
        BespokeSpec {
            needs_fp: true,
            needs_heap: true,
            needs_io: true,
            needs_long_mode: true,
        }
    }

    #[test]
    fn costs_are_monotone_in_features() {
        assert!(BespokeSpec::minimal().setup_us().get() < full().setup_us().get());
        let mut mid = BespokeSpec::minimal();
        mid.needs_fp = true;
        assert!(mid.setup_us().get() > BespokeSpec::minimal().setup_us().get());
        assert!(mid.setup_us().get() < full().setup_us().get());
    }

    #[test]
    fn synthesized_never_exceeds_full() {
        for p in programs::suite(1) {
            let spec = synthesize(&p.module);
            assert!(spec.setup_us().get() <= full().setup_us().get());
        }
    }
}
