//! Integration: the interweaving passes compose on one module.
//!
//! Figure 1's compile-time story is a *single* toolchain applying multiple
//! interweaving transformations to the same code. This test stacks CARAT
//! instrumentation, timing injection, and device-poll injection on one
//! program, runs it under hooks that implement all three runtimes at once,
//! and checks that (a) the program's result is unchanged, (b) every
//! mechanism actually fired, and (c) every access is still proven guarded.

use interweave::carat::coverage::verify_coverage;
use interweave::carat::runtime::CaratRuntime;
use interweave::fibers::timing_pass::InjectTiming;
use interweave::ir::interp::{
    ExecStatus, HookAction, Interp, InterpConfig, Memory, NullHooks, RuntimeHooks, Trap,
};
use interweave::ir::passes::Pass;
use interweave::ir::programs;
use interweave::ir::types::Val;
use interweave::ir::verify::assert_valid;
use interweave::ir::Intrinsic;

/// A combined runtime: CARAT for guards/tracking, a quantum clock for time
/// checks, an event counter for polls.
struct CombinedRuntime {
    carat: CaratRuntime,
    quantum: u64,
    last_yield: u64,
    time_checks: u64,
    yields: u64,
    polls: u64,
}

impl RuntimeHooks for CombinedRuntime {
    fn intrinsic(
        &mut self,
        which: Intrinsic,
        args: &[Val],
        mem: &mut Memory,
        now: u64,
    ) -> HookAction {
        match which {
            Intrinsic::TimeCheck => {
                self.time_checks += 1;
                if now.saturating_sub(self.last_yield) >= self.quantum {
                    self.last_yield = now;
                    self.yields += 1;
                    HookAction::Yield { cycles: 2 }
                } else {
                    HookAction::Continue {
                        value: None,
                        cycles: 2,
                    }
                }
            }
            Intrinsic::PollDevices => {
                self.polls += 1;
                HookAction::Continue {
                    value: None,
                    cycles: 3,
                }
            }
            other => self.carat.intrinsic(other, args, mem, now),
        }
    }

    fn check_access(&mut self, addr: u64, now: u64) -> Result<u64, Trap> {
        self.carat.check_access(addr, now)
    }

    fn on_alloc(&mut self, a: interweave::ir::interp::Allocation) {
        self.carat.on_alloc(a);
    }

    fn on_free(&mut self, a: interweave::ir::interp::Allocation) {
        self.carat.on_free(a);
    }
}

#[test]
fn three_interweaving_passes_compose_on_one_module() {
    for prog in programs::suite(1) {
        // Reference result.
        let mut base = Interp::new(InterpConfig::default());
        base.start(&prog.module, prog.entry, &prog.args);
        let expected = base.run_to_completion(&prog.module, &mut NullHooks);

        // Stack all three instrumentations.
        let mut m = prog.module.clone();
        interweave::carat::instrument(&mut m, true);
        InjectTiming(Intrinsic::TimeCheck).run(&mut m);
        InjectTiming(Intrinsic::PollDevices).run(&mut m);
        assert_valid(&m);
        assert_eq!(verify_coverage(&m), vec![], "{}", prog.name);

        let mut rt = CombinedRuntime {
            carat: CaratRuntime::new(),
            quantum: 4_000,
            last_yield: 0,
            time_checks: 0,
            yields: 0,
            polls: 0,
        };
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, prog.entry, &prog.args);
        let result;
        loop {
            match it.run(&m, &mut rt, u64::MAX / 4) {
                ExecStatus::Done(v) => {
                    result = v;
                    break;
                }
                ExecStatus::Yielded => continue, // a fiber switch point
                other => panic!("{}: unexpected {other:?}", prog.name),
            }
        }
        assert_eq!(result, expected, "{}: result changed", prog.name);
        assert!(rt.time_checks > 0, "{}: no time checks ran", prog.name);
        assert!(rt.polls > 0, "{}: no polls ran", prog.name);
        // Memory-free kernels (fib, nqueens) legitimately have no guards.
        if !["fib", "nqueens"].contains(&prog.name.as_str()) {
            assert!(
                rt.carat.stats.guards + rt.carat.stats.range_guards > 0,
                "{}: no guards ran",
                prog.name
            );
        }
        assert_eq!(rt.carat.stats.faults, 0, "{}", prog.name);
    }
}

#[test]
fn combined_instrumentation_still_catches_protection_bugs() {
    // A buggy program under the full pipeline: the CARAT guard must fault
    // before the wild access, with the other instrumentation present.
    use interweave::ir::{BinOp, FunctionBuilder, Module};
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("buggy", 1);
    let p = fb.param(0);
    let big = fb.const_i(1 << 40);
    let q = fb.bin(BinOp::Add, p, big); // out-of-bounds pointer arithmetic
    let _v = fb.load(q, 0);
    fb.ret(None);
    m.add(fb.finish());
    interweave::carat::instrument(&mut m, true);
    InjectTiming(Intrinsic::TimeCheck).run(&mut m);
    assert_valid(&m);

    let mut rt = CombinedRuntime {
        carat: CaratRuntime::new(),
        quantum: 1_000_000,
        last_yield: 0,
        time_checks: 0,
        yields: 0,
        polls: 0,
    };
    let mut it = Interp::new(InterpConfig::default());
    let alloc = it.mem.alloc(64).unwrap();
    rt.carat.on_alloc(alloc);
    it.start(&m, interweave::ir::FuncId(0), &[Val::I(alloc.base as i64)]);
    match it.run(&m, &mut rt, u64::MAX / 4) {
        ExecStatus::Trapped(Trap::ProtectionFault { .. }) => {}
        other => panic!("expected a guard fault, got {other:?}"),
    }
    assert_eq!(it.stats.loads, 0, "the access must not have executed");
}
