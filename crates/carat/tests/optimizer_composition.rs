//! Instrumentation must survive a cleanup optimizer: constant folding and
//! DCE run *after* the CARAT pipeline may not delete guards, tracking, or
//! the flag constants they use — and the combined output must still pass the
//! static coverage proof, compute the right answers and catch protection bugs.

use interweave_carat::coverage::verify_coverage;
use interweave_carat::instrument;
use interweave_carat::runtime::CaratRuntime;
use interweave_ir::interp::{ExecStatus, Interp, InterpConfig, NullHooks, Trap};
use interweave_ir::opt::{ConstFold, Dce};
use interweave_ir::passes::PassManager;
use interweave_ir::programs;
use interweave_ir::types::Val;
use interweave_ir::verify::assert_valid;
use interweave_ir::{Inst, Intrinsic};

fn count_guards(m: &interweave_ir::Module) -> usize {
    m.funcs
        .iter()
        .map(|f| {
            f.count_insts(|i| {
                matches!(
                    i,
                    Inst::Intr(_, Intrinsic::CaratGuard | Intrinsic::CaratGuardRange, _)
                )
            })
        })
        .sum()
}

#[test]
fn optimizer_preserves_guards_and_results() {
    for prog in programs::suite(1) {
        let mut base = Interp::new(InterpConfig::default());
        base.start(&prog.module, prog.entry, &prog.args);
        let expected = base.run_to_completion(&prog.module, &mut NullHooks);

        let mut m = prog.module.clone();
        instrument(&mut m, true);
        let guards_before = count_guards(&m);
        PassManager::new().add(ConstFold).add(Dce).run(&mut m);
        assert_valid(&m);
        assert_eq!(
            count_guards(&m),
            guards_before,
            "{}: the optimizer deleted guards",
            prog.name
        );
        assert_eq!(verify_coverage(&m), vec![], "{}", prog.name);

        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, prog.entry, &prog.args);
        let got = it.run_to_completion(&m, &mut rt);
        assert_eq!(got, expected, "{}", prog.name);
        assert_eq!(rt.stats.faults, 0);
    }
}

#[test]
fn optimized_instrumented_code_still_faults_on_bugs() {
    use interweave_ir::{BinOp, FunctionBuilder, Module};
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("buggy", 1);
    let p = fb.param(0);
    let big = fb.const_i(1 << 41);
    let q = fb.bin(BinOp::Add, p, big);
    let _ = fb.load(q, 0);
    fb.ret(None);
    m.add(fb.finish());

    instrument(&mut m, true);
    PassManager::new().add(ConstFold).add(Dce).run(&mut m);
    assert_valid(&m);

    let mut rt = CaratRuntime::new();
    let mut it = Interp::new(InterpConfig::default());
    let a = it.mem.alloc(64).unwrap();
    {
        use interweave_ir::interp::RuntimeHooks;
        rt.on_alloc(a);
    }
    it.start(&m, interweave_ir::FuncId(0), &[Val::I(a.base as i64)]);
    match it.run(&m, &mut rt, u64::MAX / 4) {
        ExecStatus::Trapped(Trap::ProtectionFault { .. }) => {}
        other => panic!("expected a guard fault, got {other:?}"),
    }
    assert_eq!(it.stats.loads, 0);
}

#[test]
fn optimizer_shrinks_but_never_breaks_naive_instrumentation() {
    // Even the heaviest (unoptimized-guards) configuration composes with
    // the cleanup passes.
    let prog = programs::stencil1d(48, 4);
    let mut m = prog.module.clone();
    instrument(&mut m, false);
    let before = m.inst_count();
    PassManager::new().add(ConstFold).add(Dce).run(&mut m);
    assert!(m.inst_count() <= before);

    let mut rt = CaratRuntime::new();
    let mut it = Interp::new(InterpConfig::default());
    it.start(&m, prog.entry, &prog.args);
    let got = it.run_to_completion(&m, &mut rt);
    let mut base = Interp::new(InterpConfig::default());
    base.start(&prog.module, prog.entry, &prog.args);
    let expected = base.run_to_completion(&prog.module, &mut NullHooks);
    assert_eq!(got, expected);
}
