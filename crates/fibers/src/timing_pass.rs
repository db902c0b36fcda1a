//! The timing-injection pass: compiler-based timing's one placement
//! mechanism.
//!
//! §IV-C: "the compiler transform needs to introduce timing calls
//! statically, so that they occur dynamically at some desired rate
//! regardless of the code path taken through the kernel+application
//! ensemble as it runs. Modern compiler analysis makes this possible."
//! §V-C's blended drivers reuse it unchanged: "the compiler injects this
//! polling check throughout the kernel using compiler-based timing". The
//! pass therefore takes the intrinsic it places — `TimeCheck` for fibers,
//! `PollDevices` for blending — and nothing else.
//!
//! Placement policy (the standard result from the SC'20 system):
//! - at the top of every natural-loop *header* — every iteration of every
//!   loop passes a check;
//! - at every function entry — call chains (including recursion) cannot
//!   escape checking;
//! - inside any straight-line run longer than `MAX_RUN` (48) instructions —
//!   long blocks cannot stretch the gap unboundedly.
//!
//! With this policy the dynamic gap between two consecutive checks is
//! bounded by the cost of the longest check-free path: at most `MAX_RUN`
//! instructions plus one block's worth of non-loop straight-line code. The
//! `placement_bound_holds_across_the_suite` test measures actual gaps over
//! the benchmark suite, for both intrinsics, to validate the bound.

use interweave_ir::analysis::{Cfg, Dominators, LoopForest};
use interweave_ir::inst::{Inst, Intrinsic};
use interweave_ir::passes::{Pass, PassStats};
use interweave_ir::Module;

/// Maximum instructions in a straight-line run before an extra check is
/// inserted.
pub(crate) const MAX_RUN: usize = 48;

/// The injection pass, placing the intrinsic it holds.
#[derive(Debug, Clone, Copy)]
pub struct InjectTiming(pub Intrinsic);

impl Pass for InjectTiming {
    fn name(&self) -> &'static str {
        "inject-timing"
    }

    fn run(&mut self, m: &mut Module) -> PassStats {
        let check = self.0;
        let mut stats = PassStats::default();
        for f in &mut m.funcs {
            let cfg = Cfg::build(f);
            let dom = Dominators::compute(&cfg);
            let loops = LoopForest::find(&cfg, &dom);
            let mut check_blocks: Vec<usize> = vec![0]; // function entry
            for l in &loops.loops {
                check_blocks.push(l.header.index());
            }
            check_blocks.sort_unstable();
            check_blocks.dedup();

            for (bi, b) in f.blocks.iter_mut().enumerate() {
                let mut out = Vec::with_capacity(b.insts.len() + 2);
                if check_blocks.contains(&bi) {
                    out.push(Inst::Intr(None, check, vec![]));
                    stats.bump("checks_inserted", 1);
                }
                let mut run = 0usize;
                for inst in b.insts.drain(..) {
                    // A call transfers to a function whose entry checks, so
                    // it resets the straight-line run; so does a check of
                    // this pass's own kind, but not another pass's.
                    let resets = match &inst {
                        Inst::Call(_, _, _) => true,
                        Inst::Intr(_, w, _) => *w == check,
                        _ => false,
                    };
                    out.push(inst);
                    run = if resets { 0 } else { run + 1 };
                    if run >= MAX_RUN {
                        out.push(Inst::Intr(None, check, vec![]));
                        stats.bump("checks_inserted", 1);
                        run = 0;
                    }
                }
                b.insts = out;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interweave_ir::interp::{HookAction, Interp, InterpConfig, Memory, RuntimeHooks};
    use interweave_ir::programs;
    use interweave_ir::types::Val;
    use interweave_ir::verify::assert_valid;

    /// The intrinsics the pass places: fibers' time checks and blended
    /// drivers' device polls.
    const BOTH: [Intrinsic; 2] = [Intrinsic::TimeCheck, Intrinsic::PollDevices];

    /// Hooks that record the cycle gap between consecutive checks of one
    /// intrinsic.
    struct GapRecorder {
        check: Intrinsic,
        last: Option<u64>,
        max_gap: u64,
        checks: u64,
    }

    impl GapRecorder {
        fn new(check: Intrinsic) -> GapRecorder {
            GapRecorder {
                check,
                last: None,
                max_gap: 0,
                checks: 0,
            }
        }
    }

    impl RuntimeHooks for GapRecorder {
        fn intrinsic(
            &mut self,
            which: Intrinsic,
            _args: &[Val],
            _mem: &mut Memory,
            now: u64,
        ) -> HookAction {
            if which == self.check {
                if let Some(l) = self.last {
                    self.max_gap = self.max_gap.max(now - l);
                }
                self.last = Some(now);
                self.checks += 1;
            }
            HookAction::Continue {
                value: None,
                cycles: if which == self.check { 2 } else { 0 },
            }
        }
    }

    #[test]
    fn inserts_checks_at_entries_and_loop_headers() {
        let p = programs::stream_triad(16);
        let mut m = p.module.clone();
        let stats = InjectTiming(Intrinsic::TimeCheck).run(&mut m);
        assert_valid(&m);
        // Entry + 3 loop headers at minimum.
        assert!(stats.get("checks_inserted") >= 4);
    }

    #[test]
    fn placement_bound_holds_across_the_suite() {
        // §IV-C's key property: checks execute at a bounded dynamic
        // interval on every path — and §V-C's polls, placed by the same
        // pass, inherit it. With MAX_RUN=48 and instruction costs of 1–3
        // cycles (+30 for allocs), a gap beyond ~400 cycles would mean a
        // check-free path escaped the policy.
        for check in BOTH {
            for prog in programs::suite(1) {
                let mut m = prog.module.clone();
                InjectTiming(check).run(&mut m);
                assert_valid(&m);
                let mut rec = GapRecorder::new(check);
                let mut it = Interp::new(InterpConfig::default());
                it.start(&m, prog.entry, &prog.args);
                it.run_to_completion(&m, &mut rec);
                assert!(
                    rec.checks > 0,
                    "{check:?} {}: no checks executed",
                    prog.name
                );
                assert!(
                    rec.max_gap <= 400,
                    "{check:?} {}: max check gap {} cycles",
                    prog.name,
                    rec.max_gap
                );
            }
        }
    }

    #[test]
    fn recursion_is_checked_via_function_entries() {
        let prog = programs::fib(14);
        let mut m = prog.module.clone();
        InjectTiming(Intrinsic::TimeCheck).run(&mut m);
        let mut rec = GapRecorder::new(Intrinsic::TimeCheck);
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, prog.entry, &prog.args);
        it.run_to_completion(&m, &mut rec);
        // fib(14) makes ~1200 calls; every call checks.
        assert!(rec.checks > 1000);
        assert!(rec.max_gap <= 100, "max gap {}", rec.max_gap);
    }

    /// One function of one block: a constant, then 200 dependent adds.
    fn straight_line() -> Module {
        use interweave_ir::{BinOp, FunctionBuilder};
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("straight", 1);
        let mut v = fb.param(0);
        let one = fb.const_i(1);
        for _ in 0..200 {
            v = fb.bin(BinOp::Add, v, one);
        }
        fb.ret(Some(v));
        m.add(fb.finish());
        m
    }

    #[test]
    fn long_straight_line_blocks_get_mid_block_checks() {
        let m = straight_line();
        let inserted = BOTH.map(|check| {
            InjectTiming(check)
                .run(&mut m.clone())
                .get("checks_inserted")
        });
        // Entry check + 4 mid-block checks: 201 instructions, one check
        // after every 48.
        assert_eq!(inserted, [5, 5], "per intrinsic: {BOTH:?}");
    }

    #[test]
    fn stacked_passes_reset_only_on_their_own_checks() {
        // Polls placed over time checks: to the poll pass a time check is
        // one more instruction, so polls stay exactly MAX_RUN instructions
        // apart.
        let mut m = straight_line();
        InjectTiming(Intrinsic::TimeCheck).run(&mut m);
        InjectTiming(Intrinsic::PollDevices).run(&mut m);
        let polls: Vec<usize> = (m.funcs[0].blocks[0].insts.iter().enumerate())
            .filter(|(_, i)| matches!(i, Inst::Intr(_, Intrinsic::PollDevices, _)))
            .map(|(at, _)| at)
            .collect();
        assert_eq!(polls.len(), 5, "{polls:?}");
        assert!(
            polls.windows(2).all(|w| w[1] - w[0] == MAX_RUN + 1),
            "{polls:?}"
        );
    }

    #[test]
    fn transformation_preserves_results() {
        use interweave_ir::interp::NullHooks;
        for prog in programs::suite(1) {
            let mut base = Interp::new(InterpConfig::default());
            base.start(&prog.module, prog.entry, &prog.args);
            let expected = base.run_to_completion(&prog.module, &mut NullHooks);

            let mut m = prog.module.clone();
            InjectTiming(Intrinsic::TimeCheck).run(&mut m);
            let mut it = Interp::new(InterpConfig::default());
            it.start(&m, prog.entry, &prog.args);
            let got = it.run_to_completion(&m, &mut GapRecorder::new(Intrinsic::TimeCheck));
            assert_eq!(got, expected, "{}", prog.name);
        }
    }
}
