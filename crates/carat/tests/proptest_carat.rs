//! Property tests for CARAT's central soundness claims:
//!
//! 1. instrumentation (naive or optimized) never changes a program's
//!    result, and leaves every access guard-covered, for randomized
//!    alloc/store/load/free programs;
//! 2. compaction at a random quiescent point never changes a program's
//!    result, however the heap got fragmented.

use interweave_carat::coverage::verify_coverage;
use interweave_carat::defrag::compact;
use interweave_carat::instrument;
use interweave_carat::runtime::CaratRuntime;
use interweave_ir::interp::{ExecStatus, Interp, InterpConfig, NullHooks};
use interweave_ir::types::{FuncId, Val};
use interweave_ir::{BinOp, FunctionBuilder, Intrinsic, Module};
use proptest::prelude::*;

/// A straight-line heap script: slots hold allocations; ops write/read
/// through them, store cross-pointers, and free/reallocate. The program
/// accumulates a checksum and returns it.
#[derive(Debug, Clone)]
enum HeapOp {
    /// Reallocate slot (frees existing first). The second field keeps the
    /// shrinker exploring allocation orderings.
    Alloc(usize, #[allow(dead_code)] u8),
    /// checksum += slot[word] (0 if slot empty).
    Read(usize, u8),
    /// slot[word] = value.
    Write(usize, u8, i16),
    /// slot_a[word] = &slot_b (a pointer escape).
    Link(usize, usize, u8),
    /// checksum += *(slot_a[word]) — read through a stored pointer if one
    /// was linked there (guarded by the generator's bookkeeping).
    Deref(usize, u8),
    /// Free the slot.
    Free(usize),
    /// A quiescent yield (defrag candidate point).
    Quiesce,
}

const SLOTS: usize = 4;
const WORDS: u64 = 6;

fn heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    prop::collection::vec(
        prop_oneof![
            ((0..SLOTS), any::<u8>()).prop_map(|(s, z)| HeapOp::Alloc(s, z)),
            ((0..SLOTS), 0u8..WORDS as u8).prop_map(|(s, w)| HeapOp::Read(s, w)),
            ((0..SLOTS), 0u8..WORDS as u8, any::<i16>())
                .prop_map(|(s, w, v)| HeapOp::Write(s, w, v)),
            ((0..SLOTS), (0..SLOTS), 0u8..WORDS as u8).prop_map(|(a, b, w)| HeapOp::Link(a, b, w)),
            ((0..SLOTS), 0u8..WORDS as u8).prop_map(|(s, w)| HeapOp::Deref(s, w)),
            (0..SLOTS).prop_map(HeapOp::Free),
            Just(HeapOp::Quiesce),
        ],
        1..60,
    )
}

/// Compile a heap script to IR. Tracks which slots are live and which
/// words hold pointers so the generated program never makes a wild access
/// (CARAT must be transparent on *correct* programs).
fn compile(ops: &[HeapOp]) -> Module {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("script", 0);
    let size = fb.const_i(WORDS as i64 * 8);
    let zero = fb.const_i(0);
    let checksum = fb.mov(zero);

    let mut slot_regs: Vec<Option<interweave_ir::Reg>> = vec![None; SLOTS];
    // links[a][w] = slot b whose pointer lives at a[w] (if b still live).
    let mut links: Vec<Vec<Option<usize>>> = vec![vec![None; WORDS as usize]; SLOTS];
    // holds_ptr[a][w]: the word contains a pointer *value* (even if its
    // target has died). Reads of such words are skipped: compaction — like
    // any moving collector — preserves dereferences, not raw addresses, so
    // a correct program must not fold addresses into its results.
    let mut holds_ptr: Vec<Vec<bool>> = vec![vec![false; WORDS as usize]; SLOTS];

    for op in ops {
        match *op {
            HeapOp::Alloc(s, _) => {
                if let Some(r) = slot_regs[s] {
                    fb.free(r);
                    // Links into this slot die, and so do links out of it.
                    links[s].iter_mut().for_each(|l| *l = None);
                    holds_ptr[s].iter_mut().for_each(|h| *h = false);
                    for row in links.iter_mut() {
                        for l in row.iter_mut() {
                            if *l == Some(s) {
                                *l = None;
                            }
                        }
                    }
                }
                let r = fb.alloc(size);
                slot_regs[s] = Some(r);
            }
            HeapOp::Read(s, w) => {
                let wi = w as usize % WORDS as usize;
                if slot_regs[s].is_some() && !holds_ptr[s][wi] {
                    let r = slot_regs[s].unwrap();
                    let v = fb.load(r, wi as i64 * 8);
                    fb.bin_to(checksum, BinOp::Add, checksum, v);
                }
            }
            HeapOp::Write(s, w, v) => {
                if let Some(r) = slot_regs[s] {
                    let wi = w as usize % WORDS as usize;
                    let val = fb.const_i(v as i64);
                    fb.store(r, wi as i64 * 8, val);
                    links[s][wi] = None; // overwrote any pointer
                    holds_ptr[s][wi] = false;
                }
            }
            HeapOp::Link(a, b, w) => {
                if let (Some(ra), Some(rb)) = (slot_regs[a], slot_regs[b]) {
                    let wi = w as usize % WORDS as usize;
                    fb.store(ra, wi as i64 * 8, rb);
                    links[a][wi] = Some(b);
                    holds_ptr[a][wi] = true;
                }
            }
            HeapOp::Deref(s, w) => {
                let w = w as usize % WORDS as usize;
                // Only deref when the *target's* word 0 holds a plain
                // value: reading a pointer-valued word into the checksum
                // would observe raw addresses (see holds_ptr above).
                let target_ok = links[s][w].map(|b| !holds_ptr[b][0]).unwrap_or(false);
                if slot_regs[s].is_some() && target_ok {
                    let r = slot_regs[s].unwrap();
                    let p = fb.load(r, w as i64 * 8);
                    let v = fb.load(p, 0);
                    fb.bin_to(checksum, BinOp::Add, checksum, v);
                }
            }
            HeapOp::Free(s) => {
                if let Some(r) = slot_regs[s] {
                    fb.free(r);
                    slot_regs[s] = None;
                    links[s].iter_mut().for_each(|l| *l = None);
                    for row in links.iter_mut() {
                        for l in row.iter_mut() {
                            if *l == Some(s) {
                                *l = None;
                            }
                        }
                    }
                }
            }
            HeapOp::Quiesce => fb.intr_void(Intrinsic::Yield, &[]),
        }
    }
    fb.ret(Some(checksum));
    m.add(fb.finish());
    m
}

fn run_plain(m: &Module) -> Option<Val> {
    let mut it = Interp::new(InterpConfig::default());
    it.start(m, FuncId(0), &[]);
    loop {
        match it.run(m, &mut NullHooks, u64::MAX / 4) {
            ExecStatus::Done(v) => return v,
            ExecStatus::Yielded => continue,
            other => panic!("baseline diverged: {other:?}"),
        }
    }
}

/// Naive and optimized instrumentation are both result-transparent, and
/// neither ever raises a false protection fault on a correct program.
fn check_instrumentation_is_transparent(ops: &[HeapOp]) -> Result<(), TestCaseError> {
    let m = compile(ops);
    interweave_ir::verify::assert_valid(&m);
    let expected = run_plain(&m);

    for optimize in [false, true] {
        let mut inst = m.clone();
        instrument(&mut inst, optimize);
        interweave_ir::verify::assert_valid(&inst);
        prop_assert_eq!(verify_coverage(&inst), vec![], "opt={}", optimize);
        let mut rt = CaratRuntime::new();
        let mut it = Interp::new(InterpConfig::default());
        it.start(&inst, FuncId(0), &[]);
        let got = loop {
            match it.run(&inst, &mut rt, u64::MAX / 4) {
                ExecStatus::Done(v) => break v,
                ExecStatus::Yielded => continue,
                other => panic!("instrumented(opt={optimize}) diverged: {other:?}"),
            }
        };
        prop_assert_eq!(got, expected, "opt={}", optimize);
        prop_assert_eq!(rt.stats.faults, 0);
    }
    Ok(())
}

/// Compacting at every quiescent point changes nothing about the final
/// result, and a second compaction finds no work.
fn check_defrag_is_transparent(ops: &[HeapOp]) -> Result<(), TestCaseError> {
    let m = compile(ops);
    let expected = run_plain(&m);

    let mut inst = m.clone();
    instrument(&mut inst, true);
    let mut rt = CaratRuntime::new();
    let mut it = Interp::new(InterpConfig::default());
    it.start(&inst, FuncId(0), &[]);
    let got = loop {
        match it.run(&inst, &mut rt, u64::MAX / 4) {
            ExecStatus::Done(v) => break v,
            ExecStatus::Yielded => {
                let first = compact(&mut it, &mut rt);
                let second = compact(&mut it, &mut rt);
                prop_assert_eq!(second.moves, 0, "compaction not idempotent after {first:?}");
            }
            other => panic!("diverged: {other:?}"),
        }
    };
    prop_assert_eq!(got, expected);
    prop_assert_eq!(rt.stats.faults, 0);
    Ok(())
}

// Two minimal counterexamples a shrinking proptest once recorded against
// this file, replayed under both properties.

#[test]
fn recorded_read_of_a_word_holding_a_pointer() -> Result<(), TestCaseError> {
    use HeapOp::*;
    let ops = [
        Alloc(1, 0),
        Alloc(0, 0),
        Alloc(3, 0),
        Free(1),
        Link(0, 3, 4),
        Read(0, 4),
        Quiesce,
    ];
    check_instrumentation_is_transparent(&ops)?;
    check_defrag_is_transparent(&ops)
}

#[test]
fn recorded_deref_of_a_self_link_after_a_quiescent_point() -> Result<(), TestCaseError> {
    use HeapOp::*;
    let ops = [
        Alloc(0, 0),
        Alloc(3, 0),
        Link(3, 3, 0),
        Free(0),
        Quiesce,
        Deref(3, 0),
    ];
    check_instrumentation_is_transparent(&ops)?;
    check_defrag_is_transparent(&ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn instrumentation_is_transparent(ops in heap_ops()) {
        check_instrumentation_is_transparent(&ops)?;
    }

    #[test]
    fn defrag_at_quiescent_points_is_transparent(ops in heap_ops()) {
        check_defrag_is_transparent(&ops)?;
    }
}
