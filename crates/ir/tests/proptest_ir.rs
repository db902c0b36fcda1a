//! Property tests for the IR: interpreter arithmetic against a reference
//! evaluator, the memory model against a reference map, allocation
//! movement preserving contents and pointers, and fuel-sliced execution
//! matching an uninterrupted run.

use interweave_ir::interp::{ExecStatus, Interp, InterpConfig, Memory, NullHooks};
use interweave_ir::programs::{self, Program};
use interweave_ir::types::{FuncId, Val};
use interweave_ir::{BinOp, FunctionBuilder, Module};
use proptest::prelude::*;

/// A random arithmetic expression tree.
#[derive(Debug, Clone)]
enum Expr {
    X,
    Y,
    Const(i32),
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::X),
        Just(Expr::Y),
        (-100i32..100).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        (
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::And),
                Just(BinOp::Or),
                Just(BinOp::Xor),
            ],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b)))
    })
}

fn eval_ref(e: &Expr, x: i64, y: i64) -> i64 {
    match e {
        Expr::X => x,
        Expr::Y => y,
        Expr::Const(c) => *c as i64,
        Expr::Bin(op, a, b) => {
            let (va, vb) = (eval_ref(a, x, y), eval_ref(b, x, y));
            match op {
                BinOp::Add => va.wrapping_add(vb),
                BinOp::Sub => va.wrapping_sub(vb),
                BinOp::Mul => va.wrapping_mul(vb),
                BinOp::And => va & vb,
                BinOp::Or => va | vb,
                BinOp::Xor => va ^ vb,
                _ => unreachable!("not generated"),
            }
        }
    }
}

fn compile(e: &Expr, fb: &mut FunctionBuilder) -> interweave_ir::Reg {
    match e {
        Expr::X => fb.param(0),
        Expr::Y => fb.param(1),
        Expr::Const(c) => fb.const_i(*c as i64),
        Expr::Bin(op, a, b) => {
            let ra = compile(a, fb);
            let rb = compile(b, fb);
            fb.bin(*op, ra, rb)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compiled expressions evaluate exactly like the reference evaluator.
    #[test]
    fn interpreter_matches_reference(e in expr(), x in -1000i64..1000, y in -1000i64..1000) {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("e", 2);
        let r = compile(&e, &mut fb);
        fb.ret(Some(r));
        m.add(fb.finish());
        interweave_ir::verify::assert_valid(&m);

        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[Val::I(x), Val::I(y)]);
        let got = it.run_to_completion(&m, &mut NullHooks);
        prop_assert_eq!(got, Some(Val::I(eval_ref(&e, x, y))));
    }

    /// The memory model behaves like a map: stores are read back exactly,
    /// within live allocations, and frees make addresses invalid.
    #[test]
    fn memory_matches_reference_map(
        writes in prop::collection::vec((0usize..4, 0u64..8, -1000i64..1000), 1..100)
    ) {
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let allocs: Vec<_> = (0..4).map(|_| mem.alloc(64).unwrap()).collect();
        let mut reference = std::collections::HashMap::new();
        for (ai, slot, v) in writes {
            let addr = allocs[ai].base + slot * 8;
            mem.store(addr, Val::I(v), None).unwrap();
            reference.insert(addr, v);
        }
        for (addr, v) in &reference {
            let (got, _) = mem.load(*addr).unwrap();
            prop_assert_eq!(got, Val::I(*v));
        }
        // Untouched words read as zero.
        let (zero, _) = mem.load(allocs[0].base + 8 * 7).unwrap_or((Val::I(0), None));
        let _ = zero;
        // Free the first allocation: all its words become invalid.
        mem.free(allocs[0].base).unwrap();
        prop_assert!(mem.load(allocs[0].base).is_err());
    }

    /// Moving an allocation preserves every word and patches every stored
    /// pointer, for arbitrary contents.
    #[test]
    fn move_allocation_is_transparent(
        values in prop::collection::vec(-1000i64..1000, 1..8),
        ptr_slots in prop::collection::vec(0u64..8, 0..4)
    ) {
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let target = mem.alloc(64).unwrap();
        let holder = mem.alloc(64).unwrap();
        for (i, &v) in values.iter().enumerate() {
            mem.store(target.base + i as u64 * 8, Val::I(v), None).unwrap();
        }
        // Store pointers to target at chosen holder slots.
        for (i, &slot) in ptr_slots.iter().enumerate() {
            let offset = (i as u64 % 8) * 8;
            mem.store(
                holder.base + slot * 8,
                Val::I((target.base + offset) as i64),
                Some(target.id),
            )
            .unwrap();
        }
        let (old, new) = mem.move_allocation(target.id).unwrap();
        prop_assert_ne!(old, new);
        // Contents preserved at the new home.
        for (i, &v) in values.iter().enumerate() {
            let (got, _) = mem.load(new + i as u64 * 8).unwrap();
            prop_assert_eq!(got, Val::I(v));
        }
        // Every stored pointer now points into the new home.
        for &slot in &ptr_slots {
            let (p, prov) = mem.load(holder.base + slot * 8).unwrap();
            let pv = p.as_ptr();
            prop_assert!(pv >= new && pv < new + target.size, "unpatched pointer {pv:#x}");
            prop_assert_eq!(prov, Some(target.id));
        }
    }
}

/// The kernels perfbench's `interp` workload runs, at small sizes.
fn small_kernel(which: usize, n: i64) -> Program {
    match which {
        0 => programs::stream_triad(n),
        1 => programs::dot(n),
        2 => programs::matvec(n),
        3 => programs::transpose(n),
        4 => programs::fib(n),
        5 => programs::nqueens(4 + n % 3),
        _ => programs::bfs(n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A run cut into random fuel slices ends exactly like one
    /// uninterrupted run: same value and the same statistics, so every
    /// out-of-fuel return resumes at the instruction it stopped before.
    #[test]
    fn fuel_sliced_run_equals_uninterrupted_run(
        which in 0usize..7,
        n in 2i64..12,
        slices in prop::collection::vec(1u64..=64, 1..16),
    ) {
        let p = small_kernel(which, n);
        let mut whole = Interp::new(InterpConfig::default());
        whole.start(&p.module, p.entry, &p.args);
        let want = whole.run_to_completion(&p.module, &mut NullHooks);

        let mut sliced = Interp::new(InterpConfig::default());
        sliced.start(&p.module, p.entry, &p.args);
        let mut fuel = slices.iter().cycle();
        let got = loop {
            match sliced.run(&p.module, &mut NullHooks, *fuel.next().expect("cycled")) {
                ExecStatus::Done(v) => break v,
                ExecStatus::OutOfFuel => {}
                other => panic!("{}: unexpected {other:?}", p.name),
            }
        };
        prop_assert_eq!(got, want, "{}({})", &p.name, n);
        prop_assert_eq!(&sliced.stats, &whole.stats, "{}({})", &p.name, n);
    }
}
