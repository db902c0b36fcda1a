//! Microbenchmarks for the simulation-kernel fast paths, on the current
//! engines:
//!
//! - event queue: point cancellation through tombstoned handles and plain
//!   schedule/pop churn (10k-event workloads), and the executor's
//!   cancellable dispatch churn (24 pending events);
//! - coherence: the protocol engine under a shared read/write mix;
//! - sweep dispatch: `parallel_map` fan-out over a simulator-shaped
//!   workload on the bounded worker pool;
//! - interpreter core: load/store-heavy loop, alloc/free churn and
//!   call-heavy fib on the page-backed interpreter;
//! - telemetry: the executor with the plane off, at counters and at full
//!   spans, plus streaming-sink ingest (sketch and windowed roll-ups);
//! - OS models: the §III primitive suite on each point of the OS axis.
//!
//! The before/after ratios against the seed implementations these paths
//! replaced are recorded in EXPERIMENTS.md, with the commit they were
//! measured on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use interweave_core::{Cycles, EventHandle, EventQueue, SplitMix64};

// ---------------------------------------------------------------------------
// Event queue.

/// 10k pending events, of which every tenth is retracted *individually* —
/// the executor's pattern (a timer is cancelled when its task unblocks
/// early, one at a time, identified by which event it is).
const QUEUE_EVENTS: u64 = 10_000;

fn queue_cancel_tombstone(c: &mut Criterion) {
    c.bench_function("queue_cancel/tombstone_handles_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut handles: Vec<EventHandle> = Vec::with_capacity(QUEUE_EVENTS as usize);
            for i in 0..QUEUE_EVENTS {
                handles.push(q.schedule_cancellable(Cycles(1 + i % 977), i));
            }
            for doomed in (0..QUEUE_EVENTS).step_by(10) {
                black_box(q.cancel(handles[doomed as usize]));
            }
            let mut sum = 0u64;
            while let Some((_, p)) = q.pop() {
                sum = sum.wrapping_add(p);
            }
            black_box(sum)
        })
    });
}

fn queue_schedule_pop(c: &mut Criterion) {
    // The no-cancellation path: schedule/pop churn must not regress from
    // the tombstone machinery.
    c.bench_function("queue_churn/schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut sum = 0u64;
            for i in 0..QUEUE_EVENTS {
                q.schedule_in(Cycles(1 + i % 977), i);
                if i % 2 == 1 {
                    if let Some((_, p)) = q.pop() {
                        sum = sum.wrapping_add(p);
                    }
                }
            }
            while let Some((_, p)) = q.pop() {
                sum = sum.wrapping_add(p);
            }
            black_box(sum)
        })
    });
}

/// The executor's dispatch pattern on the 24-CPU server: one pending
/// cancellable dispatch per CPU, and each pop reschedules its CPU.
fn queue_cancellable_dispatch(c: &mut Criterion) {
    const CPUS: u64 = 24;
    const POPS: u64 = 10_000;
    c.bench_function("queue_churn/cancellable_dispatch_24", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut pending: Vec<EventHandle> = (0..CPUS)
                .map(|cpu| q.schedule_cancellable(Cycles(1 + cpu), cpu))
                .collect();
            for i in 0..POPS {
                let (t, cpu) = q.pop().expect("every CPU keeps a dispatch pending");
                let at = t + Cycles(1 + (i * 7_919) % 5_000);
                pending[cpu as usize] = q.schedule_cancellable(at, cpu);
            }
            black_box(&pending);
            black_box(q.now())
        })
    });
}

// ---------------------------------------------------------------------------
// Coherence protocol.

fn coherence_end_to_end(c: &mut Criterion) {
    use interweave_coherence::protocol::{CohMode, System, SystemConfig};
    // The protocol engine under a shared read/write mix.
    c.bench_function("line_table/protocol_shared_mix", |b| {
        b.iter(|| {
            let mut s = System::new(SystemConfig::test(8, CohMode::Full));
            s.reserve_lines(4096);
            let mut rng = SplitMix64::new(11);
            let mut cycles = 0u64;
            for _ in 0..20_000 {
                let core = rng.below(8) as usize;
                let line = rng.below(4096);
                if rng.chance(0.3) {
                    cycles += s.write(core, line);
                } else {
                    cycles += s.read(core, line);
                }
            }
            black_box(cycles)
        })
    });
}

// ---------------------------------------------------------------------------
// Sweep dispatch: the bounded worker pool.

fn sweep_dispatch(c: &mut Criterion) {
    c.bench_function("sweep/parallel_map_200pt", |b| {
        b.iter(|| {
            // A 200-point sweep of small deterministic simulations: enough
            // work per point that dispatch overhead is visible but not
            // dominant, like the figure binaries' sweeps.
            let points: Vec<u64> = (0..200).collect();
            let out = interweave_bench::parallel_map(points, |p| {
                let mut rng = SplitMix64::new(p);
                let mut acc = 0u64;
                for _ in 0..5_000 {
                    acc = acc.wrapping_add(rng.next_u64());
                }
                acc
            });
            black_box(out)
        })
    });
}

// ---------------------------------------------------------------------------
// Interpreter core: three workloads built once through `FunctionBuilder`.

/// Load/store workload geometry: `LS_ARRAYS` live allocations (as CARAT's
/// overhead suite keeps many objects live) of `LS_WORDS` words each, written
/// then summed, `LS_PASSES` times. Words are laid out at consecutive byte
/// addresses — each address is an independent word cell — the densest
/// legal layout.
const LS_ARRAYS: i64 = 8;
const LS_WORDS: i64 = 32_768;
const LS_PASSES: i64 = 2;
const CHURN_ITERS: i64 = 2_000;
const FIB_N: i64 = 16;

/// Write `LS_WORDS` words in each of `LS_ARRAYS` arrays, then sum them
/// back, `LS_PASSES` times.
fn loadstore_real() -> (interweave_ir::Module, interweave_ir::FuncId) {
    use interweave_ir::{BinOp, CmpOp, FunctionBuilder, Module};
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("loadstore", 0);
    let n = fb.const_i(LS_WORDS);
    let nar = fb.const_i(LS_ARRAYS);
    let passes = fb.const_i(LS_PASSES);
    let zero = fb.const_i(0);
    let one = fb.const_i(1);
    let four = fb.const_i(4);
    let dsize = fb.const_i(LS_ARRAYS * 8);
    let asize = fb.const_i(LS_WORDS);
    let dir = fb.alloc(dsize);
    let sum = fb.mov(zero);
    let p = fb.mov(zero);
    let a = fb.mov(zero);
    let i = fb.mov(zero);
    let arr = fb.mov(zero);
    let (sh, sb, oh) = (fb.new_block(), fb.new_block(), fb.new_block());
    let (awpre, awh, awb, wh, wb, awnext) = (
        fb.new_block(),
        fb.new_block(),
        fb.new_block(),
        fb.new_block(),
        fb.new_block(),
        fb.new_block(),
    );
    let (arpre, arh, arb, rh, rb, arnext) = (
        fb.new_block(),
        fb.new_block(),
        fb.new_block(),
        fb.new_block(),
        fb.new_block(),
        fb.new_block(),
    );
    let (onext, exit) = (fb.new_block(), fb.new_block());
    // Setup: allocate the arrays, parking each pointer in the directory.
    fb.br(sh);
    fb.switch_to(sh);
    let sc = fb.cmp(CmpOp::Lt, a, nar);
    fb.cond_br(sc, sb, oh);
    fb.switch_to(sb);
    let fresh = fb.alloc(asize);
    let slot = fb.gep(dir, a, 8, 0);
    fb.store(slot, 0, fresh);
    fb.bin_to(a, BinOp::Add, a, one);
    fb.br(sh);
    // Pass loop.
    fb.switch_to(oh);
    let oc = fb.cmp(CmpOp::Lt, p, passes);
    fb.cond_br(oc, awpre, exit);
    // Write every word of every array.
    fb.switch_to(awpre);
    fb.mov_to(a, zero);
    fb.br(awh);
    fb.switch_to(awh);
    let awc = fb.cmp(CmpOp::Lt, a, nar);
    fb.cond_br(awc, awb, arpre);
    fb.switch_to(awb);
    let slot_w = fb.gep(dir, a, 8, 0);
    let arr_w = fb.load(slot_w, 0);
    fb.mov_to(arr, arr_w);
    fb.mov_to(i, zero);
    fb.br(wh);
    fb.switch_to(wh);
    let wc = fb.cmp(CmpOp::Lt, i, n);
    fb.cond_br(wc, wb, awnext);
    fb.switch_to(wb);
    // Four consecutive words per iteration through one gep (static store
    // offsets), so memory operations dominate dispatch — as in CARAT's
    // overhead loops, where the guards sit on dense array traffic.
    let addr = fb.gep(arr, i, 1, 0);
    fb.store(addr, 0, i);
    fb.store(addr, 1, i);
    fb.store(addr, 2, i);
    fb.store(addr, 3, i);
    fb.bin_to(i, BinOp::Add, i, four);
    fb.br(wh);
    fb.switch_to(awnext);
    fb.bin_to(a, BinOp::Add, a, one);
    fb.br(awh);
    // Read every word of every array back, summing.
    fb.switch_to(arpre);
    fb.mov_to(a, zero);
    fb.br(arh);
    fb.switch_to(arh);
    let arc = fb.cmp(CmpOp::Lt, a, nar);
    fb.cond_br(arc, arb, onext);
    fb.switch_to(arb);
    let slot_r = fb.gep(dir, a, 8, 0);
    let arr_r = fb.load(slot_r, 0);
    fb.mov_to(arr, arr_r);
    fb.mov_to(i, zero);
    fb.br(rh);
    fb.switch_to(rh);
    let rc = fb.cmp(CmpOp::Lt, i, n);
    fb.cond_br(rc, rb, arnext);
    fb.switch_to(rb);
    let addr2 = fb.gep(arr, i, 1, 0);
    let v0 = fb.load(addr2, 0);
    let v1 = fb.load(addr2, 1);
    let v2 = fb.load(addr2, 2);
    let v3 = fb.load(addr2, 3);
    fb.bin_to(sum, BinOp::Add, sum, v0);
    fb.bin_to(sum, BinOp::Add, sum, v1);
    fb.bin_to(sum, BinOp::Add, sum, v2);
    fb.bin_to(sum, BinOp::Add, sum, v3);
    fb.bin_to(i, BinOp::Add, i, four);
    fb.br(rh);
    fb.switch_to(arnext);
    fb.bin_to(a, BinOp::Add, a, one);
    fb.br(arh);
    fb.switch_to(onext);
    fb.bin_to(p, BinOp::Add, p, one);
    fb.br(oh);
    fb.switch_to(exit);
    fb.ret(Some(sum));
    let entry = m.add(fb.finish());
    (m, entry)
}

/// Alloc → store → load → free churn.
fn allocchurn_real() -> (interweave_ir::Module, interweave_ir::FuncId) {
    use interweave_ir::{BinOp, CmpOp, FunctionBuilder, Module};
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("allocchurn", 0);
    let iters = fb.const_i(CHURN_ITERS);
    let zero = fb.const_i(0);
    let one = fb.const_i(1);
    let sz = fb.const_i(256);
    let k = fb.mov(zero);
    let (h, b, exit) = (fb.new_block(), fb.new_block(), fb.new_block());
    fb.br(h);
    fb.switch_to(h);
    let c = fb.cmp(CmpOp::Lt, k, iters);
    fb.cond_br(c, b, exit);
    fb.switch_to(b);
    let p = fb.alloc(sz);
    fb.store(p, 0, k);
    let _v = fb.load(p, 0);
    fb.free(p);
    fb.bin_to(k, BinOp::Add, k, one);
    fb.br(h);
    fb.switch_to(exit);
    fb.ret(Some(k));
    let entry = m.add(fb.finish());
    (m, entry)
}

/// Naive recursive fib (call-heavy, no memory traffic).
fn fib_real() -> (interweave_ir::Module, interweave_ir::FuncId) {
    use interweave_ir::{BinOp, CmpOp, FunctionBuilder, Module};
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("fib", 1);
    let n = fb.param(0);
    let two = fb.const_i(2);
    let c = fb.cmp(CmpOp::Lt, n, two);
    let (base, rec) = (fb.new_block(), fb.new_block());
    fb.cond_br(c, base, rec);
    fb.switch_to(base);
    fb.ret(Some(n));
    fb.switch_to(rec);
    let one = fb.const_i(1);
    let n1 = fb.bin(BinOp::Sub, n, one);
    let n2 = fb.bin(BinOp::Sub, n, two);
    let f = interweave_ir::FuncId(0);
    let a = fb.call(f, &[n1]);
    let b = fb.call(f, &[n2]);
    let s = fb.bin(BinOp::Add, a, b);
    fb.ret(Some(s));
    let entry = m.add(fb.finish());
    (m, entry)
}

fn run_real(
    m: &interweave_ir::Module,
    entry: interweave_ir::FuncId,
    args: &[interweave_ir::types::Val],
) -> Option<interweave_ir::types::Val> {
    use interweave_ir::interp::{Interp, InterpConfig, NullHooks};
    let mut it = Interp::new(InterpConfig::default());
    it.start(m, entry, args);
    it.run_to_completion(m, &mut NullHooks)
}

fn interp_loadstore(c: &mut Criterion) {
    use interweave_ir::types::Val;
    // Sanity: the sum accumulated over passes and arrays. Position p holds
    // the value `4 * (p / 4)` (each unrolled iteration stores its index
    // into four consecutive words), so one array sums to
    // `8 * m * (m - 1)` with `m = LS_WORDS / 4`.
    let m_words = LS_WORDS / 4;
    let expect = Some(Val::I(LS_PASSES * LS_ARRAYS * 8 * m_words * (m_words - 1)));
    let (m, entry) = loadstore_real();
    assert_eq!(run_real(&m, entry, &[]), expect);

    c.bench_function("interp_loadstore/page_backed", |b| {
        b.iter(|| black_box(run_real(&m, entry, &[])))
    });
}

fn interp_allocchurn(c: &mut Criterion) {
    use interweave_ir::types::Val;
    let (m, entry) = allocchurn_real();
    assert_eq!(run_real(&m, entry, &[]), Some(Val::I(CHURN_ITERS)));

    c.bench_function("interp_allocchurn/page_backed", |b| {
        b.iter(|| black_box(run_real(&m, entry, &[])))
    });
}

fn interp_fib(c: &mut Criterion) {
    use interweave_ir::types::Val;
    let (m, entry) = fib_real();
    assert_eq!(run_real(&m, entry, &[Val::I(FIB_N)]), Some(Val::I(987)));

    c.bench_function("interp_fib/ref_dispatch", |b| {
        b.iter(|| black_box(run_real(&m, entry, &[Val::I(FIB_N)])))
    });
}

// ---------------------------------------------------------------------------
// Telemetry overhead: the same executor workload with the plane off, at
// counters-only, and at full span tracing. "Zero-cost when disabled" is a
// measured claim — publishing through an off sink is one branch — and the
// enabled tiers quantify what an instrumented run pays.

fn telemetry_overhead(c: &mut Criterion) {
    use interweave_core::machine::MachineConfig;
    use interweave_core::telemetry::{Level, Sink};
    use interweave_core::{FaultConfig, FaultPlan};
    use interweave_kernel::work::LoopWork;
    use interweave_kernel::Executor;

    // A preemption-heavy workload under fault pressure, so every publish
    // site (dispatch, switch, watchdog, fault plan) is on the hot path.
    let run = |sink: Sink| {
        let mc = MachineConfig::test(4);
        let mut e = Executor::new(mc, Cycles(5_000));
        e.set_telemetry(sink);
        e.set_fault_plan(FaultPlan::new(FaultConfig {
            drop_ipi: 0.2,
            delay_ipi: 0.1,
            ..FaultConfig::quiet(0x7E1E)
        }));
        e.enable_watchdog(Cycles(2_500));
        for cpu in 0..4 {
            for _ in 0..4 {
                e.spawn(cpu, Box::new(LoopWork::new(40, Cycles(900))));
            }
        }
        assert!(e.run());
        e.stats.makespan
    };
    c.bench_function("telemetry/off", |b| b.iter(|| black_box(run(Sink::off()))));
    c.bench_function("telemetry/counters", |b| {
        b.iter(|| black_box(run(Sink::on(Level::Counters))))
    });
    c.bench_function("telemetry/full_spans", |b| {
        b.iter(|| black_box(run(Sink::on(Level::Full))))
    });

    // Streaming sinks: raw ingest cost of the bounded sketch, and of
    // windowed roll-ups on top of it. The "off" arm (plain loop over the
    // same values) shows the plane costs nothing when nothing records.
    {
        use interweave_core::stats::Sketch;
        use interweave_core::telemetry::TimeSeries;
        let vals: Vec<f64> = (0..4096u64)
            .map(|i| 1.0 + ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64))
            .collect();
        c.bench_function("streaming/off", |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for &v in &vals {
                    acc += black_box(v);
                }
                black_box(acc)
            })
        });
        c.bench_function("streaming/sketch", |b| {
            b.iter(|| {
                let mut s = Sketch::for_latency_us();
                for &v in &vals {
                    s.add(v);
                }
                black_box(s.count())
            })
        });
        c.bench_function("streaming/timeseries_windowed", |b| {
            b.iter(|| {
                let mut ts = TimeSeries::new(Cycles(10_000));
                for (i, &v) in vals.iter().enumerate() {
                    let at = Cycles(i as u64 * 97);
                    ts.add(at, "completed", 1);
                    ts.observe(at, "latency_us", v);
                }
                black_box(ts.len())
            })
        });
    }
}

// ---------------------------------------------------------------------------
// OS-axis model evaluation: the cost of materializing each OS model and
// probing the full §III primitive suite through the `OsModel` vtable. The
// figure binaries do this inside sweeps (once per scenario per point), so
// the three arms bound what the axis refactor added to the hot path; they
// also keep the three models honest relative to each other — all arms run
// the identical probe set, so a cost-table edit that accidentally changes
// the *shape* of a model (e.g. making a probe non-constant) shows up here.

fn os_models(c: &mut Criterion) {
    use interweave_core::machine::MachineConfig;
    use interweave_core::stack::OsPoint;
    use interweave_kernel::microbench::primitive_table;
    use interweave_kernel::os::model_for;

    for os in OsPoint::ALL {
        c.bench_function(&format!("os_models/{}_primitives", os.name()), |b| {
            b.iter(|| {
                let m = model_for(black_box(os), MachineConfig::xeon_server_2s());
                let rows = primitive_table(&[(os.name(), m.as_ref())]);
                black_box(rows.iter().map(|r| r.costs[0].get()).sum::<u64>())
            })
        });
    }
}

criterion_group!(
    benches,
    queue_cancel_tombstone,
    queue_schedule_pop,
    queue_cancellable_dispatch,
    coherence_end_to_end,
    sweep_dispatch,
    interp_loadstore,
    interp_allocchurn,
    interp_fib,
    telemetry_overhead,
    os_models,
);
criterion_main!(benches);
