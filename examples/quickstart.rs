//! Quickstart: a tour of the Interweave laboratory.
//!
//! Builds the stack compositions the paper contrasts (commodity layered
//! vs. interwoven, plus the Aster-like framekernel mid-point of the OS
//! axis), then demonstrates one win from each layer: CARAT protection
//! without paging, compiler-timed preemption without interrupts, and
//! heartbeat delivery without signals — swept across all three kernels.
//!
//! Run with: `cargo run --example quickstart`

use interweave::carat;
use interweave::compose::compose;
use interweave::core::machine::MachineConfig;
use interweave::core::stack::{OsPoint, StackConfig, Translation};
use interweave::core::Cycles;
use interweave::fibers::study::floor_cycles;
use interweave::heartbeat::sim::{run_heartbeat, HeartbeatConfig};
use interweave::ir::interp::{Interp, InterpConfig};
use interweave::ir::programs;
use interweave::kernel::threads::SwitchKind;

fn main() {
    // 1. The design space: the paper's interweaving axes as data, and
    // `compose`, which turns a point in that space into a composed stack.
    let commodity = StackConfig::commodity();
    let interwoven = StackConfig::interwoven();
    println!("commodity stack:  {commodity}");
    println!("interwoven stack: {interwoven}");
    println!(
        "interweaving degree: {} -> {}",
        commodity.interweaving_degree(),
        interwoven.interweaving_degree()
    );
    let machine = MachineConfig::xeon_server_2s();
    let stack =
        compose(interwoven, machine.clone()).expect("the interwoven preset is a coherent stack");
    println!(
        "composed: os={}, translation={:?}, delivery={:?}",
        stack.os.name(),
        stack.config.translation,
        stack.machine().delivery
    );
    // The OS axis has a mid-point: the Aster-like framekernel composes
    // like any other stack point.
    let fk = compose(StackConfig::framekernel(), machine.clone())
        .expect("the framekernel preset is a coherent stack");
    println!("framekernel:      os={}", fk.os.name());
    // Incoherent combinations come back as typed errors, not panics:
    // CARAT's guards need the NK kernel side, so it can't ride on signals.
    let bad = StackConfig {
        translation: Translation::Carat,
        ..StackConfig::commodity()
    };
    match compose(bad, machine.clone()) {
        Err(e) => println!("rejected [{}]: {e}", e.rule()),
        Ok(_) => unreachable!("carat-on-commodity must not compose"),
    }
    // The framekernel premise is enforced in the same way: Aster's
    // isolation lives in checked in-kernel types, so raw identity mapping
    // is incoherent with it.
    let bad_fk = StackConfig {
        translation: Translation::Identity,
        ..StackConfig::framekernel()
    };
    match compose(bad_fk, machine) {
        Err(e) => println!("rejected [{}]: {e}\n", e.rule()),
        Ok(_) => unreachable!("aster-without-paging must not compose"),
    }

    // 2. CARAT (§IV-A): protection by compiler + runtime, no paging.
    let prog = programs::stream_triad(128);
    let mut guarded = prog.module.clone();
    let pass_stats = carat::instrument(&mut guarded, true);
    println!("CARAT pipeline on `{}`:", prog.name);
    for (pass, stats) in &pass_stats {
        println!("  {pass}: {:?}", stats.counters);
    }
    let mut rt = carat::CaratRuntime::new();
    let mut it = Interp::new(InterpConfig::default());
    it.start(&guarded, prog.entry, &prog.args);
    let result = it.run_to_completion(&guarded, &mut rt);
    println!(
        "  guarded run: result {result:?}, {} object guards + {} range guards executed, 0 faults\n",
        rt.stats.guards, rt.stats.range_guards
    );

    // 3. Compiler-based timing (§IV-C): fine-grain preemption without
    // interrupts.
    let knl = MachineConfig::phi_knl();
    let hw = floor_cycles(&knl, SwitchKind::ThreadInterrupt, OsPoint::LinuxLike, true);
    let ct = floor_cycles(&knl, SwitchKind::FiberCompilerTimed, OsPoint::NkLike, false);
    println!("preemption granularity floor on {}:", knl.name);
    println!("  Linux threads (FP):        {hw} cycles");
    println!(
        "  compiler-timed fibers:     {ct} cycles  ({:.1}x finer)\n",
        hw as f64 / ct as f64
    );

    // 4. Heartbeat delivery (§IV-B): the whole OS axis at heartbeat =
    // 20 µs — per-CPU signals on Linux, kernel-owned broadcast on the
    // framekernel and Nautilus.
    for os in OsPoint::ALL {
        let r = run_heartbeat(&HeartbeatConfig::fig3(os, 20.0, Cycles(1000)));
        println!(
            "heartbeat 20 µs via {:>8}: {:5.1}% of target rate, CV {:.3}, overhead {:.2}%",
            os.name(),
            100.0 * r.fraction_of_target(),
            r.interbeat_cv,
            r.overhead_pct
        );
    }
    println!(
        "\nNext: `cargo run -p interweave-bench --bin fig3_heartbeat` (and fig4/fig6/fig7/tab_*)"
    );
}
