//! Cross-crate integration: every interweaving example from the paper,
//! exercised through the facade crate on a common machine, with the
//! comparative claims asserted jointly.

use interweave::core::machine::MachineConfig;
use interweave::core::stack::StackConfig;
use interweave::core::Cycles;

/// The paper's thesis in one test: on every axis the workspace models, the
/// interwoven design beats the commodity layered design on its headline
/// metric.
#[test]
fn interweaving_wins_on_every_axis() {
    // §IV-B heartbeat: achieved rate fraction at ♥=20 µs.
    use interweave::core::stack::OsPoint;
    use interweave::heartbeat::sim::{run_heartbeat, HeartbeatConfig};
    let lx = run_heartbeat(&HeartbeatConfig::fig3(
        OsPoint::LinuxLike,
        20.0,
        Cycles(1000),
    ));
    let nk = run_heartbeat(&HeartbeatConfig::fig3(OsPoint::NkLike, 20.0, Cycles(1000)));
    assert!(nk.fraction_of_target() > lx.fraction_of_target());

    // §IV-C preemption granularity.
    use interweave::kernel::threads::{switch_cost, SwitchKind};
    let knl = MachineConfig::phi_knl();
    let thread = switch_cost(
        &knl,
        OsPoint::LinuxLike,
        SwitchKind::ThreadInterrupt,
        false,
        true,
    )
    .total();
    let fiber = switch_cost(
        &knl,
        OsPoint::NkLike,
        SwitchKind::FiberCompilerTimed,
        false,
        true,
    )
    .total();
    assert!(fiber < thread);

    // §IV-A translation overhead: optimized CARAT below paging.
    use interweave::carat::overhead::measure;
    use interweave::core::machine::CostModel;
    use interweave::core::stack::Translation;
    use interweave::ir::programs;
    let small_tlb = CostModel {
        tlb_entries: 64,
        ..CostModel::x64_default()
    };
    let carat = (Translation::Carat, &small_tlb);
    let row = measure(
        &programs::matvec(16),
        carat,
        (Translation::Paging, &small_tlb),
    );
    assert!(row.opt_cycles < row.paging_cycles);

    // §V-A OpenMP: RTK above Linux at scale.
    use interweave::omp::nas::bt;
    use interweave::omp::sim::run_omp;
    use interweave::omp::OmpMode;
    let lx_t = run_omp(&bt(), OmpMode::LinuxUser, 32, &knl, 1).total;
    let rtk_t = run_omp(&bt(), OmpMode::Rtk, 32, &knl, 1).total;
    assert!(rtk_t < lx_t);

    // §V-B coherence: selective beats full MESI.
    use interweave::coherence::experiment::run_one;
    use interweave::coherence::protocol::CohMode;
    use interweave::coherence::workloads::fig7_mixes;
    let mix = &fig7_mixes()[0];
    let (full, full_e) = run_one(mix, 8, CohMode::Full, 5);
    let (sel, sel_e) = run_one(mix, 8, CohMode::Selective, 5);
    assert!(sel < full);
    assert!(sel_e < full_e);

    // §IV-D isolation: virtine below process start-up.
    use interweave::virtines::wasp::{startup, LaunchPath};
    assert!(
        startup(LaunchPath::VirtineCold).total().get() < startup(LaunchPath::Process).total().get()
    );

    // §V-C blending: polled devices with zero interrupts.
    use interweave::blend::polling::{run_device_experiment, DeviceConfig, DriveMode};
    let mc = MachineConfig::xeon_server_2s();
    let r = run_device_experiment(
        &programs::stencil1d(64, 8),
        &DeviceConfig {
            mean_gap: 4_000,
            handler: 200,
            seed: 3,
        },
        &mc,
        DriveMode::BlendedPolling,
    );
    assert_eq!(r.interrupts, 0);
    assert!(r.serviced > 0);
}

/// The §V-D hardware extension helps every interrupt consumer at once: the
/// same `MachineConfig` flows into kernels, heartbeat, and switch costs.
#[test]
fn pipeline_interrupts_propagate_through_the_whole_stack() {
    use interweave::core::stack::OsPoint;
    use interweave::heartbeat::sim::{run_heartbeat, HeartbeatConfig};
    use interweave::kernel::os::{NkModel, OsModel};
    use interweave::kernel::threads::{switch_cost, SwitchKind};

    let idt = MachineConfig::xeon_server_2s();
    let pipe = MachineConfig::xeon_server_2s().with_pipeline_interrupts();

    // Kernel primitive.
    let nk_idt = NkModel::new(idt.clone());
    let nk_pipe = NkModel::new(pipe.clone());
    assert!(nk_pipe.event_deliver() < nk_idt.event_deliver());

    // Thread switches.
    let s_idt = switch_cost(
        &idt,
        OsPoint::NkLike,
        SwitchKind::ThreadInterrupt,
        false,
        false,
    )
    .total();
    let s_pipe = switch_cost(
        &pipe,
        OsPoint::NkLike,
        SwitchKind::ThreadInterrupt,
        false,
        false,
    )
    .total();
    assert!(s_pipe < s_idt);

    // Heartbeat overhead.
    let mut cfg = HeartbeatConfig::fig3(OsPoint::NkLike, 20.0, Cycles(1000));
    let h_idt = run_heartbeat(&cfg);
    cfg.machine = pipe;
    let h_pipe = run_heartbeat(&cfg);
    assert!(h_pipe.overhead_pct < h_idt.overhead_pct);
}

/// The stack-composition vocabulary stays consistent with what the crates
/// implement: each interwoven axis corresponds to a working subsystem.
#[test]
fn stack_config_axes_are_all_implemented() {
    let iw = StackConfig::interwoven();
    assert_eq!(iw.interweaving_degree(), 4);
    // One subsystem per axis has been exercised in the test above; here we
    // spot-check the remaining combination helpers.
    let nautilus = StackConfig::nautilus();
    assert!(nautilus.interweaving_degree() >= 2);
    assert_eq!(
        StackConfig::commodity().interweaving_degree(),
        0,
        "commodity must be the origin of the design space"
    );
}
