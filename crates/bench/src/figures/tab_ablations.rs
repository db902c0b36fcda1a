//! Design-choice ablations across the workspace:
//!
//! 1. **MSI vs MESI vs selective** — MESI's E state is itself a private-
//!    data optimization; selective deactivation subsumes it.
//! 2. **Disaggregation sweep** — §V-B: "the benefits grow with scale and
//!    disaggregation": stretch cross-domain links and watch selective's
//!    advantage widen.
//! 3. **RISC-V/OpenPiton vs x64** (§V-F) — re-run the Fig. 4 cost
//!    decomposition on open hardware, where trap entry is lean and there is
//!    no mitigation tax: the *relative* interweaving wins shift.
//! 4. **CARAT guard-cost sensitivity** — how the <6 % geomean depends on
//!    the per-guard cost the runtime achieves.

use crate::harness::{Cli, Harness, Report, Scenario};
use crate::{f, pct, s, Cell};
use interweave_coherence::experiment::run_one_on_mesh;
use interweave_coherence::protocol::{CohMode, ProtocolKind, System, SystemConfig};
use interweave_coherence::workloads::fig7_mixes;
use interweave_core::machine::MachineConfig;
use interweave_core::par::{host_threads, parallel_map};
use interweave_core::stack::StackConfig;

fn msi_vs_mesi() -> Vec<Vec<Cell>> {
    // Private read-then-write traffic on one core.
    let run = |protocol, mode| {
        let mut sys = System::new(SystemConfig {
            cores: 8,
            l1_lines: 256,
            mode,
            protocol,
            lat: Default::default(),
        });
        if mode == CohMode::Selective {
            sys.classify(0..512, interweave_coherence::Class::Private(0));
        }
        let mut cycles = 0u64;
        for _ in 0..3 {
            for l in 0..512u64 {
                cycles += sys.read(0, l);
                cycles += sys.write(0, l);
            }
        }
        (cycles, sys.stats.dir_lookups)
    };
    let (msi, msi_dir) = run(ProtocolKind::Msi, CohMode::Full);
    let (mesi, mesi_dir) = run(ProtocolKind::Mesi, CohMode::Full);
    let (sel, sel_dir) = run(ProtocolKind::Mesi, CohMode::Selective);
    let vs_msi = |cycles: u64| Cell::float(msi as f64 / cycles as f64, 2, "x");
    vec![
        vec![s("MSI"), s(msi), s(msi_dir), vs_msi(msi)],
        vec![s("MESI (E state)"), s(mesi), s(mesi_dir), vs_msi(mesi)],
        vec![
            s("MESI + selective deactivation"),
            s(sel),
            s(sel_dir),
            vs_msi(sel),
        ],
    ]
}

fn disaggregation_sweep() -> Vec<Vec<Cell>> {
    let mut mix = fig7_mixes()[0].clone();
    mix.accesses_per_round /= 2;
    let penalties: Vec<u32> = vec![0, 8, 16, 32, 64];
    parallel_map(penalties, host_threads(), |pen| {
        let disagg = if pen == 0 { None } else { Some((8usize, pen)) };
        let (full, full_e) = run_one_on_mesh(&mix, 16, CohMode::Full, 11, disagg);
        let (sel, sel_e) = run_one_on_mesh(&mix, 16, CohMode::Selective, 11, disagg);
        vec![
            s(pen),
            f(full as f64 / sel as f64, 3),
            pct(100.0 * (1.0 - sel_e / full_e), 1),
        ]
    })
}

fn riscv_vs_x64_fig4() -> Vec<Vec<Cell>> {
    use interweave_core::stack::OsPoint;
    use interweave_kernel::threads::{switch_cost, SwitchKind};
    let machines = [MachineConfig::phi_knl(), MachineConfig::riscv_openpiton()];
    machines
        .iter()
        .map(|mc| {
            let cost = |os, kind| switch_cost(mc, os, kind, false, true).total();
            let thread = cost(OsPoint::LinuxLike, SwitchKind::ThreadInterrupt);
            let nk = cost(OsPoint::NkLike, SwitchKind::ThreadInterrupt);
            let fiber = cost(OsPoint::NkLike, SwitchKind::FiberCompilerTimed);
            vec![
                s(&mc.name),
                s(thread.get()),
                s(nk.get()),
                s(fiber.get()),
                Cell::float(thread.as_f64() / fiber.as_f64(), 1, "x"),
            ]
        })
        .collect()
}

fn guard_cost_sensitivity() -> Vec<Vec<Cell>> {
    use interweave_carat::instrument;
    use interweave_carat::overhead::geomean_overheads;
    use interweave_carat::runtime::{CaratRuntime, GuardCosts};
    use interweave_ir::interp::{Interp, InterpConfig, NullHooks};
    use interweave_ir::programs;

    let guard_costs: Vec<u64> = vec![1, 3, 6, 12];
    parallel_map(guard_costs, host_threads(), |g| {
        let rows: Vec<interweave_carat::overhead::OverheadRow> = programs::suite(3)
            .iter()
            .map(|p| {
                let mut base_it = Interp::new(InterpConfig::default());
                base_it.start(&p.module, p.entry, &p.args);
                base_it.run_to_completion(&p.module, &mut NullHooks);
                let base = base_it.stats.cycles;

                let measure = |optimize: bool| {
                    let mut m = p.module.clone();
                    instrument(&mut m, optimize);
                    let mut rt = CaratRuntime::new();
                    rt.costs = GuardCosts {
                        guard: g,
                        guard_range: g + 2,
                        ..GuardCosts::default()
                    };
                    let mut it = Interp::new(InterpConfig::default());
                    it.start(&m, p.entry, &p.args);
                    it.run_to_completion(&m, &mut rt);
                    it.stats.cycles
                };
                interweave_carat::overhead::OverheadRow {
                    name: p.name.clone(),
                    base_cycles: base,
                    naive_cycles: measure(false),
                    opt_cycles: measure(true),
                    paging_cycles: base,
                    static_guards_naive: 0,
                    static_guards_opt: 0,
                    dyn_guards_naive: 0,
                    dyn_guards_opt: 0,
                }
            })
            .collect();
        let (naive, opt) = geomean_overheads(&rows);
        vec![s(g), pct(naive, 2), pct(opt, 2)]
    })
}

pub(super) fn run(cli: &Cli) -> Report {
    let xeon = MachineConfig::xeon_server_2s();
    let riscv = MachineConfig::riscv_openpiton();
    let scenarios = vec![
        Scenario::new("full-mesi", StackConfig::commodity(), xeon.clone()),
        Scenario::new("selective", StackConfig::interwoven(), xeon.clone()),
        Scenario::new("riscv-linux", StackConfig::commodity(), riscv.clone()),
        Scenario::new("riscv-nautilus", StackConfig::nautilus(), riscv),
        Scenario::new("carat", StackConfig::pik(), xeon),
    ];
    let mut h = Harness::new(cli, scenarios);
    h.table(
        "Ablation 1 — protocol family on private read→write traffic (8 cores)",
        &["protocol", "cycles", "directory lookups", "vs MSI"],
        msi_vs_mesi(),
    );
    let disagg = disaggregation_sweep();
    let (flat, far) = (&disagg[0], &disagg[disagg.len() - 1]);
    let headline = format!(
        "selective speedup {}x on a flat mesh → {}x at {}-hop links",
        flat[1], far[1], far[0]
    );
    h.table(
        "Ablation 2 — disaggregation (extra cross-domain hops, 16 cores, samplesort)",
        &[
            "cross-domain penalty (hops)",
            "selective speedup",
            "NoC energy cut",
        ],
        disagg,
    );
    h.table(
        "Ablation 3 — Fig. 4 on open hardware (§V-F): switch costs (FP, cycles)",
        &[
            "machine",
            "Linux thread",
            "NK thread",
            "comp-timed fiber",
            "end-to-end gain",
        ],
        riscv_vs_x64_fig4(),
    );
    h.note(
        "Open hardware starts closer to the interwoven ideal (lean traps, no\n\
         mitigations), so the same software design wins by a smaller factor —\n\
         the kind of co-design insight §V-F expects the port to expose.",
    );
    h.table(
        "Ablation 4 — CARAT sensitivity to per-guard cost (geomean overheads)",
        &["guard cost (cycles)", "naive", "optimized"],
        guard_cost_sensitivity(),
    );
    h.note(
        "Optimization flattens the slope ~4x: hoisting removed the guards that\n\
         multiply the per-guard cost. The residual sensitivity is the pointer-\n\
         chase outlier, whose data-dependent guards cannot hoist.",
    );
    h.finish("selective", headline)
}
