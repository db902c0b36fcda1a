//! §IV-D/§V-E: the isolation start-up table — process, container, full VM,
//! cold virtine, snapshotted virtine, bespoke context — plus an end-to-end
//! Fig.-5-style fib invocation through the Wasp pool.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, s};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_ir::programs;
use interweave_ir::types::Val;
use interweave_virtines::bespoke::synthesize;
use interweave_virtines::extract::extract_one;
use interweave_virtines::wasp::{startup, LaunchPath, Wasp};

pub(super) fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(
            "process",
            StackConfig::commodity(),
            MachineConfig::xeon_server_2s(),
        ),
        Scenario::new(
            "virtine",
            StackConfig::interwoven(),
            MachineConfig::xeon_server_2s(),
        ),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    // Fig. 5's fib as the virtine image.
    let fib = programs::fib(20);
    let image = extract_one(&fib.module, fib.entry);
    let spec = synthesize(&image.module);

    let paths = [
        LaunchPath::Process,
        LaunchPath::Container,
        LaunchPath::FullVm,
        LaunchPath::VirtineCold,
        LaunchPath::VirtineSnapshot,
        LaunchPath::Bespoke(spec),
    ];
    let mut rows = Vec::new();
    let mut headline = Vec::new();
    for p in paths {
        let b = startup(p);
        if matches!(p, LaunchPath::VirtineCold | LaunchPath::VirtineSnapshot) {
            headline.push(format!("{} {} µs", p.name(), f(b.total().get(), 1)));
        }
        rows.push(vec![
            s(p.name()),
            f(b.create_us, 1),
            f(b.image_us, 1),
            f(b.boot_us, 1),
            f(b.total().get(), 1),
        ]);
    }
    h.table(
        "TAB-VIRT — isolated-launch start-up latency (µs)",
        &["launch path", "create", "image", "boot", "TOTAL"],
        rows,
    );
    h.note("Paper (§IV-D): virtine start-up overheads \"as low as 100 µs\".");
    h.table(
        "Bespoke synthesis for the fib image (§V-E)",
        &["feature", "needed?"],
        vec![
            vec![s("FP unit"), s(spec.needs_fp)],
            vec![s("heap"), s(spec.needs_heap)],
            vec![s("I/O"), s(spec.needs_io)],
            vec![s("64-bit long mode"), s(spec.needs_long_mode)],
        ],
    );

    // End-to-end: invoke fib(20) repeatedly through the pool.
    let mc = sc[1].stack.machine().clone();
    let mut wasp = Wasp::new(image, mc.clone());
    h.table(
        "Wasp pool: virtine fib(20) invocations (first is cold)",
        &["invocation", "outcome", "cycles", "wall"],
        (1..=4).map(|i| {
            let (outcome, cycles) = wasp.invoke(&[Val::I(20)], u64::MAX / 4);
            vec![
                s(i),
                s(format!("{outcome:?}")),
                s(cycles.get()),
                s(mc.freq.us(cycles).to_string()),
            ]
        }),
    );
    h.note(format!(
        "pool stats: {} cold start(s), {} reuse(s)",
        wasp.stats.cold_starts, wasp.stats.reuses
    ));
    // Echo service under Poisson load: the operator's view.
    use interweave_virtines::echo::{run_echo, EchoConfig, ServeMode};
    let fib12 = programs::fib(12);
    let echo_img = extract_one(&fib12.module, fib12.entry);
    let cfg = EchoConfig::default();
    let modes = [
        ServeMode::ProcessPerRequest,
        ServeMode::VirtineCold,
        ServeMode::VirtinePooled,
    ];
    h.table(
        "Echo service, Poisson arrivals (mean gap 150 µs), single worker",
        &[
            "strategy",
            "served",
            "mean lat (µs)",
            "p99 (µs)",
            "cold starts",
        ],
        modes.map(|mode| {
            let r = run_echo(&echo_img, &mc, &cfg, mode);
            // A clamped p99 is only a lower bound (the rank overflowed the
            // sketch range) — print it as one, with the overflow share.
            let p99 = if r.p99_clamped {
                s(format!(
                    ">={} ({}% over range)",
                    f(r.p99_us, 1),
                    f(100.0 * r.tail_overflow, 1)
                ))
            } else {
                f(r.p99_us, 1)
            };
            vec![
                s(mode.name()),
                s(r.served),
                f(r.latency_us.mean(), 1),
                p99,
                s(r.cold_starts),
            ]
        }),
    );

    // The isolation spectrum end-to-end: for a *trusted* (attested)
    // function, PIK runs it as a kernel-mode process — admission is paid
    // once, invocation is a call. Virtines isolate *untrusted* functions
    // with a VM boundary per invocation. Same fib(18), both ways.
    use interweave_carat::pik::PikSystem;
    use interweave_ir::interp::ExecStatus;
    let fib18 = programs::fib(18);
    let mut sys = PikSystem::new();
    let (m, att) = sys.compile(fib18.module.clone());
    let pid = sys
        .admit(m, att, fib18.entry, fib18.args.clone())
        .expect("attested");
    let pik_cycles = match sys.processes[pid].run_slice(u64::MAX / 4) {
        ExecStatus::Done(_) => sys.processes[pid].interp.stats.cycles,
        other => panic!("pik run failed: {other:?}"),
    };
    let mut wasp2 = Wasp::new(extract_one(&fib18.module, fib18.entry), mc.clone());
    let (_, virt_cold) = wasp2.invoke(&[Val::I(18)], u64::MAX / 4);
    let (_, virt_warm) = wasp2.invoke(&[Val::I(18)], u64::MAX / 4);
    h.table(
        "Isolation spectrum: invoking attested vs untrusted fib(18)",
        &["mechanism", "trust basis", "cycles", "wall"],
        vec![
            vec![
                s("PIK process (guards, §IV-A)"),
                s("compiler attestation + coverage proof"),
                s(pik_cycles),
                s(mc.freq.us(interweave_core::Cycles(pik_cycles)).to_string()),
            ],
            vec![
                s("virtine, warm (§IV-D)"),
                s("hardware VM boundary"),
                s(virt_warm.get()),
                s(mc.freq.us(virt_warm).to_string()),
            ],
            vec![
                s("virtine, cold"),
                s("hardware VM boundary"),
                s(virt_cold.get()),
                s(mc.freq.us(virt_cold).to_string()),
            ],
        ],
    );
    h.note(
        "Interweaving's point: isolation strength becomes a per-function choice;\n\
attested code pays guard costs instead of VM transitions.",
    );

    Ok(h.finish(&sc[1], headline.join(", ")))
}
