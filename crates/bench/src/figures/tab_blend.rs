//! §V-C: blending — blended (polled) device drivers vs. interrupt-driven
//! handling, and the page- vs. object-granularity far-memory sweep.

use crate::harness::{Cli, Composed, Harness, Report, Scenario, ScenarioError};
use crate::{f, s, Cell};
use interweave_blend::farmem::{density_sweep, FarMemConfig};
use interweave_blend::polling::{run_device_experiment, DeviceConfig, DriveMode};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{StackConfig, TimingSource};
use interweave_ir::programs;

pub(super) fn scenarios() -> Vec<Scenario> {
    let xeon = MachineConfig::xeon_server_2s();
    // The two stacks differ only on the timing axis.
    let blended = StackConfig {
        timing: TimingSource::CompilerInjected,
        ..StackConfig::commodity()
    };
    vec![
        Scenario::new("interrupt-driven", StackConfig::commodity(), xeon.clone()),
        Scenario::new("blended", blended, xeon),
    ]
}

pub(super) fn run(cli: &Cli, sc: &[Composed]) -> Result<Report, ScenarioError> {
    let mut h = Harness::new(cli, sc);
    let mc = sc[1].stack.machine();
    let program = programs::stencil1d(128, 32);

    // Device latency/cost vs event rate. A stack on hardware timers takes
    // device interrupts; one whose compiler injects timing polls instead.
    let mut rows = Vec::new();
    let (mut polled, mut polled_interrupts) = (0, 0);
    for &gap in &[1_500u64, 4_000, 16_000] {
        for point in sc {
            let mode = match point.stack.config.timing {
                TimingSource::HardwareTimer => DriveMode::InterruptDriven,
                TimingSource::CompilerInjected => DriveMode::BlendedPolling,
            };
            let r = run_device_experiment(
                &program,
                &DeviceConfig {
                    mean_gap: gap,
                    handler: 250,
                    seed: 21,
                },
                point.stack.machine(),
                mode,
            );
            let per_event = r.device_cycles as f64 / r.serviced.max(1) as f64;
            if mode == DriveMode::BlendedPolling {
                polled += r.serviced;
                polled_interrupts += r.interrupts;
            }
            rows.push(vec![
                s(gap),
                s(format!("{mode:?}")),
                s(r.serviced),
                f(r.latency.mean(), 0),
                f(r.latency.max(), 0),
                f(per_event, 0),
                s(r.interrupts),
            ]);
        }
    }
    h.table(
        "TAB-BLEND — blended device drivers (stencil workload, handler 250 cyc)",
        &[
            "mean gap",
            "mode",
            "serviced",
            "mean lat (cyc)",
            "max lat",
            "dev cyc/event",
            "interrupts",
        ],
        rows,
    );
    h.note(
        "Paper: polled devices \"appear to behave as if they were interrupt-driven,\n\
         but no interrupts ever occur for them\".",
    );

    // Far-memory density sweep.
    let series = density_sweep(&FarMemConfig::default());
    h.table(
        "Far memory: page vs object granularity by hot-object density (per 4 KiB page)",
        &[
            "hot objs/page",
            "page bytes",
            "object bytes",
            "page stalls",
            "object stalls",
            "winner",
        ],
        series.iter().map(|(hot, page, obj)| {
            vec![
                s(*hot),
                s(page.bytes_moved),
                s(obj.bytes_moved),
                s(page.stall_cycles),
                s(obj.stall_cycles),
                s(if obj.stall_cycles < page.stall_cycles {
                    "object"
                } else {
                    "page"
                }),
            ]
        }),
    );
    // Block device: blended polling vs the commodity stack's own best
    // fix, interrupt coalescing.
    use interweave_blend::block::{run_block, BlockConfig, CompletionMode};
    let bcfg = BlockConfig::default();
    let modes = [
        (
            "interrupt/completion",
            CompletionMode::InterruptPerCompletion,
        ),
        (
            "coalesced (k=16, 30k cyc)",
            CompletionMode::Coalesced {
                k: 16,
                timeout: 30_000,
            },
        ),
        (
            "blended polling (gap 400)",
            CompletionMode::BlendedPolling { poll_gap: 400 },
        ),
    ];
    let rows: Vec<Vec<Cell>> = modes
        .iter()
        .map(|(name, mode)| {
            let r = run_block(&bcfg, mc, *mode);
            vec![
                s(*name),
                f(r.latency.mean(), 0),
                f(r.latency.max(), 0),
                s(r.interrupts),
                s(r.delivery_cycles),
            ]
        })
        .collect();
    h.table(
        "Block-device completions (2k requests): latency vs interrupt rate",
        &[
            "mode",
            "mean lat (cyc)",
            "max lat",
            "interrupts",
            "delivery cyc",
        ],
        rows,
    );

    let headline = format!("{polled} polled events, {polled_interrupts} interrupts");
    Ok(h.finish(&sc[1], headline))
}
