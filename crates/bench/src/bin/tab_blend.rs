//! §V-C: blending — blended (polled) device drivers vs. interrupt-driven
//! handling, and the page- vs. object-granularity far-memory sweep.

use interweave_bench::harness::{Harness, Scenario};
use interweave_bench::{f, print_table, s};
use interweave_blend::farmem::{density_sweep, FarMemConfig};
use interweave_blend::polling::{run_device_experiment, DeviceConfig, DriveMode};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_ir::programs;
use serde::Serialize;

#[derive(Serialize)]
struct JsonDevice {
    mean_gap: u64,
    mode: String,
    mean_latency: f64,
    device_cycles_per_event: f64,
    interrupts: u64,
}

fn main() {
    let h = Harness::new(vec![
        Scenario::new(
            "interrupt-driven",
            StackConfig::commodity(),
            MachineConfig::xeon_server_2s(),
        ),
        Scenario::new(
            "blended",
            StackConfig::interwoven(),
            MachineConfig::xeon_server_2s(),
        ),
    ]);
    let mc = h.scenario("blended").machine.clone();
    let program = programs::stencil1d(128, 32);
    let mut json = Vec::new();

    // Device latency/cost vs event rate.
    let mut rows = Vec::new();
    for &gap in &[1_500u64, 4_000, 16_000] {
        for mode in [DriveMode::InterruptDriven, DriveMode::BlendedPolling] {
            let r = run_device_experiment(
                &program,
                &DeviceConfig {
                    mean_gap: gap,
                    handler: 250,
                    seed: 21,
                },
                &mc,
                mode,
            );
            let per_event = r.device_cycles as f64 / r.serviced.max(1) as f64;
            rows.push(vec![
                s(gap),
                s(format!("{mode:?}")),
                s(r.serviced),
                f(r.latency.mean(), 0),
                f(r.latency.max(), 0),
                f(per_event, 0),
                s(r.interrupts),
            ]);
            json.push(JsonDevice {
                mean_gap: gap,
                mode: format!("{mode:?}"),
                mean_latency: r.latency.mean(),
                device_cycles_per_event: per_event,
                interrupts: r.interrupts,
            });
        }
    }
    print_table(
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
        &rows,
    );
    println!(
        "Paper: polled devices \"appear to behave as if they were interrupt-driven,\n\
         but no interrupts ever occur for them\"."
    );

    // Far-memory density sweep.
    let series = density_sweep(&FarMemConfig::default());
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(hot, page, obj)| {
            vec![
                s(hot),
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
        })
        .collect();
    print_table(
        "Far memory: page vs object granularity by hot-object density (per 4 KiB page)",
        &[
            "hot objs/page",
            "page bytes",
            "object bytes",
            "page stalls",
            "object stalls",
            "winner",
        ],
        &rows,
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
    let rows: Vec<Vec<String>> = modes
        .iter()
        .map(|(name, mode)| {
            let r = run_block(&bcfg, &mc, *mode);
            vec![
                s(name),
                f(r.latency.mean(), 0),
                f(r.latency.max(), 0),
                s(r.interrupts),
                s(r.delivery_cycles),
            ]
        })
        .collect();
    print_table(
        "Block-device completions (2k requests): latency vs interrupt rate",
        &[
            "mode",
            "mean lat (cyc)",
            "max lat",
            "interrupts",
            "delivery cyc",
        ],
        &rows,
    );

    h.finish(&json);
}
