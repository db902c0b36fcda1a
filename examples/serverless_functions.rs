//! Serverless scenario (§IV-D): a FaaS worker choosing an isolation
//! mechanism for short function invocations.
//!
//! A stream of requests invokes a small function (Fig. 5's fib). The
//! example compares the end-to-end latency of running it in a process, a
//! cold virtine, and a Wasp-pooled virtine, then shows §V-E's bespoke
//! synthesis shaving the context down to what the code actually needs.
//!
//! Run with: `cargo run --example serverless_functions`

use interweave::core::machine::MachineConfig;
use interweave::core::Cycles;
use interweave::ir::programs;
use interweave::ir::types::Val;
use interweave::virtines::bespoke::synthesize;
use interweave::virtines::extract::extract_one;
use interweave::virtines::wasp::{startup, LaunchPath, Wasp};

fn main() {
    let mc = MachineConfig::xeon_server_2s();
    let fib = programs::fib(18);
    let image = extract_one(&fib.module, fib.entry);
    println!(
        "function image: `{}`, {} functions, {} instructions",
        image.name,
        image.module.funcs.len(),
        image.module.inst_count()
    );

    // What would each isolation mechanism cost just to *start*?
    println!("\nstart-up latency by isolation mechanism:");
    let spec = synthesize(&image.module);
    for path in [
        LaunchPath::Process,
        LaunchPath::Container,
        LaunchPath::FullVm,
        LaunchPath::VirtineCold,
        LaunchPath::VirtineSnapshot,
        LaunchPath::Bespoke(spec),
    ] {
        println!("  {:22} {}", path.name(), startup(path).total());
    }

    // Bespoke synthesis: the compiler knows fib needs almost nothing.
    println!(
        "\nbespoke synthesis for `{}`: fp={} heap={} io={} long_mode={}",
        image.name, spec.needs_fp, spec.needs_heap, spec.needs_io, spec.needs_long_mode
    );

    // Serve a burst of requests through the Wasp pool.
    let mut wasp = Wasp::new(image, mc.clone());
    wasp.prewarm(2);
    let mut total = Cycles::ZERO;
    let mut worst = Cycles::ZERO;
    let n_requests = 20;
    for i in 0..n_requests {
        let arg = 10 + (i % 8) as i64;
        let (outcome, latency) = wasp.invoke(&[Val::I(arg)], u64::MAX / 4);
        total += latency;
        worst = worst.max(latency);
        if i < 3 {
            println!(
                "request {i}: fib({arg}) -> {outcome:?} in {}",
                mc.freq.us(latency)
            );
        }
    }
    println!(
        "\nserved {n_requests} requests: mean {}, worst {}, pool: {} cold starts / {} reuses",
        mc.freq.us(total / n_requests as u64),
        mc.freq.us(worst),
        wasp.stats().cold_starts,
        wasp.stats().reuses
    );
    println!("(compare: one *container* start costs {})", {
        startup(LaunchPath::Container).total()
    });
}
