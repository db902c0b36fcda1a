//! Host-performance benchmark of the simulator.
//!
//! Four workloads each isolate one layer of the simulator: `interp` (the IR
//! interpreter), `coherence` (the coherence protocol), `kernel` (the
//! preemptive executor and its event kernel) and `serve` (the open-loop
//! serving plane). A run measures on one thread per CPU, up to two, and
//! each thread splits the run into segments: each segment sets the
//! workload up from scratch and then measures chunks of seeded input for
//! its share of `--seconds` of host time. Each chunk is three calls: `gen`
//! builds the chunk's input from the seed and the chunk index, the layer
//! call simulates it, and `check` verifies the output.
//!
//! With `--trace 0` the run reports the end-to-end metrics: simulated work
//! per host second of the layer call, at the fastest percentile of chunks
//! (see [`FAST`]), and the fastest set-up time. With `--trace 1` it records
//! a span around each call and reports per-layer metrics instead:
//! each call's median self time, the layer call's self time per unit of
//! work, and the simulated cycles per unit of work; `--trace-out` writes
//! the spans as Chrome trace-event JSON.
//!
//! Usage: `perfbench --workload <interp|coherence|kernel|serve> --seed <n>
//! --seconds <s> --trace <0|1> [--trace-out <path>]`

mod coherence;
mod interp;
mod kernel;
mod serve;
mod trace;

use interweave::compose::{compose, ComposedStack};
use interweave_core::machine::MachineConfig;
use interweave_core::rng::SplitMix64;
use interweave_core::stack::StackConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Segments per run. Each sets the workload up afresh and then measures
/// chunks for its share of `--seconds`, so the set-ups are spread over the
/// run.
const SEGMENTS: usize = 12;
/// The quantile of the set-up times that `setup_s` reports: the fastest,
/// for the same reason as [`FAST`], as a run has only a couple of dozen
/// set-ups. A set-up is about one chunk's work, so the median of so few
/// follows other tenants' load as much as the simulator's cost.
const SETUP_QUANTILE: f64 = 0.0;
/// The quantile of host time per unit of work that `work_per_s` inverts:
/// the 1st percentile, which has at least ten chunks below it once a run
/// measures 1,000 chunks (a 20-second run on two CPUs measures about that
/// many coherence chunks and several thousand of each other workload's).
/// The simulator is deterministic, so
/// interference from other tenants of a shared host only ever adds time,
/// and it comes in phases that can cover most of a run; the fast end of
/// the per-chunk distribution tracks the simulator's own cost far more
/// steadily than the median, which is reported with the per-layer metrics.
const FAST: f64 = 0.01;
/// Measuring threads, one per CPU up to this many. Interference on a
/// shared host comes in phases that differ from CPU to CPU, so measuring
/// on two CPUs at once almost always leaves one of them unhindered.
const MAX_LANES: usize = 2;
/// Chunks whose simulated cycles per unit of work are reported: a fixed
/// prefix. Every workload simulates each chunk on state of its own, so
/// the figure is a pure function of the seed, whatever the thread count.
const MODEL_PREFIX: usize = 16;
/// The seed and chunk index of the input that warms each set-up up. It is
/// the same for every `--seed`, so the set-up time does not follow the
/// seed's draw of input sizes; measured chunks count from 0.
const WARMUP: (u64, u64) = (0, u64::MAX);

const WORKLOADS: [&str; 4] = ["interp", "coherence", "kernel", "serve"];

const USAGE: &str = "usage: perfbench --workload <interp|coherence|kernel|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--trace-out <path>]";

/// Simulated work a checked chunk represents.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Units of simulated work (instructions, accesses, steps, requests).
    pub work: u64,
    /// Simulated cycles the work covered.
    pub sim_cycles: u64,
}

/// One workload: a seeded stream of chunks, each a call into one layer.
pub trait Workload {
    type Input;
    type Output;
    /// Name of the layer under test (the layer call's span name).
    const LAYER: &'static str;
    /// Build one chunk's input from its own random stream.
    fn gen(&mut self, rng: &mut SplitMix64) -> Self::Input;
    /// Simulate the chunk on the layer under test.
    fn sim(&mut self, input: &Self::Input) -> Self::Output;
    /// Verify the output against the input.
    fn check(&self, input: &Self::Input, output: &Self::Output) -> Result<Tally, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return Err(format!("bad seconds {value:?}")),
            },
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            "--trace-out" => trace_out = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        trace_out,
    })
}

/// The random stream of chunk `i`: a function of the seed and the index
/// only, never of timing.
fn chunk_rng(seed: u64, i: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    SplitMix64::new(mix.next_u64())
}

/// The interwoven stack on the 24-core server, composed through the
/// stack builder as a user of the simulator would.
fn interwoven() -> (ComposedStack, MachineConfig) {
    let mc = MachineConfig::xeon_server_2s();
    let stack = compose(StackConfig::interwoven(), mc.clone())
        .expect("the interwoven preset is a coherent stack");
    (stack, mc)
}

/// Nearest-rank quantile of an unsorted sample; 0 when empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One checked chunk.
struct Sample {
    chunk: u64,
    tally: Tally,
    /// Host time of the layer call.
    host_ns: u64,
}

type Metric = (&'static str, f64, &'static str);

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// What one measuring thread saw.
struct Lane {
    samples: Vec<Sample>,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

/// One measuring thread: `SEGMENTS` set-ups, each followed by chunks
/// `lane, lane + lanes, ...` for its share of the run.
fn measure<W: Workload>(
    args: &Args,
    setup: &impl Fn() -> W,
    tracer: Tracer,
    lane: u64,
    lanes: u64,
) -> Lane {
    let mut out = Lane {
        samples: Vec::new(),
        setup_s: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer,
    };
    let segment = Duration::from_secs_f64(args.seconds / SEGMENTS as f64);
    let mut next = lane;
    for _ in 0..SEGMENTS {
        // Set-up: fresh state plus one warm-up chunk, so lazy allocation
        // and cold caches are paid before timing starts.
        let t = Instant::now();
        let mut w = setup();
        let input = w.gen(&mut chunk_rng(WARMUP.0, WARMUP.1));
        let output = w.sim(&input);
        let warm = w.check(&input, &output);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            out.attempted += 1;
            out.failed += 1;
            eprintln!("warm-up chunk: {e}");
            continue;
        }

        let start = Instant::now();
        let first = next;
        while next == first || start.elapsed() < segment {
            let chunk = next;
            next += lanes;
            out.attempted += 1;
            let mut rng = chunk_rng(args.seed, chunk);
            let t0 = Instant::now();
            let input = w.gen(&mut rng);
            let t1 = Instant::now();
            let output = w.sim(&input);
            let t2 = Instant::now();
            let checked = catch_unwind(AssertUnwindSafe(|| w.check(&input, &output)));
            let t3 = Instant::now();
            let tr = &mut out.tracer;
            let root = tr.record("chunk", chunk, None, t0, t3);
            tr.record("gen", chunk, root, t0, t1);
            tr.record(W::LAYER, chunk, root, t1, t2);
            tr.record("check", chunk, root, t2, t3);
            let problem = match checked {
                Ok(Ok(tally)) if tally.work > 0 => {
                    out.samples.push(Sample {
                        chunk,
                        tally,
                        host_ns: (t2 - t1).as_nanos() as u64,
                    });
                    continue;
                }
                Ok(Ok(_)) => "no simulated work".to_string(),
                Ok(Err(e)) => e,
                Err(_) => "check panicked".to_string(),
            };
            out.failed += 1;
            eprintln!("chunk {chunk}: {problem}");
        }
    }
    out
}

fn run<W: Workload>(args: &Args, setup: impl Fn() -> W + Sync) -> Report {
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_LANES));
    let origin = Instant::now();
    let measured: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes as u64)
            .map(|lane| {
                let setup = &setup;
                let tracer = Tracer::new(args.trace, origin, lane);
                s.spawn(move || measure(args, setup, tracer, lane, lanes as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a measuring thread panicked"))
            .collect()
    });
    let mut measured = measured.into_iter();
    let mut all = measured.next().expect("at least one measuring thread");
    for lane in measured {
        all.samples.extend(lane.samples);
        all.setup_s.extend(lane.setup_s);
        all.attempted += lane.attempted;
        all.failed += lane.failed;
        all.tracer.absorb(lane.tracer);
    }
    all.samples.sort_by_key(|s| s.chunk);
    let Lane {
        samples,
        setup_s,
        attempted,
        failed,
        tracer,
    } = all;

    let ns_per_work: Vec<f64> = samples
        .iter()
        .map(|s| s.host_ns as f64 / s.tally.work as f64)
        .collect();
    eprintln!(
        "{}: seed {}, {attempted} chunks on {lanes} threads, {failed} failed; host ns per unit \
         of work: min {:.2}, p1 {:.2}, p10 {:.2}, p50 {:.2}, p90 {:.2}; set-up {:.4} s \
         (fastest of {})",
        args.workload,
        args.seed,
        quantile(&ns_per_work, 0.0),
        quantile(&ns_per_work, 0.01),
        quantile(&ns_per_work, 0.1),
        quantile(&ns_per_work, 0.5),
        quantile(&ns_per_work, 0.9),
        quantile(&setup_s, SETUP_QUANTILE),
        setup_s.len(),
    );
    if samples.is_empty() {
        return Report {
            attempted,
            failed,
            metrics: Vec::new(),
        };
    }

    let metrics = if args.trace {
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tracer.chrome_json()) {
                eprintln!("cannot write trace {path}: {e}");
            }
        }
        layer_metrics(&tracer, W::LAYER, &samples, &ns_per_work)
    } else {
        vec![
            (
                "work_per_s",
                1e9 / quantile(&ns_per_work, FAST).max(f64::MIN_POSITIVE),
                "1/s",
            ),
            ("setup_s", quantile(&setup_s, SETUP_QUANTILE), "s"),
        ]
    };
    Report {
        attempted,
        failed,
        metrics,
    }
}

/// Per-layer metrics of a traced run: each call's median self time per
/// chunk, the layer call's host time per unit of work (`ns_per_work`, one
/// value per sample), and the simulated cycles per unit of work.
fn layer_metrics(
    tracer: &Tracer,
    layer: &str,
    samples: &[Sample],
    ns_per_work: &[f64],
) -> Vec<Metric> {
    let spans = tracer.spans();
    let own = tracer.self_times_ns();
    let self_ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .collect()
    };
    let layer_ms: f64 = self_ms(layer).iter().sum();
    let total_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum();
    let prefix = &samples[..samples.len().min(MODEL_PREFIX)];
    let prefix_work: u64 = prefix.iter().map(|s| s.tally.work).sum();
    let prefix_cycles: u64 = prefix.iter().map(|s| s.tally.sim_cycles).sum();
    vec![
        ("gen_self_ms", quantile(&self_ms("gen"), 0.5), "ms"),
        ("sim_self_ms", quantile(&self_ms(layer), 0.5), "ms"),
        ("check_self_ms", quantile(&self_ms("check"), 0.5), "ms"),
        ("sim_ns_per_work", quantile(ns_per_work, FAST), "ns"),
        ("sim_ns_per_work_p50", quantile(ns_per_work, 0.5), "ns"),
        ("sim_ns_per_work_p90", quantile(ns_per_work, 0.9), "ns"),
        (
            "sim_share",
            100.0 * layer_ms / total_ms.max(f64::MIN_POSITIVE),
            "%",
        ),
        (
            "sim_cycles_per_work",
            prefix_cycles as f64 / prefix_work.max(1) as f64,
            "cycles",
        ),
    ]
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "interp" => run(&args, interp::InterpWorkload::setup),
        "coherence" => run(&args, || {
            coherence::CoherenceWorkload::setup(&interwoven().0)
        }),
        "kernel" => run(&args, || {
            let (stack, mc) = interwoven();
            kernel::KernelWorkload::setup(&stack, mc)
        }),
        "serve" => run(&args, || {
            serve::ServeWorkload::setup(MachineConfig::xeon_server_2s())
        }),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && !report.metrics.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
