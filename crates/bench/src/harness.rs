//! One declarative harness for every figure/table binary.
//!
//! Each experiment declares *what* it measures — a set of [`Scenario`]s
//! naming a [`StackConfig`] on a machine preset — and the harness owns the
//! rest: composing the stack through the facade's `StackBuilder` (so a
//! binary cannot measure a composition that could not exist), the shared
//! CLI contract (`--json <path>`, `--trace-out <path>`), parallel sweeps
//! over the composed stack, table printing, and the machine-readable
//! results envelope that embeds every scenario's `StackConfig`.
//!
//! The contract the golden-stdout CI guard relies on: a harness run with no
//! flags prints exactly the tables and notes the experiment asks for —
//! nothing else — so migrating a binary onto the harness is byte-identical
//! on stdout.

use crate::{parallel_map, print_table};
use interweave::compose::ComposedStack;
use interweave_core::arrivals::ArrivalKind;
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{OsPoint, StackConfig};
use interweave_core::telemetry::{CounterEntry, TimeSeries};
use serde::Serialize;

/// The command-line contract shared by every figure/table binary.
///
/// `--json <path>` additionally writes the machine-readable results
/// envelope; `--trace-out <path>` asks binaries that collect telemetry
/// spans to export a Chrome/Perfetto trace; `--shards <n>` selects the
/// simulation-kernel shard count for binaries whose hot loop runs on the
/// sharded kernel (the result is bit-identical at every count — the CI
/// determinism gate relies on exactly that). Serving binaries additionally
/// honor `--offered-load <x>` (load as a multiple of the calibrated
/// saturation point), `--duration-ms <ms>`, and `--arrival <name>`
/// (poisson | bursty | diurnal). `--metrics-out <path>` asks serving
/// binaries to run with bounded streaming sinks and export the windowed
/// time series as JSON; `--window-cycles <n>` overrides the roll-up
/// window width. `--os <name>` (nk | nautilus | aster | linux) restricts
/// an OS-axis binary to the scenarios on that point of the axis. The
/// golden CI runs pass no flags, so none affects pinned stdout.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Path for the JSON results envelope, when requested.
    pub json: Option<String>,
    /// Path for the Perfetto trace export, when requested.
    pub trace_out: Option<String>,
    /// Simulation-kernel shard count (`--shards <n>`, default 1).
    pub shards: usize,
    /// Offered load override for serving binaries, as a multiple of the
    /// calibrated saturation capacity (`--offered-load <x>`, x > 0).
    pub offered_load: Option<f64>,
    /// Serving-run duration override in milliseconds
    /// (`--duration-ms <ms>`, ms > 0).
    pub duration_ms: Option<f64>,
    /// Arrival-process override for serving binaries (`--arrival <name>`).
    pub arrival: Option<ArrivalKind>,
    /// Path for the windowed-metrics JSON export, when requested
    /// (`--metrics-out <path>`).
    pub metrics_out: Option<String>,
    /// Roll-up window width override in simulated cycles
    /// (`--window-cycles <n>`, n > 0).
    pub window_cycles: Option<u64>,
    /// OS-axis restriction for binaries that sweep the axis
    /// (`--os <name>`, nk | nautilus | aster | linux).
    pub os: Option<OsPoint>,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            json: None,
            trace_out: None,
            shards: 1,
            offered_load: None,
            duration_ms: None,
            arrival: None,
            metrics_out: None,
            window_cycles: None,
            os: None,
        }
    }
}

/// A rejected command line: which flag, and what it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A value-taking flag was the last argument.
    MissingValue {
        /// The flag, e.g. `--shards`.
        flag: &'static str,
        /// What the flag takes, e.g. "a positive count".
        expects: &'static str,
    },
    /// A flag's value did not parse or is out of range.
    InvalidValue {
        /// The flag, e.g. `--shards`.
        flag: &'static str,
        /// What the flag takes, e.g. "a positive count".
        expects: &'static str,
        /// The value given.
        value: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue { flag, expects } => write!(f, "{flag} takes {expects}"),
            CliError::InvalidValue {
                flag,
                expects,
                value,
            } => write!(f, "{flag} takes {expects}, got {value:?}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Usage text printed with a [`CliError`].
const USAGE: &str = "\
flags (all optional):
  --json <path>          write the JSON results envelope
  --trace-out <path>     write a Chrome/Perfetto trace
  --shards <n>           simulation-kernel shard count (n >= 1)
  --os <name>            nk | nautilus | aster | linux
  --offered-load <x>     serving load, multiple of saturation (x > 0)
  --duration-ms <ms>     serving-run duration (ms > 0)
  --arrival <name>       poisson | bursty | diurnal
  --metrics-out <path>   write the windowed serving metrics as JSON
  --window-cycles <n>    metrics window width in cycles (n >= 1)";

/// The value following `flag` in `args`, converted by `parse`; `None` when
/// the flag is absent.
fn flag_value<T>(
    args: &[String],
    flag: &'static str,
    expects: &'static str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, CliError> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .ok_or(CliError::MissingValue { flag, expects })?;
    parse(value)
        .map(Some)
        .ok_or_else(|| CliError::InvalidValue {
            flag,
            expects,
            value: value.clone(),
        })
}

impl Cli {
    /// Parse the process's own arguments. A rejected command line prints
    /// the error and the usage text to stderr and exits with status 2.
    pub fn parse() -> Cli {
        Cli::from_args(std::env::args()).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parse an explicit argument list (unit-testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
        let args: Vec<String> = args.into_iter().collect();
        let path = |flag| flag_value(&args, flag, "a path", |v| Some(v.to_string()));
        let positive_f64 = |flag| {
            flag_value(&args, flag, "a positive number", |v| {
                v.parse::<f64>().ok().filter(|x| x.is_finite() && *x > 0.0)
            })
        };
        Ok(Cli {
            json: path("--json")?,
            trace_out: path("--trace-out")?,
            shards: flag_value(&args, "--shards", "a positive count", |v| {
                v.parse::<usize>().ok().filter(|&n| n >= 1)
            })?
            .unwrap_or(1),
            offered_load: positive_f64("--offered-load")?,
            duration_ms: positive_f64("--duration-ms")?,
            arrival: flag_value(
                &args,
                "--arrival",
                "poisson, bursty, or diurnal",
                ArrivalKind::parse,
            )?,
            metrics_out: path("--metrics-out")?,
            window_cycles: flag_value(&args, "--window-cycles", "a positive cycle count", |v| {
                v.parse::<u64>().ok().filter(|&n| n >= 1)
            })?,
            os: flag_value(
                &args,
                "--os",
                "nk, nautilus, aster, or linux",
                OsPoint::parse,
            )?,
        })
    }
}

/// One named point of an experiment: which stack composition, on which
/// machine. Declarative — composing it is the harness's job.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short identifier used in tables and the JSON envelope.
    pub id: &'static str,
    /// The stack composition this scenario measures.
    pub config: StackConfig,
    /// The machine preset it runs on.
    pub machine: MachineConfig,
}

impl Scenario {
    /// A scenario measuring `config` on `machine`.
    pub fn new(id: &'static str, config: StackConfig, machine: MachineConfig) -> Scenario {
        Scenario {
            id,
            config,
            machine,
        }
    }

    /// Materialize the composed stack. An experiment declaring an
    /// incoherent composition is a bug in the experiment, so the typed
    /// rejection becomes a panic naming the scenario.
    pub fn compose(&self) -> ComposedStack {
        interweave::compose::compose(self.config, self.machine.clone())
            .unwrap_or_else(|e| panic!("scenario {:?} is not a coherent stack: {e}", self.id))
    }

    /// Run `f` over `items` on the bounded worker pool, every worker
    /// sharing one composed stack. Output order is input order, and the
    /// simulators are deterministic, so fan-out changes wall-clock only.
    pub fn sweep<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&ComposedStack, T) -> R + Sync,
    {
        let stack = self.compose();
        parallel_map(items, |item| f(&stack, item))
    }
}

/// Metadata for one scenario as written to the JSON envelope.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioMeta {
    /// The scenario's identifier.
    pub id: String,
    /// The machine preset's display name.
    pub machine: String,
    /// The full stack composition, round-trippable back to [`StackConfig`].
    pub stack: StackConfig,
}

/// The machine-readable results envelope: which compositions were
/// measured, then the experiment's own rows.
///
/// `Serialize` is hand-written because the envelope is generic over the
/// row type and the vendored derive only handles concrete shapes.
pub struct RunSummary<'a, T> {
    /// One entry per declared scenario.
    pub scenarios: Vec<ScenarioMeta>,
    /// The experiment's rows, in its own schema.
    pub rows: &'a T,
}

impl<T: Serialize> Serialize for RunSummary<'_, T> {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"scenarios\":");
        self.scenarios.serialize_json(out);
        out.push_str(",\"rows\":");
        self.rows.serialize_json(out);
        out.push('}');
    }
}

/// The driver a figure/table binary hands its scenarios to.
pub struct Harness {
    cli: Cli,
    scenarios: Vec<Scenario>,
}

impl Harness {
    /// A harness over `scenarios`, parsing the process CLI.
    pub fn new(scenarios: Vec<Scenario>) -> Harness {
        Harness::with_cli(Cli::parse(), scenarios)
    }

    /// A harness with an explicit CLI (unit-testable).
    pub fn with_cli(cli: Cli, scenarios: Vec<Scenario>) -> Harness {
        Harness { cli, scenarios }
    }

    /// The declared scenarios, in declaration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Look up a scenario by id; unknown ids are experiment bugs.
    pub fn scenario(&self, id: &str) -> &Scenario {
        self.scenarios
            .iter()
            .find(|sc| sc.id == id)
            .unwrap_or_else(|| panic!("no scenario {id:?} declared"))
    }

    /// Compose one scenario's stack by id.
    pub fn stack(&self, id: &str) -> ComposedStack {
        self.scenario(id).compose()
    }

    /// The Perfetto export path, when `--trace-out` was passed.
    pub fn trace_out(&self) -> Option<&str> {
        self.cli.trace_out.as_deref()
    }

    /// The simulation-kernel shard count (`--shards`, default 1).
    pub fn shards(&self) -> usize {
        self.cli.shards
    }

    /// Offered-load override (`--offered-load`), as a multiple of the
    /// binary's calibrated saturation capacity.
    pub fn offered_load(&self) -> Option<f64> {
        self.cli.offered_load
    }

    /// Serving-run duration override in milliseconds (`--duration-ms`).
    pub fn duration_ms(&self) -> Option<f64> {
        self.cli.duration_ms
    }

    /// Arrival-process override (`--arrival`).
    pub fn arrival(&self) -> Option<ArrivalKind> {
        self.cli.arrival
    }

    /// The windowed-metrics export path, when `--metrics-out` was passed.
    pub fn metrics_out(&self) -> Option<&str> {
        self.cli.metrics_out.as_deref()
    }

    /// Roll-up window width override (`--window-cycles`).
    pub fn window_cycles(&self) -> Option<u64> {
        self.cli.window_cycles
    }

    /// OS-axis restriction (`--os`): when set, OS-axis binaries run only
    /// the scenarios whose composition sits on this point.
    pub fn os(&self) -> Option<OsPoint> {
        self.cli.os
    }

    /// Print one boxed table (title banner, aligned header and rows).
    pub fn table(&self, title: &str, header: &[&str], rows: &[Vec<String>]) {
        print_table(title, header, rows);
    }

    /// The JSON envelope for `rows` under this harness's scenarios.
    pub fn summary_json<T: Serialize>(&self, rows: &T) -> String {
        let summary = RunSummary {
            scenarios: self
                .scenarios
                .iter()
                .map(|sc| ScenarioMeta {
                    id: sc.id.to_string(),
                    machine: sc.machine.name.to_string(),
                    stack: sc.config,
                })
                .collect(),
            rows,
        };
        serde_json::to_string_pretty(&summary).expect("serializable results")
    }

    /// Finish the run: when `--json <path>` was passed, write the envelope
    /// and acknowledge on stdout (flag runs only — golden runs pass none).
    pub fn finish<T: Serialize>(&self, rows: &T) {
        if let Some(path) = &self.cli.json {
            std::fs::write(path, self.summary_json(rows)).expect("writable json path");
            println!("(json written to {path})");
        }
    }

    /// Finish the streaming-metrics export: when `--metrics-out <path>`
    /// was passed, write the windowed series as JSON and acknowledge on
    /// stdout (flag runs only — golden runs pass none). The file is a
    /// pure function of the simulated run, so CI can byte-compare it
    /// across shard counts and repeated runs.
    pub fn finish_metrics(&self, series: &TimeSeries) {
        if let Some(path) = &self.cli.metrics_out {
            let json = serde_json::to_string_pretty(&MetricsSeries::from_series(series))
                .expect("serializable metrics");
            std::fs::write(path, json).expect("writable metrics path");
            println!("(metrics written to {path})");
        }
    }
}

/// One fixed-width window of the serving plane's streaming telemetry, as
/// written by `--metrics-out` and embedded in `BENCH_summary.json`.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsWindow {
    /// Absolute window index (`cycle / window_cycles`).
    pub window: u64,
    /// First simulated cycle the window covers.
    pub start_cycles: u64,
    /// Requests that arrived in the window.
    pub offered: u64,
    /// Requests completed (attributed to their arrival window).
    pub completed: u64,
    /// Requests shed (queue bound, deadline, or retry budget).
    pub shed: u64,
    /// Deepest admission queue observed in the window.
    pub queue_depth_max: u64,
    /// Median end-to-end latency from the window's sketch, in µs
    /// (0 when the window completed nothing).
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency from the window's sketch, in µs
    /// (0 when the window completed nothing).
    pub p99_us: f64,
}

/// The `--metrics-out` file schema: the window width plus one row per
/// populated window, in ascending window order.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSeries {
    /// Roll-up window width in simulated cycles.
    pub window_cycles: u64,
    /// Populated windows, ascending by index.
    pub windows: Vec<MetricsWindow>,
}

impl MetricsSeries {
    /// Roll a [`TimeSeries`] from the serving plane into the export rows.
    pub fn from_series(series: &TimeSeries) -> MetricsSeries {
        let width = series.width().0;
        let windows = series
            .iter()
            .map(|(idx, w)| {
                let lat = w.sketch("latency_us");
                MetricsWindow {
                    window: idx,
                    start_cycles: idx * width,
                    offered: w.counter("offered"),
                    completed: w.counter("completed"),
                    shed: w.counter("shed"),
                    queue_depth_max: w.gauge_max("queue_depth").unwrap_or(0),
                    p50_us: lat.map_or(0.0, |s| s.p50()),
                    p99_us: lat.map_or(0.0, |s| s.p99()),
                }
            })
            .collect();
        MetricsSeries {
            window_cycles: width,
            windows,
        }
    }
}

/// One scoreboard entry, as written to `BENCH_summary.json`.
#[derive(Serialize)]
pub struct ExperimentSummary {
    /// Figure/section identifier (e.g. "Fig 3", "§IV-A").
    pub experiment: String,
    /// The paper's claim being checked.
    pub claim: String,
    /// The stack composition the headline measures.
    pub stack: StackConfig,
    /// The OS-axis point of that composition, by display name ("Linux",
    /// "Aster", "Nautilus") — denormalized so bookkeeping scripts can
    /// group the scoreboard by OS without decoding the stack.
    pub os: String,
    /// The measured headline, formatted as in the table.
    pub measured: String,
    /// Wall-clock time to regenerate this entry, in milliseconds.
    pub wall_ms: f64,
    /// Simulation-kernel shard count the section ran with (1 = the merged
    /// sequential kernel; results are bit-identical at every count).
    pub shards: usize,
}

/// One fault class's robustness ledger from the serving-plane section, as
/// written to `BENCH_summary.json`. The invariant bookkeeping scripts can
/// check: `injected == recovered + shed + absorbed` — no fault vanishes.
#[derive(Serialize)]
pub struct FaultBreakdownEntry {
    /// Fault class name (e.g. "virtine crash"), as `FaultClass::name`.
    pub class: String,
    /// Faults the chaos plan injected for this class.
    pub injected: u64,
    /// Recovered by a mechanism one layer up (restart, watchdog scan,
    /// cold-start fallback) — the request still completed.
    pub recovered: u64,
    /// Turned into accounted load shedding (retry budget exhausted).
    pub shed: u64,
    /// Landed where they could do no harm (dead context, empty cache).
    pub absorbed: u64,
}

/// One §III primitive priced on every point of the OS axis, as written to
/// `BENCH_summary.json` (the machine-readable TAB-NK).
#[derive(Serialize)]
pub struct PrimitiveEntry {
    /// Primitive name, as in the printed table.
    pub name: String,
    /// Cost on the Linux-like kernel, in cycles.
    pub linux_cycles: u64,
    /// Cost on the Aster-like framekernel, in cycles.
    pub aster_cycles: u64,
    /// Cost on the Nautilus-like kernel, in cycles.
    pub nautilus_cycles: u64,
}

/// The scoreboard file schema (`BENCH_summary.json`).
#[derive(Serialize)]
pub struct BenchSummary {
    /// Total wall-clock for the whole scoreboard, in milliseconds.
    pub total_wall_ms: f64,
    /// One record per experiment.
    pub experiments: Vec<ExperimentSummary>,
    /// Registry snapshot from the telemetry section's instrumented run, so
    /// bookkeeping scripts can diff counters without scraping stdout.
    pub counters: Vec<CounterEntry>,
    /// Per-class fault ledger from the serving-plane section (empty when
    /// the scoreboard ran without it).
    pub fault_breakdown: Vec<FaultBreakdownEntry>,
    /// Windowed serving-plane trajectory from the scoreboard's serving
    /// section — the same rows `--metrics-out` exports (empty when the
    /// scoreboard ran without the serving section).
    pub serve_timeseries: Vec<MetricsWindow>,
    /// The §III primitives priced on all three OS-axis points (the
    /// machine-readable TAB-NK).
    pub primitives: Vec<PrimitiveEntry>,
}

/// Run one scoreboard section, timing it and recording the row. The
/// section's composition is validated eagerly: a scoreboard entry naming
/// an impossible stack fails loudly, not silently.
pub fn section(
    out: &mut Vec<ExperimentSummary>,
    experiment: &str,
    claim: &str,
    stack: StackConfig,
    machine: MachineConfig,
    run: impl FnOnce() -> String,
) {
    section_sharded(out, experiment, claim, stack, machine, 1, run);
}

/// [`section`], for a section whose hot loop ran on the sharded simulation
/// kernel: records the true shard count in the scoreboard record.
pub fn section_sharded(
    out: &mut Vec<ExperimentSummary>,
    experiment: &str,
    claim: &str,
    stack: StackConfig,
    machine: MachineConfig,
    shards: usize,
    run: impl FnOnce() -> String,
) {
    Scenario::new("section", stack, machine).compose();
    let start = std::time::Instant::now();
    let measured = run();
    out.push(ExperimentSummary {
        experiment: experiment.to_string(),
        claim: claim.to_string(),
        stack,
        os: stack.os.name().to_string(),
        measured,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        shards,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(v: &[&str]) -> Cli {
        Cli::from_args(args(v)).expect("valid command line")
    }

    /// The rendered rejection of `v`, which must not parse.
    fn reject(v: &[&str]) -> String {
        Cli::from_args(args(v))
            .expect_err("command line must be rejected")
            .to_string()
    }

    #[test]
    fn cli_parses_both_flags_anywhere() {
        let cli = parse(&["bin", "--trace-out", "t.json", "--json", "r.json"]);
        assert_eq!(cli.json.as_deref(), Some("r.json"));
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        let none = parse(&["bin"]);
        assert!(none.json.is_none() && none.trace_out.is_none());
    }

    #[test]
    fn cli_shards_defaults_to_one_and_parses() {
        assert_eq!(parse(&["bin"]).shards, 1);
        assert_eq!(Cli::default().shards, 1);
        let cli = parse(&["bin", "--shards", "4", "--json", "r.json"]);
        assert_eq!(cli.shards, 4);
        assert_eq!(cli.json.as_deref(), Some("r.json"));
    }

    #[test]
    fn cli_rejects_zero_shards() {
        assert_eq!(
            Cli::from_args(args(&["bin", "--shards", "0"])).unwrap_err(),
            CliError::InvalidValue {
                flag: "--shards",
                expects: "a positive count",
                value: "0".into(),
            }
        );
        assert_eq!(
            reject(&["bin", "--shards", "0"]),
            "--shards takes a positive count, got \"0\""
        );
    }

    #[test]
    fn cli_rejects_each_flag_missing_its_value_under_its_own_name() {
        for (flag, expects) in [
            ("--json", "a path"),
            ("--trace-out", "a path"),
            ("--shards", "a positive count"),
            ("--offered-load", "a positive number"),
            ("--duration-ms", "a positive number"),
            ("--arrival", "poisson, bursty, or diurnal"),
            ("--metrics-out", "a path"),
            ("--window-cycles", "a positive cycle count"),
            ("--os", "nk, nautilus, aster, or linux"),
        ] {
            assert_eq!(
                Cli::from_args(args(&["bin", flag])).unwrap_err(),
                CliError::MissingValue { flag, expects },
            );
            assert_eq!(reject(&["bin", flag]), format!("{flag} takes {expects}"));
        }
    }

    #[test]
    fn cli_parses_the_serving_flags() {
        let cli = parse(&[
            "bin",
            "--offered-load",
            "1.5",
            "--duration-ms",
            "250",
            "--arrival",
            "bursty",
        ]);
        assert_eq!(cli.offered_load, Some(1.5));
        assert_eq!(cli.duration_ms, Some(250.0));
        assert_eq!(cli.arrival, Some(ArrivalKind::Bursty));
        let none = parse(&["bin"]);
        assert!(none.offered_load.is_none() && none.duration_ms.is_none());
        assert!(none.arrival.is_none());
    }

    #[test]
    fn cli_rejects_zero_offered_load() {
        let e = reject(&["bin", "--offered-load", "0"]);
        assert!(
            e.starts_with("--offered-load takes a positive number"),
            "{e}"
        );
    }

    #[test]
    fn cli_rejects_negative_offered_load() {
        let e = reject(&["bin", "--offered-load", "-0.5"]);
        assert!(
            e.starts_with("--offered-load takes a positive number"),
            "{e}"
        );
    }

    #[test]
    fn cli_rejects_nonpositive_duration() {
        let e = reject(&["bin", "--duration-ms", "0"]);
        assert!(
            e.starts_with("--duration-ms takes a positive number"),
            "{e}"
        );
    }

    #[test]
    fn cli_rejects_an_unknown_arrival() {
        let e = reject(&["bin", "--arrival", "uniform"]);
        assert!(
            e.starts_with("--arrival takes poisson, bursty, or diurnal"),
            "{e}"
        );
    }

    #[test]
    fn cli_rejects_a_dangling_flag() {
        assert_eq!(reject(&["bin", "--json"]), "--json takes a path");
    }

    #[test]
    fn cli_parses_the_metrics_flags() {
        let cli = parse(&["bin", "--metrics-out", "m.json", "--window-cycles", "5000"]);
        assert_eq!(cli.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(cli.window_cycles, Some(5000));
        let none = parse(&["bin"]);
        assert!(none.metrics_out.is_none() && none.window_cycles.is_none());
        assert!(Cli::default().metrics_out.is_none() && Cli::default().window_cycles.is_none());
    }

    #[test]
    fn cli_parses_the_os_flag() {
        for (spelling, want) in [
            ("nk", OsPoint::NkLike),
            ("nautilus", OsPoint::NkLike),
            ("aster", OsPoint::AsterLike),
            ("linux", OsPoint::LinuxLike),
        ] {
            assert_eq!(
                parse(&["bin", "--os", spelling]).os,
                Some(want),
                "{spelling}"
            );
        }
        assert!(parse(&["bin"]).os.is_none());
        assert!(Cli::default().os.is_none());
    }

    #[test]
    fn cli_rejects_an_unknown_os() {
        let e = reject(&["bin", "--os", "plan9"]);
        assert!(
            e.starts_with("--os takes nk, nautilus, aster, or linux"),
            "{e}"
        );
    }

    #[test]
    fn cli_rejects_zero_window_cycles() {
        let e = reject(&["bin", "--window-cycles", "0"]);
        assert!(
            e.starts_with("--window-cycles takes a positive cycle count"),
            "{e}"
        );
    }

    #[test]
    fn cli_rejects_a_dangling_metrics_out() {
        assert_eq!(
            reject(&["bin", "--metrics-out"]),
            "--metrics-out takes a path"
        );
    }

    #[test]
    fn metrics_series_rolls_windows_up_in_order() {
        use interweave_core::time::Cycles;
        let mut ts = TimeSeries::new(Cycles(100));
        ts.add(Cycles(10), "offered", 3);
        ts.add(Cycles(10), "completed", 2);
        ts.add(Cycles(150), "shed", 1);
        ts.gauge_max(Cycles(20), "queue_depth", 7);
        ts.observe(Cycles(30), "latency_us", 12.0);
        let ms = MetricsSeries::from_series(&ts);
        assert_eq!(ms.window_cycles, 100);
        assert_eq!(ms.windows.len(), 2);
        let w0 = &ms.windows[0];
        assert_eq!((w0.window, w0.start_cycles), (0, 0));
        assert_eq!((w0.offered, w0.completed, w0.shed), (3, 2, 0));
        assert_eq!(w0.queue_depth_max, 7);
        assert!(w0.p99_us >= 12.0 && w0.p99_us <= 12.0 * (1.0 + 1.0 / 128.0));
        let w1 = &ms.windows[1];
        assert_eq!((w1.window, w1.start_cycles, w1.shed), (1, 100, 1));
        assert_eq!((w1.p50_us, w1.p99_us), (0.0, 0.0));
    }

    #[test]
    fn scenario_composes_and_sweeps_in_order() {
        let sc = Scenario::new(
            "nk",
            StackConfig::nautilus(),
            MachineConfig::xeon_server_2s(),
        );
        assert_eq!(sc.compose().os.name(), "Nautilus");
        let costs = sc.sweep((0..64u64).collect(), |stack, i| {
            stack.os.ctx_switch(false, false).get() + i
        });
        let base = sc.compose().os.ctx_switch(false, false).get();
        assert_eq!(costs, (0..64u64).map(|i| base + i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "not a coherent stack")]
    fn scenario_with_an_incoherent_stack_panics_with_its_id() {
        use interweave_core::stack::Translation;
        let broken = StackConfig {
            translation: Translation::Carat,
            ..StackConfig::commodity()
        };
        Scenario::new("broken", broken, MachineConfig::xeon_server_2s()).compose();
    }

    #[test]
    fn envelope_embeds_every_scenario_stack() {
        let h = Harness::with_cli(
            Cli::default(),
            vec![
                Scenario::new(
                    "linux",
                    StackConfig::commodity(),
                    MachineConfig::xeon_server_2s(),
                ),
                Scenario::new("nk", StackConfig::nautilus(), MachineConfig::phi_knl()),
            ],
        );
        #[derive(Serialize)]
        struct Row {
            v: u64,
        }
        let json = h.summary_json(&vec![Row { v: 7 }]);
        let v = serde::json::parse(&json).expect("valid envelope");
        let scenarios = match v.get("scenarios") {
            Some(serde::json::JsonValue::Arr(a)) => a,
            other => panic!("scenarios must be an array, got {other:?}"),
        };
        assert_eq!(scenarios.len(), 2);
        let stack = scenarios[1].get("stack").expect("stack embedded");
        use serde::Deserialize;
        let parsed = StackConfig::deserialize_json(stack).expect("round-trips");
        assert_eq!(parsed, StackConfig::nautilus());
        assert!(json.contains("\"rows\""));
    }
}
