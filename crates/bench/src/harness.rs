//! One declarative harness for every registered figure.
//!
//! Each experiment declares *what* it measures — a set of [`Scenario`]s
//! naming a [`StackConfig`] on a machine preset — and runs on them once
//! composed: [`compose_all`] builds every stack through the facade's
//! `compose` before the figure runs, so a figure cannot measure a
//! composition that could not exist, and a scenario list it cannot run is
//! a typed [`ScenarioError`] naming the scenario. The harness also owns
//! the shared CLI contract (`--json <path>`, `--trace-out <path>`, ...)
//! and table rendering. A table is a
//! value ([`Table`] of typed [`Cell`]s): the same value prints as text and
//! is written, unrounded, into the machine-readable results envelope
//! beside every scenario's `StackConfig`.
//!
//! A figure renders into its [`Harness`] and hands back a [`Report`]: a
//! value holding the exact stdout text, the tables behind it (its
//! `--json` envelope), the optional trace and metrics documents and the
//! headline the scoreboard shows. Nothing here prints or writes files;
//! `figures::main` does.

use crate::{table_text, Cell, Table};
use interweave::compose::{ComposeError, ComposedStack};
use interweave_core::arrivals::ArrivalKind;
use interweave_core::machine::MachineConfig;
use interweave_core::stack::{OsPoint, StackConfig};
use interweave_core::telemetry::{chrome_trace_json, CounterTrack, Layer, Span, TimeSeries};
use interweave_core::time::Cycles;
use serde::Serialize;

/// The command-line contract shared by every figure binary. Every flag
/// takes one value (the usage text [`Cli::parse`] prints lists them);
/// any other argument is rejected. The golden runs pass no flags, so none
/// affects pinned stdout. How many host threads a run uses is not a flag:
/// runs fan out on the host's cores, and their output is bit-identical at
/// every thread count.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Path for the JSON results envelope, when requested.
    pub json: Option<String>,
    /// Path for the Perfetto trace export, when requested.
    pub trace_out: Option<String>,
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

/// A rejected command line: which flag, and what it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A value-taking flag was the last argument.
    MissingValue {
        /// The flag, e.g. `--window-cycles`.
        flag: &'static str,
        /// What the flag takes, e.g. "a positive cycle count".
        expects: &'static str,
    },
    /// A flag's value did not parse or is out of range.
    InvalidValue {
        /// The flag, e.g. `--window-cycles`.
        flag: &'static str,
        /// What the flag takes, e.g. "a positive cycle count".
        expects: &'static str,
        /// The value given.
        value: String,
    },
    /// An argument that is not one of the shared flags.
    UnknownFlag(String),
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
            CliError::UnknownFlag(arg) => write!(f, "unknown flag {arg:?}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Usage text printed with a [`CliError`].
const USAGE: &str = "\
flags (all optional):
  --json <path>          write the JSON results envelope
  --trace-out <path>     write a Chrome/Perfetto trace
  --os <name>            nk | nautilus | aster | linux
  --offered-load <x>     serving load, multiple of saturation (x > 0)
  --duration-ms <ms>     serving-run duration (ms > 0)
  --arrival <name>       poisson | bursty | diurnal
  --metrics-out <path>   write the windowed serving metrics as JSON
  --window-cycles <n>    metrics window width in cycles (n >= 1)";

/// Every flag [`Cli::from_args`] accepts, with what its one value must be.
const FLAGS: [(&str, &str); 8] = [
    ("--json", "a path"),
    ("--trace-out", "a path"),
    ("--os", "nk, nautilus, aster, or linux"),
    ("--offered-load", "a positive number"),
    ("--duration-ms", "a positive number"),
    ("--arrival", "poisson, bursty, or diurnal"),
    ("--metrics-out", "a path"),
    ("--window-cycles", "a positive cycle count"),
];

/// `value` as a count of at least one.
fn count(value: &str) -> Option<u64> {
    value.parse().ok().filter(|n| *n >= 1)
}

impl Cli {
    /// Parse the process's own arguments for the binary `bin`, which
    /// reads `--json` and the flags in `reads`. A malformed command line
    /// prints the error and the usage text to stderr, and a flag `bin`
    /// does not read prints `error: <bin> does not read <flag>`; either
    /// way the process exits with status 2.
    pub fn parse(bin: &str, reads: &[&str]) -> Cli {
        let (cli, given) = Cli::from_args(std::env::args()).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        });
        if let Some(flag) = given.iter().find(|f| **f != "--json" && !reads.contains(f)) {
            eprintln!("error: {bin} does not read {flag}");
            std::process::exit(2);
        }
        cli
    }

    /// Parse an explicit argument list, program name first
    /// (unit-testable), into the command line and the flags it gave. A
    /// repeated flag keeps its last value.
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Cli, Vec<&'static str>), CliError> {
        let mut cli = Cli::default();
        let mut given = Vec::new();
        let mut args = args.into_iter().skip(1);
        while let Some(arg) = args.next() {
            let Some(&(flag, expects)) = FLAGS.iter().find(|(f, _)| *f == arg) else {
                return Err(CliError::UnknownFlag(arg));
            };
            given.push(flag);
            let value = args
                .next()
                .ok_or(CliError::MissingValue { flag, expects })?;
            let bad = || CliError::InvalidValue {
                flag,
                expects,
                value: value.clone(),
            };
            let number = || {
                let x = value.parse::<f64>().ok();
                x.filter(|x| x.is_finite() && *x > 0.0).ok_or_else(bad)
            };
            match flag {
                "--json" => cli.json = Some(value.clone()),
                "--trace-out" => cli.trace_out = Some(value.clone()),
                "--metrics-out" => cli.metrics_out = Some(value.clone()),
                "--window-cycles" => cli.window_cycles = Some(count(&value).ok_or_else(bad)?),
                "--offered-load" => cli.offered_load = Some(number()?),
                "--duration-ms" => cli.duration_ms = Some(number()?),
                "--arrival" => cli.arrival = Some(ArrivalKind::parse(&value).ok_or_else(bad)?),
                "--os" => cli.os = Some(OsPoint::parse(&value).ok_or_else(bad)?),
                _ => unreachable!("FLAGS lists only the flags matched here"),
            }
        }
        Ok((cli, given))
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

    /// Materialize the composed stack, or name this scenario in the
    /// rejection.
    pub fn compose(&self) -> Result<Composed, ScenarioError> {
        let stack = interweave::compose::compose(self.config, self.machine.clone())
            .map_err(|error| ScenarioError::Incoherent { id: self.id, error })?;
        Ok(Composed { id: self.id, stack })
    }
}

/// A scenario with its stack built: what a figure runs on.
#[derive(Debug)]
pub struct Composed {
    /// The scenario id.
    pub id: &'static str,
    /// The composed stack.
    pub stack: ComposedStack,
}

/// Compose every scenario, in order. Ids must be unique, since the
/// envelope and the scoreboard name scenarios by id.
pub fn compose_all(scenarios: &[Scenario]) -> Result<Vec<Composed>, ScenarioError> {
    for (i, sc) in scenarios.iter().enumerate() {
        if scenarios[..i].iter().any(|earlier| earlier.id == sc.id) {
            return Err(ScenarioError::DuplicateId(sc.id));
        }
    }
    scenarios.iter().map(Scenario::compose).collect()
}

/// A scenario list a figure cannot run, naming the scenario at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// Two scenarios share this id.
    DuplicateId(&'static str),
    /// The scenario's stack is incoherent.
    Incoherent {
        /// The scenario id.
        id: &'static str,
        /// The broken composition rule.
        error: ComposeError,
    },
    /// The stack composes, but the figure has no experiment for it.
    Unsupported {
        /// The scenario id.
        id: &'static str,
        /// What the figure needs from the stack.
        needs: &'static str,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::DuplicateId(id) => write!(f, "scenario {id:?} is declared twice"),
            ScenarioError::Incoherent { id, error } => {
                write!(f, "scenario {id:?} is not a coherent stack: {error}")
            }
            ScenarioError::Unsupported { id, needs } => {
                write!(
                    f,
                    "scenario {id:?} cannot run here: the figure needs {needs}"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One scenario as the `--json` envelope names it: its id, its machine
/// preset's display name, and its full, round-trippable stack.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioMeta {
    /// The scenario id.
    pub id: String,
    /// The machine preset's display name.
    pub machine: String,
    /// The stack composition.
    pub stack: StackConfig,
}

/// The `--json` results envelope, one schema for every figure: which
/// compositions were measured, then every table as printed.
#[derive(Debug, Clone, Serialize)]
pub struct Envelope {
    /// The declared scenarios, in declaration order.
    pub scenarios: Vec<ScenarioMeta>,
    /// Every table the text prints, in printed order.
    pub tables: Vec<Table>,
}

/// What one figure run produced, as a value: the exact stdout text, the
/// `--json` envelope behind it, the trace and metrics documents its flags
/// asked for, and the one-line headline the scoreboard shows.
#[derive(Debug, Clone)]
pub struct Report {
    /// The exact stdout text (every table and note, nothing else).
    pub text: String,
    /// The scenarios and the tables the text prints.
    pub envelope: Envelope,
    /// The Perfetto trace document, when `--trace-out` asked for one.
    pub trace: Option<String>,
    /// The windowed-metrics document, when `--metrics-out` asked for one.
    pub metrics: Option<String>,
    /// The scoreboard headline, computed from the numbers the text prints.
    pub headline: String,
    /// The id of the scenario the headline measures.
    pub headline_scenario: &'static str,
}

impl Report {
    /// The `--json` document: the [`Envelope`], pretty-printed.
    pub fn json(&self) -> String {
        serde_json::to_string_pretty(&self.envelope).expect("serializable envelope")
    }
}

/// What a figure renders into: it accumulates the figure's text, tables
/// and documents, and [`Harness::finish`] turns them into a [`Report`].
#[derive(Default)]
pub struct Harness {
    cli: Cli,
    scenarios: Vec<ScenarioMeta>,
    text: String,
    tables: Vec<Table>,
    trace: Option<String>,
    metrics: Option<String>,
}

impl Harness {
    /// A harness for a run under `cli` on the composed `scenarios`.
    pub fn new(cli: &Cli, scenarios: &[Composed]) -> Harness {
        let scenarios = scenarios.iter().map(|sc| ScenarioMeta {
            id: sc.id.to_string(),
            machine: sc.stack.machine().name.to_string(),
            stack: sc.stack.config,
        });
        Harness {
            cli: cli.clone(),
            scenarios: scenarios.collect(),
            ..Harness::default()
        }
    }

    /// Render one boxed table (title banner, aligned header and rows)
    /// and record it for the `--json` envelope.
    pub fn table(
        &mut self,
        title: &str,
        header: &[&str],
        rows: impl IntoIterator<Item = Vec<Cell>>,
    ) {
        let rows: Vec<Vec<Cell>> = rows.into_iter().collect();
        self.text.push_str(&table_text(title, header, &rows));
        self.tables.push(Table {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows,
        });
    }

    /// Append one line of prose (a `println!` into the report).
    pub fn note(&mut self, line: impl std::fmt::Display) {
        self.text.push_str(&format!("{line}\n"));
    }

    /// When `--trace-out` was passed, render `spans` and `counters` as one
    /// Chrome trace (see [`chrome_trace_json`]).
    pub fn trace(&mut self, spans: &[Span], counters: &[CounterTrack], cycles_per_us: u64) {
        if self.cli.trace_out.is_some() {
            self.trace = Some(chrome_trace_json(spans, counters, cycles_per_us));
        }
    }

    /// When `--metrics-out` was passed, render the windowed series as
    /// JSON. The document is a pure function of the simulated run, so CI
    /// can byte-compare it across hosts and repeated runs.
    pub fn metrics(&mut self, series: &MetricsSeries) {
        if self.cli.metrics_out.is_some() {
            self.metrics =
                Some(serde_json::to_string_pretty(series).expect("serializable metrics"));
        }
    }

    /// Finish the run: `headline` is what the scoreboard shows for the
    /// scenario `measured`.
    pub fn finish(self, measured: &Composed, headline: String) -> Report {
        Report {
            text: self.text,
            envelope: Envelope {
                scenarios: self.scenarios,
                tables: self.tables,
            },
            trace: self.trace,
            metrics: self.metrics,
            headline,
            headline_scenario: measured.id,
        }
    }
}

/// The one writer behind every output file: create `path`'s parent
/// directories, write `contents`, and acknowledge the `what` export on
/// stdout. An I/O failure is a usage error, not a bug: it names the path
/// and the error on stderr and exits with status 2.
pub(crate) fn write_output(path: &str, what: &str, contents: &str) {
    let file = std::path::Path::new(path);
    let written = file
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(file, contents));
    if let Err(e) = written {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("({what} written to {path})");
}

/// One fixed-width window of the serving plane's streaming telemetry, as
/// written by `--metrics-out`.
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

    /// The windows as Perfetto counter tracks, one point per window at its
    /// start stamp. Queue depth rides the kernel track (it is
    /// admission-queue state); the request counters and the tail ride the
    /// virtine track.
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        let track = |name, layer, value: fn(&MetricsWindow) -> f64| CounterTrack {
            name,
            layer,
            points: self
                .windows
                .iter()
                .map(|w| (Cycles(w.start_cycles), value(w)))
                .collect(),
        };
        vec![
            track("serve.offered", Layer::Virtine, |w| w.offered as f64),
            track("serve.completed", Layer::Virtine, |w| w.completed as f64),
            track("serve.shed", Layer::Virtine, |w| w.shed as f64),
            track("serve.queue_depth_max", Layer::Kernel, |w| {
                w.queue_depth_max as f64
            }),
            track("serve.p99_us", Layer::Virtine, |w| w.p99_us),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(v: &[&str]) -> Cli {
        Cli::from_args(args(v)).expect("valid command line").0
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
    fn cli_rejects_each_flag_missing_its_value_under_its_own_name() {
        for (flag, expects) in [
            ("--json", "a path"),
            ("--trace-out", "a path"),
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
    fn cli_rejects_unknown_flags_and_stray_values() {
        for v in [
            &["bin", "--bogus"][..],
            &["bin", "--shard", "4"],
            &["bin", "--json", "r.json", "extra"],
        ] {
            assert!(
                matches!(Cli::from_args(args(v)), Err(CliError::UnknownFlag(_))),
                "{v:?}"
            );
        }
        assert_eq!(reject(&["bin", "--shard", "4"]), "unknown flag \"--shard\"");
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

    fn xeon(id: &'static str, config: StackConfig) -> Scenario {
        Scenario::new(id, config, MachineConfig::xeon_server_2s())
    }

    #[test]
    fn an_incoherent_scenario_is_a_typed_error_naming_it() {
        use interweave_core::stack::Translation;
        let broken = StackConfig {
            translation: Translation::Carat,
            ..StackConfig::commodity()
        };
        let scenarios = [xeon("ok", StackConfig::nautilus()), xeon("broken", broken)];
        let e = compose_all(&scenarios).expect_err("carat on linux must not compose");
        assert_eq!(
            e,
            ScenarioError::Incoherent {
                id: "broken",
                error: ComposeError::CaratOnCommodityKernel
            }
        );
        assert!(e
            .to_string()
            .starts_with("scenario \"broken\" is not a coherent stack"));
    }

    #[test]
    fn a_duplicate_scenario_id_is_a_typed_error_naming_it() {
        let scenarios = [
            xeon("linux", StackConfig::commodity()),
            xeon("nk", StackConfig::nautilus()),
            xeon("linux", StackConfig::framekernel()),
        ];
        let e = compose_all(&scenarios).expect_err("ids must be unique");
        assert_eq!(e, ScenarioError::DuplicateId("linux"));
        assert_eq!(e.to_string(), "scenario \"linux\" is declared twice");
        let composed = compose_all(&scenarios[..2]).expect("distinct ids compose");
        assert_eq!(composed[1].stack.os.name(), "Nautilus");
    }

    #[test]
    fn envelope_embeds_every_scenario_stack() {
        let scenarios = compose_all(&[
            xeon("linux", StackConfig::commodity()),
            Scenario::new("nk", StackConfig::nautilus(), MachineConfig::phi_knl()),
        ])
        .expect("coherent scenarios");
        let mut h = Harness::new(&Cli::default(), &scenarios);
        h.table(
            "t",
            &["key", "v"],
            vec![vec![crate::s("a"), crate::s(7u64)]],
        );
        let report = h.finish(&scenarios[1], String::new());
        assert_eq!(report.headline_scenario, "nk");
        let json = report.json();
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
        assert!(json.contains("\"tables\""));
    }
}
