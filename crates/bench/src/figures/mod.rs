//! The experiment registry: one [`Figure`] value per paper figure or table.
//!
//! A figure is a name, the paper claim it checks, the flags it reads, the
//! scenarios it declares, and a function from the shared command line and
//! those scenarios, composed, to a [`Report`]. Everything
//! that runs experiments runs these values: each binary in `src/bin/` is
//! a one-line call to [`main`], `summary` builds its scoreboard from every
//! report's headline ([`summary_main`]), and `tests/goldens.rs` compares
//! every report's text to the committed `golden/<name>.stdout`. So a headline has exactly one
//! code path, shared by the figure, the scoreboard and the golden check.

use crate::harness::{
    compose_all, write_output, Cli, Composed, Envelope, Report, Scenario, ScenarioError,
};
use crate::{s, table_text, Cell};
use interweave_carat::defrag::fragmentation_demo;
use interweave_carat::pik::{PikProcess, PikSystem};
use interweave_core::stack::StackConfig;
use interweave_ir::interp::ExecStatus;
use interweave_ir::types::Val;
use serde::Serialize;
use std::time::Instant;

mod fig3_heartbeat;
mod fig4_fibers;
mod fig6_openmp;
mod fig7_coherence;
mod tab_ablations;
mod tab_blend;
mod tab_carat;
mod tab_faults;
mod tab_pipeline;
mod tab_primitives;
mod tab_profile;
mod tab_serve;
mod tab_virtines;

/// One experiment as a value.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Binary name, golden-file stem and scoreboard key.
    pub name: &'static str,
    /// Figure/section identifier (e.g. "Fig 3", "§IV-A").
    pub experiment: &'static str,
    /// The paper's claim the headline checks.
    pub claim: &'static str,
    /// The flags `run` reads, besides the `--json` every figure writes;
    /// the binary rejects any other.
    pub reads: &'static [&'static str],
    /// The scenarios the experiment compares; `run` reads them by
    /// position.
    pub scenarios: fn() -> Vec<Scenario>,
    /// Run the experiment under a command line on composed scenarios.
    pub run: fn(&Cli, &[Composed]) -> Result<Report, ScenarioError>,
}

impl Figure {
    /// Run the experiment on its declared scenarios.
    pub fn report(&self, cli: &Cli) -> Result<Report, ScenarioError> {
        self.report_on(cli, &(self.scenarios)())
    }

    /// Run the experiment on the declared scenarios with their axes
    /// edited: `scenarios` keeps the declared list's length and order,
    /// since `run` reads it by position. Every scenario is composed first:
    /// an incoherent stack or a repeated id is rejected before anything
    /// runs.
    pub fn report_on(&self, cli: &Cli, scenarios: &[Scenario]) -> Result<Report, ScenarioError> {
        (self.run)(cli, &compose_all(scenarios)?)
    }
}

/// Every registered figure, in scoreboard order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig3_heartbeat",
        experiment: "Fig 3",
        claim: "NK and Aster sustain ♥=20µs; Linux cannot",
        reads: &["--os"],
        scenarios: fig3_heartbeat::scenarios,
        run: fig3_heartbeat::run,
    },
    Figure {
        name: "fig4_fibers",
        experiment: "Fig 4",
        claim: "fiber granularity < 600 cycles",
        reads: &[],
        scenarios: fig4_fibers::scenarios,
        run: fig4_fibers::run,
    },
    Figure {
        name: "fig6_openmp",
        experiment: "Fig 6",
        claim: "RTK ≈ +22% geomean over Linux",
        reads: &[],
        scenarios: fig6_openmp::scenarios,
        run: fig6_openmp::run,
    },
    Figure {
        name: "fig7_coherence",
        experiment: "Fig 7",
        claim: "selective coherence ≈1.46x, −53% NoC energy",
        reads: &[],
        scenarios: fig7_coherence::scenarios,
        run: fig7_coherence::run,
    },
    Figure {
        name: "tab_primitives",
        experiment: "§III",
        claim: "primitives orders of magnitude faster; Aster in between",
        reads: &[],
        scenarios: tab_primitives::scenarios,
        run: tab_primitives::run,
    },
    Figure {
        name: "tab_carat",
        experiment: "§IV-A",
        claim: "CARAT <6% geomean (naive is costly)",
        reads: &[],
        scenarios: tab_carat::scenarios,
        run: tab_carat::run,
    },
    Figure {
        name: "tab_virtines",
        experiment: "§IV-D",
        claim: "virtine start-up ≈ 100 µs",
        reads: &[],
        scenarios: tab_virtines::scenarios,
        run: tab_virtines::run,
    },
    Figure {
        name: "tab_pipeline",
        experiment: "§V-D",
        claim: "dispatch 100–1000x cheaper",
        reads: &[],
        scenarios: tab_pipeline::scenarios,
        run: tab_pipeline::run,
    },
    Figure {
        name: "tab_blend",
        experiment: "§V-C",
        claim: "polled drivers, zero interrupts",
        reads: &[],
        scenarios: tab_blend::scenarios,
        run: tab_blend::run,
    },
    Figure {
        name: "tab_ablations",
        experiment: "§V-B/§V-F",
        claim: "selective coherence gains grow with disaggregation",
        reads: &[],
        scenarios: tab_ablations::scenarios,
        run: tab_ablations::run,
    },
    Figure {
        name: "tab_faults",
        experiment: "faults",
        claim: "every injected fault detected and recovered one layer up",
        reads: &[],
        scenarios: tab_faults::scenarios,
        run: tab_faults::run,
    },
    Figure {
        name: "tab_profile",
        experiment: "telemetry",
        claim: "every cycle attributed across the OS axis",
        reads: &["--trace-out"],
        scenarios: tab_profile::scenarios,
        run: tab_profile::run,
    },
    Figure {
        name: "tab_serve",
        experiment: "serving",
        claim: "chaos serving: bounded tails, balanced fault ledger",
        reads: &[
            "--offered-load",
            "--duration-ms",
            "--arrival",
            "--metrics-out",
            "--window-cycles",
            "--trace-out",
        ],
        scenarios: tab_serve::scenarios,
        run: tab_serve::run,
    },
];

/// The fragmenting linked-list walk over `n` nodes, compiled, attested and
/// admitted as a PIK process, then run to its quiescent yield — the point
/// where the kernel may move or repair its memory.
fn quiesced_list(n: i64) -> PikProcess {
    let (m, entry) = fragmentation_demo("list");
    let mut sys = PikSystem::new();
    let (m, att) = sys.compile(m);
    let pid = sys.admit(m, att, entry, vec![Val::I(n)]);
    let mut p = sys
        .processes
        .swap_remove(pid.expect("attested module admits"));
    p.run_to_yield(100_000);
    p
}

/// Resume a [`quiesced_list`] process to completion and check that the
/// walk still sums `0..n` through whatever happened to its memory.
fn finish_list(p: &mut PikProcess, n: i64) -> i64 {
    match p.run_slice(u64::MAX / 4) {
        ExecStatus::Done(Some(Val::I(v))) => {
            assert_eq!(v, n * (n - 1) / 2, "list walk corrupted after resume");
            v
        }
        other => panic!("process did not finish after resume: {other:?}"),
    }
}

/// The registered figure named `name`; an unregistered name is a bug.
pub fn figure(name: &str) -> &'static Figure {
    FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no figure named {name:?}"))
}

/// `figure`'s report under `cli`; a scenario it cannot run is named on
/// stderr and the process exits with status 2.
fn report_or_exit(figure: &Figure, cli: &Cli) -> Report {
    figure.report(cli).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", figure.name);
        std::process::exit(2)
    })
}

/// The whole of a figure binary: parse the shared command line, run the
/// figure named `name`, print its text, and write every output its flags
/// asked for. A flag the figure does not read, a document the run did
/// not produce, or a scenario the figure cannot run is a usage error: it
/// is named on stderr and the binary exits with status 2, before anything
/// is printed or written.
pub fn main(name: &str) {
    let figure = figure(name);
    let cli = Cli::parse(name, figure.reads);
    let report = report_or_exit(figure, &cli);
    let json = report.json();
    let outputs = [
        (&cli.metrics_out, "metrics", report.metrics.as_deref()),
        (&cli.trace_out, "trace", report.trace.as_deref()),
        (&cli.json, "json", Some(json.as_str())),
    ];
    for (path, what, doc) in &outputs {
        // Only `--metrics-out` and `--trace-out` can lack a document.
        if path.is_some() && doc.is_none() {
            eprintln!("error: {name} has no --{what}-out document for this run");
            std::process::exit(2);
        }
    }
    print!("{}", report.text);
    for (path, what, doc) in outputs {
        if let (Some(path), Some(doc)) = (path, doc) {
            write_output(path, what, doc);
        }
    }
}

/// The scoreboard text: one row per figure, each from its report's
/// headline.
pub fn scoreboard<'a>(runs: impl IntoIterator<Item = (&'a Figure, &'a Report)>) -> String {
    let rows: Vec<Vec<Cell>> = runs
        .into_iter()
        .map(|(f, r)| vec![s(f.experiment), s(f.name), s(f.claim), s(&r.headline)])
        .collect();
    table_text(
        "Interweave scoreboard — every headline from its figure's own run",
        &["experiment", "figure", "claim", "measured"],
        &rows,
    )
}

/// One scoreboard entry, as written to `BENCH_summary.json`.
#[derive(Serialize)]
pub struct ExperimentSummary {
    /// Figure/section identifier (e.g. "Fig 3", "§IV-A").
    pub experiment: String,
    /// The registered figure (and binary) name.
    pub figure: String,
    /// The paper's claim being checked.
    pub claim: String,
    /// The stack composition the headline measures.
    pub stack: StackConfig,
    /// The OS-axis point of that composition, by display name ("Linux",
    /// "Aster", "Nautilus") — denormalized so bookkeeping scripts can
    /// group the scoreboard by OS without decoding the stack.
    pub os: String,
    /// The measured headline, as the scoreboard prints it.
    pub measured: String,
    /// Wall-clock time to run the figure, in milliseconds.
    pub wall_ms: f64,
    /// The figure's `--json` envelope: its scenarios and its tables.
    pub rows: Envelope,
}

impl ExperimentSummary {
    /// The entry for `figure`'s `report`.
    pub fn new(figure: &Figure, report: &Report, wall_ms: f64) -> Self {
        let headline = report
            .envelope
            .scenarios
            .iter()
            .find(|sc| sc.id == report.headline_scenario);
        let stack = headline
            .expect("finish checked the headline scenario")
            .stack;
        ExperimentSummary {
            experiment: figure.experiment.to_string(),
            figure: figure.name.to_string(),
            claim: figure.claim.to_string(),
            stack,
            os: stack.os.name().to_string(),
            measured: report.headline.clone(),
            wall_ms,
            rows: report.envelope.clone(),
        }
    }
}

/// The scoreboard file schema (`BENCH_summary.json`).
#[derive(Serialize)]
pub struct BenchSummary {
    /// Total wall-clock for the whole scoreboard, in milliseconds.
    pub total_wall_ms: f64,
    /// One record per registered figure.
    pub experiments: Vec<ExperimentSummary>,
}

/// The `summary` binary: run every registered figure under the shared
/// command line, print the scoreboard, and write `BENCH_summary.json` (or
/// the `--json` path).
pub fn summary_main() {
    let cli = Cli::parse("summary", &[]);
    let t0 = Instant::now();
    let runs: Vec<(&Figure, Report, f64)> = FIGURES
        .iter()
        .map(|f| {
            let t = Instant::now();
            let report = report_or_exit(f, &cli);
            (f, report, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    print!("{}", scoreboard(runs.iter().map(|(f, r, _)| (*f, r))));
    let summary = BenchSummary {
        total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        experiments: runs
            .iter()
            .map(|(f, r, ms)| ExperimentSummary::new(f, r, *ms))
            .collect(),
    };
    let path = cli.json.as_deref().unwrap_or("BENCH_summary.json");
    let json = serde_json::to_string_pretty(&summary).expect("serializable summary");
    write_output(path, "summary", &json);
}
