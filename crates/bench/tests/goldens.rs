//! Golden-output check. Every registered figure, run in-process with no
//! flags, must render exactly its committed `golden/<name>.stdout`, and the
//! scoreboard rendered from those same reports must match
//! `golden/summary.stdout`. The determinism properties are assertions
//! here too: seeded replay and a replayable trace.
//!
//! On drift the failure names the first differing line and writes the
//! fresh text under `CARGO_TARGET_TMPDIR`, so `diff -u` shows the whole
//! change. `BLESS=1 cargo test -p interweave-bench --test goldens` rewrites
//! the committed texts instead: bless only a deliberate repin, and explain
//! the moved numbers in the same change.

use interweave_bench::figures::{figure, scoreboard, FIGURES};
use interweave_bench::harness::{Cli, Report};
use std::path::Path;
use std::sync::OnceLock;

/// Every figure's report under `Cli::default()`, run once per test binary.
fn default_reports() -> &'static [Report] {
    static REPORTS: OnceLock<Vec<Report>> = OnceLock::new();
    REPORTS.get_or_init(|| FIGURES.iter().map(|f| (f.run)(&Cli::default())).collect())
}

fn default_report(name: &str) -> &'static Report {
    let i = FIGURES.iter().position(|f| f.name == name);
    &default_reports()[i.expect("registered figure")]
}

fn run(name: &str, cli: Cli) -> Report {
    (figure(name).run)(&cli)
}

/// Where two texts first differ, by line.
fn first_difference(want: &str, got: &str) -> String {
    let (w, g): (Vec<&str>, Vec<&str>) = (want.split('\n').collect(), got.split('\n').collect());
    let n = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i));
    let n = n.expect("the texts differ");
    format!(
        "first difference at line {}:\n  want {:?}\n  got  {:?}",
        n + 1,
        w.get(n),
        g.get(n)
    )
}

/// Compare `fresh` with the committed text `golden/<name>.stdout`, or
/// rewrite that text under `BLESS=1`. Returns the drift, if any.
fn check_golden(name: &str, fresh: &str) -> Option<String> {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}.stdout"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, fresh).expect("writable golden text");
        return None;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if want == fresh {
        return None;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.stdout"));
    std::fs::write(&out, fresh).expect("writable target tmpdir");
    Some(format!(
        "{name}: {}\n  diff -u {} {}",
        first_difference(&want, fresh),
        golden.display(),
        out.display()
    ))
}

/// Assert two runs of `name` rendered the same text.
fn assert_same_text(name: &str, want: &Report, got: &Report) {
    assert!(
        want.text == got.text,
        "{name}: {}",
        first_difference(&want.text, &got.text)
    );
}

#[test]
fn every_figure_and_the_scoreboard_match_their_goldens() {
    let reports = default_reports();
    let mut drift: Vec<String> = FIGURES
        .iter()
        .zip(reports)
        .filter_map(|(f, r)| check_golden(f.name, &r.text))
        .collect();
    drift.extend(check_golden(
        "summary",
        &scoreboard(FIGURES.iter().zip(reports)),
    ));
    assert!(
        drift.is_empty(),
        "golden drift (BLESS=1 rewrites the texts):\n{}",
        drift.join("\n")
    );
}

#[test]
fn every_binary_runs_a_registered_figure() {
    let bin = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let files = std::fs::read_dir(&bin).expect("src/bin").count();
    assert_eq!(
        files,
        FIGURES.len() + 1,
        "one binary per figure, plus summary"
    );
    for f in FIGURES {
        assert!(bin.join(format!("{}.rs", f.name)).exists(), "{}", f.name);
    }
}

/// `tab_serve` asked for its `--metrics-out` document.
fn serve_metrics() -> Report {
    let cli = Cli {
        metrics_out: Some("metrics.json".into()),
        ..Cli::default()
    };
    let report = run("tab_serve", cli);
    assert!(
        report.metrics.is_some(),
        "--metrics-out must produce a document"
    );
    report
}

/// The seeded campaigns (injection sites, chaos, backoff jitter) replay
/// bit-identically, `--json` rows and `tab_serve`'s windowed metrics
/// included.
#[test]
fn seeded_campaigns_replay_identically() {
    for name in ["tab_faults", "tab_serve"] {
        let (first, second) = (default_report(name), run(name, Cli::default()));
        assert_same_text(name, first, &second);
        assert!(first.json == second.json, "{name}: --json rows differ");
    }
    assert!(
        serve_metrics().metrics == serve_metrics().metrics,
        "tab_serve: --metrics-out differs on replay"
    );
}

/// A full-span instrumented run replays bit-identically, trace included,
/// and asking for the trace does not change the text.
#[test]
fn profile_trace_replays_identically() {
    let cli = Cli {
        trace_out: Some("trace.json".into()),
        ..Cli::default()
    };
    let (a, b) = (run("tab_profile", cli.clone()), run("tab_profile", cli));
    assert!(a.trace.is_some(), "--trace-out must produce a trace");
    assert_same_text("tab_profile", &a, &b);
    assert!(a.trace == b.trace, "trace documents differ");
    assert_same_text("tab_profile", default_report("tab_profile"), &a);
}
