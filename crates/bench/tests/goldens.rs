//! Golden-output check. Every registered figure, run in-process with no
//! flags, must render exactly its committed `golden/<name>.stdout`, and the
//! scoreboard rendered from those same reports must match
//! `golden/summary.stdout`. Every report's `--json` tables must be the
//! tables its text prints, cell for cell. The determinism properties are
//! assertions here too: seeded replay and a replayable trace.
//!
//! On drift the failure names the first differing line and writes the
//! fresh text under `CARGO_TARGET_TMPDIR`, so `diff -u` shows the whole
//! change. `BLESS=1 cargo test -p interweave-bench --test goldens` rewrites
//! the committed texts instead: bless only a deliberate repin, and explain
//! the moved numbers in the same change.

use interweave_bench::figures::{figure, scoreboard, FIGURES};
use interweave_bench::harness::{Cli, Report};
use serde::json::JsonValue;
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
/// bit-identically, `--json` tables and `tab_serve`'s windowed metrics
/// included.
#[test]
fn seeded_campaigns_replay_identically() {
    for name in ["tab_faults", "tab_serve"] {
        let (first, second) = (default_report(name), run(name, Cli::default()));
        assert_same_text(name, first, &second);
        assert!(
            first.json() == second.json(),
            "{name}: --json tables differ"
        );
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

/// The cells of `line` on the grid of a table whose columns start at
/// the char offsets `starts` (cells pad to their width in chars), or
/// `None` when the line is not on that grid: every column starts with a
/// non-space, after a two-space gap.
fn printed_cells(line: &str, starts: &[usize]) -> Option<Vec<String>> {
    let c: Vec<char> = line.chars().collect();
    let on_grid = |&p: &usize| c.len() > p && c[p] != ' ' && (p == 0 || c[p - 2..p] == [' '; 2]);
    if !starts.iter().all(on_grid) {
        return None;
    }
    let ends = starts[1..].iter().copied().chain([c.len()]);
    let cells = starts
        .iter()
        .zip(ends)
        .map(|(&a, z)| c[a..z].iter().collect::<String>());
    Some(cells.map(|cell| cell.trim_end().to_string()).collect())
}

/// Whether the printed `text` shows the JSON `cell`: text and integers
/// verbatim, a float as its unrounded value rounded to the printed
/// decimals (before an optional `%`, `x` or `×` suffix).
fn shows(text: &str, cell: &JsonValue) -> bool {
    let digits = ["%", "x", "×"]
        .iter()
        .find_map(|sfx| text.strip_suffix(sfx));
    let digits = digits.unwrap_or(text);
    let decimals = digits.split_once('.').map_or(0, |(_, d)| d.len() as i32);
    match (cell, digits.parse::<f64>()) {
        (JsonValue::Str(s), _) => text == s,
        (JsonValue::Num(n), _) if text == n => true,
        (JsonValue::Num(n), Ok(printed)) => n
            .parse::<f64>()
            .is_ok_and(|v| (v - printed).abs() <= 0.5 * 10f64.powi(-decimals) * (1.0 + 1e-9)),
        (JsonValue::Null, Ok(printed)) => !printed.is_finite(),
        _ => false,
    }
}

fn array<'a>(v: &'a JsonValue, field: &str) -> &'a [JsonValue] {
    match v.get(field) {
        Some(JsonValue::Arr(a)) => a,
        other => panic!("{field} must be an array, got {other:?}"),
    }
}

/// The text and the `--json` tables cannot disagree: the envelope's
/// tables are the text's `== title ==` banners, in order, and under each
/// banner the printed header, rule and rows are the table's header and
/// rows — same row count, same column count, cell for cell — with no
/// further row on the table's grid.
#[test]
fn every_json_table_is_the_table_its_text_prints() {
    for (f, r) in FIGURES.iter().zip(default_reports()) {
        let doc = serde::json::parse(&r.json()).expect("valid envelope");
        let tables = array(&doc, "tables");
        let lines: Vec<&str> = r.text.lines().collect();
        let banners: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("== ") && lines[i].ends_with(" =="))
            .collect();
        let printed: Vec<&str> = banners
            .iter()
            .map(|&i| &lines[i][3..lines[i].len() - 3])
            .collect();
        let titles: Vec<&str> = tables
            .iter()
            .filter_map(|t| t.get("title")?.as_str())
            .collect();
        assert_eq!(titles, printed, "{}: tables vs printed banners", f.name);
        for (table, title) in tables.iter().zip(&banners) {
            let block = &lines[title + 1..];
            let at = format!("{}: table {:?}", f.name, lines[*title]);
            // The `---  ---` rule is ASCII: its byte offsets are chars.
            let rule = block[1].as_bytes();
            let starts: Vec<usize> = (0..rule.len())
                .filter(|&i| rule[i] == b'-' && (i == 0 || rule[i - 1] == b' '))
                .collect();
            let want: Vec<&str> = array(table, "header")
                .iter()
                .filter_map(JsonValue::as_str)
                .collect();
            // Rows may be wider than the header: its extra columns are blank.
            let header = printed_cells(block[0], &starts[..want.len()]);
            assert_eq!(
                header,
                Some(want.iter().map(|h| h.to_string()).collect()),
                "{at}: header"
            );
            let rows = array(table, "rows");
            for (i, row) in rows.iter().enumerate() {
                let JsonValue::Arr(cells) = row else {
                    panic!("{at}: row {i} is not an array")
                };
                let line = block.get(2 + i).copied().unwrap_or_default();
                let printed = printed_cells(line, &starts);
                let printed =
                    printed.unwrap_or_else(|| panic!("{at}: row {i} not printed: {line:?}"));
                assert_eq!(cells.len(), starts.len(), "{at}: row {i} column count");
                for (c, p) in cells.iter().zip(&printed) {
                    assert!(shows(p, c), "{at}: row {i}: {c:?} printed as {p:?}");
                }
            }
            let next = block.get(2 + rows.len()).copied().unwrap_or_default();
            let extra = printed_cells(next, &starts);
            assert!(
                extra.is_none(),
                "{at}: printed row {next:?} is not in the JSON"
            );
        }
    }
}
