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

use interweave_bench::figures::{figure, scoreboard, Figure, FIGURES};
use interweave_bench::harness::{Cli, Report, ScenarioError};
use interweave_bench::{s, table_text};
use interweave_core::stack::{
    CoherencePolicy, Isolation, OsPoint, StackConfig, TimingSource, Translation,
};
use serde::json::JsonValue;
use std::path::Path;
use std::sync::OnceLock;

/// Every figure's report under `Cli::default()`, run once per test binary.
fn default_reports() -> &'static [Report] {
    static REPORTS: OnceLock<Vec<Report>> = OnceLock::new();
    REPORTS.get_or_init(|| FIGURES.iter().map(|f| report(f, &Cli::default())).collect())
}

fn default_report(name: &str) -> &'static Report {
    let i = FIGURES.iter().position(|f| f.name == name);
    &default_reports()[i.expect("registered figure")]
}

fn report(f: &Figure, cli: &Cli) -> Report {
    let report = f.report(cli);
    report.unwrap_or_else(|e| panic!("{}: {e}", f.name))
}

fn run(name: &str, cli: Cli) -> Report {
    report(figure(name), &cli)
}

/// Where two texts first differ: the line, and when it falls in a
/// table, the cell that moved.
fn first_difference(want: &str, got: &str) -> String {
    let (w, g): (Vec<&str>, Vec<&str>) = (want.split('\n').collect(), got.split('\n').collect());
    let n = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i));
    let n = n.expect("the texts differ");
    let cell = moved_cell(&w, &g, n).map_or(String::new(), |c| format!(" ({c})"));
    format!(
        "first difference at line {}{cell}:\n  want {:?}\n  got  {:?}",
        n + 1,
        w.get(n),
        g.get(n)
    )
}

fn is_banner(line: &str) -> bool {
    line.starts_with("== ") && line.ends_with(" ==")
}

/// The char offsets where a table's columns start: the starts of the
/// runs of its `---  ---` rule.
fn rule_starts(rule: &str) -> Vec<usize> {
    let rule = rule.as_bytes();
    (0..rule.len())
        .filter(|&i| rule[i] == b'-' && (i == 0 || rule[i - 1] == b' '))
        .collect()
}

/// The first cell that differs in the table around line `n`, as `table
/// "title", row "key", column "name": "was" → "is"`. Walks back from
/// `n` to the `== title ==` banner, then splits both texts' rows at their
/// own rule's column starts, so a widened column still compares cell by
/// cell. `None` when line `n` is not in a table both texts print under
/// the same banner, or the tables differ only in their row count.
fn moved_cell(want: &[&str], got: &[&str], n: usize) -> Option<String> {
    let banner = (0..=n.min(want.len() - 1))
        .rev()
        .find(|&i| is_banner(want[i]))?;
    if got.get(banner) != Some(&want[banner]) {
        return None;
    }
    let grid = |text: &[&str]| {
        let starts = rule_starts(text.get(banner + 2)?);
        let rows = text.get(banner + 3..)?.iter();
        let rows: Vec<Vec<String>> = rows.map_while(|l| printed_cells(l, &starts)).collect();
        Some((starts, rows))
    };
    let ((starts, want_rows), (_, got_rows)) = (grid(want)?, grid(got)?);
    let (row, col) = want_rows
        .iter()
        .zip(&got_rows)
        .enumerate()
        .find_map(|(r, (a, b))| {
            let col = (0..a.len().max(b.len())).find(|&c| a.get(c) != b.get(c));
            col.map(|c| (r, c))
        })?;
    // The header may be narrower than the rows: take its on-grid columns.
    let header = (1..=starts.len())
        .rev()
        .find_map(|m| printed_cells(want[banner + 1], &starts[..m]))?;
    let column = header
        .get(col)
        .map_or(format!("#{}", col + 1), |h| h.clone());
    let cell = |rows: &[Vec<String>]| rows[row].get(col).cloned().unwrap_or_default();
    Some(format!(
        "table {:?}, row {:?}, column {column:?}: {:?} → {:?}",
        &want[banner][3..want[banner].len() - 3],
        want_rows[row][0],
        cell(&want_rows),
        cell(&got_rows)
    ))
}

/// The committed text `golden/<name>.stdout`.
fn golden_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}.stdout"))
}

/// Compare `fresh` with the committed text `golden/<name>.stdout`, or
/// rewrite that text under `BLESS=1`. Returns the drift, if any.
fn check_golden(name: &str, fresh: &str) -> Option<String> {
    let golden = golden_path(name);
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
        let banners: Vec<usize> = (0..lines.len()).filter(|&i| is_banner(lines[i])).collect();
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
            let starts = rule_starts(block[1]);
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

#[test]
fn a_moved_cell_is_named_by_table_row_and_column() {
    let want = "note\n\n== T ==\nkey  a    b\n---  ---  -\nx    1    2\ny    3    4\n";
    // `y`'s `a` widens its column: every later line moves, one cell changed.
    let got = "note\n\n== T ==\nkey  a     b\n---  ----  -\nx    1     2\ny    3.5   4\n";
    assert_eq!(
        first_difference(want, got),
        "first difference at line 4 (table \"T\", row \"y\", column \"a\": \"3\" → \"3.5\"):\n  \
         want Some(\"key  a    b\")\n  got  Some(\"key  a     b\")"
    );
    // Outside a table the line alone is named.
    assert_eq!(
        first_difference("a\nb", "a\nc"),
        "first difference at line 2:\n  want Some(\"b\")\n  got  Some(\"c\")"
    );
}

#[test]
fn no_figure_repeats_a_scenario_id() {
    for f in FIGURES {
        let ids: Vec<&str> = (f.scenarios)().iter().map(|sc| sc.id).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "{}: {id:?} declared twice", f.name);
        }
    }
}

#[test]
fn a_figure_rejects_a_stack_it_cannot_run_naming_the_scenario() {
    let mut scenarios = (figure("fig6_openmp").scenarios)();
    // Compiler-injected timing under user-level libomp: no OpenMP mode.
    scenarios[0].config.timing = TimingSource::CompilerInjected;
    let e = figure("fig6_openmp").report_on(&Cli::default(), &scenarios);
    let e = e.expect_err("no OpenMP mode");
    assert!(
        matches!(e, ScenarioError::Unsupported { id: "linux", .. }),
        "{e}"
    );
}

/// The read map's columns: each axis and its number of values.
const AXES: [(&str, usize); 5] = [
    ("timing", TimingSource::ALL.len()),
    ("os", OsPoint::ALL.len()),
    ("translation", Translation::ALL.len()),
    ("coherence", CoherencePolicy::ALL.len()),
    ("isolation", Isolation::ALL.len()),
];

/// `c` with axis `axis` (an index into [`AXES`]) moved `k` values along
/// its `ALL` order, wrapping around.
fn flipped(mut c: StackConfig, axis: usize, k: usize) -> StackConfig {
    fn step<T: Copy + PartialEq>(all: &[T], v: &mut T, k: usize) {
        let i = all
            .iter()
            .position(|x| x == v)
            .expect("a value of its axis");
        *v = all[(i + k) % all.len()];
    }
    match axis {
        0 => step(&TimingSource::ALL, &mut c.timing, k),
        1 => step(&OsPoint::ALL, &mut c.os, k),
        2 => step(&Translation::ALL, &mut c.translation, k),
        3 => step(&CoherencePolicy::ALL, &mut c.coherence, k),
        _ => step(&Isolation::ALL, &mut c.isolation, k),
    }
    c
}

/// Which axes drive which output, measured: every declared scenario of
/// every figure has each axis flipped to the next value that composes and
/// that the figure accepts, and the figure re-runs. A cell is `R` when the
/// stdout changed, `.` when it stayed byte-identical, and `x` when no
/// other value composes and is accepted. The map is pinned in
/// `golden/axes.stdout`, so a figure whose scenarios slide back to labels
/// shows up as a diff, and a cell that turns from `.` to `R` names the
/// output cell the flip moved.
#[test]
fn every_axis_flip_reads_as_the_pinned_map() {
    let jobs: Vec<(usize, usize, usize)> = (0..FIGURES.len())
        .flat_map(|f| {
            let n = (FIGURES[f].scenarios)().len();
            (0..n).flat_map(move |sc| (0..AXES.len()).map(move |axis| (f, sc, axis)))
        })
        .collect();
    // One flip at a time: the figures fan their own runs out over the
    // host's threads.
    let flips: Vec<Option<String>> = jobs
        .iter()
        .map(|&(f, sc, axis)| {
            let figure = &FIGURES[f];
            let mut scenarios = (figure.scenarios)();
            let config = scenarios[sc].config;
            (1..AXES[axis].1).find_map(|k| {
                scenarios[sc].config = flipped(config, axis, k);
                let report = figure.report_on(&Cli::default(), &scenarios);
                report.ok().map(|r| r.text)
            })
        })
        .collect();
    let mut cells = jobs.iter().zip(&flips);
    let mut map = String::new();
    let mut moved = Vec::new();
    for (f, figure) in FIGURES.iter().enumerate() {
        let base = &default_reports()[f].text;
        let mut rows = Vec::new();
        for sc in (figure.scenarios)() {
            let mut row = vec![s(sc.id)];
            for ((_, _, axis), flip) in cells.by_ref().take(AXES.len()) {
                row.push(s(match flip {
                    None => "x",
                    Some(text) if text == base => ".",
                    Some(text) => {
                        moved.push((f, sc.id, *axis, text));
                        "R"
                    }
                }));
            }
            rows.push(row);
        }
        let mut header = vec!["scenario"];
        header.extend(AXES.map(|(axis, _)| axis));
        map.push_str(&table_text(figure.name, &header, &rows));
    }
    let Some(drift) = check_golden("axes", &map) else {
        return;
    };
    // A cell pinned as `.` that now reads `R` names what its flip moved.
    let pinned = std::fs::read_to_string(golden_path("axes")).unwrap_or_default();
    let pinned_mark = |f: usize, sc: &str, axis: usize| {
        let banner = format!("{} ==", FIGURES[f].name);
        let table = pinned.split("\n== ").find(|t| t.starts_with(&banner))?;
        let row = table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(sc))?;
        row.split_whitespace().nth(1 + axis)
    };
    let named: Vec<String> = moved
        .into_iter()
        .filter(|&(f, sc, axis, _)| pinned_mark(f, sc, axis) == Some("."))
        .map(|(f, sc, axis, text)| {
            let was = &default_reports()[f].text;
            let name = FIGURES[f].name;
            format!(
                "{name} {sc} × {}: {}",
                AXES[axis].0,
                first_difference(was, text)
            )
        })
        .collect();
    panic!(
        "axis read map drift (BLESS=1 rewrites it):\n{drift}\n{}",
        named.join("\n")
    );
}
