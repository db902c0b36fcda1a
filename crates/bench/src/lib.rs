//! # interweave-bench
//!
//! Regeneration harness for every table and figure in the paper. Each
//! experiment is one [`figures::Figure`] value in the [`figures::FIGURES`]
//! registry; the binary of the same name in `src/bin/` is a one-line
//! `main` that runs it and prints the same rows/series the paper reports:
//!
//! | binary            | reproduces |
//! |-------------------|------------|
//! | `fig3_heartbeat`  | Fig. 3 — achieved vs. target heartbeat rate |
//! | `fig4_fibers`     | Fig. 4 — context-switch costs + granularity floors |
//! | `fig6_openmp`     | Fig. 6 — RTK/PIK/CCK vs. Linux OpenMP scaling |
//! | `fig7_coherence`  | Fig. 7 — selective coherence speedup + NoC energy |
//! | `tab_primitives`  | §III — Nautilus vs. Linux primitive costs |
//! | `tab_carat`       | §IV-A — CARAT overhead table (<6 % geomean) |
//! | `tab_virtines`    | §IV-D/§V-E — isolation start-up latency table |
//! | `tab_pipeline`    | §V-D — pipeline-interrupt dispatch + ablation |
//! | `tab_blend`       | §V-C — blended drivers + far-memory sweeps |
//! | `tab_ablations`   | §V-B/§V-F — protocol, disaggregation, RISC-V, guard-cost ablations |
//! | `tab_faults`      | extension — cross-layer fault injection + recovery costs |
//! | `tab_profile`     | extension — cycle attribution, interwoven vs. layered |
//! | `tab_serve`       | extension — open-loop serving under chaos: goodput + tail curves |
//! | `summary`         | the scoreboard: every figure's headline, written to `BENCH_summary.json` |
//!
//! Every binary accepts the shared flags of [`harness::Cli`]. The
//! [`harness`] module owns that CLI contract plus stack composition and
//! sweep plumbing; the figures declare [`harness::Scenario`]s and render
//! [`Table`]s of typed [`Cell`]s into a [`harness::Report`]. A table is
//! one value behind both outputs: it prints as the report's text, and
//! `--json <path>` writes it, unrounded, as data — the `--json` rows are
//! every figure's tables as printed. `tests/goldens.rs` pins every
//! report's text and checks that its JSON tables are the printed ones.

pub mod figures;
pub mod harness;

use serde::Serialize;
use std::fmt;

/// The suffixes a float cell may print after its digits.
pub(crate) const SUFFIXES: [&str; 4] = ["", "%", "x", "×"];

/// One table cell. [`Display`](fmt::Display) renders it exactly as the
/// table prints it; [`Serialize`] writes the value behind that text: an
/// integer as a JSON integer, a float unrounded, text as a string.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer, printed in full.
    Int(i64),
    /// A float, printed with `decimals` places and then `suffix` (one of
    /// `""`, `%`, `x` and `×`).
    Float {
        /// The unrounded value.
        value: f64,
        /// Printed decimal places.
        decimals: usize,
        /// Printed after the digits.
        suffix: &'static str,
    },
    /// Text: a name, or a compound cell such as `3/1/0` or `12 → 4`.
    Text(String),
}

impl Cell {
    /// A float cell printing `decimals` places and then `suffix`.
    pub(crate) fn float(value: f64, decimals: usize, suffix: &'static str) -> Cell {
        debug_assert!(SUFFIXES.contains(&suffix), "unknown suffix {suffix:?}");
        Cell::Float {
            value,
            decimals,
            suffix,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float {
                value,
                decimals,
                suffix,
            } => write!(f, "{value:.decimals$}{suffix}"),
            Cell::Text(t) => f.write_str(t),
        }
    }
}

impl Serialize for Cell {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Cell::Int(v) => v.serialize_json(out),
            Cell::Float { value, .. } => value.serialize_json(out),
            Cell::Text(t) => t.serialize_json(out),
        }
    }
}

/// The `From` impls behind [`s`]: integers become [`Cell::Int`], names
/// and flags [`Cell::Text`].
macro_rules! cells_from {
    ($variant:ident($v:ident => $cell:expr): $($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Cell {
                Cell::$variant($cell)
            }
        }
    )*};
}

cells_from!(Int(v => v.into()): u32, i32);
cells_from!(Int(v => i64::try_from(v).expect("integer cell fits i64")): u64, usize);
cells_from!(Text(t => t.to_string()): &str, String, &String, bool);

/// One printed table as a value: the `== title ==` banner, the header,
/// and the rows. Column 0 is the row key by convention.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// The banner text.
    pub title: String,
    /// Column names; rows may be wider (`render_table` widens the grid).
    pub header: Vec<String>,
    /// The data rows, in printed order.
    pub rows: Vec<Vec<Cell>>,
}

/// A boxed table as text: a blank line, the `== title ==` banner, then
/// the aligned header and rows, one per line.
///
/// Rows may be wider than the header; the extra columns get an empty
/// header cell and align like any other column.
pub fn table_text(title: &str, header: &[&str], rows: &[Vec<Cell>]) -> String {
    let mut out = format!("\n== {title} ==\n");
    for l in render_table(header, rows) {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

/// The aligned lines of a table (header, rule, data rows), without the
/// title banner. Split out so formatting is unit-testable.
pub(crate) fn render_table(header: &[&str], rows: &[Vec<Cell>]) -> Vec<String> {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Cell::to_string).collect())
        .collect();
    let columns = rows
        .iter()
        .map(|r| r.len())
        .max()
        .unwrap_or(0)
        .max(header.len());
    let mut widths: Vec<usize> = vec![0; columns];
    for (i, h) in header.iter().enumerate() {
        widths[i] = h.len();
    }
    for r in &rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| -> String {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        s.trim_end().to_string()
    };
    let mut out = Vec::with_capacity(rows.len() + 2);
    let mut head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    head.resize(columns, String::new());
    out.push(line(&head));
    out.push(line(
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    ));
    for r in &rows {
        out.push(line(r));
    }
    out
}

/// A float cell with fixed decimals and no suffix.
pub(crate) fn f(value: f64, decimals: usize) -> Cell {
    Cell::float(value, decimals, "")
}

/// A percentage cell: fixed decimals, then `%`.
pub(crate) fn pct(value: f64, decimals: usize) -> Cell {
    Cell::float(value, decimals, "%")
}

/// An integer or text cell.
pub fn s(v: impl Into<Cell>) -> Cell {
    v.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_header_sized_rows() {
        let lines = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "22".into()],
            ],
        );
        assert_eq!(lines[0], "name   value");
        assert_eq!(lines[1], "-----  -----");
        assert_eq!(lines[2], "alpha  1");
        assert_eq!(lines[3], "b      22");
    }

    #[test]
    fn render_table_sizes_columns_beyond_the_header() {
        // Rows wider than the header: the extra column must get a real
        // width (sized to its widest cell), not a hardcoded fallback.
        let lines = render_table(
            &["name"],
            &[
                vec!["a".into(), "short".into()],
                vec!["b".into(), "a-much-longer-cell".into()],
            ],
        );
        assert_eq!(lines[0], "name");
        assert_eq!(lines[1], "----  ------------------");
        assert_eq!(lines[2], "a     short");
        assert_eq!(lines[3], "b     a-much-longer-cell");
    }

    #[test]
    fn cells_render_as_the_text_printed_and_serialize_as_values() {
        let json = |c: &Cell| serde_json::to_string(c).expect("serializable cell");
        // What the tables printed before cells were typed: `v.to_string()`
        // and `format!("{v:.d$}")` plus a suffix.
        let int = s(1_234_567u64);
        assert_eq!(int.to_string(), 1_234_567u64.to_string());
        assert_eq!(json(&int), "1234567");
        let v = 2.0 / 3.0;
        for suffix in SUFFIXES {
            let cell = Cell::float(v, 2, suffix);
            assert_eq!(cell.to_string(), format!("{v:.2}") + suffix);
            assert_eq!(json(&cell), v.to_string(), "unrounded, whatever the suffix");
        }
        assert_eq!(pct(12.345, 1).to_string(), "12.3%");
        assert_eq!(f(12.345, 0).to_string(), "12");
        let text = s("12 → 4");
        assert_eq!(text.to_string(), "12 → 4");
        assert_eq!(json(&text), "\"12 → 4\"");
    }

    #[test]
    fn render_table_handles_empty_rows() {
        let lines = render_table(&["a", "b"], &[]);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "a  b");
    }
}
