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
//! Every binary accepts the shared flags of [`harness::Cli`] (`--json
//! <path>` dumps the machine-readable results). The [`harness`] module owns
//! that CLI contract plus stack composition and sweep plumbing; the
//! figures declare [`harness::Scenario`]s and render into a
//! [`harness::Report`]. `tests/goldens.rs` pins every report's text.

pub mod figures;
pub mod harness;

use std::fmt::Display;

/// A boxed table as text: a blank line, the `== title ==` banner, then
/// the aligned header and rows, one per line.
///
/// Rows may be wider than the header; the extra columns get an empty
/// header cell and align like any other column.
pub fn table_text(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("\n== {title} ==\n");
    for l in render_table(header, rows) {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

/// The aligned lines of a table (header, rule, data rows), without the
/// title banner. Split out so formatting is unit-testable.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> Vec<String> {
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
    for r in rows {
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
    for r in rows {
        out.push(line(r));
    }
    out
}

/// Format a float with fixed decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Format any displayable value.
pub fn s(v: impl Display) -> String {
    v.to_string()
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
    fn render_table_handles_empty_rows() {
        let lines = render_table(&["a", "b"], &[]);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "a  b");
    }
}
