//! # interweave-bench
//!
//! Regeneration harness for every table and figure in the paper. Each
//! binary in `src/bin/` reproduces one experiment and prints the same
//! rows/series the paper reports:
//!
//! | binary            | reproduces |
//! |-------------------|------------|
//! | `fig3_heartbeat`  | Fig. 3 — achieved vs. target heartbeat rate |
//! | `fig4_fibers`     | Fig. 4 — context-switch costs + granularity floors |
//! | `fig6_openmp`     | Fig. 6 — RTK/PIK/CCK vs. Linux OpenMP scaling |
//! | `fig7_coherence`  | Fig. 7 — selective coherence speedup + NoC energy |
//! | `tab_carat`       | §IV-A — CARAT overhead table (<6 % geomean) |
//! | `tab_primitives`  | §III — Nautilus vs. Linux primitive costs |
//! | `tab_virtines`    | §IV-D/§V-E — isolation start-up latency table |
//! | `tab_pipeline`    | §V-D — pipeline-interrupt dispatch + ablation |
//! | `tab_blend`       | §V-C — blended drivers + far-memory sweeps |
//! | `tab_faults`      | extension — cross-layer fault injection + recovery costs |
//! | `tab_profile`     | extension — cycle attribution, interwoven vs. layered |
//! | `tab_serve`       | extension — open-loop serving under chaos: goodput + tail curves |
//!
//! Each binary accepts `--json <path>` to also dump machine-readable
//! results, used by `EXPERIMENTS.md` bookkeeping. The [`harness`] module
//! owns that CLI contract plus stack composition and sweep plumbing; the
//! binaries above declare [`harness::Scenario`]s and print.

pub mod harness;

use std::fmt::Display;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f` over `items` on a bounded pool of scoped worker threads,
/// preserving input order in the output.
///
/// The pool is capped at [`std::thread::available_parallelism`] (and at the
/// item count), and workers pull work items from a shared index — so a
/// 200-point sweep occupies exactly the host's cores instead of spawning
/// 200 threads and oversubscribing the scheduler. The simulators are
/// deterministic and independent per run, so fan-out changes nothing but
/// wall-clock time.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items are taken by index; results land in their input slot, so the
    // output order is the input order regardless of completion order.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot")
                    .take()
                    .expect("each index is claimed once");
                let r = f(item);
                *results[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("worker filled"))
        .collect()
}

/// Print a boxed table: header row then aligned data rows.
///
/// Rows may be wider than the header; the extra columns get an empty
/// header cell and align like any other column.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    for l in render_table(header, rows) {
        println!("{l}");
    }
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
    fn parallel_map_preserves_input_order() {
        let out = parallel_map((0..500u64).collect(), |x| x * 3);
        assert_eq!(out, (0..500u64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(parallel_map(vec![7u64], |x| x + 1), vec![8]);
    }

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
