//! Process-level contract of the shared command line: a malformed or
//! unknown flag exits with status 2 and a typed message on stderr (never a
//! panic), `--json <path>` writes the harness's results envelope, and every
//! output file gets its missing parent directories or, when it cannot be
//! written, an exit with status 2 naming the path.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary under test runs")
}

fn assert_rejected(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(message), "stderr: {stderr}");
    assert!(
        stderr.contains("--window-cycles <n>"),
        "usage text missing: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "a rejected run must do no work");
}

#[test]
fn a_flag_missing_its_value_exits_2_with_that_flags_message() {
    let out = run(env!("CARGO_BIN_EXE_tab_serve"), &["--window-cycles"]);
    assert_rejected(&out, "error: --window-cycles takes a positive cycle count");
}

#[test]
fn an_invalid_flag_value_exits_2_with_the_value_named() {
    let out = run(env!("CARGO_BIN_EXE_tab_serve"), &["--window-cycles", "0"]);
    assert_rejected(
        &out,
        "error: --window-cycles takes a positive cycle count, got \"0\"",
    );
}

#[test]
fn a_bare_json_flag_is_rejected_not_ignored() {
    let out = run(env!("CARGO_BIN_EXE_tab_carat"), &["--json"]);
    assert_rejected(&out, "error: --json takes a path");
}

#[test]
fn an_unknown_flag_exits_2_instead_of_being_ignored() {
    let out = run(env!("CARGO_BIN_EXE_fig4_fibers"), &["--bogus"]);
    assert_rejected(&out, "error: unknown flag \"--bogus\"");
    let out = run(env!("CARGO_BIN_EXE_fig7_coherence"), &["--shard", "4"]);
    assert_rejected(&out, "error: unknown flag \"--shard\"");
    // Host threads are sized from the host, not by a flag: not even the
    // serving figure or the scoreboard accepts `--shards`.
    for bin in [
        env!("CARGO_BIN_EXE_tab_serve"),
        env!("CARGO_BIN_EXE_summary"),
    ] {
        let out = run(bin, &["--shards", "4"]);
        assert_rejected(&out, "error: unknown flag \"--shards\"");
    }
}

#[test]
fn ablations_json_writes_the_envelope() {
    let root = scratch_dir("ablations");
    let path = root.join("ablations.json");
    let out = run(
        env!("CARGO_BIN_EXE_tab_ablations"),
        &["--json", path.to_str().expect("utf-8 temp path")],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("envelope written");
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
    let v = serde::json::parse(&json).expect("valid envelope");
    match v.get("rows") {
        Some(serde::json::JsonValue::Arr(rows)) => assert_eq!(rows.len(), 4, "one per ablation"),
        other => panic!("envelope must carry a rows array, got {other:?}"),
    }
}

#[test]
fn summary_that_cannot_write_its_file_exits_2_naming_it() {
    // A directory squatting on the output name makes the write fail.
    let root = scratch_dir("summary");
    std::fs::create_dir_all(root.join("BENCH_summary.json")).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_summary"))
        .current_dir(&root)
        .output()
        .expect("summary runs");
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
    assert_cannot_write(&out, "BENCH_summary.json");
}

#[test]
fn json_writes_the_results_envelope() {
    let path = std::env::temp_dir().join(format!("tab_pipeline-{}.json", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let out = run(env!("CARGO_BIN_EXE_tab_pipeline"), &["--json", path_arg]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("envelope written");
    std::fs::remove_file(&path).expect("remove envelope");
    assert_envelope(&json);
}

/// `json` is `tab_pipeline`'s results envelope.
fn assert_envelope(json: &str) {
    let v = serde::json::parse(json).expect("valid envelope");
    match (v.get("scenarios"), v.get("rows")) {
        (Some(serde::json::JsonValue::Arr(scenarios)), Some(serde::json::JsonValue::Arr(rows))) => {
            assert_eq!(scenarios.len(), 2, "idt and pipeline scenarios");
            assert_eq!(rows.len(), 3, "one row per compared quantity");
        }
        other => panic!("envelope must carry scenarios and rows arrays, got {other:?}"),
    }
}

/// A fresh, not-yet-existing directory under the system temp dir.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-contract-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn json_into_a_missing_directory_creates_it() {
    let root = scratch_dir("json");
    let path = root.join("a/b/envelope.json");
    let out = run(
        env!("CARGO_BIN_EXE_tab_pipeline"),
        &["--json", path.to_str().expect("utf-8 temp path")],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("envelope written");
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
    assert_envelope(&json);
}

#[test]
fn serve_trace_out_into_a_missing_directory_creates_it() {
    let root = scratch_dir("serve-trace");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let metrics = root.join("metrics.json");
    let trace = root.join("x/y/trace.json");
    let out = run(
        env!("CARGO_BIN_EXE_tab_serve"),
        &[
            "--offered-load",
            "1.0",
            "--duration-ms",
            "5",
            "--metrics-out",
            metrics.to_str().expect("utf-8 temp path"),
            "--trace-out",
            trace.to_str().expect("utf-8 temp path"),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
    assert!(
        doc.contains("\"ph\":\"C\""),
        "counter tracks missing: {doc}"
    );
    serde::json::parse(&doc).expect("valid trace JSON");
}

#[test]
fn serve_too_short_for_any_fault_prints_the_zero_ledger() {
    let out = run(env!("CARGO_BIN_EXE_tab_serve"), &["--duration-ms", "0.001"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no fault injected at the 1.5x point"),
        "stdout: {stdout}"
    );
}

#[test]
fn serve_ledger_names_the_load_it_measured() {
    let out = run(
        env!("CARGO_BIN_EXE_tab_serve"),
        &["--offered-load", "2", "--duration-ms", "5"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("fault ledger at 2.0x load") && stdout.contains("at the 2.0x point"),
        "stdout: {stdout}"
    );
    assert!(!stdout.contains("1.5x"), "stdout: {stdout}");
}

#[test]
fn a_flag_the_figure_does_not_read_exits_2_naming_it() {
    for (name, bin, args, flag) in [
        (
            "tab_pipeline",
            env!("CARGO_BIN_EXE_tab_pipeline"),
            &[
                "--offered-load",
                "2",
                "--os",
                "linux",
                "--arrival",
                "bursty",
                "--window-cycles",
                "5",
            ][..],
            "--offered-load",
        ),
        (
            "fig6_openmp",
            env!("CARGO_BIN_EXE_fig6_openmp"),
            &["--os", "linux"],
            "--os",
        ),
        (
            "summary",
            env!("CARGO_BIN_EXE_summary"),
            &["--os", "linux"],
            "--os",
        ),
    ] {
        let out = run(bin, args);
        assert_no_document(&out, name, flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let message = format!("error: {name} does not read {flag}");
        assert!(stderr.contains(&message), "stderr: {stderr}");
    }
}

#[test]
fn a_flag_the_figure_reads_is_accepted() {
    let out = run(env!("CARGO_BIN_EXE_fig3_heartbeat"), &["--os", "linux"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn trace_out_on_a_figure_without_a_trace_exits_2_naming_it() {
    let root = scratch_dir("heartbeat-trace");
    let trace = root.join("trace.json");
    let out = run(
        env!("CARGO_BIN_EXE_fig3_heartbeat"),
        &["--trace-out", trace.to_str().expect("utf-8 temp path")],
    );
    assert_no_document(&out, "fig3_heartbeat", "--trace-out");
    assert!(!trace.exists(), "no trace may be written");
}

#[test]
fn serve_trace_out_without_metrics_out_exits_2_naming_it() {
    let root = scratch_dir("serve-trace-only");
    let trace = root.join("trace.json");
    let out = run(
        env!("CARGO_BIN_EXE_tab_serve"),
        &[
            "--offered-load",
            "1.0",
            "--duration-ms",
            "5",
            "--trace-out",
            trace.to_str().expect("utf-8 temp path"),
        ],
    );
    assert_no_document(&out, "tab_serve", "--trace-out");
    assert!(!trace.exists(), "no trace may be written");
}

/// `out` is a run of `bin` that refused `flag`: it exited 2, without
/// panicking or printing its text.
fn assert_no_document(out: &Output, bin: &str, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(bin) && stderr.contains(flag),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "a refused run prints nothing");
}

#[test]
fn an_unwritable_output_path_exits_2_without_panicking() {
    let out = run(
        env!("CARGO_BIN_EXE_tab_pipeline"),
        &["--json", "/dev/null/sub/envelope.json"],
    );
    assert_cannot_write(&out, "/dev/null/sub/envelope.json");
}

/// `out` is a run that exited 2, without panicking, because it could not
/// write `path`.
fn assert_cannot_write(out: &Output, path: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    let message = format!("error: cannot write {path}");
    assert!(stderr.contains(&message), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
