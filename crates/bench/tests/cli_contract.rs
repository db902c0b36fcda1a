//! Process-level contract of the shared command line: a malformed flag
//! exits with status 2 and a typed message on stderr (never a panic), and
//! `--json <path>` writes the harness's results envelope.

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
    let out = run(env!("CARGO_BIN_EXE_tab_serve"), &["--shards"]);
    assert_rejected(&out, "error: --shards takes a positive count");
}

#[test]
fn an_invalid_flag_value_exits_2_with_the_value_named() {
    let out = run(env!("CARGO_BIN_EXE_fig7_coherence"), &["--shards", "0"]);
    assert_rejected(&out, "error: --shards takes a positive count, got \"0\"");
}

#[test]
fn a_bare_json_flag_is_rejected_not_ignored() {
    let out = run(env!("CARGO_BIN_EXE_tab_carat"), &["--json"]);
    assert_rejected(&out, "error: --json takes a path");
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
    let v = serde::json::parse(&json).expect("valid envelope");
    match (v.get("scenarios"), v.get("rows")) {
        (Some(serde::json::JsonValue::Arr(scenarios)), Some(serde::json::JsonValue::Arr(rows))) => {
            assert_eq!(scenarios.len(), 2, "idt and pipeline scenarios");
            assert_eq!(rows.len(), 3, "one row per compared quantity");
        }
        other => panic!("envelope must carry scenarios and rows arrays, got {other:?}"),
    }
}
