//! Contract test for the scoreboard file: the `BenchSummary` schema the
//! `summary` binary writes to `BENCH_summary.json` must be parseable JSON,
//! every experiment's embedded [`StackConfig`] must deserialize back to
//! exactly the composition that was serialized — bookkeeping scripts key
//! on it — and every entry carries its figure's `--json` rows.

use interweave_bench::figures::{figure, BenchSummary, ExperimentSummary, FIGURES};
use interweave_bench::harness::{Cli, Harness, Scenario};
use interweave_core::machine::MachineConfig;
use interweave_core::stack::StackConfig;
use interweave_core::FaultClass;
use interweave_kernel::microbench::primitive_table;
use interweave_kernel::os::{AsterModel, LinuxModel, NkModel};
use serde::json::JsonValue;
use serde::Deserialize;

fn stacks() -> Vec<StackConfig> {
    vec![
        StackConfig::commodity(),
        StackConfig::nautilus(),
        StackConfig::rtk(),
        StackConfig::pik(),
        StackConfig::cck(),
        StackConfig::interwoven(),
    ]
}

/// `entries` through the summary binary's serialization path, parsed
/// back: the `experiments` array.
fn summary_file(entries: Vec<ExperimentSummary>) -> Vec<JsonValue> {
    let summary = BenchSummary {
        total_wall_ms: 1.5,
        experiments: entries,
    };
    let json = serde_json::to_string_pretty(&summary).expect("serializable summary");
    let doc = serde::json::parse(&json).expect("the file is valid JSON");
    assert!(doc.get("total_wall_ms").is_some());
    match doc.get("experiments") {
        Some(JsonValue::Arr(a)) => a.clone(),
        other => panic!("experiments must be an array, got {other:?}"),
    }
}

/// One entry per stack in [`stacks`], each a harness report whose
/// headline measures that stack, with shard count `i + 1`.
fn scoreboard() -> Vec<JsonValue> {
    let entries = stacks()
        .into_iter()
        .enumerate()
        .map(|(i, stack)| {
            let mc = MachineConfig::xeon_server_2s();
            let h = Harness::new(&Cli::default(), vec![Scenario::new("s", stack, mc)]);
            let report = h.finish(&vec![i], "s", "1.0x".into());
            ExperimentSummary::new(&FIGURES[i], &report, 0.25, i + 1)
        })
        .collect();
    summary_file(entries)
}

/// The rows `name`'s default run embeds in its summary entry.
fn embedded_rows(name: &str) -> JsonValue {
    let f = figure(name);
    let entry = ExperimentSummary::new(f, &(f.run)(&Cli::default()), 0.0, 1);
    let envelope = summary_file(vec![entry])[0].get("rows").cloned();
    let envelope = envelope.expect("every entry embeds its --json envelope");
    assert!(envelope.get("scenarios").is_some());
    envelope.get("rows").expect("the figure's rows").clone()
}

fn num(row: &JsonValue, field: &str) -> u64 {
    match row.get(field) {
        Some(JsonValue::Num(n)) => n.parse().expect("integral"),
        other => panic!("{field} must be a number, got {other:?}"),
    }
}

fn string<'a>(row: &'a JsonValue, field: &str) -> &'a str {
    let s = row.get(field).and_then(JsonValue::as_str);
    s.unwrap_or_else(|| panic!("{field} must be a string"))
}

#[test]
fn embedded_stack_configs_round_trip_through_the_summary_file() {
    let experiments = scoreboard();
    assert_eq!(experiments.len(), stacks().len());
    for (exp, want) in experiments.iter().zip(&stacks()) {
        let embedded = exp.get("stack").expect("every experiment embeds its stack");
        let got = StackConfig::deserialize_json(embedded).expect("stack parses back");
        assert_eq!(&got, want, "embedded composition must round-trip exactly");
    }
}

#[test]
fn summary_file_keeps_its_bookkeeping_fields() {
    let exp = &scoreboard()[0];
    for field in [
        "experiment",
        "figure",
        "claim",
        "stack",
        "os",
        "measured",
        "wall_ms",
        "shards",
        "rows",
    ] {
        assert!(exp.get(field).is_some(), "missing field {field}");
    }
    assert_eq!(string(exp, "figure"), FIGURES[0].name);
    assert_eq!(string(exp, "measured"), "1.0x");
}

#[test]
fn experiment_os_field_matches_the_embedded_stack() {
    for (exp, want) in scoreboard().iter().zip(&stacks()) {
        assert_eq!(string(exp, "os"), want.os.name());
    }
}

#[test]
fn primitive_table_round_trips_all_three_os_columns() {
    let rows = match embedded_rows("tab_primitives") {
        JsonValue::Arr(a) => a,
        other => panic!("tab_primitives rows must be an array, got {other:?}"),
    };
    let mc = MachineConfig::xeon_server_2s();
    let (lx, fk, nk) = (
        LinuxModel::new(mc.clone()),
        AsterModel::new(mc.clone()),
        NkModel::new(mc.clone()),
    );
    let table = primitive_table(&[("Linux", &lx), ("Aster", &fk), ("Nautilus", &nk)]);
    // Two machines, server first; the server rows are exactly the table.
    assert_eq!(rows.len(), 2 * table.len());
    for (row, want) in rows.iter().zip(&table) {
        assert_eq!(string(row, "machine"), mc.name);
        assert_eq!(string(row, "primitive"), want.name);
        assert_eq!(num(row, "linux_cycles"), want.costs[0].get());
        assert_eq!(num(row, "aster_cycles"), want.costs[1].get());
        assert_eq!(num(row, "nautilus_cycles"), want.costs[2].get());
    }
}

#[test]
fn shard_counts_round_trip_through_the_summary_file() {
    // Each record reports the shard count its figure ran with.
    for (i, exp) in scoreboard().iter().enumerate() {
        assert_eq!(num(exp, "shards"), i as u64 + 1);
    }
}

#[test]
fn fault_breakdown_round_trips_per_class_and_balances() {
    let ledger = match embedded_rows("tab_serve").get("fault_ledger") {
        Some(JsonValue::Arr(a)) => a.clone(),
        other => panic!("fault_ledger must be an array, got {other:?}"),
    };
    assert_eq!(ledger.len(), FaultClass::ALL.len());
    let mut injected = 0;
    for (row, class) in ledger.iter().zip(FaultClass::ALL) {
        assert_eq!(string(row, "class"), class.name());
        // The robustness invariant the ledger exists to expose: no fault
        // vanishes unaccounted.
        let (recovered, shed, absorbed) = (
            num(row, "recovered"),
            num(row, "shed"),
            num(row, "absorbed"),
        );
        assert_eq!(num(row, "injected"), recovered + shed + absorbed);
        injected += num(row, "injected");
    }
    assert!(injected > 0, "the 1.5x point must inject faults");
}
