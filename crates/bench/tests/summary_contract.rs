//! Contract test for the scoreboard file: the `BenchSummary` schema the
//! `summary` binary writes to `BENCH_summary.json` must be parseable JSON,
//! every experiment's embedded [`StackConfig`] must deserialize back to
//! exactly the composition that was serialized — bookkeeping scripts key
//! on it — and every entry carries its figure's `--json` envelope, whose
//! tables are the figure's printed tables.

use interweave_bench::figures::{figure, BenchSummary, ExperimentSummary, FIGURES};
use interweave_bench::harness::{Cli, Harness, Scenario};
use interweave_bench::s;
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
        StackConfig::framekernel(),
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
/// headline measures that stack.
fn scoreboard() -> Vec<JsonValue> {
    let entries = stacks()
        .into_iter()
        .enumerate()
        .map(|(i, stack)| {
            let mc = MachineConfig::xeon_server_2s();
            let sc = Scenario::new("s", stack, mc).compose().expect("coherent");
            let mut h = Harness::new(&Cli::default(), std::slice::from_ref(&sc));
            h.table("stack", &["index"], vec![vec![s(i)]]);
            let report = h.finish(&sc, "1.0x".into());
            ExperimentSummary::new(&FIGURES[i], &report, 0.25)
        })
        .collect();
    summary_file(entries)
}

/// The tables `name`'s default run embeds in its summary entry.
fn embedded_tables(name: &str) -> Vec<JsonValue> {
    let f = figure(name);
    let entry = ExperimentSummary::new(f, &f.report(&Cli::default()).expect("runs"), 0.0);
    let envelope = summary_file(vec![entry])[0].get("rows").cloned();
    let envelope = envelope.expect("every entry embeds its --json envelope");
    assert!(envelope.get("scenarios").is_some());
    array(&envelope, "tables").to_vec()
}

fn array<'a>(v: &'a JsonValue, field: &str) -> &'a [JsonValue] {
    match v.get(field) {
        Some(JsonValue::Arr(a)) => a,
        other => panic!("{field} must be an array, got {other:?}"),
    }
}

/// The rows of the one table in `tables` whose title starts with
/// `prefix`, each as its cells.
fn rows_titled<'a>(tables: &'a [JsonValue], prefix: &str) -> Vec<&'a [JsonValue]> {
    let mut titled = tables
        .iter()
        .filter(|t| string(t, "title").starts_with(prefix));
    let table = titled.next().expect("a table with that title");
    assert!(titled.next().is_none(), "one table titled {prefix:?}");
    let rows = array(table, "rows").iter().map(|r| match r {
        JsonValue::Arr(cells) => cells.as_slice(),
        other => panic!("a row must be an array, got {other:?}"),
    });
    rows.collect()
}

fn num(cell: &JsonValue) -> u64 {
    match cell {
        JsonValue::Num(n) => n.parse().expect("integral"),
        other => panic!("cell must be a number, got {other:?}"),
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
    let tables = embedded_tables("tab_primitives");
    // One TAB-NK table per machine, each named in its title; each table's
    // rows are exactly that machine's primitive table.
    for mc in [MachineConfig::xeon_server_2s(), MachineConfig::phi_knl()] {
        let (lx, fk, nk) = (
            LinuxModel::new(mc.clone()),
            AsterModel::new(mc.clone()),
            NkModel::new(mc.clone()),
        );
        let table = primitive_table(&[&lx, &fk, &nk]);
        let rows = rows_titled(
            &tables,
            &format!("TAB-NK — kernel primitives on {}", mc.name),
        );
        assert_eq!(rows.len(), table.len());
        for (row, want) in rows.iter().zip(&table) {
            assert_eq!(row[0].as_str(), Some(want.name));
            assert_eq!(num(&row[1]), want.costs[0].get());
            assert_eq!(num(&row[2]), want.costs[1].get());
            assert_eq!(num(&row[3]), want.costs[2].get());
        }
    }
}

#[test]
fn fault_breakdown_round_trips_per_class_and_balances() {
    let tables = embedded_tables("tab_serve");
    let ledger = rows_titled(&tables, "TAB-SERVE — fault ledger");
    // The ledger lists the classes that fired, each once, by name.
    let mut seen = Vec::new();
    let mut injected = 0;
    for row in &ledger {
        let class = row[0].as_str().expect("a class name");
        assert!(
            FaultClass::ALL.iter().any(|c| c.name() == class),
            "{class:?} is not a fault class"
        );
        assert!(!seen.contains(&class), "{class:?} listed twice");
        seen.push(class);
        // The robustness invariant the ledger exists to expose: no fault
        // vanishes unaccounted.
        let (recovered, shed, absorbed) = (num(&row[2]), num(&row[3]), num(&row[4]));
        assert_eq!(num(&row[1]), recovered + shed + absorbed);
        injected += num(&row[1]);
    }
    assert!(injected > 0, "the 1.5x point must inject faults");
}
