//! Contract test for `BENCH_trajectory.json`, the committed host-performance
//! trajectory at the repository root: one record per performance change,
//! each holding the paired parent/change measurements it cites. Every
//! record must be well formed, so a claim in the docs can point at numbers
//! that parse and add up, and a claimed gain must rest on at least
//! [`MIN_GAIN_PAIRS`] alternating pairs.

use serde::json::JsonValue;

/// Fewest alternating parent/change pairs a `"claim": "gain"` measurement
/// may cite: host speed drifts by tens of percent from one sitting to the
/// next, so a gain read off fewer pairs is indistinguishable from noise.
const MIN_GAIN_PAIRS: f64 = 8.0;

fn trajectory() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.json");
    let text = std::fs::read_to_string(path).expect("BENCH_trajectory.json is readable");
    serde::json::parse(&text).expect("BENCH_trajectory.json is valid JSON")
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key)
        .unwrap_or_else(|| panic!("missing field {key:?} in {v:?}"))
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    match field(v, key).as_str() {
        Some(s) if !s.is_empty() => s,
        other => panic!("{key:?} must be a non-empty string, got {other:?}"),
    }
}

fn num(v: &JsonValue) -> f64 {
    match v {
        JsonValue::Num(n) => n.parse().expect("a JSON number"),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn arr<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match field(v, key) {
        JsonValue::Arr(a) => a,
        other => panic!("{key:?} must be an array, got {other:?}"),
    }
}

/// One side's `{median, q1, q3}`: positive, with the median inside its
/// quartiles. Returns the median.
fn side(m: &JsonValue, key: &str) -> f64 {
    let s = field(m, key);
    let (median, q1, q3) = (
        num(field(s, "median")),
        num(field(s, "q1")),
        num(field(s, "q3")),
    );
    assert!(median > 0.0, "{key}: median {median} must be positive");
    assert!(
        q1 <= median && median <= q3,
        "{key}: quartiles {q1}..{q3} must bracket the median {median}"
    );
    median
}

#[test]
fn every_trajectory_record_is_well_formed() {
    let doc = trajectory();
    let records = arr(&doc, "records");
    assert!(
        !records.is_empty(),
        "the trajectory has at least one record"
    );
    for r in records {
        let change = text(r, "change");
        let parent = text(r, "parent");
        assert!(
            parent.len() == 40 && parent.bytes().all(|b| b.is_ascii_hexdigit()),
            "{change}: parent {parent:?} must be a full commit hash"
        );
        let date = text(r, "date");
        assert!(
            date.len() == 10 && date.as_bytes()[4] == b'-' && date.as_bytes()[7] == b'-',
            "{change}: date {date:?} must read YYYY-MM-DD"
        );
        text(r, "host");
        let measurements = arr(r, "measurements");
        assert!(!measurements.is_empty(), "{change}: no measurements");
        for m in measurements {
            let name = format!("{change}: {} {}", text(m, "workload"), text(m, "metric"));
            text(m, "unit");
            let higher = match text(m, "better") {
                "higher" => true,
                "lower" => false,
                other => panic!("{name}: better must be higher or lower, got {other:?}"),
            };
            let pairs = num(field(m, "pairs"));
            let won = num(field(m, "pairs_won"));
            assert!(
                pairs >= 1.0 && pairs.fract() == 0.0,
                "{name}: pairs {pairs}"
            );
            assert!(
                (0.0..=pairs).contains(&won) && won.fract() == 0.0,
                "{name}: pairs_won {won} of {pairs}"
            );
            let mut seeds: Vec<u64> = arr(m, "seeds").iter().map(|s| num(s) as u64).collect();
            let listed = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), listed, "{name}: seeds must be distinct");
            assert!(
                listed == 0 || listed as f64 == pairs,
                "{name}: one seed per pair, or none for a fixed-seed binary"
            );
            match field(m, "run_seconds") {
                JsonValue::Null => {}
                v => assert!(num(v) > 0.0, "{name}: run_seconds must be positive"),
            }
            let (p, c) = (side(m, "parent"), side(m, "change"));
            match text(m, "claim") {
                "gain" => {
                    assert!(
                        if higher { c > p } else { c < p },
                        "{name}: a claimed gain must have the better median ({p} → {c})"
                    );
                    assert!(
                        pairs >= MIN_GAIN_PAIRS,
                        "{name}: a claimed gain needs at least {MIN_GAIN_PAIRS} alternating \
                         pairs, got {pairs}"
                    );
                }
                "noise" => {}
                other => panic!("{name}: claim must be gain or noise, got {other:?}"),
            }
        }
    }
}
