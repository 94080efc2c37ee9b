//! `BENCHMARK.json` at the repository root lists exactly the metrics
//! the command prints, with the same units.

use dtaint_perfbench::{END_TO_END, PER_LAYER};
use serde_json::Value;

fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = doc.get(key) else { panic!("BENCHMARK.json lacks {key}") };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            other => panic!("malformed {key} entry: {other:?}"),
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
}
