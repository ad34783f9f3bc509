//! `BENCHMARK.json` at the repository root declares exactly the
//! workloads and metrics this crate measures.

use palbench::json::{self, Value};
use palbench::metrics::{END_TO_END, PER_LAYER};
use palbench::Workload;

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        _ => panic!("`{key}` is not a list"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no `{key}`"))
}

#[test]
fn declares_what_the_crate_measures() {
    let d = declaration();
    let Value::Obj(members) = &d else {
        panic!("not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<&str> = list(&d, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    let e2e = list(&d, "end_to_end");
    let declared: Vec<_> = END_TO_END.iter().filter(|m| m.declared).collect();
    assert_eq!(e2e.len(), declared.len());
    for (v, m) in e2e.iter().zip(declared) {
        assert_eq!(field(v, "name"), m.name);
        assert_eq!(field(v, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(v, "better"), m.better.name(), "{}", m.name);
        assert_eq!(
            v.get("bound").and_then(Value::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }

    let layers = list(&d, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (v, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(field(v, "name"), m.name);
        assert_eq!(field(v, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(v, "better"), m.better.name(), "{}", m.name);
    }
}
