//! `--smoke` end to end: tiny graphs, both kinds of run, every workload.
//! Every metric `BENCHMARK.json` lists must be printed exactly once per
//! workload, with a finite value and the listed unit — and the manifest
//! must list exactly the metrics the tables in `metrics.rs` define.

use std::collections::HashMap;
use std::process::Command;

use scdn_benchmark::metrics::{END_TO_END, PER_LAYER};
use scdn_benchmark::report::manifest;
use scdn_benchmark::workloads::Workload;
use scdn_obs::json::Json;

fn listed(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_lists_exactly_the_metric_tables() {
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let from_table: Vec<(String, String)> = table
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(
            listed(section),
            from_table,
            "{section} differs from metrics.rs"
        );
    }
    let workloads: Vec<String> = manifest()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let defined: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, defined);
}

#[test]
fn smoke_prints_every_listed_metric_once_per_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_scdn-benchmark"))
        .arg("--smoke")
        .env("CARGO_MANIFEST_DIR", env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "--smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // `workload/metric value unit`
    let mut seen: HashMap<(String, String), Vec<(f64, String)>> = HashMap::new();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        let (Some(key), Some(value), Some(unit), None) =
            (words.next(), words.next(), words.next(), words.next())
        else {
            continue;
        };
        let Some((workload, metric)) = key.split_once('/') else {
            continue;
        };
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        seen.entry((workload.to_string(), metric.to_string()))
            .or_default()
            .push((value, unit.to_string()));
    }
    let mut expected = listed("end_to_end");
    expected.extend(listed("per_layer"));
    for workload in Workload::ALL {
        for (metric, unit) in &expected {
            let printed = seen
                .get(&(workload.name().to_string(), metric.clone()))
                .unwrap_or_else(|| panic!("{}/{metric} was not printed", workload.name()));
            assert_eq!(
                printed.len(),
                1,
                "{}/{metric} printed more than once",
                workload.name()
            );
            let (value, printed_unit) = &printed[0];
            assert!(value.is_finite(), "{}/{metric} is {value}", workload.name());
            assert_eq!(printed_unit, unit, "{}/{metric} unit", workload.name());
        }
    }
    assert_eq!(
        seen.len(),
        expected.len() * Workload::ALL.len(),
        "a metric was printed that BENCHMARK.json does not list"
    );
    // The last line is the driver's JSON object.
    let last = stdout.lines().last().expect("output");
    let result = scdn_obs::json::parse(last).expect("last line is JSON");
    assert!(result.get("metrics").and_then(Json::as_obj).is_some());
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
}
