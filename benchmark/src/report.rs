//! Printing: one `workload/metric value unit` line per metric, the
//! driver's JSON object as the last line, and the `--repeat` summary.

use scdn_obs::json::{self, Json};

use crate::bench::Report;
use crate::metrics::MetricDef;
use crate::stats::{iqr_share, median, quartiles, sorted};

/// The benchmark's manifest, compiled in so bounds have one home.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end metric's regression rule from the manifest.
#[derive(Clone, Debug)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

pub fn manifest() -> Json {
    json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON")
}

pub fn run_seconds() -> f64 {
    manifest()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json has run_seconds")
}

pub fn bounds() -> Vec<Bound> {
    manifest()
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|m| Bound {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).expect("bound"),
        })
        .collect()
}

/// Print the table of one report; returns its driver JSON line.
pub fn print(report: &Report, table: &[MetricDef]) -> String {
    let name = report.workload.name();
    if let Some(reason) = &report.failure {
        eprintln!("{name}: OUTPUT CHECK FAILED: {reason}");
        return format!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            report.attempted, report.failed
        );
    }
    println!(
        "# {name}: {} epoch(s), {} requests each, {} serving-call samples, outcome_digest {:016x}",
        report.epochs, report.attempted, report.serve_samples, report.outcome_digest
    );
    let rates: Vec<String> = report
        .epoch_rates
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    println!("# {name}: requests_per_s by epoch: {}", rates.join(" "));
    let rows = report.values.in_table_order(table);
    let mut fields = Vec::with_capacity(rows.len());
    for (def, value) in rows {
        println!("{name}/{} {value} {}", def.name, def.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json::number(value),
            def.unit
        ));
    }
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    )
}

/// Summarise `--repeat`: per metric the median, quartiles and range
/// over the runs, and the verdicts — an exact metric (or the digest)
/// that differs at all, or a host-time metric whose two half-set
/// medians differ by more than its bound, fails. Returns `true` if the
/// runs repeat.
pub fn print_repeat(reports: &[Report], table: &[MetricDef]) -> bool {
    let name = reports[0].workload.name();
    let bounds = bounds();
    let mut repeats = true;
    if reports
        .iter()
        .any(|r| r.outcome_digest != reports[0].outcome_digest)
    {
        println!("{name}/outcome_digest DIFFERS between runs");
        repeats = false;
    }
    println!(
        "# {name}: {} runs, outcome_digest {:016x}",
        reports.len(),
        reports[0].outcome_digest
    );
    println!("# metric median q1 q3 (max-min)/median iqr/median half-medians verdict");
    for def in table {
        let runs: Vec<f64> = reports.iter().map(|r| r.values.get(def.name)).collect();
        let asc = sorted(runs.clone());
        let (q1, q2, q3) = quartiles(&asc);
        let range = if q2 == 0.0 {
            0.0
        } else {
            (asc[asc.len() - 1] - asc[0]) / q2.abs()
        };
        let (first, second) = runs.split_at(runs.len() / 2);
        let (m1, m2) = (
            median(&sorted(first.to_vec())),
            median(&sorted(second.to_vec())),
        );
        let verdict = if def.exact {
            if asc[0] == asc[asc.len() - 1] {
                "exact"
            } else {
                repeats = false;
                "NOT EXACT"
            }
        } else {
            let rule = bounds
                .iter()
                .find(|b| b.name == def.name)
                .expect("every end-to-end metric has a bound");
            let worse = if rule.higher_is_better {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            if worse.abs() <= rule.bound {
                "within bound"
            } else {
                repeats = false;
                "HALVES DISAGREE"
            }
        };
        println!(
            "{name}/{} {q2} {q1} {q3} {range:.4} {:.4} {m1}|{m2} {verdict} {}",
            def.name,
            iqr_share(&asc),
            def.unit
        );
    }
    repeats
}
