//! The benchmark's own tests: input determinism, repeatable work
//! counters, and a smoke-sized run of every workload through its output
//! check, with metric names matching `BENCHMARK.json`.

use eo_obs::json::{self, Value};
use perfbench::{corpus, Options, RunReport, Scale, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> RunReport {
    let opts = Options {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.5,
        trace,
        scale: Scale::Smoke,
        write_expected: false,
    };
    perfbench::run(&opts).unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

/// Metric names of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

#[test]
fn a_seed_fixes_the_inputs_and_another_seed_changes_them() {
    for make in [corpus::analyze_redundant, corpus::analyze_dense] {
        assert_eq!(make(7, Scale::Smoke), make(7, Scale::Smoke));
        assert_ne!(make(7, Scale::Smoke), make(8, Scale::Smoke));
    }
    assert_eq!(corpus::serve_churn(7, 300), corpus::serve_churn(7, 300));
    assert_ne!(corpus::serve_churn(7, 300), corpus::serve_churn(8, 300));
}

#[test]
fn work_counters_repeat_exactly() {
    for workload in WORKLOADS {
        let (a, b) = (smoke(workload, true), smoke(workload, true));
        assert_eq!(a.counters, b.counters, "{workload}");
        let keys: &[&str] = if workload == "serve-churn" {
            &["states", "cache_hits", "evictions", "exact_answers"]
        } else {
            &["states", "schedules", "orders", "exact_verdicts"]
        };
        for key in keys {
            assert!(
                a.counters.contains_key(key),
                "{workload} lacks counter {key}"
            );
        }
    }
}

#[test]
fn smoke_runs_pass_the_check_and_report_every_declared_metric() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let report = smoke(workload, trace);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(&names, expected, "{workload} trace {trace}");
            assert_eq!(report.failed, 0, "{workload}");
            assert!(report.attempted > 0);
            let line = json::parse(&report.result_line()).expect("the result line is JSON");
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        }
    }
}
