//! The on-disk trace format is a compatibility surface: the golden file
//! in `testdata/` pins it, and these tests fail if the serialization ever
//! drifts (bump the golden file deliberately when that is intended).

use eo_engine::ExactEngine;
use eo_model::Trace;

const GOLDEN: &str = include_str!("../testdata/figure1.trace.json");

#[test]
fn golden_figure1_parses_and_validates() {
    let trace = Trace::from_json(GOLDEN).expect("golden trace must stay parseable");
    assert_eq!(trace.n_events(), 7);
    assert_eq!(trace.processes.len(), 4);
    assert_eq!(trace.event_vars.len(), 1);
    assert_eq!(trace.variables.len(), 1);
}

#[test]
fn golden_figure1_matches_the_fixture() {
    let golden = Trace::from_json(GOLDEN).unwrap();
    let (fresh, _ids) = eo_model::fixtures::figure1();
    assert_eq!(golden, fresh, "fixture and golden file must stay in sync");
}

#[test]
fn golden_figure1_round_trips_bit_exactly() {
    let trace = Trace::from_json(GOLDEN).unwrap();
    let reserialized = trace.to_json();
    assert_eq!(reserialized, GOLDEN.trim_end(), "writer output drifted");
    let reparsed = Trace::from_json(&reserialized).unwrap();
    assert_eq!(trace, reparsed);
}

#[test]
fn golden_figure1_analyzes_to_the_paper_answer() {
    let trace = Trace::from_json(GOLDEN).unwrap();
    let exec = trace.to_execution().unwrap();
    let engine = ExactEngine::new(&exec);
    let left = exec.event_labeled("post_left").unwrap();
    let right = exec.event_labeled("post_right").unwrap();
    assert!(engine.mhb(left, right));
}

#[test]
fn malformed_json_is_rejected_with_an_error() {
    assert!(Trace::from_json("{").is_err());
    assert!(Trace::from_json("{}").is_err(), "missing fields");
    // Structurally fine JSON that fails semantic validation: truncate the
    // events array so a fork references a child with stale created_by.
    let mut trace = Trace::from_json(GOLDEN).unwrap();
    trace.events.truncate(1); // drop the fork the children point at
    let json = trace.to_json();
    assert!(Trace::from_json(&json).is_err());
}

/// The decode error for `GOLDEN` with its first `from` replaced by `to`.
fn shape_error(from: &str, to: &str) -> String {
    assert!(GOLDEN.contains(from), "{from:?} not in the golden file");
    let edited = GOLDEN.replacen(from, to, 1);
    Trace::from_json(&edited)
        .expect_err("edited trace must be rejected")
        .to_string()
}

#[test]
fn shape_errors_name_the_member_type_or_number() {
    assert_eq!(
        Trace::from_json("{}").unwrap_err().to_string(),
        r#"missing member "events""#
    );
    assert_eq!(
        shape_error(r#""reads": []"#, r#""reads": "x""#),
        "expected array, got string"
    );
    for bad_id in ["4294967296", "-1", "1.5", "1e300"] {
        assert_eq!(
            shape_error(r#""id": 0"#, &format!(r#""id": {bad_id}"#)),
            "number out of u32 range",
            "id {bad_id}"
        );
    }
    assert_eq!(
        shape_error(r#""id": 0"#, r#""id": "0""#),
        "expected number, got string"
    );
    // Syntax errors carry the parser's byte position.
    let err = Trace::from_json("{\"events\": [}").unwrap_err().to_string();
    assert_eq!(err, "JSON parse error at byte 12: expected a value");
}

#[test]
fn escaped_surrogate_pairs_in_labels_decode() {
    let golden = Trace::from_json(GOLDEN).unwrap();
    let label = golden.events[0]
        .label
        .clone()
        .expect("figure 1 labels events");
    let edited = GOLDEN.replacen(
        &format!("\"{label}\""),
        &format!("\"{label}\\ud83d\\ude00\""),
        1,
    );
    let trace = Trace::from_json(&edited).expect("surrogate pair parses");
    assert_eq!(trace.events[0].label, Some(format!("{label}😀")));
}

/// Every committed JSON document (goldens, fixtures, bench baselines)
/// stays within the one parser's limits, nesting depth included.
#[test]
fn every_committed_json_document_parses() {
    fn json_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                json_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "json") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    json_files(&root.join("testdata"), &mut files);
    for entry in std::fs::read_dir(root).expect("readable repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            files.push(path);
        }
    }
    assert!(files.len() > 20, "found only {files:?}");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable file");
        if let Err(e) = eo_obs::json::parse(&text) {
            panic!("{}: {e}", path.display());
        }
    }
}
