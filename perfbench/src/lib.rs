//! The repository benchmark: end-to-end and per-layer numbers for
//! `eo analyze` and `eo-server`, over three seeded workloads.
//!
//! * `analyze-redundant` and `analyze-dense` run a trace corpus through
//!   the `eo analyze` path: parse → verdict → rendered report.
//! * `serve-churn` drives an in-process `eo_serve::net::Server` (the
//!   reactor `eo-server` boots) over loopback as an open loop.
//!
//! The untraced run (`--trace 0`) measures the end-to-end metrics; the
//! traced run (`--trace 1`) records the benchmark's own spans around each
//! call into the system and reports per-layer self time, work counts and
//! the tracing overhead. Either run checks every answer outside the
//! timed region and fails without printing metrics on a mismatch. See
//! `README.md` in this directory.

pub mod affinity;
pub mod alloc;
pub mod analyze;
pub mod corpus;
pub mod reference;
pub mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["analyze-redundant", "analyze-dense", "serve-churn"];

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("verdicts_per_s", "1/s"),
    ("goodput_per_s", "1/s"),
    ("exact_frac", "frac"),
    ("answered_frac", "frac"),
    ("peak_heap_mb", "MB"),
];

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order. A
/// workload whose path does not cross a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("model.parse_ms", "ms"),
    ("model.render_ms", "ms"),
    ("engine.statespace_ms", "ms"),
    ("engine.enumerate_ms", "ms"),
    ("engine.summary_ms", "ms"),
    ("engine.degrade_ms", "ms"),
    ("engine.states", "count"),
    ("engine.schedules", "count"),
    ("engine.orders", "count"),
    ("engine.truncated", "count"),
    ("engine.redundancy", "ratio"),
    ("serve.open_ms", "ms"),
    ("serve.session_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.prefilter_frac", "frac"),
    ("net.p50_ms", "ms"),
    ("net.tail_ms", "ms"),
    ("net.rtt_us", "us"),
    ("net.overhead_us", "us"),
    ("net.evictions", "count"),
    ("net.rejected", "count"),
    ("net.shed", "count"),
    ("net.orphaned", "count"),
    ("bench.late_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("model.parse_peak_mb", "MB"),
    ("engine.statespace_peak_mb", "MB"),
    ("engine.enumerate_peak_mb", "MB"),
    ("engine.summary_peak_mb", "MB"),
    ("serve.session_peak_mb", "MB"),
];

/// Input size: the measured configuration, or a seconds-scale one for
/// the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The corpus and request rate `BENCHMARK.json` is defined over.
    Full,
    /// A handful of items: exercises every path and check quickly.
    Smoke,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed region lasts (at least one full pass runs).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Write the order-set fingerprints of this run to the workload's
    /// expected file instead of comparing against it.
    pub write_expected: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured, after its output check passed.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Items attempted in the timed region(s).
    pub attempted: u64,
    /// Of those, errors, refusals, lost or unanswered items.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
    /// Deterministic work counters (same seed ⇒ same values).
    pub counters: BTreeMap<&'static str, u64>,
}

impl RunReport {
    /// Records a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .1;
        self.metrics.push(Metric { name, value, unit });
    }

    /// Puts the metrics in declared order, reporting a per-layer metric
    /// the workload did not record as 0 (its path does not cross that
    /// layer).
    fn finish(&mut self, trace: bool) {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let recorded = std::mem::take(&mut self.metrics);
        for &(name, unit) in declared {
            let value = recorded.iter().find(|m| m.name == name).map(|m| m.value);
            assert!(trace || value.is_some(), "end-to-end metric {name} missing");
            self.metrics.push(Metric {
                name,
                value: value.unwrap_or(0.0),
                unit,
            });
        }
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload: set-up, timed region, output check.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    let mut report = match opts.workload.as_str() {
        "analyze-redundant" => analyze::run(opts, corpus::analyze_redundant),
        "analyze-dense" => analyze::run(opts, corpus::analyze_dense),
        "serve-churn" => serve::run(opts),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }?;
    report.finish(opts.trace);
    Ok(report)
}

/// Median of a small sample (set-up repetitions).
pub(crate) fn median(values: &[f64]) -> f64 {
    stats::quantile(&stats::sorted(values), 0.5)
}
