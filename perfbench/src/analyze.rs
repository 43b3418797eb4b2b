//! The `analyze-*` workloads: a seeded trace corpus through the
//! `eo analyze` path (parse → supervised analysis → rendered report).
//!
//! The untraced run calls exactly what `eo analyze` calls:
//! `Trace::from_json`, `to_execution`, `ExactEngine::analyze` under the
//! budget of the benchmark's `EngineConfig`, and the `eo_model::render`
//! report. The traced run replaces `analyze` by its public layers —
//! `explore_statespace_budgeted`, `enumerate_classes_with`,
//! `OrderingSummary::from_parts` — with a span around each; a trace the
//! schedule cap degrades runs `analyze` once more inside an
//! `engine.degrade` span, because the degraded summary has no public
//! constructor.

use crate::affinity::Pinner;
use crate::corpus::{Rng, TraceItem};
use crate::reference::Calibrator;
use crate::spans::Spans;
use crate::{alloc, median, stats, Options, RunReport, Scale};
use eo_engine::{
    enumerate_classes_with, explore_statespace_budgeted, AnalysisOutcome, Budget, DegradedSummary,
    EngineConfig, EquivStrategy, ExactEngine, Fact, OrderingSummary, SatSession, SearchCtx,
};
use eo_model::{render, EventId, ProgramExecution, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The schedule cap of the benchmark's engine configuration: a trace the
/// default enumeration cannot finish within it costs bounded time and is
/// answered degraded (counted against `exact_frac`).
pub const MAX_SCHEDULES: u64 = 2048;

/// A verdict slower than this misses the `goodput_per_s` limit (an
/// interactive `eo analyze` run).
const LATENCY_LIMIT_MS: f64 = 1000.0;

/// Items analysed once, unmeasured, at the end of set-up.
const WARM_UP_ITEMS: usize = 20;

/// Event pairs per trace checked against the SAT backend.
const SAT_PAIRS: usize = 3;

/// The configuration every verdict runs under: the default
/// `EngineConfig` plus the schedule cap.
fn engine_config() -> EngineConfig {
    EngineConfig {
        max_schedules: Some(MAX_SCHEDULES),
        ..EngineConfig::default()
    }
}

fn engine<'e>(exec: &'e ProgramExecution, cfg: &EngineConfig) -> ExactEngine<'e> {
    // A fresh budget per trace, as one `eo analyze` process builds one.
    let budget = cfg.budget().unwrap_or_else(Budget::unlimited);
    ExactEngine::with_mode(exec, cfg.mode)
        .with_budget(budget)
        .with_equiv(cfg.equiv)
}

fn parse(json: &str) -> Result<ProgramExecution, String> {
    let trace = Trace::from_json(json).map_err(|e| format!("parse: {e}"))?;
    trace.to_execution().map_err(|e| format!("validate: {e}"))
}

/// The `eo analyze` text report for one outcome.
fn render_report(exec: &ProgramExecution, cfg: &EngineConfig, outcome: &AnalysisOutcome) -> String {
    let mut out = format!("trace ({} events):\n", exec.n_events());
    out.push_str(&render::render_trace(exec.trace()));
    let name = |e: usize| render::event_name(exec, EventId::new(e));
    let n = exec.n_events();
    match outcome {
        AnalysisOutcome::Exact(s) => {
            let _ = writeln!(
                out,
                "\nfeasibility: {:?}; |F(P)| = {}, cut-lattice states = {}",
                cfg.mode,
                s.class_count(),
                s.state_count()
            );
            out.push_str("\nmust-have-happened-before (transitive reduction):\n");
            out.push_str(&render::render_relation(exec, &s.mhb_relation(), true));
            out.push_str("\ncould-be-concurrent pairs:\n");
            for a in 0..n {
                for b in (a + 1)..n {
                    if s.ccw_relation().contains(a, b) {
                        let _ = writeln!(out, "{} || {}", name(a), name(b));
                    }
                }
            }
        }
        AnalysisOutcome::Degraded(d) => {
            let _ = writeln!(
                out,
                "\nDEGRADED ANALYSIS — budget exhausted: {}\npartial exact pass: {} states \
                 explored ({} completable, lattice {}), {} induced orders recorded",
                d.reason(),
                d.states_explored(),
                d.completable_states(),
                if d.space_complete() {
                    "complete"
                } else {
                    "truncated"
                },
                d.orders_found()
            );
            for (rel, (e, b, u)) in [
                ("MHB", d.mhb_counts()),
                ("CHB", d.chb_counts()),
                ("CCW", d.ccw_counts()),
            ] {
                let _ = writeln!(out, "  {rel}: {e} / {b} / {u}");
            }
            out.push_str("\nproved must-have-happened-before pairs:\n");
            for a in 0..n {
                for b in 0..n {
                    let fact = d.mhb(EventId::new(a), EventId::new(b));
                    if fact.decided() == Some(true) {
                        let tag = if matches!(fact, Fact::Bounded(_)) {
                            " (bounded)"
                        } else {
                            ""
                        };
                        let _ = writeln!(out, "{} -> {}{tag}", name(a), name(b));
                    }
                }
            }
            out.push_str("\nproved could-be-concurrent pairs:\n");
            for a in 0..n {
                for b in (a + 1)..n {
                    if d.ccw(EventId::new(a), EventId::new(b)).decided() == Some(true) {
                        let _ = writeln!(out, "{} || {}", name(a), name(b));
                    }
                }
            }
        }
    }
    out
}

fn digest(text: &str) -> u64 {
    // FNV-1a: stable across runs and builds.
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The untraced `eo analyze` path for one trace.
fn verdict(json: &str, cfg: &EngineConfig) -> Result<(AnalysisOutcome, u64), String> {
    let exec = parse(json)?;
    let outcome = engine(&exec, cfg).analyze();
    let report = render_report(&exec, cfg, &outcome);
    Ok((outcome, digest(&report)))
}

/// Work one traced verdict did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Work {
    states: u64,
    schedules: u64,
    orders: u64,
    truncated: u64,
}

/// The traced path for one trace: the layers of `analyze`, one span each.
fn traced_verdict(
    spans: &mut Spans,
    item: u32,
    json: &str,
    cfg: &EngineConfig,
) -> Result<(u64, Work), String> {
    let exec = spans.time("model.parse", item, || parse(json))?;
    let budget = engine(&exec, cfg).options().effective_budget();
    let ctx = SearchCtx::new(&exec, cfg.mode);
    let space = spans.time("engine.statespace", item, || {
        explore_statespace_budgeted(&ctx, &budget)
    });
    let space =
        space.map_err(|e| format!("state space stopped on a schedule-capped budget: {e}"))?;
    let classes = spans.time("engine.enumerate", item, || {
        enumerate_classes_with(&ctx, MAX_SCHEDULES as usize, cfg.equiv)
    });
    let work = Work {
        states: space.states as u64,
        schedules: classes.schedules_explored as u64,
        orders: classes.orders.len() as u64,
        truncated: u64::from(classes.truncated),
    };
    let outcome = if classes.truncated {
        spans.time("engine.degrade", item, || engine(&exec, cfg).analyze())
    } else {
        let summary = spans.time("engine.summary", item, || {
            OrderingSummary::from_parts(&space, &classes)
        });
        AnalysisOutcome::Exact(summary)
    };
    let report = spans.time("model.render", item, || render_report(&exec, cfg, &outcome));
    Ok((digest(&report), work))
}

/// Per-item timings of the timed passes.
struct Passes {
    /// `ms[item][pass]`, as measured.
    ms: Vec<Vec<f64>>,
    /// `speed[item][pass]`: the speed factor of the item's calibration
    /// block in that pass.
    speed: Vec<Vec<f64>>,
    passes: usize,
    wall_s: f64,
    /// Mean speed factor over the calibration phases.
    mean_speed: f64,
}

impl Passes {
    fn passes(&self) -> usize {
        self.passes
    }

    /// Each item's median over the passes, in milliseconds at the
    /// reference speed (see [`crate::reference`]).
    fn item_ms(&self) -> Vec<f64> {
        self.ms
            .iter()
            .zip(&self.speed)
            .map(|(t, s)| median(&t.iter().zip(s).map(|(ms, s)| ms * s).collect::<Vec<_>>()))
            .collect()
    }

    /// The same, as measured.
    fn raw_item_ms(&self) -> Vec<f64> {
        self.ms.iter().map(|t| median(t)).collect()
    }
}

/// Runs whole passes over `items` in rounds of one pass per allowed CPU,
/// pinned, until another round would overrun `seconds` (at least one
/// round), with calibration phases between blocks of items. `each` is
/// called once per item per pass and returns the item's report digest,
/// which must repeat across passes.
fn timed_passes(
    items: &[TraceItem],
    seconds: f64,
    digests: &mut Vec<u64>,
    mut each: impl FnMut(usize, &TraceItem) -> Result<u64, String>,
) -> Result<Passes, String> {
    let pinner = Pinner::new();
    let slots = pinner.slots();
    let mut p = Passes {
        ms: vec![Vec::new(); items.len()],
        speed: vec![Vec::new(); items.len()],
        passes: 0,
        wall_s: 0.0,
        mean_speed: 0.0,
    };
    let mut cal = Calibrator::new();
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for &slot in &slots {
            pinner.pin(slot);
            cal.phase();
            for (i, item) in items.iter().enumerate() {
                let block = cal.block();
                let t = Instant::now();
                let d = each(i, item)?;
                p.ms[i].push(t.elapsed().as_secs_f64() * 1e3);
                blocks[i].push(block);
                cal.between_items();
                match digests.get(i) {
                    None => digests.push(d),
                    Some(&first) if first == d => {}
                    Some(_) => {
                        return Err(format!("{}: the report changed between passes", item.label));
                    }
                }
            }
            cal.phase();
            p.passes += 1;
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (rounds + 1) as f64 / rounds as f64 > seconds {
            break;
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.speed = blocks
        .iter()
        .map(|b| b.iter().map(|&b| cal.speed(b)).collect())
        .collect();
    p.mean_speed = cal.mean_speed();
    Ok(p)
}

/// Timed passes over the layered path, recording into `spans`; returns
/// the timings and the work of the first pass.
fn layered_passes(
    items: &[TraceItem],
    seconds: f64,
    cfg: &EngineConfig,
    spans: &mut Spans,
    digests: &mut Vec<u64>,
) -> Result<(Passes, Work), String> {
    let mut work = Work::default();
    let mut first_pass = true;
    let passes = timed_passes(items, seconds, digests, |i, item| {
        let (d, w) = traced_verdict(spans, i as u32, &item.json, cfg)
            .map_err(|e| format!("{}: {e}", item.label))?;
        if first_pass {
            work.states += w.states;
            work.schedules += w.schedules;
            work.orders += w.orders;
            work.truncated += w.truncated;
            first_pass = i + 1 < items.len();
        }
        Ok(d)
    })?;
    Ok((passes, work))
}

/// Builds the corpus repeatedly — per allowed CPU, five times each — and
/// returns it with the set-up time at the reference speed: the mean over
/// CPUs of the per-CPU median. Set-up is corpus generation plus a short
/// unmeasured warm-up.
fn set_up(
    opts: &Options,
    corpus: fn(u64, Scale) -> Vec<TraceItem>,
    cfg: &EngineConfig,
) -> Result<(Vec<TraceItem>, f64), String> {
    let pinner = Pinner::new();
    let mut per_cpu = Vec::new();
    let mut items: Option<Vec<TraceItem>> = None;
    let mut cal = Calibrator::new();
    for slot in pinner.slots() {
        pinner.pin(slot);
        let mut times = Vec::new();
        for _ in 0..5 {
            // Each set-up is a block of its own.
            cal.phase();
            let t = Instant::now();
            let built = corpus(opts.seed, opts.scale);
            for item in built.iter().take(WARM_UP_ITEMS) {
                verdict(&item.json, cfg)?;
            }
            let elapsed = t.elapsed().as_secs_f64();
            let block = cal.block();
            cal.phase();
            times.push(elapsed * cal.speed(block));
            match &items {
                None => items = Some(built),
                Some(first) if *first == built => {}
                Some(_) => return Err("the corpus differs between two builds from one seed".into()),
            }
        }
        per_cpu.push(median(&times));
    }
    let setup_s = per_cpu.iter().sum::<f64>() / per_cpu.len() as f64;
    Ok((items.expect("at least one set-up ran"), setup_s))
}

/// Runs an `analyze-*` workload.
pub fn run(opts: &Options, corpus: fn(u64, Scale) -> Vec<TraceItem>) -> Result<RunReport, String> {
    let cfg = engine_config();
    let (items, setup_s) = set_up(opts, corpus, &cfg)?;
    let mut report = RunReport::default();
    let n = items.len();

    // Timed region, untraced: the first pass keeps each verdict for the
    // output check. The heap is read per verdict, as growth above the
    // live size when it started: the corpus and the verdicts kept so far
    // are the benchmark's, not the verdict's.
    let mut verdicts: Vec<Option<AnalysisOutcome>> = vec![None; n];
    let mut digests = Vec::with_capacity(n);
    let mut peak_bytes = 0;
    let untraced_s = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let plain = timed_passes(&items, untraced_s, &mut digests, |i, item| {
        let baseline = alloc::reset_peak();
        let (outcome, d) = verdict(&item.json, &cfg).map_err(|e| format!("{}: {e}", item.label))?;
        peak_bytes = peak_bytes.max(alloc::peak_since(baseline));
        if verdicts[i].is_none() {
            verdicts[i] = Some(outcome);
        }
        Ok(d)
    })?;
    let verdicts: Vec<AnalysisOutcome> = verdicts
        .into_iter()
        .map(|v| v.expect("every item ran"))
        .collect();
    let exact = verdicts
        .iter()
        .filter(|v| matches!(v, AnalysisOutcome::Exact(_)))
        .count();
    report.attempted = (plain.passes() * n) as u64;
    report.counters.insert("items", n as u64);
    report.counters.insert("exact_verdicts", exact as u64);

    let item_ms = plain.item_ms();
    let sorted = stats::sorted(&item_ms);
    let p50 = stats::quantile(&sorted, 0.5);
    let (tail_label, tail, beyond) = stats::tail(&sorted);
    let raw = stats::sorted(&plain.raw_item_ms());
    report.notes.push(format!(
        "{}: seed {}, {n} traces ({exact} exact), {} passes over {} CPU slot(s) in {:.2} s; \
         tail_ms is {tail_label} of {n} per-trace medians ({beyond} beyond); speed factor {:.3}, \
         as measured p50 {:.4} ms, {tail_label} {:.4} ms",
        opts.workload,
        opts.seed,
        plain.passes(),
        Pinner::new().slots().len(),
        plain.wall_s,
        plain.mean_speed,
        stats::quantile(&raw, 0.5),
        stats::tail(&raw).1,
    ));

    if opts.trace {
        // The layered path twice: without spans, then with them — their
        // ratio is the tracing overhead. (Against the untraced `analyze`
        // pass the layered path also skips the supervised passes' budget
        // checks, which the public cap-only enumeration does not make.)
        let third = opts.seconds / 3.0;
        let (bare, _) = layered_passes(&items, third, &cfg, &mut Spans::new(false), &mut digests)?;
        let mut spans = Spans::new(true);
        let (traced, work) = layered_passes(&items, third, &cfg, &mut spans, &mut digests)?;
        report.attempted += ((bare.passes() + traced.passes()) * n) as u64;
        let p50_of = |p: &Passes| stats::quantile(&stats::sorted(&p.item_ms()), 0.5);
        let bare_p50 = p50_of(&bare);
        report.notes.push(format!(
            "layered public calls without spans: p50 {bare_p50:.4} ms ({:+.1}% against analyze)",
            (bare_p50 / p50 - 1.0) * 100.0
        ));
        let layers = LayerRun {
            passes: traced.passes(),
            overhead: p50_of(&traced) / bare_p50 - 1.0,
        };
        per_layer_metrics(&mut report, &spans, &items, &layers, work);
    } else {
        report.metric("setup_s", setup_s);
        report.metric("p50_ms", p50);
        report.metric("tail_ms", tail);
        // Throughput and goodput of a pass at each trace's mean time.
        let busy_s = item_ms.iter().sum::<f64>() / 1e3;
        let on_time = item_ms.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS).count();
        report.metric("verdicts_per_s", n as f64 / busy_s);
        report.metric("goodput_per_s", on_time as f64 / busy_s);
        report.metric("exact_frac", exact as f64 / n as f64);
        report.metric("answered_frac", 1.0);
        report.metric("peak_heap_mb", alloc::mb(peak_bytes));
    }

    check(opts, &items, &verdicts, &mut report)?;
    Ok(report)
}

/// The span names of the analyze path, in pipeline order.
const LAYERS: [&str; 6] = [
    "model.parse",
    "engine.statespace",
    "engine.enumerate",
    "engine.summary",
    "engine.degrade",
    "model.render",
];

/// How the traced passes went.
struct LayerRun {
    passes: usize,
    /// Traced over untraced `p50_ms`, minus one.
    overhead: f64,
}

fn per_layer_metrics(
    report: &mut RunReport,
    spans: &Spans,
    items: &[TraceItem],
    run: &LayerRun,
    work: Work,
) {
    let LayerRun { passes, overhead } = *run;
    let runs = (passes * items.len()) as f64;
    let all = spans.summary(|_| true);
    let ms = |name: &str| all.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6 / runs);
    let peak = |name: &str| all.get(name).map_or(0.0, |t| alloc::mb(t.peak_bytes));
    report.metric("model.parse_ms", ms("model.parse"));
    report.metric("model.render_ms", ms("model.render"));
    report.metric("engine.statespace_ms", ms("engine.statespace"));
    report.metric("engine.enumerate_ms", ms("engine.enumerate"));
    report.metric("engine.summary_ms", ms("engine.summary"));
    report.metric("engine.degrade_ms", ms("engine.degrade"));
    report.metric("engine.states", work.states as f64);
    report.metric("engine.schedules", work.schedules as f64);
    report.metric("engine.orders", work.orders as f64);
    report.metric("engine.truncated", work.truncated as f64);
    report.metric(
        "engine.redundancy",
        work.schedules as f64 / work.orders.max(1) as f64,
    );
    report.metric("bench.trace_overhead_frac", overhead);
    report.metric("model.parse_peak_mb", peak("model.parse"));
    report.metric("engine.statespace_peak_mb", peak("engine.statespace"));
    report.metric("engine.enumerate_peak_mb", peak("engine.enumerate"));
    report.metric("engine.summary_peak_mb", peak("engine.summary"));
    for (name, value) in [
        ("states", work.states),
        ("schedules", work.schedules),
        ("orders", work.orders),
        ("truncated", work.truncated),
    ] {
        report.counters.insert(name, value);
    }

    // Self time per layer and family: where each family's time goes.
    let mut families: BTreeMap<&str, usize> = BTreeMap::new();
    for item in items {
        *families.entry(item.family).or_default() += 1;
    }
    report.notes.push(format!(
        "self ms per trace run ({passes} traced passes; tracing overhead on p50 {:+.1}%):",
        overhead * 100.0
    ));
    report.notes.push(format!(
        "  {:<12}{}",
        "family",
        LAYERS.map(|l| format!("{l:>19}")).concat()
    ));
    for (family, count) in families {
        let sum = spans.summary(|i| items[i as usize].family == family);
        let per = (passes * count) as f64;
        let cols: String = LAYERS
            .iter()
            .map(|l| {
                format!(
                    "{:>19.4}",
                    sum.get(l).map_or(0.0, |t| t.self_ns as f64 / 1e6 / per)
                )
            })
            .collect();
        report.notes.push(format!("  {family:<12}{cols}"));
    }
}

/// The order-set fingerprint: a digest of the sorted 128-bit fingerprints
/// of every induced order in F(P).
fn order_set_fingerprint(ctx: &SearchCtx<'_>, cfg: &EngineConfig) -> (u64, usize) {
    let classes = enumerate_classes_with(ctx, MAX_SCHEDULES as usize, cfg.equiv);
    let mut fps: Vec<u128> = classes.orders.iter().map(|o| o.fingerprint128()).collect();
    fps.sort_unstable();
    let text: String = fps.iter().map(|f| format!("{f:032x}")).collect();
    (digest(&text), fps.len())
}

/// The committed fingerprint file for a workload's default seed.
fn expected_file(workload: &str) -> Option<(u64, &'static str)> {
    match workload {
        "analyze-redundant" => Some((1, include_str!("../expected/analyze-redundant.txt"))),
        "analyze-dense" => Some((1, include_str!("../expected/analyze-dense.txt"))),
        _ => None,
    }
}

/// The output check, outside the timed region:
///
/// * every exact verdict's MHB/CHB agree with the SAT backend (a
///   separate decision procedure) on seeded pairs, and its class count
///   with a fresh enumeration;
/// * every degraded verdict's decided facts agree with the SAT backend on
///   the same pairs, and with the exact normal-form summary when that
///   finishes;
/// * on the committed seed, every verdict's order-set fingerprint matches
///   the expected file.
fn check(
    opts: &Options,
    items: &[TraceItem],
    verdicts: &[AnalysisOutcome],
    report: &mut RunReport,
) -> Result<(), String> {
    let cfg = engine_config();
    let t = Instant::now();
    let mut lines = Vec::with_capacity(items.len());
    let mut sat_checks = 0u64;
    for (i, (item, outcome)) in items.iter().zip(verdicts).enumerate() {
        let exec = parse(&item.json)?;
        let ctx = SearchCtx::new(&exec, cfg.mode);
        let n = exec.n_events();
        let mut sat = SatSession::new(&ctx);
        let mut rng = Rng::new(opts.seed ^ i as u64, 4);
        let fail = |what: String| Err(format!("{}: {what}", item.label));
        for _ in 0..SAT_PAIRS.min(n * n.saturating_sub(1)) {
            let a = rng.below(n);
            let b = (a + 1 + rng.below(n - 1)) % n;
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            let truth = [
                ("MHB", sat.try_must_happen_before(ea, eb)),
                ("CHB", sat.try_could_happen_before(ea, eb)),
            ];
            for (k, (rel, sat_says)) in truth.into_iter().enumerate() {
                let sat_says = sat_says.map_err(|e| format!("{}: SAT stopped: {e}", item.label))?;
                let claim = match outcome {
                    AnalysisOutcome::Exact(s) => Some([s.mhb(ea, eb), s.chb(ea, eb)][k]),
                    AnalysisOutcome::Degraded(d) => [d.mhb(ea, eb), d.chb(ea, eb)][k].decided(),
                };
                sat_checks += 1;
                if claim.is_some_and(|c| c != sat_says) {
                    return fail(format!(
                        "{rel}({a},{b}) is {claim:?} but the SAT backend says {sat_says}"
                    ));
                }
            }
        }
        match outcome {
            AnalysisOutcome::Exact(s) => {
                let (fp, orders) = order_set_fingerprint(&ctx, &cfg);
                if orders != s.class_count() {
                    return fail(format!(
                        "|F(P)| {} but re-enumeration found {orders}",
                        s.class_count()
                    ));
                }
                lines.push(format!("{} {fp:016x} {orders}", item.label));
            }
            AnalysisOutcome::Degraded(d) => {
                check_degraded(&exec, d).map_err(|e| format!("{}: {e}", item.label))?;
                lines.push(format!("{} degraded {}", item.label, d.orders_found()));
            }
        }
    }
    let listing = lines.join("\n") + "\n";
    let mut fingerprints = "not committed for this seed";
    if opts.write_expected {
        let path = format!(
            "{}/expected/{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            opts.workload
        );
        std::fs::write(&path, &listing).map_err(|e| format!("writing {path}: {e}"))?;
        fingerprints = "written to the expected file";
    } else if let Some((seed, expected)) = expected_file(&opts.workload) {
        if opts.seed == seed && opts.scale == Scale::Full {
            if listing != expected {
                let diff = listing
                    .lines()
                    .zip(expected.lines())
                    .find(|(a, b)| a != b)
                    .map_or("line count differs".to_owned(), |(a, b)| {
                        format!("got `{a}`, expected `{b}`")
                    });
                return Err(format!(
                    "order-set fingerprints differ from the committed file: {diff}"
                ));
            }
            fingerprints = "match the committed file";
        }
    }
    report.counters.insert("sat_checks", sat_checks);
    report.notes.push(format!(
        "check: {sat_checks} SAT cross-checks agree, class counts re-enumerated, fingerprints {fingerprints} ({:.2} s)",
        t.elapsed().as_secs_f64()
    ));
    Ok(())
}

/// A degraded verdict never contradicts the exact answer, taken from the
/// normal-form enumeration when it finishes within a larger cap.
fn check_degraded(exec: &ProgramExecution, d: &DegradedSummary) -> Result<(), String> {
    let oracle = ExactEngine::new(exec)
        .with_budget(Budget::unlimited().with_max_schedules(1 << 16))
        .with_equiv(EquivStrategy::NormalForm)
        .try_summary();
    match oracle {
        Ok(exact) => d.check_consistency_against(&exact),
        Err(_) => Ok(()), // only the SAT pairs decide this one
    }
}
