//! Seeded inputs for every workload.
//!
//! Each workload's inputs are a pure function of the seed and the scale:
//! the same seed gives byte-identical traces and request frames. The
//! system under test only ever sees the generated trace JSON and request
//! documents.

use crate::Scale;
use eo_lang::generator::{generate_trace, SyncStyle, WorkloadSpec};
use eo_lang::{ProgramBuilder, Scheduler};
use eo_model::Trace;
use eo_obs::json::Value;

/// SplitMix64: a small, well-mixed deterministic generator.
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`, domain-separated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One analysed trace: its family, a readable label, and the JSON text
/// the analysis starts from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceItem {
    /// Generator family (`semaphores`, `events`, `pitfall`, ...).
    pub family: &'static str,
    /// Family, shape and position, e.g. `semaphores-5x4#17`.
    pub label: String,
    /// `Trace::to_json` output.
    pub json: String,
}

/// A random program of `style` with `processes × events` statements.
fn random_trace(style: SyncStyle, processes: usize, events: usize, seed: u64) -> Trace {
    let mut spec = match style {
        SyncStyle::Semaphores => WorkloadSpec::small_semaphore(seed),
        SyncStyle::Events => WorkloadSpec::small_events(seed),
        SyncStyle::Monitors => WorkloadSpec::small_monitors(seed),
        SyncStyle::Channels => WorkloadSpec::small_channels(seed),
        SyncStyle::Barriers => WorkloadSpec::small_barriers(seed),
    };
    spec.processes = processes;
    spec.events_per_process = events;
    if style == SyncStyle::Semaphores {
        spec.semaphores = (processes / 2).max(1);
        spec.variables = 3;
        spec.write_fraction = 0.5;
    }
    generate_trace(&spec, 100)
}

fn family_name(style: SyncStyle) -> &'static str {
    match style {
        SyncStyle::Semaphores => "semaphores",
        SyncStyle::Events => "events",
        SyncStyle::Monitors => "monitors",
        SyncStyle::Channels => "channels",
        SyncStyle::Barriers => "barriers",
    }
}

/// Appends `per_shape` seeded traces of `style` for each shape.
fn push_family(
    out: &mut Vec<TraceItem>,
    rng: &mut Rng,
    style: SyncStyle,
    shapes: &[(usize, usize)],
    per_shape: usize,
) {
    let family = family_name(style);
    for i in 0..per_shape * shapes.len() {
        let (p, e) = shapes[i % shapes.len()];
        let trace = random_trace(style, p, e, rng.next_u64());
        out.push(TraceItem {
            family,
            label: format!("{family}-{p}x{e}#{}", out.len()),
            json: trace.to_json(),
        });
    }
}

/// The pairing pitfall widened: `lanes + 1` producers of `vs` `V`s each
/// on one semaphore, one consumer `P`, and a write/read pair the `P`
/// guards. Every interleaving of the producers is its own Mazurkiewicz
/// class, yet only which producer's `V` comes first changes the induced
/// order — the most redundant enumeration this system has. `lanes = d`,
/// `vs = 1` is the E9 ladder's `pitfall-(d)`.
fn pitfall_trace(lanes: usize, vs: usize) -> Trace {
    let mut b = ProgramBuilder::new();
    let s = b.semaphore("s");
    let x = b.variable("x");
    let w = b.process("writer");
    b.compute_rw(w, &[], &[x], "write_x");
    for _ in 0..vs {
        b.sem_v(w, s);
    }
    for k in 0..lanes {
        let d = b.process(&format!("decoy_{k}"));
        for _ in 0..vs {
            b.sem_v(d, s);
        }
    }
    let r = b.process("reader");
    b.sem_p(r, s);
    b.compute_rw(r, &[x], &[], "read_x");
    eo_lang::run_to_trace(&b.build(), &mut Scheduler::deterministic())
        .expect("the pitfall program cannot deadlock")
}

fn push_pitfall(out: &mut Vec<TraceItem>, lanes: usize, vs: usize) {
    out.push(TraceItem {
        family: "pitfall",
        label: format!("pitfall-{lanes}x{vs}#{}", out.len()),
        json: pitfall_trace(lanes, vs).to_json(),
    });
}

/// Traces per generator shape, scaled down for smoke runs.
fn count(scale: Scale, full: usize) -> usize {
    match scale {
        Scale::Full => full,
        Scale::Smoke => full.div_ceil(40),
    }
}

/// `analyze-redundant`: seeded semaphore, Post/Wait/Clear (with Clear)
/// and channel traces, plus the E9 pairing-pitfall ladder and its
/// widened variants (fixed, the same for every seed) — inputs where the
/// default enumeration visits many schedules per distinct order. The
/// seeded traces are all 4×4, so the median sits in a tight cluster; the
/// pitfalls, the costliest traces, carry the tail.
pub fn analyze_redundant(seed: u64, scale: Scale) -> Vec<TraceItem> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    for style in [
        SyncStyle::Semaphores,
        SyncStyle::Events,
        SyncStyle::Channels,
    ] {
        push_family(&mut out, &mut rng, style, &[(4, 4)], count(scale, 360));
    }
    let ladder = match scale {
        Scale::Full => 2..=9,
        Scale::Smoke => 2..=5,
    };
    for decoys in ladder {
        push_pitfall(&mut out, decoys, 1);
    }
    let widths = match scale {
        Scale::Full => 2..=5,
        Scale::Smoke => 2..=2,
    };
    for lanes in 1..=4 {
        for vs in widths.clone() {
            push_pitfall(&mut out, lanes, vs);
        }
    }
    out
}

/// `analyze-dense`: monitor and barrier traces (surface primitives,
/// desugared) — near-perfect pruning but large F(P), and on barriers a
/// cut lattice that outweighs enumeration.
pub fn analyze_dense(seed: u64, scale: Scale) -> Vec<TraceItem> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::new();
    push_family(
        &mut out,
        &mut rng,
        SyncStyle::Monitors,
        &[(3, 4)],
        count(scale, 225),
    );
    push_family(
        &mut out,
        &mut rng,
        SyncStyle::Monitors,
        &[(3, 5)],
        count(scale, 135),
    );
    push_family(
        &mut out,
        &mut rng,
        SyncStyle::Barriers,
        &[(3, 4), (3, 6), (4, 4)],
        count(scale, 90),
    );
    out
}

/// What one request frame of the serve stream does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Attach the connection to program `usize`.
    Open(usize),
    /// A query against program `usize` (the one last opened).
    Query(usize),
}

/// One request frame: its role and the JSON document sent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Open or query, with the program it targets.
    pub kind: FrameKind,
    /// The request document (`id` is the frame's position).
    pub payload: String,
}

/// The `serve-churn` inputs: the rotating program set and the request
/// stream over it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeCorpus {
    /// Mid-size programs, more than the server's resident-program cap.
    pub programs: Vec<TraceItem>,
    /// Opens and queries in send order.
    pub frames: Vec<Frame>,
}

/// Programs in the `serve-churn` rotation. Many, so the resident set and
/// the query costs average over many seeded programs rather than
/// following a few.
pub const SERVE_PROGRAMS: usize = 144;

/// The pair ops, drawn uniformly.
const PAIR_OPS: [&str; 5] = ["mhb", "chb", "ccw", "witness_before", "witness_overlap"];

/// Builds `queries` query frames over seeded epochs: each epoch opens one
/// of [`SERVE_PROGRAMS`] 3×5 programs (a third each of semaphore, event
/// and channel traces, 15–21 events), other than the current one, and
/// asks it 16–47 questions: 0.1 % each `summary` and `races`, the rest
/// spread evenly over the five pair ops of E18's parity cohort (mhb, chb,
/// ccw, witness_before, witness_overlap), on distinct event pairs.
pub fn serve_churn(seed: u64, queries: usize) -> ServeCorpus {
    let mut rng = Rng::new(seed, 3);
    let mut programs = Vec::new();
    let styles = [
        (SyncStyle::Semaphores, 3, 5),
        (SyncStyle::Events, 3, 5),
        (SyncStyle::Channels, 3, 5),
    ];
    for _ in 0..SERVE_PROGRAMS / styles.len() {
        for &(style, p, e) in &styles {
            let family = family_name(style);
            programs.push(TraceItem {
                family,
                label: format!("{family}-{p}x{e}#{}", programs.len()),
                json: random_trace(style, p, e, rng.next_u64()).to_json(),
            });
        }
    }
    let events: Vec<usize> = programs
        .iter()
        .map(|p| {
            Trace::from_json(&p.json)
                .expect("generated traces parse")
                .n_events()
        })
        .collect();

    let mut frames = Vec::new();
    let mut current = usize::MAX;
    let mut sent = 0;
    while sent < queries {
        let mut next = rng.below(programs.len());
        if next == current {
            next = (next + 1) % programs.len();
        }
        current = next;
        let id = Value::Str(format!("open-{}", frames.len()));
        frames.push(Frame {
            kind: FrameKind::Open(current),
            payload: eo_serve::net::client::open_request(&programs[current].json, Some(id)),
        });
        let n = events[current];
        let epoch = (16 + rng.below(32)).min(queries - sent);
        let mut asked = std::collections::BTreeSet::new();
        for _ in 0..epoch {
            let id = frames.len();
            let roll = rng.below(1000);
            let payload = if roll < 1 {
                format!(r#"{{"id": {id}, "op": "summary"}}"#)
            } else if roll < 2 {
                format!(r#"{{"id": {id}, "op": "races"}}"#)
            } else {
                let op = PAIR_OPS[rng.below(PAIR_OPS.len())];
                // A fresh pair for this epoch (pairs run out only on
                // tiny programs; then repeats are allowed).
                let (mut a, mut b) = (0, 1);
                for _ in 0..8 {
                    a = rng.below(n);
                    b = (a + 1 + rng.below(n - 1)) % n;
                    if asked.insert((op, a, b)) {
                        break;
                    }
                }
                format!(r#"{{"id": {id}, "op": "{op}", "a": {a}, "b": {b}}}"#)
            };
            frames.push(Frame {
                kind: FrameKind::Query(current),
                payload,
            });
        }
        sent += epoch;
    }
    ServeCorpus { programs, frames }
}
