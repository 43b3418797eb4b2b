//! The `serve-churn` workload: an in-process `eo_serve::net::Server` (the
//! reactor `eo-server` boots) on loopback, driven as an open loop.
//!
//! Over one connection, a sender thread writes the seeded stream on a
//! fixed schedule, whatever the server's pace, and a receiver thread
//! timestamps the answers; each answer is timed from when its request
//! was due. The stream rotates through more
//! programs than the server keeps resident, so opens evict and rebuild
//! sessions between runs of warm, cached queries.
//!
//! The output check replays every session lifetime — the queries one
//! resident session answered between its (re)build and its eviction —
//! through `serve_batch` in-process; every network answer must match it
//! byte for byte. The traced run replays the same lifetimes once more
//! through the public layers (`Trace::from_json`, `AnalysisSession`,
//! `eo_serve::protocol`) with a span around each call.

use crate::corpus::{self, FrameKind, ServeCorpus};
use crate::reference::Calibrator;
use crate::spans::Spans;
use crate::{alloc, median, stats, Options, RunReport, Scale};
use eo_model::Trace;
use eo_obs::json::{self, Value};
use eo_serve::net::{
    encode, FrameDecoder, FrameEvent, NetClient, ServerConfig, ServerHandle, ServerReport,
};
use eo_serve::protocol::{parse_one, render_degraded, render_races, render_reply, ServeOp};
use eo_serve::{serve_batch, AnalysisSession, ServeConfig, Server};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered load: frames per second. Opens share the schedule with the
/// queries; the stream holds this many queries per second of the run.
const RATE_PER_S: f64 = 800.0;

/// Resident-program cap: a third of the programs the stream rotates
/// through ([`corpus::SERVE_PROGRAMS`]).
const MAX_PROGRAMS: usize = corpus::SERVE_PROGRAMS / 3;

/// An answer slower than this misses `goodput_per_s` (an IDE hover).
const LATENCY_LIMIT_MS: f64 = 50.0;

/// Queries per window of the `tail_ms` computation (one second of the
/// stream at the offered rate).
const TAIL_WINDOW: usize = 800;

/// In-process replays of the stream behind the untraced run's latency.
const REPLAYS: usize = 7;

/// How long the generator waits for stragglers after the last send.
const STRAGGLER_WAIT: Duration = Duration::from_secs(10);

/// The server configuration the benchmark boots.
fn server_config() -> ServerConfig {
    ServerConfig {
        max_programs: MAX_PROGRAMS,
        ..ServerConfig::default()
    }
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    join: JoinHandle<ServerReport>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let server = Server::bind(server_config()).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.handle();
        let join = std::thread::Builder::new()
            .name("eo-server".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawning the server: {e}"))?;
        Ok(Running { addr, handle, join })
    }

    /// Drains the server and waits for its report.
    fn stop(self) -> Result<ServerReport, String> {
        self.handle.drain();
        self.join
            .join()
            .map_err(|_| "the server thread panicked".to_owned())
    }
}

/// Queries in the stream: the offered rate times the run length.
fn query_count(opts: &Options) -> usize {
    let rate = match opts.scale {
        Scale::Full => RATE_PER_S,
        Scale::Smoke => 200.0,
    };
    ((rate * opts.seconds).round() as usize).max(1)
}

/// Builds the stream and boots a warm server, five times; the last
/// server is kept. Set-up time is the median.
fn set_up(opts: &Options) -> Result<(ServeCorpus, Running, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<(ServeCorpus, Running)> = None;
    for _ in 0..5 {
        let t = Instant::now();
        let corpus = corpus::serve_churn(opts.seed, query_count(opts));
        let running = Running::start()?;
        let mut client = NetClient::connect(running.addr).map_err(|e| format!("connect: {e}"))?;
        for _ in 0..20 {
            let pong = client
                .request(r#"{"op": "ping"}"#)
                .map_err(|e| format!("warm-up ping: {e}"))?;
            if !pong.contains(r#""status":"ok""#) {
                return Err(format!("warm-up ping answered {pong}"));
            }
        }
        drop(client);
        times.push(t.elapsed().as_secs_f64());
        if let Some((first, old)) = kept.take() {
            old.stop()?;
            if first != corpus {
                return Err("the request stream differs between two builds from one seed".into());
            }
        }
        kept = Some((corpus, running));
    }
    let (corpus, running) = kept.expect("set-up ran");
    Ok((corpus, running, median(&times)))
}

/// What the open loop observed, per frame.
struct Observed {
    due: Vec<Instant>,
    sent: Vec<Instant>,
    /// Receive time and payload of each frame's answer.
    answers: Vec<Option<(Instant, String)>>,
    start: Instant,
    last_answer: Instant,
    /// Peak heap growth while the loop ran, above the live size before
    /// it; the load generator's own allocations are not counted.
    peak_bytes: usize,
}

/// The open loop: a sender thread writes frame `k` at `start + k / rate`
/// (sleeping, not polling, between sends) while a receiver thread
/// timestamps answers as they arrive; stops when every frame is answered
/// or stragglers time out. Both threads are left out of the heap count.
fn drive(addr: SocketAddr, corpus: &ServeCorpus, rate: f64) -> Result<Observed, String> {
    let baseline = alloc::reset_peak();
    alloc::uncounted(|| open_loop(addr, corpus, rate, baseline))
}

fn open_loop(
    addr: SocketAddr,
    corpus: &ServeCorpus,
    rate: f64,
    baseline: isize,
) -> Result<Observed, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let stream = TcpStream::connect(addr).map_err(io("connect"))?;
    stream.set_nodelay(true).map_err(io("nodelay"))?;
    stream
        .set_read_timeout(Some(STRAGGLER_WAIT))
        .map_err(io("read timeout"))?;
    let mut reader = stream.try_clone().map_err(io("clone"))?;
    let mut writer = stream;
    let frames = &corpus.frames;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = (0..frames.len())
        .map(|k| start + interval * k as u32)
        .collect();

    let (sent, raw) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || -> Result<Vec<(Instant, String)>, String> {
            alloc::uncount_this_thread();
            let mut decoder = FrameDecoder::new(64 << 20);
            let mut buf = vec![0u8; 64 * 1024];
            let mut raw = Vec::with_capacity(frames.len());
            while raw.len() < frames.len() {
                match reader.read(&mut buf) {
                    Ok(0) => return Err("the server closed the connection".into()),
                    Ok(k) => {
                        let t = Instant::now();
                        decoder.push(&buf[..k]);
                        while let Some(event) = decoder.next_event() {
                            match event {
                                FrameEvent::Frame(payload) => raw.push((t, payload)),
                                FrameEvent::Bad(reason) => {
                                    return Err(format!("server broke framing: {reason}"))
                                }
                            }
                        }
                    }
                    // Stragglers timed out: the rest count as unanswered.
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        break
                    }
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
            Ok(raw)
        });
        let mut sent = Vec::with_capacity(frames.len());
        for (frame, &at) in frames.iter().zip(&due) {
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            if let Err(e) = writer.write_all(&encode(&frame.payload)) {
                // Unblock the receiver before reporting.
                let _ = writer.shutdown(std::net::Shutdown::Both);
                let _ = receiver.join();
                return Err(format!("send: {e}"));
            }
            sent.push(Instant::now());
        }
        let raw = receiver
            .join()
            .map_err(|_| "the receiver thread panicked".to_owned())??;
        Ok::<_, String>((sent, raw))
    })?;
    let peak_bytes = alloc::peak_since(baseline);

    // Match answers to frames by their echoed id.
    let mut answers: Vec<Option<(Instant, String)>> = vec![None; frames.len()];
    let mut last_answer = start;
    for (t, payload) in raw {
        let doc =
            json::parse(&payload).map_err(|e| format!("unparseable answer {payload}: {e}"))?;
        let k = match doc.get("id") {
            Some(Value::Num(k)) => *k as usize,
            Some(Value::Str(s)) => s
                .strip_prefix("open-")
                .and_then(|k| k.parse().ok())
                .unwrap_or(usize::MAX),
            _ => usize::MAX,
        };
        match answers.get_mut(k) {
            Some(slot @ None) => *slot = Some((t, payload)),
            _ => return Err(format!("answer with an unknown or repeated id: {payload}")),
        }
        last_answer = last_answer.max(t);
    }
    Ok(Observed {
        due,
        sent,
        answers,
        start,
        last_answer,
        peak_bytes,
    })
}

/// A tail taken per window of [`TAIL_WINDOW`] consecutive queries.
struct WindowedTail {
    /// The rule's percentile in each window (`p90` for 800 queries).
    label: &'static str,
    /// Samples beyond it per window.
    beyond: usize,
    /// The `across` quantile of the per-window values.
    value: f64,
    median_window: f64,
    windows: usize,
}

/// Each window's highest percentile with ten samples beyond it, then the
/// `across` quantile over the windows (the whole sample when it is
/// shorter than one window).
fn windowed_tail(values: &[f64], across: f64) -> WindowedTail {
    let tails: Vec<(&'static str, f64, usize)> = values
        .chunks(TAIL_WINDOW)
        .filter(|w| w.len() == TAIL_WINDOW || values.len() < TAIL_WINDOW)
        .map(|w| stats::tail(&stats::sorted(w)))
        .collect();
    let per_window = stats::sorted(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    WindowedTail {
        label: tails[0].0,
        beyond: tails[0].2,
        value: stats::quantile(&per_window, across),
        median_window: stats::quantile(&per_window, 0.5),
        windows: tails.len(),
    }
}

fn status(payload: &str) -> Option<String> {
    json::parse(payload)
        .ok()
        .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_owned))
}

/// One resident session's life: the program and the frames it answered.
struct Lifetime {
    program: usize,
    frames: Vec<usize>,
}

/// Splits the query frames into session lifetimes: an open answered
/// `"fresh": true` starts a new session for its program; later opens of
/// the same resident program continue it.
fn lifetimes(corpus: &ServeCorpus, seen: &Observed) -> Result<Vec<Lifetime>, String> {
    let mut out: Vec<Lifetime> = Vec::new();
    let mut live: Vec<Option<usize>> = vec![None; corpus.programs.len()];
    let mut current = None;
    for (k, frame) in corpus.frames.iter().enumerate() {
        match frame.kind {
            FrameKind::Open(p) => {
                let answer = seen.answers[k]
                    .as_ref()
                    .map(|(_, a)| a.as_str())
                    .unwrap_or("");
                let doc =
                    json::parse(answer).map_err(|_| format!("open {k} unanswered: {answer}"))?;
                if doc.get("status").and_then(Value::as_str) != Some("ok") {
                    return Err(format!("open {k} failed: {answer}"));
                }
                if doc.get("fresh") == Some(&Value::Bool(true)) {
                    live[p] = Some(out.len());
                    out.push(Lifetime {
                        program: p,
                        frames: Vec::new(),
                    });
                } else if live[p].is_none() {
                    return Err(format!("open {k} reattached to a session never built"));
                }
                current = live[p];
            }
            FrameKind::Query(_) => {
                let l = current.ok_or("a query before any open")?;
                out[l].frames.push(k);
            }
        }
    }
    Ok(out)
}

/// Runs `serve-churn`.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    let (corpus, running, setup_s) = set_up(opts)?;
    let seen = drive(
        running.addr,
        &corpus,
        query_count(opts) as f64 / opts.seconds,
    );
    let server = running.stop()?;
    let seen = seen?;

    let mut report = RunReport::default();
    let queries: Vec<usize> = (0..corpus.frames.len())
        .filter(|&k| matches!(corpus.frames[k].kind, FrameKind::Query(_)))
        .collect();
    let mut latency_ms = Vec::with_capacity(queries.len());
    let (mut exact, mut failed, mut on_time) = (0u64, 0u64, 0u64);
    for &k in &queries {
        match &seen.answers[k] {
            None => failed += 1,
            Some((t, payload)) => {
                let ms = t.duration_since(seen.due[k]).as_secs_f64() * 1e3;
                latency_ms.push(ms);
                match status(payload).as_deref() {
                    Some("exact") => exact += 1,
                    Some("degraded") => {}
                    _ => {
                        failed += 1;
                        continue;
                    }
                }
                on_time += u64::from(ms <= LATENCY_LIMIT_MS);
            }
        }
    }
    report.attempted = queries.len() as u64;
    report.failed = failed;
    let span_s = seen.last_answer.duration_since(seen.start).as_secs_f64();
    let sorted = stats::sorted(&latency_ms);
    // Over TCP the tail is taken per one-second window, then the 10th
    // percentile over the windows: other tenants' bursts inflate the tail
    // of whichever windows they hit, from none to most of a run.
    let net = windowed_tail(&latency_ms, 0.1);
    let net_p50 = stats::quantile(&sorted, 0.5);
    report.notes.push(format!(
        "serve-churn: seed {}, {} queries + {} opens over {} programs at {} q/s offered, \
         answered in {span_s:.2} s; over TCP from due time: p50 {net_p50:.3} ms, {} {:.3} ms \
         (10th percentile over {} one-second windows; median window {:.3} ms; whole-run {} \
         {:.3} ms); server: {} evictions, {} rejected, {} shed, {} orphaned",
        opts.seed,
        queries.len(),
        corpus.frames.len() - queries.len(),
        corpus.programs.len(),
        query_count(opts) as f64 / opts.seconds,
        net.label,
        net.value,
        net.windows,
        net.median_window,
        stats::tail(&sorted).0,
        stats::tail(&sorted).1,
        server.evictions,
        server.rejected,
        server.shed,
        server.orphaned
    ));
    report.counters.insert("evictions", server.evictions);
    report.counters.insert("exact_answers", exact);

    let lives = lifetimes(&corpus, &seen)?;
    check(&corpus, &seen, &lives, &mut report)?;

    if opts.trace {
        let tcp = (net_p50, net.value);
        per_layer_metrics(&mut report, &corpus, &seen, &lives, &server, tcp)?;
    } else {
        // Latency per query on the `eo serve` path: the same stream
        // replayed in-process REPLAYS times, each query's median at the
        // reference speed.
        let mut runs: Vec<Vec<f64>> = vec![Vec::with_capacity(REPLAYS); queries.len()];
        let mut raw: Vec<Vec<f64>> = runs.clone();
        let mut speed = 0.0;
        for _ in 0..REPLAYS {
            let r = replay(&corpus, &seen, &lives, &mut Spans::new(false))?;
            for (k, (us, s)) in r.us.iter().zip(&r.speed).enumerate() {
                runs[k].push(us * s / 1e3);
                raw[k].push(us / 1e3);
            }
            speed += r.mean_speed / REPLAYS as f64;
        }
        let per_query: Vec<f64> = runs.iter().map(|r| median(r)).collect();
        let raw: Vec<f64> = raw.iter().map(|r| median(r)).collect();
        let served = windowed_tail(&per_query, 0.5);
        report.notes.push(format!(
            "eo serve path in-process ({REPLAYS} replays): tail_ms is the median over {} windows \
             of {TAIL_WINDOW} queries of each window's {} ({} beyond); speed factor {speed:.3}, \
             as measured p50 {:.5} ms, tail {:.5} ms",
            served.windows,
            served.label,
            served.beyond,
            stats::quantile(&stats::sorted(&raw), 0.5),
            windowed_tail(&raw, 0.5).value,
        ));
        report.metric("setup_s", setup_s);
        report.metric("p50_ms", stats::quantile(&stats::sorted(&per_query), 0.5));
        report.metric("tail_ms", served.value);
        let answered = (queries.len() as u64 - failed) as f64;
        report.metric("verdicts_per_s", answered / span_s);
        report.metric("goodput_per_s", on_time as f64 / span_s);
        report.metric("exact_frac", exact as f64 / answered.max(1.0));
        report.metric("answered_frac", answered / queries.len() as f64);
        report.metric("peak_heap_mb", alloc::mb(seen.peak_bytes));
    }
    Ok(report)
}

/// Byte parity: each lifetime's network answers equal an in-process
/// `serve_batch` replay of the same requests on a fresh session.
fn check(
    corpus: &ServeCorpus,
    seen: &Observed,
    lives: &[Lifetime],
    report: &mut RunReport,
) -> Result<(), String> {
    let config = ServeConfig {
        session: server_config().session,
        threads: 1,
    };
    let mut stats = eo_serve::SessionStats::default();
    let mut compared = 0u64;
    for life in lives {
        let exec = Trace::from_json(&corpus.programs[life.program].json)
            .map_err(|e| e.to_string())?
            .to_execution()
            .map_err(|e| e.to_string())?;
        let input: String = life
            .frames
            .iter()
            .map(|&k| corpus.frames[k].payload.clone() + "\n")
            .collect();
        let outcome = serve_batch(&exec, &input, &config);
        stats.merge(&outcome.stats);
        for (&k, expected) in life.frames.iter().zip(&outcome.responses) {
            let Some((_, got)) = &seen.answers[k] else {
                continue;
            };
            if status(got).as_deref() == Some("overloaded") {
                continue; // refused, counted as failed; nothing to compare
            }
            if got != expected {
                return Err(format!(
                    "frame {k}: network answer {got} differs from eo serve's {expected}"
                ));
            }
            compared += 1;
        }
    }
    report.counters.insert("cache_hits", stats.cache_hits);
    report
        .counters
        .insert("prefilter_hits", stats.prefilter_hits);
    report
        .counters
        .insert("session_lifetimes", lives.len() as u64);
    report.notes.push(format!(
        "check: {compared} network answers byte-identical to serve_batch replays of {} session lifetimes",
        lives.len()
    ));
    Ok(())
}

/// One in-process replay of the stream.
struct Replay {
    /// Per query, as measured, µs.
    us: Vec<f64>,
    /// Per query, the speed factor of its calibration block.
    speed: Vec<f64>,
    /// Mean speed factor over the calibration phases.
    mean_speed: f64,
    stats: eo_serve::SessionStats,
    /// States the sessions interned.
    states: u64,
}

/// Replays every lifetime in-process through the public layers — the
/// `eo serve` path — with calibration phases between blocks of queries
/// (see [`crate::reference`]); spans are recorded when enabled.
fn replay(
    corpus: &ServeCorpus,
    seen: &Observed,
    lives: &[Lifetime],
    spans: &mut Spans,
) -> Result<Replay, String> {
    let config = server_config().session;
    let mut cal = Calibrator::new();
    cal.phase();
    let mut times = Vec::new();
    let mut blocks = Vec::new();
    let mut stats = eo_serve::SessionStats::default();
    let mut states = 0u64;
    for (l, life) in lives.iter().enumerate() {
        let json = &corpus.programs[life.program].json;
        let exec = spans.time("model.parse", l as u32, || -> Result<_, String> {
            Trace::from_json(json)
                .map_err(|e| e.to_string())?
                .to_execution()
                .map_err(|e| e.to_string())
        })?;
        let mut session = spans.time("serve.open", l as u32, || {
            AnalysisSession::with_config(&exec, config.clone())
        });
        for &k in &life.frames {
            let item = k as u32;
            let block = cal.block();
            let t = Instant::now();
            let parsed = spans.time("serve.protocol", item, || {
                json::parse(&corpus.frames[k].payload).map(|v| parse_one(&exec, &v, Some(k + 1)))
            });
            let parsed = parsed.map_err(|e| format!("frame {k}: {e}"))?;
            let op = parsed.op.clone().map_err(|e| format!("frame {k}: {e}"))?;
            let rendered = match op {
                ServeOp::Query(q) => {
                    let layer = if q.op_name() == "summary" {
                        "serve.session.summary"
                    } else {
                        "serve.session"
                    };
                    let reply = spans.time(layer, item, || session.query(q));
                    spans.time("serve.protocol", item, || match &reply {
                        Ok(r) => render_reply(&parsed.id, r),
                        Err(e) => render_degraded(&parsed.id, q.op_name(), e),
                    })
                }
                ServeOp::Races => {
                    let races = spans.time("serve.session", item, || session.races());
                    spans.time("serve.protocol", item, || match &races {
                        Ok((r, cached)) => render_races(&parsed.id, r, *cached),
                        Err(e) => render_degraded(&parsed.id, "races", e),
                    })
                }
            };
            times.push(t.elapsed().as_secs_f64() * 1e6);
            blocks.push(block);
            if let Some((_, got)) = &seen.answers[k] {
                if status(got).as_deref() != Some("overloaded") && *got != rendered {
                    return Err(format!(
                        "frame {k}: replay rendered {rendered}, the server sent {got}"
                    ));
                }
            }
            cal.between_items();
        }
        stats.merge(&session.stats());
        states += session.interned_states() as u64;
    }
    cal.phase();
    Ok(Replay {
        us: times,
        speed: blocks.iter().map(|&b| cal.speed(b)).collect(),
        mean_speed: cal.mean_speed(),
        stats,
        states,
    })
}

fn per_layer_metrics(
    report: &mut RunReport,
    corpus: &ServeCorpus,
    seen: &Observed,
    lives: &[Lifetime],
    server: &ServerReport,
    (tcp_p50_ms, tcp_tail_ms): (f64, f64),
) -> Result<(), String> {
    let plain = replay(corpus, seen, lives, &mut Spans::new(false))?;
    let mut spans = Spans::new(true);
    let traced = replay(corpus, seen, lives, &mut spans)?;
    let p50 = |r: &Replay| {
        let at_speed: Vec<f64> = r.us.iter().zip(&r.speed).map(|(us, s)| us * s).collect();
        stats::quantile(&stats::sorted(&at_speed), 0.5)
    };
    let overhead = p50(&traced) / p50(&plain) - 1.0;
    let Replay { stats, states, .. } = traced;

    let sum = spans.summary(|_| true);
    let total_us = |names: &[&str]| {
        names
            .iter()
            .map(|n| sum.get(n).map_or(0, |t| t.self_ns))
            .sum::<u64>() as f64
            / 1e3
    };
    let (nq, opens) = (traced.us.len().max(1) as f64, lives.len().max(1) as f64);
    let session_us = total_us(&["serve.session", "serve.session.summary"]) / nq;
    let protocol_us = total_us(&["serve.protocol"]) / nq;
    let rtts: Vec<f64> = seen
        .answers
        .iter()
        .zip(&seen.sent)
        .enumerate()
        .filter(|(k, _)| matches!(corpus.frames[*k].kind, FrameKind::Query(_)))
        .filter_map(|(_, (a, &s))| {
            a.as_ref()
                .map(|(t, _)| t.duration_since(s).as_secs_f64() * 1e6)
        })
        .collect();
    let rtt_us = rtts.iter().sum::<f64>() / rtts.len().max(1) as f64;
    let late: Vec<f64> = seen
        .sent
        .iter()
        .zip(&seen.due)
        .map(|(s, d)| s.saturating_duration_since(*d).as_secs_f64() * 1e3)
        .collect();
    let queries = stats.queries.max(1) as f64;
    let peak = |name: &str| sum.get(name).map_or(0.0, |t| alloc::mb(t.peak_bytes));

    report.metric("model.parse_ms", total_us(&["model.parse"]) / 1e3 / opens);
    // Upper bound: the summary op is the only one that enumerates classes.
    report.metric(
        "engine.enumerate_ms",
        total_us(&["serve.session.summary"]) / 1e3 / nq,
    );
    report.metric("engine.states", states as f64);
    report.metric("serve.open_ms", total_us(&["serve.open"]) / 1e3 / opens);
    report.metric("serve.session_us", session_us);
    report.metric("serve.protocol_us", protocol_us);
    report.metric("serve.cache_hit_frac", stats.cache_hits as f64 / queries);
    report.metric(
        "serve.prefilter_frac",
        stats.prefilter_hits as f64 / queries,
    );
    report.metric("net.p50_ms", tcp_p50_ms);
    report.metric("net.tail_ms", tcp_tail_ms);
    report.metric("net.rtt_us", rtt_us);
    report.metric("net.overhead_us", rtt_us - session_us - protocol_us);
    report.metric("net.evictions", server.evictions as f64);
    report.metric("net.rejected", server.rejected as f64);
    report.metric("net.shed", server.shed as f64);
    report.metric("net.orphaned", server.orphaned as f64);
    report.metric(
        "bench.late_ms",
        stats::quantile(&stats::sorted(&late), 0.99),
    );
    report.metric("bench.trace_overhead_frac", overhead);
    report.metric("model.parse_peak_mb", peak("model.parse"));
    report.metric("engine.enumerate_peak_mb", peak("serve.session.summary"));
    report.metric("serve.session_peak_mb", peak("serve.session"));
    report.counters.insert("states", states);
    report.notes.push(format!(
        "per query: rtt {rtt_us:.1} us = session {session_us:.1} + protocol {protocol_us:.1} + \
         net overhead {:.1}; summary ops {:.1}% of session time; tracing overhead on replay p50 {:+.1}%",
        rtt_us - session_us - protocol_us,
        100.0 * total_us(&["serve.session.summary"]) / total_us(&["serve.session", "serve.session.summary"]).max(1e-9),
        overhead * 100.0
    ));
    Ok(())
}
