//! `eo-server` — the fault-tolerant network front end to the analysis
//! sessions.
//!
//! ```text
//! eo-server [--addr <host:port>] [--port-file <path>]
//!           [--max-programs <n>] [--max-conns <n>] [--max-frame <bytes>]
//!           [--config <file.json>]
//!           [--timeout <ms>] [--max-mem <bytes>] [--max-states <n>]
//!           [--max-schedules <n>]
//!           [--read-timeout-ms <ms>] [--write-timeout-ms <ms>]
//!           [--idle-timeout-ms <ms>] [--drain-deadline-ms <ms>]
//!           [--drain-grace-ms <ms>] [--retry-after-ms <ms>]
//!           [--no-cache] [--no-prefilter] [--static-prefilter]
//!           [--ignore-deps] [--backend exact|sat] [--equiv <strategy>]
//!           [--metrics-out <file>]
//! ```
//!
//! Engine knobs (`--config` base plus the `--ignore-deps`/`--equiv`/
//! `--backend`/`--static-prefilter`/cap flag overrides) are parsed by the
//! same `EngineConfig::from_cli` as `eo analyze` and `eo serve`, so one
//! config file means the same analysis everywhere; non-default settings
//! are echoed in every response's additive `config` object.
//!
//! The server speaks the `eo serve` request protocol over TCP, one
//! length-prefixed frame (`<len>:<payload>\n`) per request, multiplexing
//! many clients and many programs over one reactor (see
//! `eo_serve::net`). Every well-formed request gets exactly one response
//! with the same bytes `eo serve` would print for it; malformed frames
//! get a per-request error and never kill the connection or the process.
//!
//! **Shutdown contract**: the first SIGINT/SIGTERM starts a graceful
//! drain — stop accepting, finish (or, past `--drain-deadline-ms`,
//! degrade) in-flight work, flush owed responses and metrics — and the
//! process exits **0**. A second signal hard-exits with **130**. Exit
//! **1** means usage or bind errors. Clients seeing `status:
//! "overloaded"` should back off for the response's `retry_after_ms`
//! and retry; that status is admission control, not failure.
//!
//! `--addr 127.0.0.1:0` (the default) binds an OS-assigned port;
//! `--port-file` writes the resolved `host:port` (atomically, via
//! rename) once listening, which is how scripts and the integration
//! tests discover the port without racing the bind.

use eo_serve::{ServerConfig, SessionConfig};
use std::process::ExitCode;
use std::time::Duration;

/// Parses `--<name> <number>` anywhere in `args`.
fn num_flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(|s| s.parse::<u64>()) {
            Some(Ok(v)) => Ok(Some(v)),
            other => Err(format!("eo-server: {name} takes a number, got {other:?}")),
        },
    }
}

/// Parses `--<name> <value>` anywhere in `args`.
fn str_flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("eo-server: {name} takes a value")),
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut config = ServerConfig::default();
    if let Some(addr) = str_flag(args, "--addr")? {
        config.addr = addr;
    }
    let port_file = str_flag(args, "--port-file")?;
    let metrics_out = str_flag(args, "--metrics-out")?;

    if let Some(n) = num_flag(args, "--max-programs")? {
        config.max_programs = n as usize;
    }
    if let Some(n) = num_flag(args, "--max-conns")? {
        config.max_conns = n as usize;
    }
    if let Some(n) = num_flag(args, "--max-frame")? {
        config.max_frame = n as usize;
    }
    if let Some(ms) = num_flag(args, "--read-timeout-ms")? {
        config.read_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = num_flag(args, "--write-timeout-ms")? {
        config.write_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = num_flag(args, "--idle-timeout-ms")? {
        config.idle_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = num_flag(args, "--drain-deadline-ms")? {
        config.drain_deadline = Duration::from_millis(ms);
    }
    if let Some(ms) = num_flag(args, "--drain-grace-ms")? {
        config.drain_grace = Duration::from_millis(ms);
    }
    if let Some(ms) = num_flag(args, "--retry-after-ms")? {
        config.retry_after_ms = ms;
    }

    // Session knobs mirror `eo serve` so a replayed batch answers
    // byte-identically over the wire and over stdin: `--config
    // <file.json>` plus flag overrides go through the same
    // `EngineConfig::from_cli` all front ends share.
    let cfg = eo_engine::EngineConfig::from_cli(args).map_err(|e| format!("eo-server: {e}"))?;
    // In the network server the timeout is the per-request deadline the
    // reactor enforces (renewed per query), not a session-lifetime budget
    // cap, so it is routed to the server config and stripped from the
    // session's engine budget.
    if let Some(ms) = cfg.timeout_ms {
        config.query_deadline_ms = ms;
    }
    let session_cfg = eo_engine::EngineConfig {
        timeout_ms: None,
        ..cfg.clone()
    };
    config.session = SessionConfig::from_engine_config(&session_cfg);
    // The protocol echo still reports the *full* effective config,
    // including the timeout the reactor took over.
    config.session.config_echo = cfg.non_default_fields();
    config.session.cache = !args.iter().any(|a| a == "--no-cache");
    config.session.prefilter = !args.iter().any(|a| a == "--no-prefilter");

    // The handler must be live before the server is observable (port file,
    // accepting socket): once a client can see us, an operator can signal
    // us, and an uninstalled handler means the default disposition kills
    // the process with every accepted request unanswered. Installing
    // after spawning the reactor is not enough — under CPU contention the
    // reactor thread can serve a whole burst before this thread runs
    // another instruction.
    let signals = eo_signal::install();

    let server = eo_serve::Server::bind(config).map_err(|e| format!("eo-server: bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("eo-server: local_addr: {e}"))?;
    let handle = server.handle();

    if metrics_out.is_some() {
        eo_obs::start();
        if !eo_obs::recording() {
            eprintln!(
                "warning: this eo-server binary was built without the `obs` feature; \
                 --metrics-out will report empty data (rebuild with `cargo build --features obs`)"
            );
        }
    }

    // Publish the resolved port only after the listener exists, and via
    // rename so a polling reader never observes a partial write.
    if let Some(path) = &port_file {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("eo-server: writing {path}: {e}"))?;
    }
    eprintln!("eo-server: listening on {addr}");

    // The reactor owns its thread; this thread becomes the signal watcher
    // driving the drain state machine.
    let join = std::thread::Builder::new()
        .name("eo-reactor".to_owned())
        .spawn(move || server.run())
        .map_err(|e| format!("eo-server: spawning reactor: {e}"))?;

    let mut drain_requested = false;
    while !join.is_finished() {
        let count = signals.count();
        if count >= 2 {
            // The operator asked twice: skip the drain and die loudly.
            eprintln!("eo-server: second signal, exiting immediately");
            std::process::exit(130);
        }
        if count >= 1 && !drain_requested {
            eprintln!("eo-server: signal received, draining");
            handle.drain();
            drain_requested = true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = join
        .join()
        .map_err(|_| "eo-server: reactor panicked".to_owned())?;

    if let Some(path) = &metrics_out {
        let run = eo_obs::finish();
        let summary = eo_obs::report::aggregate(&run);
        let text = eo_obs::report::metrics_to_json(&summary.metrics_with_defaults());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("warning: writing {path}: {e}");
        }
    }
    eprintln!(
        "eo-server: drained ({}); {} conns, {} requests, {} responses \
         ({} exact, {} degraded, {} errors), {} rejected, {} shed, \
         {} bad frames, {} timeout kills, {} sessions rebuilt",
        if report.drained_clean {
            "clean"
        } else {
            "deadline"
        },
        report.accepted,
        report.requests,
        report.responses,
        report.exact,
        report.degraded,
        report.errors,
        report.rejected,
        report.shed,
        report.bad_frames,
        report.timeout_kills,
        report.sessions_rebuilt,
    );
    // Graceful drain is success by contract, clean or degraded: every
    // accepted request was answered one way or the other.
    Ok(ExitCode::SUCCESS)
}
