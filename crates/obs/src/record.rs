//! The recording layer: span guards, counters, gauges, per-thread buffers.
//!
//! Design constraints (DESIGN.md §9):
//!
//! - **Zero cost when disabled.** Without the `enabled` cargo feature every
//!   entry point below is an empty `#[inline(always)]` function and
//!   [`SpanGuard`] is a unit type with no `Drop` impl, so instrumented code
//!   compiles to exactly what it would be with the probes deleted.
//! - **Uncontended recording.** With the feature on, events go into the
//!   recording thread's own buffer: one relaxed load of the global
//!   "recording" flag, then an uncontended lock of a mutex that only
//!   [`start`] and [`finish`] ever contend. Each buffer is registered
//!   globally when its thread first records, and [`finish`] drains every
//!   registered buffer itself — so a worker's events are seen as soon as
//!   the worker has returned, even when `thread::scope` returns before the
//!   worker's thread-local destructors have run.
//! - **Run-scoped.** [`start`] clears every buffer and arms recording;
//!   [`finish`] disarms it and returns everything recorded in between.

/// One raw event as recorded on some thread, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span was opened.
    Begin {
        /// Static span name, e.g. `"engine.build_graph"`.
        name: &'static str,
        /// Microseconds since the process-wide recording epoch.
        t_us: u64,
    },
    /// The innermost open span on this thread was closed.
    End {
        /// Microseconds since the process-wide recording epoch.
        t_us: u64,
    },
    /// A monotonically accumulating count (summed across threads).
    Counter {
        /// Metric name, e.g. `"engine.states_interned"`.
        name: &'static str,
        /// Amount to add.
        delta: u64,
    },
    /// A point-in-time integer measurement (last write wins).
    GaugeI {
        /// Metric name.
        name: &'static str,
        /// Recorded value.
        value: i64,
    },
    /// A point-in-time float measurement (last write wins).
    GaugeF {
        /// Metric name.
        name: &'static str,
        /// Recorded value.
        value: f64,
    },
    /// A point-in-time string measurement (last write wins).
    GaugeS {
        /// Metric name.
        name: &'static str,
        /// Recorded value.
        value: String,
    },
}

/// All events recorded by a single thread, in recording order.
#[derive(Debug, Clone, Default)]
pub struct ThreadLog {
    /// Dense id assigned at first recording on the thread.
    pub tid: u64,
    /// The thread's events in program order.
    pub events: Vec<Event>,
}

/// Everything recorded between [`start`] and [`finish`].
#[derive(Debug, Clone, Default)]
pub struct RunData {
    /// Per-thread logs, sorted by `tid` for determinism.
    pub threads: Vec<ThreadLog>,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Event, ThreadLog};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    pub(super) static RECORDING: AtomicBool = AtomicBool::new(false);
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    /// Every thread's buffer, from its first recorded event until the
    /// first run boundary after the thread exits.
    static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());

    struct ThreadBuf {
        tid: u64,
        events: Mutex<Vec<Event>>,
    }

    thread_local! {
        static LOCAL: Arc<ThreadBuf> = register();
    }

    fn register() -> Arc<ThreadBuf> {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        // A poisoned registry only loses telemetry, never affects the engine.
        if let Ok(mut registry) = REGISTRY.lock() {
            registry.push(Arc::clone(&buf));
        }
        buf
    }

    pub(super) fn now_us() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
    }

    pub(super) fn push(ev: Event) {
        // try_with: during thread teardown the TLS slot may already be gone;
        // dropping the event is the only sound option then.
        let _ = LOCAL.try_with(|buf| {
            if let Ok(mut events) = buf.events.lock() {
                events.push(ev);
            }
        });
    }

    /// Takes every registered buffer's events (clearing them) and drops
    /// the buffers of threads that have exited — the registry then holds
    /// their only reference.
    fn drain() -> Vec<ThreadLog> {
        let Ok(mut registry) = REGISTRY.lock() else {
            return Vec::new();
        };
        let mut threads = Vec::new();
        for buf in registry.iter() {
            let events = buf
                .events
                .lock()
                .map(|mut events| std::mem::take(&mut *events))
                .unwrap_or_default();
            if !events.is_empty() {
                threads.push(ThreadLog {
                    tid: buf.tid,
                    events,
                });
            }
        }
        registry.retain(|buf| Arc::strong_count(buf) > 1);
        threads
    }

    pub(super) fn begin_run() {
        // Pin the epoch before arming so the first event never precedes it.
        let _ = EPOCH.get_or_init(Instant::now);
        // Discard anything buffered before the run, on every thread.
        drain();
        RECORDING.store(true, Ordering::SeqCst);
    }

    pub(super) fn end_run() -> Vec<ThreadLog> {
        RECORDING.store(false, Ordering::SeqCst);
        let mut threads = drain();
        threads.sort_by_key(|t| t.tid);
        threads
    }
}

// ---------------------------------------------------------------------------
// Public API, `enabled` build.
// ---------------------------------------------------------------------------

/// RAII guard closing a span when dropped. Created by [`span`].
#[cfg(feature = "enabled")]
#[must_use = "dropping the guard immediately records an empty span"]
pub struct SpanGuard {
    active: bool,
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            imp::push(Event::End {
                t_us: imp::now_us(),
            });
        }
    }
}

#[cfg(feature = "enabled")]
impl SpanGuard {
    /// Closes the span now, before the end of scope (consumes the guard).
    pub fn end(self) {}
}

/// Whether a recording run is currently active.
///
/// Instrumentation sites use this to skip *computing* a metric whose
/// computation itself is not free (e.g. an O(states) scan).
#[cfg(feature = "enabled")]
#[inline]
pub fn recording() -> bool {
    imp::RECORDING.load(std::sync::atomic::Ordering::Relaxed)
}

/// Starts a recording run: clears every thread's buffer and arms event
/// capture.
#[cfg(feature = "enabled")]
pub fn start() {
    imp::begin_run();
}

/// Stops the current run and returns everything recorded since [`start`].
///
/// Drains every thread's buffer: the calling thread's, those of threads
/// that have exited, and those of threads still running (whatever they
/// recorded up to the drain).
#[cfg(feature = "enabled")]
pub fn finish() -> RunData {
    RunData {
        threads: imp::end_run(),
    }
}

/// Opens a span named `name`; the span closes when the guard drops.
#[cfg(feature = "enabled")]
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !recording() {
        return SpanGuard { active: false };
    }
    imp::push(Event::Begin {
        name,
        t_us: imp::now_us(),
    });
    SpanGuard { active: true }
}

/// Adds `delta` to the counter `name` (summed across all threads).
#[cfg(feature = "enabled")]
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if recording() {
        imp::push(Event::Counter { name, delta });
    }
}

/// Records an integer gauge (last write wins).
#[cfg(feature = "enabled")]
#[inline]
pub fn gauge(name: &'static str, value: i64) {
    if recording() {
        imp::push(Event::GaugeI { name, value });
    }
}

/// Records a float gauge (last write wins).
#[cfg(feature = "enabled")]
#[inline]
pub fn gauge_f64(name: &'static str, value: f64) {
    if recording() {
        imp::push(Event::GaugeF { name, value });
    }
}

/// Records a string gauge (last write wins).
#[cfg(feature = "enabled")]
#[inline]
pub fn gauge_str(name: &'static str, value: &str) {
    if recording() {
        imp::push(Event::GaugeS {
            name,
            value: value.to_owned(),
        });
    }
}

// ---------------------------------------------------------------------------
// Public API, disabled build: every function is an inlineable no-op and the
// guard has no `Drop` impl, so instrumentation vanishes entirely.
// ---------------------------------------------------------------------------

/// RAII guard closing a span when dropped (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[must_use = "binding the guard gives the span its extent"]
pub struct SpanGuard;

#[cfg(not(feature = "enabled"))]
impl SpanGuard {
    /// Closes the span now (no-op: `enabled` is off).
    #[inline(always)]
    pub fn end(self) {}
}

/// Whether a recording run is currently active (always `false` here).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn recording() -> bool {
    false
}

/// Starts a recording run (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn start() {}

/// Stops the current run (no-op: `enabled` is off; always empty).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn finish() -> RunData {
    RunData::default()
}

/// Opens a span (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn span(_name: &'static str) -> SpanGuard {
    SpanGuard
}

/// Adds to a counter (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn counter(_name: &'static str, _delta: u64) {}

/// Records an integer gauge (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn gauge(_name: &'static str, _value: i64) {}

/// Records a float gauge (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn gauge_f64(_name: &'static str, _value: f64) {}

/// Records a string gauge (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn gauge_str(_name: &'static str, _value: &str) {}
