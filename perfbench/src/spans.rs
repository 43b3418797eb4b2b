//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer of the
//! system (nothing inside the system is instrumented), one after another
//! — never nested — so a span's duration is its layer's self time. Each
//! record keeps its name, the item (trace or query) it belongs to, its
//! duration and the heap growth at its peak. Records stay in memory until
//! the run ends; [`Spans::summary`] then sums them per layer.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// One span.
#[derive(Clone, Copy, Debug)]
struct SpanRecord {
    name: &'static str,
    item: u32,
    ns: u64,
    peak_bytes: usize,
}

/// Per-layer totals derived from the records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Largest heap growth inside one span, bytes.
    pub peak_bytes: usize,
}

/// An in-memory span recorder; a disabled recorder records nothing and
/// costs one branch per call.
pub struct Spans {
    enabled: bool,
    records: Vec<SpanRecord>,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            records: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for `item`.
    pub fn time<T>(&mut self, name: &'static str, item: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let baseline = alloc::reset_peak();
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.records.push(SpanRecord {
            name,
            item,
            ns,
            peak_bytes: alloc::peak_since(baseline),
        });
        out
    }

    /// Self time and peak per layer name, optionally restricted to
    /// the items `keep` accepts.
    pub fn summary(&self, keep: impl Fn(u32) -> bool) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for r in self.records.iter().filter(|r| keep(r.item)) {
            let t = out.entry(r.name).or_default();
            t.self_ns += r.ns;
            t.peak_bytes = t.peak_bytes.max(r.peak_bytes);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_sum_per_layer_and_item() {
        let mut s = Spans::new(true);
        s.time("sleep", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.time("sleep", 1, || ());
        s.time("other", 1, || ());
        assert!(s.summary(|_| true)["sleep"].self_ns >= 5_000_000);
        assert!(s.summary(|i| i == 1)["sleep"].self_ns < 5_000_000);
        assert_eq!(s.summary(|i| i == 0).len(), 1);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("x", 0, || 3), 3);
        assert!(s.summary(|_| true).is_empty());
    }
}
