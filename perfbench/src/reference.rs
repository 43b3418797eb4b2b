//! Host-speed calibration for the timed regions.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! ±15 % over seconds to minutes (other tenants on the same host cores).
//! A fixed reference computation, independent of the system under test
//! and identical in every build, is timed in calibration phases: one
//! before a run of items, then one after each block of items lasting at
//! least [`BLOCK`] and one at the end, never between the items of a
//! block. The chunk
//! allocates nothing and works on its own buffers, made once when the
//! [`Calibrator`] is, so it shares no heap state with the code under
//! test, and a phase of many chunks amortises whatever cache state the
//! items left behind. Each item's time is reported at the reference
//! speed: measured time × [`NOMINAL_MS`] ÷ the mean chunk time of the
//! phases on either side of its block. The as-measured figures and the
//! mean speed factor are printed beside them.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference chunk's time, in milliseconds, that defines the
/// reference speed (about its mean on a 2-vCPU Xeon VM).
pub const NOMINAL_MS: f64 = 0.010;

/// The shortest block of items between two calibration phases.
const BLOCK: Duration = Duration::from_millis(50);

/// Chunks per calibration phase (about 2 ms).
const CHUNKS: u32 = 200;

/// Buffer length of the reference chunk.
const LEN: usize = 512;

/// Slots of its open-addressing table (a power of two above `LEN`).
const SLOTS: usize = 2048;

/// Times calibration phases and converts item times to the reference
/// speed.
pub struct Calibrator {
    values: Vec<u64>,
    table: Vec<u64>,
    /// Mean chunk time of each phase so far, milliseconds.
    phases: Vec<f64>,
    since: Instant,
}

impl Calibrator {
    /// Makes the buffers; [`Calibrator::phase`] opens the first block.
    pub fn new() -> Calibrator {
        Calibrator {
            values: vec![0; LEN],
            table: vec![0; SLOTS],
            phases: Vec::new(),
            since: Instant::now(),
        }
    }

    /// One chunk: fill, sort, hash-insert half, look every value up.
    /// Returns its time in milliseconds.
    fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for v in &mut self.values {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x | 1;
        }
        self.values.sort_unstable();
        self.table.fill(0);
        let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 53) as usize;
        for &k in self.values.iter().step_by(2) {
            let mut h = slot(k);
            while self.table[h] != 0 {
                h = (h + 1) % SLOTS;
            }
            self.table[h] = k;
        }
        let mut hits = 0usize;
        for &k in &self.values {
            let mut h = slot(k);
            while self.table[h] != 0 {
                if self.table[h] == k {
                    hits += 1;
                    break;
                }
                h = (h + 1) % SLOTS;
            }
        }
        black_box(hits);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Times one calibration phase: closes the current block, if any, and
    /// opens the next.
    pub fn phase(&mut self) {
        let total: f64 = (0..CHUNKS).map(|_| self.chunk()).sum();
        self.phases.push(total / f64::from(CHUNKS));
        self.since = Instant::now();
    }

    /// The block the next item belongs to (after at least one phase).
    pub fn block(&self) -> usize {
        self.phases.len() - 1
    }

    /// Called between items: closes the block with a phase once it has
    /// lasted [`BLOCK`].
    pub fn between_items(&mut self) {
        if self.since.elapsed() >= BLOCK {
            self.phase();
        }
    }

    /// The speed factor of a closed block: nominal over the mean chunk
    /// time of the phases before and after it. Multiply a measured time
    /// by it to express it at the reference speed.
    pub fn speed(&self, block: usize) -> f64 {
        NOMINAL_MS / ((self.phases[block] + self.phases[block + 1]) / 2.0)
    }

    /// Mean speed factor over every phase.
    pub fn mean_speed(&self) -> f64 {
        NOMINAL_MS / (self.phases.iter().sum::<f64>() / self.phases.len() as f64)
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}
