//! How much slower than itself the machine ran during a measurement.
//!
//! The benchmark runs on small shared virtual machines whose neighbours
//! slow it one-sidedly by 1.0-2.4x for seconds to minutes at a time: the
//! raw median of ten-second windows of one AlexNet image moved between
//! 174 and 284 ms inside five minutes (README, "Steadiness"). So every
//! closed loop interleaves its operations with short bursts of fixed
//! work owned by the harness — summing a 512 KiB buffer, L2-resident
//! loads and adds — and reports times divided by
//! `median burst / fastest burst`, the slowdown of the window they were
//! measured in. Of the three kernels tried (L1 adds, this, random
//! gathers) this one tracked the program's own slowdown best: the same
//! five minutes calibrated read 161-176 ms. The fastest burst of a
//! process has read the same within 3 % in every condition seen, so a
//! run finds its own quiet reference.

use crate::stats::Samples;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The fastest burst any calibrator of this process has run, in ns: the
/// quiet reference every slowdown is taken against.
static FASTEST_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Words in the burst's buffer (512 KiB).
const WORDS: usize = 64 << 10;

/// Passes over the buffer per burst (~150 µs when quiet).
const PASSES: usize = 16;

/// Share of an operation's time spent calibrating after it.
const SHARE: f64 = 0.02;

/// Shortest calibration after an operation, in ms: some thirty bursts,
/// so the first, which finds the buffer evicted by the operation, does
/// not weigh on the median.
const FLOOR_MS: f64 = 5.0;

pub struct Calibrator {
    buffer: Vec<u64>,
    burst_us: Samples,
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            buffer: vec![1; WORDS],
            burst_us: Samples::default(),
        }
    }

    /// One burst of the fixed work.
    fn burst(&mut self) {
        let t = Instant::now();
        for _ in 0..PASSES {
            let sum = self.buffer.iter().fold(0u64, |s, &x| s.wrapping_add(x));
            black_box(sum);
        }
        let took = t.elapsed();
        FASTEST_NS.fetch_min(
            u64::try_from(took.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.burst_us.push(took.as_secs_f64() * 1e6);
    }

    /// Bursts back to back for [`SHARE`] of an operation that took
    /// `op_ms`, at least [`FLOOR_MS`].
    pub fn after(&mut self, op_ms: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() * 1e3 < (SHARE * op_ms).max(FLOOR_MS) {
            self.burst();
        }
    }

    /// [`after`](Self::after) on `threads` threads at once, for
    /// operations that keep that many busy.
    pub fn after_on(&mut self, threads: usize, op_ms: f64) {
        let others: Vec<Calibrator> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut c = Calibrator::new();
                        c.after(op_ms);
                        c
                    })
                })
                .collect();
            self.after(op_ms);
            spawned
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .collect()
        });
        for other in others {
            self.merge(other);
        }
    }

    pub fn merge(&mut self, other: Calibrator) {
        self.burst_us.extend(other.burst_us);
    }

    pub fn bursts(&self) -> usize {
        self.burst_us.n()
    }

    /// Median burst time over the process's fastest: 1 on a quiet
    /// machine. Ask when the run is over, so the reference is final.
    pub fn slowdown(&self) -> f64 {
        match FASTEST_NS.load(Ordering::Relaxed) {
            0 | u64::MAX => 1.0,
            fastest_ns => self.burst_us.median() * 1e3 / fastest_ns as f64,
        }
    }
}
