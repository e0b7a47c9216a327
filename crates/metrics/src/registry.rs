//! The metric primitives and the process-wide registry.
//!
//! Everything here is built for the hot path of an always-on system:
//! counters are sharded `AtomicU64`s (writers on different threads
//! land on different cache lines), histograms are fixed log-linear
//! bucket arrays (no allocation per observation), and name resolution
//! goes through an `RwLock` read path that only upgrades to a write
//! lock the first time a metric is created. Nothing in this module can
//! panic: lock poisoning is absorbed with
//! `unwrap_or_else(PoisonError::into_inner)` — a poisoned metric map
//! only ever holds plain integers, so recovery is always safe.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use crate::expose::MetricsSnapshot;

/// Shards per counter. Eight 64-byte-padded cells keep concurrent
/// incrementers from bouncing one cache line between cores while
/// staying small enough that a registry of dozens of counters is
/// still only a few KiB.
pub const COUNTER_SHARDS: usize = 8;

/// One cache-line-padded atomic cell.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedCell(AtomicU64);

/// Round-robin shard assignment: each thread gets a stable slot index
/// the first time it touches any counter.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SLOT.with(|s| *s)
}

/// A monotonically increasing counter, sharded across cache lines.
///
/// `add` is a single relaxed `fetch_add` on the calling thread's
/// shard; `value` sums the shards (reads may momentarily trail
/// concurrent writers, but the total is exact once writers quiesce —
/// the property the reconciliation tests rely on).
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedCell; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the calling thread's shard.
    pub fn add(&self, v: u64) {
        self.shards[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// The summed value across all shards.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-written-value gauge with a `set_max` high-water mode.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `v` (last write wins).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.set(0);
    }
}

/// Linear range of the histogram: values below this land in their own
/// exact bucket.
const LINEAR_BUCKETS: u64 = 32;
/// First octave handled logarithmically (`2^5 == LINEAR_BUCKETS`).
const FIRST_OCTAVE: usize = 5;
/// Sub-buckets per octave above the linear range (quartile
/// resolution: worst-case relative bucket width is 25%).
const SUBS_PER_OCTAVE: usize = 4;
/// Total bucket count: 32 exact + 4 per octave for octaves 5..=63.
pub const HISTOGRAM_BUCKETS: usize =
    LINEAR_BUCKETS as usize + (64 - FIRST_OCTAVE) * SUBS_PER_OCTAVE;

/// Maps a value to its bucket index.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (octave - 2)) & 3) as usize;
        LINEAR_BUCKETS as usize + (octave - FIRST_OCTAVE) * SUBS_PER_OCTAVE + sub
    }
}

/// The smallest value that lands in bucket `idx` — the deterministic
/// lower bound quantile queries report.
#[must_use]
pub fn bucket_floor(idx: usize) -> u64 {
    if idx < LINEAR_BUCKETS as usize {
        idx as u64
    } else {
        let rel = idx - LINEAR_BUCKETS as usize;
        let octave = FIRST_OCTAVE + rel / SUBS_PER_OCTAVE;
        let sub = (rel % SUBS_PER_OCTAVE) as u64;
        (1u64 << octave) + (sub << (octave - 2))
    }
}

/// A log-linear histogram: exact below 32, quartile-per-octave above,
/// with exact `count`, `sum` and `max` alongside the buckets. All
/// fields are atomics — observations from any number of threads merge
/// without locks, and snapshots of concurrently written histograms
/// are internally consistent once writers quiesce.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; HISTOGRAM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets and summary fields.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An owned copy of a histogram's state: mergeable across worker
/// threads (or registries) and queryable for exact-rank quantiles at
/// bucket resolution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`HISTOGRAM_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Adds `other`'s observations into `self` (thread-merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Exact-rank quantile at bucket resolution: the floor of the
    /// bucket containing the `ceil(q·count)`-th smallest observation
    /// (clamped by the exact `max`, so `quantile(1.0) == max`).
    /// Resolution is exact below 32 and within 25% above.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_floor(idx).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the observed values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise difference against an earlier snapshot of the same
    /// histogram (for interval reporting). `max` keeps the later
    /// value — maxima are not invertible.
    #[must_use]
    pub fn delta(&self, before: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = self.buckets.clone();
        for (b, o) in buckets.iter_mut().zip(&before.buckets) {
            *b = b.saturating_sub(*o);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
            max: self.max,
        }
    }
}

fn read_map<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<T>>> {
    map.read().unwrap_or_else(PoisonError::into_inner)
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = read_map(map).get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(w.entry(name.to_string()).or_default())
}

/// A named collection of counters, gauges and histograms. One lives
/// for the process lifetime behind [`crate::global`]; tests build
/// private ones.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty, enabled registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(true),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Whether recording convenience methods are live. The switch
    /// exists so the `registry-on == registry-off` identity gates can
    /// exercise both states in one process; production leaves it on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the recording switch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The named counter, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The named gauge, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The named histogram, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Adds `v` to the named counter (no-op while disabled).
    pub fn add(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.counter(name).add(v);
        }
    }

    /// Stores `v` in the named gauge (no-op while disabled).
    pub fn gauge_set(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.gauge(name).set(v);
        }
    }

    /// Raises the named gauge to `v` if larger (no-op while disabled).
    pub fn gauge_max(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.gauge(name).set_max(v);
        }
    }

    /// Records `v` into the named histogram (no-op while disabled).
    pub fn observe(&self, name: &str, v: u64) {
        if self.is_enabled() {
            self.histogram(name).observe(v);
        }
    }

    /// Counts an `abm_fault`-style error in `abm_errors_total` and in
    /// `abm_errors_{context}_total` (no-op while disabled).
    ///
    /// `context` must be a static metric-name-safe label (e.g.
    /// `"infer"`, `"campaign"`).
    pub fn note_error(&self, context: &str) {
        if self.is_enabled() {
            self.counter("abm_errors_total").add(1);
            let mut name = String::with_capacity(context.len() + 17);
            name.push_str("abm_errors_");
            name.push_str(context);
            name.push_str("_total");
            self.counter(&name).add(1);
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read_map(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: read_map(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            histograms: read_map(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every metric. Metric handles held by callers stay valid
    /// (they are reset in place, not replaced). Test/CLI use.
    pub fn reset(&self) {
        for c in read_map(&self.counters).values() {
            c.reset();
        }
        for g in read_map(&self.gauges).values() {
            g.reset();
        }
        for h in read_map(&self.histograms).values() {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::new();
        g.set(7);
        g.set_max(3);
        assert_eq!(g.value(), 7);
        g.set_max(11);
        assert_eq!(g.value(), 11);
        g.set(2);
        assert_eq!(g.value(), 2);
    }

    #[test]
    fn bucket_roundtrip_is_a_lower_bound() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor({idx}) = {floor} > {v}");
            if idx + 1 < HISTOGRAM_BUCKETS {
                assert!(bucket_floor(idx + 1) > v, "v {v} not below next floor");
            }
        }
        // Exact in the linear range.
        for v in 0..32u64 {
            assert_eq!(bucket_floor(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_floors_are_strictly_increasing() {
        for idx in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_floor(idx) > bucket_floor(idx - 1), "idx {idx}");
        }
    }

    #[test]
    fn quantiles_exact_in_linear_range() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v % 20);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.quantile(1.0), s.max);
        assert_eq!(s.quantile(0.5), 9); // values 0..=19, rank 50 -> 9
    }

    #[test]
    fn snapshot_merge_matches_single_histogram() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3u64, 50, 7000, 12, 900_000] {
            a.observe(v);
            all.observe(v);
        }
        for v in [1u64, 64, 1 << 30] {
            b.observe(v);
            all.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn registry_disabled_records_nothing() {
        let r = MetricsRegistry::new();
        r.set_enabled(false);
        r.add("c", 5);
        r.observe("h", 9);
        r.gauge_set("g", 2);
        let s = r.snapshot();
        assert!(s.counters.values().all(|&v| v == 0));
        assert!(s.gauges.values().all(|&v| v == 0));
        assert!(s.histograms.values().all(|h| h.count == 0));
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let r = MetricsRegistry::new();
        let c = r.counter("alive");
        c.add(4);
        r.reset();
        assert_eq!(c.value(), 0);
        c.add(2);
        assert_eq!(r.snapshot().counters["alive"], 2);
    }
}
