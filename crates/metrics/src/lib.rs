#![forbid(unsafe_code)]
//! `abm-metrics` — always-on, process-wide observability for the
//! ABM-SpConv reproduction.
//!
//! Where `abm-telemetry` captures rich **per-run** event traces, this
//! crate aggregates: lock-free sharded [`Counter`]s, [`Gauge`]s and
//! log-bucketed [`Histogram`]s (exact p50/p90/p99/max at ≤25% bucket
//! resolution, mergeable across worker threads) live in a process-wide
//! [`MetricsRegistry`] reachable from any layer via [`global`]. A
//! surfaced `AbmError` is counted there too
//! ([`MetricsRegistry::note_error`]).
//!
//! Two design rules keep the registry safe to leave on:
//!
//! 1. **Never on the result path** — metrics observe durations and
//!    counts; they can never change a computed value. The
//!    `registry-on == registry-off` proptest in `tests/metrics.rs`
//!    pins this.
//! 2. **One source for the simulator's aggregates** — the simulator
//!    writes none of them. Its `sim_*` aggregates are
//!    [`MetricsRegistry::fold`] over the event stream it recorded, so
//!    they cannot drift from the stream; `tests/metrics.rs` pins the
//!    fold, exactly, to the totals `NetworkSim` carries itself on
//!    AlexNet and VGG16.
//!
//! Exposition: [`MetricsSnapshot::to_prometheus`] (text format),
//! [`MetricsSnapshot::to_json`] (through `abm_telemetry::json`),
//! [`MetricsSnapshot::render_table`] (sorted terminal table), all
//! served by the `metrics` CLI subcommand.

pub mod expose;
pub mod fold;
pub mod registry;

pub use expose::MetricsSnapshot;
pub use fold::{SIM_COMPUTE_CYCLES, SIM_LAYERS, SIM_PREFIX};
pub use registry::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    HISTOGRAM_BUCKETS,
};

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry (created on first use, enabled).
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Whether the global registry is currently recording. Hot paths
/// check this once per operation and skip clock reads and metric
/// lookups entirely when it is off.
#[must_use]
pub fn enabled() -> bool {
    global().is_enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_a_singleton_and_enabled_by_default() {
        assert!(std::ptr::eq(global(), global()));
        // Note: other tests may toggle the switch; only assert the
        // accessor agrees with the registry.
        assert_eq!(enabled(), global().is_enabled());
    }
}
