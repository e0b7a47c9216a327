//! Fault-tolerant batching inference service for the ABM-SpConv
//! reproduction.
//!
//! This crate turns the "prepare once, infer many" batch path of
//! [`abm-conv`](abm_conv) into an online service with explicit
//! robustness contracts:
//!
//! * **Admission control** ([`cost`]) — the warm-up's measured
//!   per-image time prices each request; requests whose deadline the
//!   predicted queue drain already exceeds are shed *before* consuming
//!   resources, with the typed
//!   [`AbmError::Overloaded`](abm_fault::AbmError) rejection.
//! * **Dynamic batching** ([`server`]) — a bounded queue feeds a
//!   coalescing batcher (up to `max_batch` requests per
//!   `batch_window`), which dispatches to workers running the existing
//!   batch executors.
//! * **Per-request deadlines** — mapped onto the conv layer's
//!   cooperative cancellation
//!   ([`Inferencer::run_batch_salvage`](abm_conv::Inferencer::run_batch_salvage)):
//!   a deadline hit mid-batch cuts only the unstarted items, each with
//!   a typed [`AbmError::DeadlineExceeded`](abm_fault::AbmError).
//! * **Graceful degradation** — workers run the hardened
//!   [`ResiliencePolicy`](abm_conv::ResiliencePolicy) ladder
//!   (re-lower → dense), so detected corruption is masked
//!   bit-identically, never served silently; transient failures get
//!   bounded retry-with-backoff; a stuck batch is confiscated by the
//!   watchdog and failed over to a fresh worker.
//! * **Observability** — every admission decision, shed, retry,
//!   degradation and failover is counted in
//!   [`abm-metrics`](abm_metrics), and every failed request freezes a
//!   flight-recorder dump.
//! * **Chaos testing** ([`server::ChaosConfig`], [`loadgen`]) — seeded
//!   fault injection (weight-stream word flips, worker stalls) under
//!   synthetic open-loop load, with the load report proving the
//!   zero-silent-corruption property.
//!
//! The TCP front end in [`net`] exposes the server over a line
//! protocol with backpressure on the accept path; the `loadtest`
//! binary drives it end to end and publishes `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod loadgen;
pub mod net;
pub mod server;

pub use cost::CostModel;
pub use loadgen::{percentile, LoadConfig, LoadGen, LoadReport};
pub use net::{NetConfig, NetServer};
pub use server::{
    ChaosConfig, ServeConfig, ServeOutput, ServeResponse, ServeStats, Server, Ticket,
};

use abm_tensor::{Shape3, Tensor3};

/// A deterministic synthetic input image — the same LCG stream the
/// fault campaign and benchmarks use, so a request seed alone pins the
/// exact input (and therefore the golden logits) everywhere.
#[must_use]
pub fn synth_input(shape: Shape3, seed: u64) -> Tensor3<i16> {
    let mut state = seed ^ 0x9e37_79b9_u64;
    Tensor3::from_fn(shape, |_, _, _| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        ((state >> 33) % 256) as i16 - 128
    })
}
