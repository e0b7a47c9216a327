//! Instrumentation layer for the ABM-SpConv reproduction — cycle-level
//! telemetry, Chrome-trace export and the workspace's JSON.
//!
//! The paper's claims are architectural: throughput emerges from CU
//! utilization, accumulator/multiplier balance, FIFO back-pressure and
//! DDR bandwidth roofs. This crate makes those mechanisms inspectable
//! without perturbing them:
//!
//! * [`collector`] — the [`Collector`] trait instrumented code reports
//!   into. [`NullCollector`] (the default) has an `ENABLED = false`
//!   associated const, so every hook and every derivation feeding one
//!   compiles away — the uninstrumented hot path is byte-identical to
//!   pre-telemetry builds. [`RecordingCollector`] captures the full
//!   [`Event`] stream;
//! * [`sink`] — [`TelemetrySink`], the thread-safe variant the host-side
//!   inference path records wall-clock spans and worker claim counts
//!   into (the simulator is single-collector by construction; host
//!   workers are not);
//! * [`chrome`] — a `chrome://tracing` / Perfetto `trace_event` JSON
//!   writer: one track per simulated CU and per host worker, B/E span
//!   pairs, cycle-resolution timestamps;
//! * [`json`] — the workspace's one JSON writer (every exported
//!   document, under one layout rule) and one parser (every document
//!   read back).
//!
//! The crate sits below the simulator and the convolution engines in the
//! dependency graph and has no dependencies of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod collector;
pub mod json;
pub mod sink;

pub use chrome::ChromeTrace;
pub use collector::{Collector, Event, FaultAction, NullCollector, RecordingCollector};
pub use sink::TelemetrySink;
