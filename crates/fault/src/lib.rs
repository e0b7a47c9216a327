//! Deterministic fault injection and typed-error recovery for the
//! ABM-SpConv reproduction.
//!
//! The paper's accelerator is a deep pipeline of FIFO-decoupled units
//! fed from DDR3 — exactly the kind of system where real deployments
//! see single-event upsets in block RAM, FIFO overflow under bandwidth
//! jitter and hung compute units. This crate provides the four pieces
//! the rest of the stack threads through:
//!
//! * [`AbmError`] — the typed error hierarchy every runtime guard
//!   surfaces instead of panicking: grouping/shape and configuration
//!   contract violations, encode failures, corrupted code streams,
//!   checksum and ABFT mismatches, watchdog deadlines and serving
//!   rejections.
//! * [`Injector`] / [`FaultPlan`] — deterministic, seeded injection of
//!   timing faults at the simulator's four hooks (task delay, lane
//!   stall, dropped deposit, bandwidth derate), and of accumulator
//!   upsets at the one hook in the host's checked ABM layer.
//!   [`NullInjector`] has `const ENABLED = false` and compiles away
//!   entirely, mirroring `abm-telemetry`'s `NullCollector`: the hot
//!   paths monomorphize to exactly the uninjected code, so golden pins
//!   hold bit-identically. Upsets in state the runtime keeps after load
//!   have no hook: `PreparedConv::upset` edits a clone's streams.
//! * [`flat_checksum`] — the stream digest recorded at load and compared
//!   in recovery and by the hardened path's one-layer scrub.
//! * [`CampaignReport`] / [`FaultOutcome`] — the bookkeeping a fault
//!   campaign emits: per-class injected/detected/masked/recovered
//!   counts and a JSON report.
//!
//! Validation of a lowered code against its `LayerCode` is not here:
//! it is `abm-verify`'s lowering pass (`xtask verify`, and a debug
//! assertion when a layer is prepared).
//!
//! The crate is deliberately low in the dependency graph (only
//! `abm-sparse`, for [`EncodeError`](abm_sparse::EncodeError)
//! conversion and the streams the checksum reads, and `abm-telemetry`,
//! for the report's JSON writer) so `abm-conv` and `abm-sim` can both
//! speak [`AbmError`].

#![forbid(unsafe_code)]

mod error;
mod inject;
mod integrity;
mod plan;
mod report;

pub use error::AbmError;
pub use inject::{fnv1a_bytes, Injector, NullInjector, PlanInjector};
pub use integrity::flat_checksum;
pub use plan::{Fault, FaultClass, FaultPlan, SplitMix64};
pub use report::{
    CampaignReport, ClassCounts, FaultOutcome, FaultReport, RecoveryAction, TrialRecord,
};
