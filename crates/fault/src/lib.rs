//! Deterministic fault injection and typed-error recovery for the
//! ABM-SpConv reproduction.
//!
//! The paper's accelerator is a deep pipeline of FIFO-decoupled units
//! fed from DDR3 — exactly the kind of system where real deployments
//! see single-event upsets in block RAM, FIFO overflow under bandwidth
//! jitter and hung compute units. This crate provides the three pieces
//! the rest of the stack threads through:
//!
//! * [`AbmError`] — the typed error hierarchy every runtime guard
//!   surfaces instead of panicking: grouping/shape contract violations,
//!   encode failures, corrupted code streams, checksum and ABFT
//!   mismatches, watchdog deadlines and budget timeouts.
//! * [`Injector`] / [`FaultPlan`] — deterministic, seeded fault
//!   injection. [`NullInjector`] has `const ENABLED = false` and
//!   compiles away entirely, mirroring `abm-telemetry`'s
//!   `NullCollector`: the hot paths monomorphize to exactly the
//!   uninjected code, so golden pins hold bit-identically.
//! * [`CampaignReport`] / [`FaultOutcome`] — the bookkeeping a fault
//!   campaign emits: per-class injected/detected/masked/recovered
//!   counts and a JSON report.
//!
//! The crate is deliberately low in the dependency graph (only
//! `abm-sparse`, for [`EncodeError`](abm_sparse::EncodeError)
//! conversion) so `abm-conv` and `abm-sim` can both speak [`AbmError`].

#![forbid(unsafe_code)]

mod error;
mod inject;
mod integrity;
mod plan;
mod report;

pub use error::AbmError;
pub use inject::{
    fnv1a_bytes, stream_checksum_i16, stream_checksum_u32, Injector, NullInjector, PlanInjector,
};
pub use integrity::{flat_checksum, fold_kernel_digests, kernel_digest, validate_flat};
pub use plan::{Fault, FaultClass, FaultPlan, SplitMix64};
pub use report::{
    CampaignReport, ClassCounts, FaultOutcome, FaultReport, RecoveryAction, TrialRecord,
};
