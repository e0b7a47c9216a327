//! Static invariant checking for the ABM-SpConv reproduction.
//!
//! The paper's accelerator is correct *by construction*: offset tables,
//! FIFO depths and the `N`-accumulators-per-multiplier rotation are
//! fixed at synthesis time, so an FPGA build either proves them or
//! fails to synthesize. The software reproduction executes the same
//! structures unchecked in its hot path — so this crate proves the same
//! properties statically, before execution, in four passes:
//!
//! 1. [`lowering`] — a [`FlatCode`](abm_sparse::FlatCode) faithfully
//!    lowers its source Q-Table streams, every precomputed offset is
//!    in-bounds over the whole output plane's sweep, and no accumulation
//!    overflows the accumulator width (the offset-ROM / bit-width
//!    checks of a hardware build);
//! 2. [`schedule`] — a window schedule is legal (no CU double-booking,
//!    every task exactly once at its declared cost) and the kernel
//!    streams fit the configured FIFO and buffer depths (synthesis-time
//!    feasibility);
//! 3. [`mc`] — an exhaustive-interleaving model checker for the two
//!    hand-written concurrent protocols (the pool's shared claim counter
//!    and the lane's accumulator→FIFO→multiplier hand-off), proving
//!    claim linearizability and no lost or duplicated work over bounded
//!    instances;
//! 4. [`pipeline`] — a layer-pipelined schedule covers every layer once,
//!    gives each stage CUs of its own and at least one lane, and sizes
//!    every inter-stage FIFO for the dataflow's high water.
//!
//! All passes emit a shared machine-readable [`VerifyReport`] whose
//! [`Defect`] vocabulary names every invariant the reproduction claims.
//! `cargo xtask verify` runs the passes over the model zoo; debug
//! builds of `abm-conv`/`abm-sim` also call pass 1 from their
//! constructors (`debug_assert!`-backed, zero release cost).
//!
//! This crate deliberately depends only on `abm-tensor`, `abm-sparse`
//! and `abm-telemetry` (the report's JSON writer): the executor and
//! simulator crates depend on *it*, and feed the schedule pass pure
//! data through their own glue modules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lowering;
pub mod mc;
pub mod pipeline;
pub mod report;
pub mod schedule;

pub use lowering::{verify_lowering, AccumulatorModel, ConvGeometry};
pub use mc::{
    explore, seeded_faults, standard_suite, ClaimFault, ClaimModel, FifoFault, FifoModel, Model,
};
pub use pipeline::{verify_pipeline, BoundaryFacts, PipelineParams, StageFacts};
pub use report::{Defect, Metric, VerifyReport};
pub use schedule::{verify_schedule, KernelFacts, ScheduleParams, TaskSpan};
