//! Meta-crate for the ABM-SpConv (DAC 2019) reproduction.
//!
//! Re-exports the workspace crates under one roof for examples and
//! integration tests:
//!
//! * [`tensor`] — fixed point + tensors
//! * [`model`] — CNN zoo, pruning, synthesis
//! * [`sparse`] — Q-Table / WT-Buffer encoding
//! * [`conv`] — SDConv / SpConv / FDConv / ABM-SpConv engines
//! * [`kernel`] — runtime-dispatched scalar/AVX2/AVX-512 gather kernels
//! * [`sim`] — the cycle-approximate accelerator simulator
//! * [`dse`] — design space exploration
//! * [`verify`] — static invariant checking + the concurrency model checker
//! * [`telemetry`] — zero-cost-when-disabled instrumentation + exporters
//! * [`metrics`] — always-on metrics registry + exposition
//! * [`fault`] — typed errors, deterministic fault injection, campaign reports
//! * [`serve`] — fault-tolerant batching inference service (admission
//!   control, deadlines, chaos-tested graceful degradation)
//! * [`campaign`] — the seeded fault-injection campaign over the model zoo
//!
//! See the README for a tour and `examples/` for runnable entry points.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod cli;

pub use abm_conv as conv;
pub use abm_dse as dse;
pub use abm_fault as fault;
pub use abm_kernel as kernel;
pub use abm_metrics as metrics;
pub use abm_model as model;
pub use abm_serve as serve;
pub use abm_sim as sim;
pub use abm_sparse as sparse;
pub use abm_telemetry as telemetry;
pub use abm_tensor as tensor;
pub use abm_verify as verify;
