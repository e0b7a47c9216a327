//! Cycle-approximate simulator of the ABM-SpConv accelerator
//! (Section 4 of the paper).
//!
//! The simulated microarchitecture follows Figure 2:
//!
//! * [`config`] — the design parameters of Table 3 (`N_cu`, `N_knl`,
//!   `N`, `S_ec`, buffer depths, frequency);
//! * [`lane`] — one kernel lane: `S_ec` pixel accumulators feeding
//!   `S_ec / N` multipliers through FIFOs; timing is derived from the
//!   kernel's *actual encoded value-run structure*, so short runs
//!   (`c_p < N`) stall the lane exactly as the hardware would;
//! * [`task`] — computation tasks: a prefetch window of the feature map
//!   times a batch of up to `N_knl` kernels;
//! * [`sched`] — the semi-synchronous task scheduler (idle CU grabs the
//!   next task) plus a lock-step mode for the ablation study;
//! * [`memory`] — the DDR3 traffic/bandwidth model (12.8 GB/s on the
//!   DE5-Net);
//! * [`run`] — the [`SimContext`] every simulation runs under (memory
//!   system, scheduling policy, host parallelism, telemetry and fault
//!   hooks) and its workload and network cores, producing cycles,
//!   CU utilization, and GOP/s (dense-equivalent, the convention of
//!   Table 2); host threads fan the simulation out across layers (or
//!   across kernels within a layer) with bit-identical results to
//!   serial execution;
//! * [`pipeline`] — the layer-pipelined (HPIPE-style) planner and the
//!   context's pipeline core;
//! * [`cycle`] — a cycle-stepped structural model of a lane, validated
//!   cycle-exactly against [`lane`]'s analytic recurrence;
//! * [`energy`] — a first-order per-op energy model (extension);
//! * [`fault`] — fail-stop watchdogs that turn injected timing faults
//!   (FIFO overflow, hung CU, lost deposit, bandwidth collapse) into
//!   typed [`AbmError`](abm_fault::AbmError)s, a hung CU held to
//!   [`WATCHDOG_SLACK_CYCLES`];
//!
//! [`NetworkSim`] is a run's one per-layer record; the event stream a
//! [`Collector`](abm_telemetry::Collector) receives is its timeline.
//! The context is generic over the collector; with the default
//! `NullCollector` every hook compiles away, so instrumented and plain
//! runs are bit-identical (`tests/telemetry.rs` proves it).
//!
//! # Examples
//!
//! ```
//! use abm_model::{synthesize_model, zoo, PruneProfile, LayerProfile};
//! use abm_sim::{AcceleratorConfig, simulate_network};
//!
//! let net = zoo::tiny();
//! let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
//! let model = synthesize_model(&net, &profile, 7);
//! let cfg = AcceleratorConfig::paper();
//! let sim = simulate_network(&model, &cfg);
//! assert!(sim.total_seconds() > 0.0);
//! assert!(sim.cu_utilization() > 0.3 && sim.cu_utilization() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cycle;
pub mod energy;
pub mod fault;
pub mod lane;
pub mod memory;
pub mod pipeline;
pub mod run;
pub mod sched;
pub mod task;
pub mod verify;

pub use abm_pool::Parallelism;
pub use config::{AcceleratorConfig, ConfigError};
pub use fault::WATCHDOG_SLACK_CYCLES;
pub use memory::MemorySystem;
pub use pipeline::{
    plan_pipeline, simulate_pipeline, simulate_sequential_batch, PipelineOptions, PipelineSim,
    PlanError, SequentialBatchSim,
};
pub use run::{simulate_network, LayerSim, NetworkSim, SimContext, SimSummary};
pub use sched::{PipelineStage, PipelinedSchedule, SchedulingPolicy};
pub use verify::{
    verify_pipelined_schedule, verify_workload, verify_workload_lowering, verify_workload_schedule,
};
