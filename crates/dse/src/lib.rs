//! Design-space exploration for the ABM-SpConv accelerator (Section 5 of
//! the paper).
//!
//! The flow mirrors Figure 5:
//!
//! 1. analyze the network and pruning profile (`abm-model`),
//! 2. estimate throughput with the [`perf`] **Performance Model**,
//! 3. check external memory with the [`bandwidth`] **Bandwidth Model**,
//! 4. estimate ALM/DSP/M20K with the [`resource`] **Resource Requirement
//!    Model** (linear in the design parameters, constants calibrated to
//!    the paper's reported utilizations),
//! 5. [`explore`] the `N_knl` axis (Figure 6) and the `S_ec × N_cu`
//!    plane (Figure 7) under device constraints,
//! 6. compare design spaces on a [`roofline`] (Figure 1),
//! 7. cross-check the cycle simulator's measured telemetry against the
//!    analytic model with [`consistency`] (the CI divergence gate).
//!
//! # Examples
//!
//! ```
//! use abm_dse::{device::FpgaDevice, resource::ResourceModel};
//! use abm_sim::AcceleratorConfig;
//!
//! let dev = FpgaDevice::stratix_v_gxa7();
//! let res = ResourceModel::paper().estimate(&AcceleratorConfig::paper());
//! assert!(res.fits(&dev, 0.75));
//! assert_eq!(res.dsps, 240); // Table 2: 240 DSP (94%)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod consistency;
pub mod device;
pub mod explore;
pub mod flow;
pub mod perf;
pub mod pipeline;
pub mod resource;
pub mod roofline;

pub use consistency::{check_consistency, SimReport, Tolerances};
pub use device::FpgaDevice;
pub use explore::{explore_nknl, explore_sec_ncu, DesignPoint};
pub use flow::{run_flow, FlowResult};
pub use perf::{estimate_network, PerfEstimate};
pub use pipeline::{explore_pipeline, PipelineDesign, PipelineExploration, PIPELINE_FMAX_BOOST};
pub use resource::{ResourceEstimate, ResourceModel};
pub use roofline::{compute as compute_roofline, Roofline};
