//! Convolution engines and operation accounting — the computational core
//! of the ABM-SpConv reproduction.
//!
//! Five engines implement the same convolution semantics:
//!
//! * [`dense`] — the classical spatial-domain reference (**SDConv**),
//! * [`gemm`] — im2col + integer GEMM (the MAC-array designs' lowering),
//! * [`sparse`] — CSR-driven sparse convolution (**SpConv**, the baseline
//!   of \[1, 2, 8\] in the paper),
//! * [`freq`] — frequency-domain convolution via overlap-and-add FFT
//!   (**FDConv**, the scheme of \[3, 10\]),
//! * [`abm`] — the paper's **ABM-SpConv**: accumulate feature pixels per
//!   distinct weight value first, multiply once per value after.
//!
//! The four integer engines are *bit-exact* against each other — the
//! property that validates the paper's Equation (2) — and the FFT engine
//! matches within floating-point tolerance. [`mod@calibrate`] provides the
//! offline activation-range calibration that real deployments use, and
//! [`precision`] stress-tests the 16-bit accumulator claim.
//!
//! [`ops`] counts the arithmetic work each scheme performs (Table 1), and
//! [`infer`] runs whole networks through any engine, with the paper's
//! host layers (pooling, ReLU, LRN, softmax) implemented in [`host`].
//!
//! # Examples
//!
//! ```
//! use abm_tensor::{Tensor3, Tensor4, Shape3, Shape4};
//! use abm_conv::{dense, abm, Geometry};
//! use abm_sparse::LayerCode;
//!
//! let input = Tensor3::from_fn(Shape3::new(2, 5, 5), |c, r, col| {
//!     (c + r + col) as i16
//! });
//! let weights = Tensor4::from_fn(Shape4::new(3, 2, 3, 3), |m, n, k, kp| {
//!     (((m + n + k + kp) % 5) as i8) - 2
//! });
//! let geom = Geometry::new(1, 1);
//!
//! let reference = dense::conv2d(&input, &weights, geom);
//! let code = LayerCode::encode(&weights)?;
//! let two_stage = abm::conv2d(&input, &code, geom)?;
//! assert_eq!(reference, two_stage); // bit-exact
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Runtime contract violations and detected corruptions surface as the
//! typed [`AbmError`](abm_fault::AbmError) hierarchy from the
//! [`abm-fault`](abm_fault) crate; [`abft`] adds the online
//! output-checksum detector the resilient inference path uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abft;
pub mod abm;
mod arena;
pub mod calibrate;
pub mod dense;
pub mod freq;
pub mod gemm;
pub mod host;
pub mod infer;
pub mod ops;
pub mod parallel;
pub mod precision;
pub mod sparse;
pub mod winograd;

pub use abm::conv2d as abm_conv2d;
pub use abm::{AbmWork, PreparedConv};
pub use arena::ArenaStats;
pub use calibrate::{calibrate, Calibration};
pub use dense::{conv2d as dense_conv2d, Geometry};
pub use infer::{Engine, InferenceResult, Inferencer, PreparedWeights, ResiliencePolicy};
pub use ops::{LayerOps, NetworkOps};
pub use parallel::{parallel_map, parallel_map_salvage, Parallelism};
