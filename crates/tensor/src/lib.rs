//! Fixed-point arithmetic and tensor substrate for the ABM-SpConv
//! reproduction.
//!
//! The ABM-SpConv accelerator (Wang et al., DAC 2019) operates entirely on
//! fixed-point data: 8-bit quantized weights, 8-bit feature maps, 16-bit
//! accumulators and 16b×16b multipliers. This crate provides
//!
//! * [`QFormat`] — a dynamic fixed-point format descriptor (total bits +
//!   fractional bits, Ristretto style),
//! * [`fixed`] — saturating/rounding conversions between `f32` and
//!   fixed-point integers, and exact integer helpers used by the
//!   convolution engines,
//! * [`Shape3`]/[`Shape4`] — feature-map and weight shapes,
//! * [`Tensor3`]/[`Tensor4`] — dense row-major tensors over any element,
//! * [`quantize`] — per-tensor dynamic fixed-point quantization.
//!
//! # Examples
//!
//! ```
//! use abm_tensor::{QFormat, Tensor3, Shape3};
//!
//! // An 8-bit format with 6 fractional bits covers [-2.0, 1.984…].
//! let q = QFormat::new(8, 6);
//! let x = q.quantize_f32(0.5);
//! assert_eq!(x, 32);
//! assert_eq!(q.dequantize(x), 0.5);
//!
//! // A 3-channel 4x4 feature map.
//! let fm = Tensor3::<i16>::zeros(Shape3::new(3, 4, 4));
//! assert_eq!(fm.len(), 48);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod quantize;
pub mod shape;
pub mod tensor;

pub use fixed::{QFormat, Rounding};
pub use quantize::{quantize_tensor, QuantizedTensor};
pub use shape::{Shape3, Shape4};
pub use tensor::{Tensor3, Tensor4};
