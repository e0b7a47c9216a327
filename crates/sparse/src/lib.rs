//! Index-based sparse weight encoding from ABM-SpConv (Figure 4 of the
//! paper).
//!
//! A pruned, quantized kernel is stored as two streams:
//!
//! * **WT-Buffer** — the linear indexes `(n·K·K' + k·K' + k')` of the
//!   non-zero weights, *grouped by weight value* so the accelerator's
//!   address generator can accumulate one value's feature pixels as a
//!   contiguous run (16-bit entries);
//! * **Q-Table** — per distinct value: the fixed-point value `VAL`, its
//!   occurrence count `NUM`, plus the kernel's total occurrence count
//!   (16-bit entries).
//!
//! [`encode::LayerCode`] is the in-memory form consumed by both the
//! functional ABM engine (`abm-conv`) and the cycle simulator (`abm-sim`);
//! [`flat::FlatCode`] lowers it once per layer to precomputed flat input
//! offsets — the shared "address generator" form both consumers execute
//! and time against;
//! [`size`] computes the external-memory footprint reproduced in Table 3,
//! against the classical CSR encoding's `3·nnz` bytes.
//!
//! # Examples
//!
//! ```
//! use abm_tensor::{Tensor4, Shape4};
//! use abm_sparse::encode::LayerCode;
//!
//! let w = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![3i8, 0, 3, -1]);
//! let code = LayerCode::encode(&w)?;
//! let k = &code.kernels()[0];
//! assert_eq!(k.total(), 3);
//! assert_eq!(k.entries().len(), 2); // values {3, -1}
//! assert_eq!(code.decode(), w);     // lossless round trip
//! # Ok::<(), abm_sparse::encode::EncodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod encode;
pub mod flat;
pub mod size;

pub use compress::{compress_layer, CompressedLayer, Huffman};
pub use encode::{EncodeError, KernelCode, LayerCode, QEntry};
pub use flat::{FlatCode, FlatKernel, FlatLayout, Tap};
pub use size::{EncodingSize, SizeModel};
