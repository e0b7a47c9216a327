//! External-memory footprint of the encoded model — the quantity behind
//! Table 3's "Weight Size (MB): Original vs Encoded" columns.
//!
//! Buffer widths follow Section 4.2: WT-Buffer entries are 16 bits,
//! Q-Table entries are 16 bits (one `VAL` word and one `NUM` word per
//! distinct value, plus one total word per kernel).

use crate::encode::{EncodeError, LayerCode};
use abm_model::SparseModel;

/// Width parameters of the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SizeModel {
    /// Bytes per WT-Buffer index entry.
    pub index_bytes: u64,
    /// Bytes per Q-Table word (`VAL` and `NUM` each occupy one word).
    pub qword_bytes: u64,
    /// Bits per weight in the *original* (dense, quantized) model.
    pub weight_bits: u64,
}

impl SizeModel {
    /// The paper's configuration: 16-bit WT entries, 16-bit Q-Table
    /// words, 8-bit original weights.
    pub fn paper() -> Self {
        Self {
            index_bytes: 2,
            qword_bytes: 2,
            weight_bits: 8,
        }
    }

    /// Bytes of the dense (unencoded) quantized model with `params`
    /// weights.
    pub fn original_bytes(&self, params: u64) -> u64 {
        params * self.weight_bits / 8
    }

    /// Encoded size of one layer.
    pub fn layer_bytes(&self, code: &LayerCode) -> EncodingSize {
        let wt = code.total_nnz() * self.index_bytes;
        // Per distinct value: VAL + NUM words; per kernel: total word.
        let qt = code.total_distinct() * 2 * self.qword_bytes
            + code.kernels().len() as u64 * self.qword_bytes;
        EncodingSize {
            wt_buffer_bytes: wt,
            q_table_bytes: qt,
        }
    }

    /// Encoded size of a whole model (summed over accelerated layers).
    ///
    /// # Errors
    ///
    /// Propagates [`EncodeError`] if a layer cannot be encoded.
    pub fn model_bytes(&self, model: &SparseModel) -> Result<EncodingSize, EncodeError> {
        let mut total = EncodingSize::default();
        for layer in &model.layers {
            let code = LayerCode::encode(&layer.weights)?;
            let s = self.layer_bytes(&code);
            total.wt_buffer_bytes += s.wt_buffer_bytes;
            total.q_table_bytes += s.q_table_bytes;
        }
        Ok(total)
    }

    /// CSR baseline size (16-bit index + 8-bit value per non-zero) for
    /// the same model.
    pub fn csr_bytes(&self, model: &SparseModel) -> u64 {
        model.total_nnz() as u64 * 3
    }
}

impl Default for SizeModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Encoded byte counts split by destination buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EncodingSize {
    /// WT-Buffer (index stream) bytes.
    pub wt_buffer_bytes: u64,
    /// Q-Table bytes.
    pub q_table_bytes: u64,
}

impl EncodingSize {
    /// Total encoded bytes.
    pub fn total(&self) -> u64 {
        self.wt_buffer_bytes + self.q_table_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_tensor::{Shape4, Tensor4};

    #[test]
    fn layer_size_accounting() {
        // 2 kernels, kernel 0: 3 nnz over 2 values; kernel 1: 1 nnz.
        let w = Tensor4::from_vec(Shape4::new(2, 1, 2, 2), vec![4, 4, -2, 0, 0, 0, 9, 0]);
        let code = LayerCode::encode(&w).unwrap();
        let m = SizeModel::paper();
        let s = m.layer_bytes(&code);
        assert_eq!(s.wt_buffer_bytes, 4 * 2); // 4 indexes
                                              // 3 distinct-value groups * 2 words + 2 kernel totals = 8 words.
        assert_eq!(s.q_table_bytes, 8 * 2);
        assert_eq!(s.total(), 24);
    }

    #[test]
    fn original_bytes_is_one_byte_per_weight() {
        let m = SizeModel::paper();
        assert_eq!(m.original_bytes(61_000_000), 61_000_000);
    }

    #[test]
    fn encoded_smaller_than_csr_for_concentrated_values() {
        // Many repeats of few values: ABM's 2-byte indexes beat CSR's
        // 3-byte pairs.
        let w = Tensor4::from_fn(Shape4::new(4, 8, 3, 3), |_, n, k, kp| {
            if (n + k + kp) % 2 == 0 {
                ((n % 3) as i8) - 1
            } else {
                2
            }
        });
        let model_like_nnz = w.as_slice().iter().filter(|&&x| x != 0).count() as u64;
        let code = LayerCode::encode(&w).unwrap();
        let m = SizeModel::paper();
        let s = m.layer_bytes(&code);
        assert!(s.total() < model_like_nnz * 3);
    }
}
