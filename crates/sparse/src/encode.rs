//! The Q-Table / WT-Buffer encoder and decoder (Figure 4).

use abm_tensor::{Shape4, Tensor4};
use std::error::Error;
use std::fmt;

/// One Q-Table group: a distinct non-zero weight value and how many
/// kernel positions carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QEntry {
    /// The quantized fixed-point weight value (`VAL`).
    pub value: i8,
    /// Number of occurrences of `value` in the kernel (`NUM`).
    pub count: u32,
}

/// One encoded convolution kernel: its Q-Table entries plus the
/// value-grouped WT-Buffer index stream.
///
/// The `i`-th group's indexes are `indices[start_i .. start_i+count_i]`
/// where `start_i` is the running sum of earlier counts; [`groups`] walks
/// them.
///
/// [`groups`]: KernelCode::groups
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct KernelCode {
    entries: Vec<QEntry>,
    indices: Vec<u16>,
}

impl KernelCode {
    /// Encodes one kernel given as a flat `N·K·K'` slice of quantized
    /// weights.
    ///
    /// Values are grouped in ascending raw-value order; indexes within a
    /// group stay in ascending scan order, which is what lets the
    /// accelerator's address generator fetch feature data as a forward
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::IndexOverflow`] if the kernel has more than
    /// `2^16` positions (the WT-Buffer holds 16-bit entries; both
    /// evaluated CNNs fit — VGG16's largest kernel volume is FC6's
    /// 25088).
    pub fn encode(kernel: &[i8]) -> Result<Self, EncodeError> {
        Self::encode_with(kernel, &mut Vec::new())
    }

    /// [`encode`](Self::encode) collecting the non-zeros in `nonzero`, a
    /// buffer the caller may reuse across kernels (its contents are
    /// replaced).
    fn encode_with(kernel: &[i8], nonzero: &mut Vec<(u8, u16)>) -> Result<Self, EncodeError> {
        if kernel.len() > u16::MAX as usize + 1 {
            return Err(EncodeError::IndexOverflow {
                kernel_len: kernel.len(),
            });
        }
        // One scan collects every non-zero as (bin, index), in scan
        // order, and counts each bin. A weight's bin is its byte with the
        // sign bit flipped, so bins ascend in signed value order
        // (-128 → 0, -1 → 127, 1 → 129).
        nonzero.clear();
        let mut starts = [0u32; 256];
        let mut collect = |bin: u8, index: usize| {
            starts[bin as usize] += 1;
            nonzero.push((bin, index as u16));
        };
        // 64 weights at a time: each 8-byte word's non-zero bytes become
        // eight bits of one mask, so an all-zero word costs a few ALU
        // operations and no branch, and the walk takes one trip per
        // non-zero.
        let (blocks, tail) = kernel.as_chunks::<64>();
        for (b, block) in blocks.iter().enumerate() {
            let mut mask = 0u64;
            for (i, word) in block.as_chunks::<8>().0.iter().enumerate() {
                mask |= nonzero_bytes(u64::from_le_bytes(word.map(|w| w as u8))) << (8 * i);
            }
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                collect(block[j] as u8 ^ 0x80, b * 64 + j);
                mask &= mask - 1;
            }
        }
        let base = kernel.len() - tail.len();
        for (j, &w) in tail.iter().enumerate() {
            if w != 0 {
                collect(w as u8 ^ 0x80, base + j);
            }
        }
        // Counting sort by bin: prefix sums, then one stable scatter, so
        // indexes stay in scan order within a group.
        let mut entries = Vec::new();
        let mut next = 0u32;
        for (bin, slot) in starts.iter_mut().enumerate() {
            let count = *slot;
            if count > 0 {
                entries.push(QEntry {
                    value: (bin as u8 ^ 0x80) as i8,
                    count,
                });
            }
            *slot = next;
            next += count;
        }
        let mut indices = vec![0u16; nonzero.len()];
        for &(bin, index) in nonzero.iter() {
            let slot = &mut starts[bin as usize];
            indices[*slot as usize] = index;
            *slot += 1;
        }
        Ok(Self { entries, indices })
    }

    /// The Q-Table entries and the index stream for editing in place.
    /// Nothing is enforced — it is how the detectors' negative tests
    /// corrupt a code that witnesses a lowering (a count that no longer
    /// tiles the stream, an index past the kernel volume) without
    /// re-encoding it. A code from [`encode`](Self::encode) never needs
    /// it.
    pub fn streams_mut(&mut self) -> (&mut Vec<QEntry>, &mut Vec<u16>) {
        (&mut self.entries, &mut self.indices)
    }

    /// The Q-Table entries in ascending value order.
    pub fn entries(&self) -> &[QEntry] {
        &self.entries
    }

    /// Per-group occurrence counts in value order (the Q-Table `NUM`
    /// column — what the lane timing model consumes).
    pub fn group_counts(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.entries.iter().map(|e| u64::from(e.count))
    }

    /// The full WT-Buffer index stream (all groups concatenated).
    pub fn indices(&self) -> &[u16] {
        &self.indices
    }

    /// Total number of encoded (non-zero) weights — the kernel's
    /// accumulation workload and the Q-Table's trailing total field.
    pub fn total(&self) -> u32 {
        self.indices.len() as u32
    }

    /// Number of distinct values — the kernel's multiplication workload
    /// `Q(m)`.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Iterates `(value, indexes)` group by group.
    pub fn groups(&self) -> Groups<'_> {
        Groups {
            code: self,
            group: 0,
            offset: 0,
        }
    }

    /// Decodes back into a flat kernel of `kernel_len` weights.
    ///
    /// # Panics
    ///
    /// Panics if any stored index is out of range for `kernel_len`.
    pub fn decode(&self, kernel_len: usize) -> Vec<i8> {
        let mut out = vec![0i8; kernel_len];
        for (value, idxs) in self.groups() {
            for &i in idxs {
                out[i as usize] = value;
            }
        }
        out
    }
}

/// Iterator over a kernel's `(value, indexes)` groups.
///
/// Created by [`KernelCode::groups`].
#[derive(Debug, Clone)]
pub struct Groups<'a> {
    code: &'a KernelCode,
    group: usize,
    offset: usize,
}

impl<'a> Iterator for Groups<'a> {
    type Item = (i8, &'a [u16]);

    fn next(&mut self) -> Option<Self::Item> {
        let entry = self.code.entries.get(self.group)?;
        let start = self.offset;
        let end = start + entry.count as usize;
        self.group += 1;
        self.offset = end;
        Some((entry.value, &self.code.indices[start..end]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.code.entries.len() - self.group;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Groups<'_> {}

/// A whole layer's encoded kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerCode {
    shape: Shape4,
    kernels: Vec<KernelCode>,
}

impl LayerCode {
    /// Encodes every kernel of an `M×N×K×K'` quantized weight tensor.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::IndexOverflow`] if the kernel volume
    /// exceeds the 16-bit index range.
    pub fn encode(weights: &Tensor4<i8>) -> Result<Self, EncodeError> {
        let shape = weights.shape();
        let mut nonzero = Vec::new();
        let kernels = (0..shape.out_channels)
            .map(|m| KernelCode::encode_with(weights.kernel(m), &mut nonzero))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { shape, kernels })
    }

    /// The encoded weight shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Per-kernel codes in kernel order.
    pub fn kernels(&self) -> &[KernelCode] {
        &self.kernels
    }

    /// The kernels for editing in place (see
    /// [`KernelCode::streams_mut`]); the shape stays as encoded.
    pub fn kernels_mut(&mut self) -> &mut [KernelCode] {
        &mut self.kernels
    }

    /// Total non-zero weights in the layer.
    pub fn total_nnz(&self) -> u64 {
        self.kernels.iter().map(|k| k.total() as u64).sum()
    }

    /// Total distinct-value groups summed over kernels (`Σ_m Q(m)`).
    pub fn total_distinct(&self) -> u64 {
        self.kernels.iter().map(|k| k.distinct() as u64).sum()
    }

    /// Decodes the layer back into a dense quantized tensor (exact
    /// inverse of [`LayerCode::encode`]).
    pub fn decode(&self) -> Tensor4<i8> {
        let kl = self.shape.kernel_len();
        let mut data = Vec::with_capacity(self.shape.len());
        for k in &self.kernels {
            data.extend_from_slice(&k.decode(kl));
        }
        Tensor4::from_vec(self.shape, data)
    }

    /// Converts a linear kernel index back to `(n, k, k')` coordinates
    /// for a kernel of this layer's shape.
    #[inline]
    pub fn unravel(&self, index: u16) -> (usize, usize, usize) {
        let kk = self.shape.kernel_rows * self.shape.kernel_cols;
        let i = index as usize;
        let n = i / kk;
        let rem = i % kk;
        (
            n,
            rem / self.shape.kernel_cols,
            rem % self.shape.kernel_cols,
        )
    }
}

/// One bit per byte of `word`, set where the byte is non-zero (bit `j`
/// for byte `j` of the little-endian word).
fn nonzero_bytes(word: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // Each byte's high bit, set by a carry out of its low seven bits or
    // by itself.
    let high = (((word & LOW7) + LOW7) | word) & !LOW7;
    // Gather the eight high bits into the top byte: bit 8j times the
    // multiplier's byte 7-j lands at bit 56+j, and no two partial
    // products overlap, so nothing carries.
    (high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Errors produced by the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The kernel volume does not fit the 16-bit WT-Buffer index width.
    IndexOverflow {
        /// The offending kernel volume (`N·K·K'`).
        kernel_len: usize,
    },
    /// A flattened tap offset does not fit the 32-bit flat-offset
    /// encoding (input plane too large for the lowered layout).
    OffsetOverflow {
        /// The offending flat offset.
        offset: usize,
    },
    /// A kernel's Q-Table counts do not add up to its index stream, or
    /// one of its indexes lies past the kernel volume — a code edited
    /// after encoding, which no lowering can be made from.
    CorruptCode {
        /// The offending kernel.
        kernel: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::IndexOverflow { kernel_len } => write!(
                f,
                "kernel volume {kernel_len} exceeds the 16-bit WT-Buffer index range"
            ),
            EncodeError::OffsetOverflow { offset } => write!(
                f,
                "flat offset {offset} exceeds the 32-bit flat-offset range"
            ),
            EncodeError::CorruptCode { kernel } => write!(
                f,
                "kernel {kernel}'s Q-Table counts or indexes do not fit its index stream"
            ),
        }
    }
}

impl Error for EncodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_groups_by_value() {
        // Figure 4's flavour: M=1, N=2, K=3 kernel with a few values.
        #[rustfmt::skip]
        let kernel: Vec<i8> = vec![
            2, 0, -1,
            0, 2, 0,
            1, 0, 2,
            //
            0, -1, 0,
            1, 0, 0,
            0, 0, 2,
        ];
        let code = KernelCode::encode(&kernel).unwrap();
        assert_eq!(code.total(), 8);
        assert_eq!(code.distinct(), 3);
        let groups: Vec<_> = code.groups().map(|(v, idx)| (v, idx.to_vec())).collect();
        assert_eq!(groups.len(), 3);
        // Ascending value order: -1, 1, 2.
        assert_eq!(groups[0], (-1, vec![2u16, 10]));
        assert_eq!(groups[1], (1, vec![6u16, 12]));
        assert_eq!(groups[2], (2, vec![0u16, 4, 8, 17]));
        // Q-Table counts match group lengths.
        assert_eq!(code.entries()[2], QEntry { value: 2, count: 4 });
    }

    #[test]
    fn round_trip_kernel() {
        let kernel: Vec<i8> = (0..64)
            .map(|i| if i % 3 == 0 { 0 } else { ((i * 7) % 255) as i8 })
            .collect();
        let code = KernelCode::encode(&kernel).unwrap();
        assert_eq!(code.decode(64), kernel);
    }

    #[test]
    fn empty_kernel() {
        let code = KernelCode::encode(&[0i8; 27]).unwrap();
        assert_eq!(code.total(), 0);
        assert_eq!(code.distinct(), 0);
        assert_eq!(code.groups().count(), 0);
        assert_eq!(code.decode(27), vec![0i8; 27]);
    }

    #[test]
    fn index_overflow_detected() {
        let big = vec![1i8; 70000];
        match KernelCode::encode(&big) {
            Err(EncodeError::IndexOverflow { kernel_len }) => assert_eq!(kernel_len, 70000),
            other => panic!("expected overflow, got {other:?}"),
        }
        // Error is displayable and a std error.
        let e = KernelCode::encode(&big).unwrap_err();
        assert!(e.to_string().contains("16-bit"));
    }

    #[test]
    fn boundary_kernel_len_65536_is_ok() {
        let mut k = vec![0i8; 65536];
        k[65535] = 7;
        let code = KernelCode::encode(&k).unwrap();
        assert_eq!(code.indices(), &[65535u16]);
        assert_eq!(code.decode(65536), k);
    }

    #[test]
    fn layer_round_trip_and_totals() {
        let shape = Shape4::new(4, 3, 3, 3);
        let w = Tensor4::from_fn(shape, |m, n, k, kp| {
            let x = (m * 31 + n * 7 + k * 3 + kp) % 5;
            if x == 0 {
                0
            } else {
                (x as i8) - 3
            }
        });
        let code = LayerCode::encode(&w).unwrap();
        assert_eq!(code.decode(), w);
        let nnz = w.as_slice().iter().filter(|&&x| x != 0).count() as u64;
        assert_eq!(code.total_nnz(), nnz);
        assert!(code.total_distinct() <= 4 * 4);
    }

    #[test]
    fn unravel_matches_shape_index() {
        let shape = Shape4::new(1, 4, 3, 2);
        let w = Tensor4::from_fn(shape, |_, _, _, _| 1i8);
        let code = LayerCode::encode(&w).unwrap();
        for n in 0..4 {
            for k in 0..3 {
                for kp in 0..2 {
                    let lin = shape.index(0, n, k, kp) as u16;
                    assert_eq!(code.unravel(lin), (n, k, kp));
                }
            }
        }
    }

    #[test]
    fn groups_iterator_is_exact_size() {
        let code = KernelCode::encode(&[1i8, 2, 1, 3]).unwrap();
        let it = code.groups();
        assert_eq!(it.len(), 3);
    }

    /// The encoder the counting sort replaced — one index bucket per
    /// byte value, emptied in signed value order — kept only as the
    /// oracle the counting sort must reproduce.
    fn bucket_encode(kernel: &[i8]) -> KernelCode {
        let mut buckets: Vec<Vec<u16>> = vec![Vec::new(); 256];
        for (i, &w) in kernel.iter().enumerate() {
            if w != 0 {
                buckets[(w as u8) as usize].push(i as u16);
            }
        }
        let mut code = KernelCode::default();
        for v in (i8::MIN..=i8::MAX).filter(|&v| v != 0) {
            let bucket = &buckets[(v as u8) as usize];
            if !bucket.is_empty() {
                code.entries.push(QEntry {
                    value: v,
                    count: bucket.len() as u32,
                });
                code.indices.extend_from_slice(bucket);
            }
        }
        code
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every length up to 300 (whole words, a ragged tail, neither),
        /// every density from all-zero to dense, and the extreme values
        /// drawn often enough to land in every word position.
        #[test]
        fn counting_sort_equals_the_bucket_encoder(
            density in 0u32..101,
            draws in prop::collection::vec((0u32..100, 0u8..8, any::<i8>()), 0..301),
        ) {
            let kernel: Vec<i8> = draws
                .iter()
                .map(|&(p, pick, v)| match (p < density, pick) {
                    (false, _) => 0,
                    (true, 0) => i8::MIN,
                    (true, 1) => -1,
                    (true, 2) => i8::MAX,
                    (true, 3) => 1,
                    (true, _) => v,
                })
                .collect();
            prop_assert_eq!(KernelCode::encode(&kernel).unwrap(), bucket_encode(&kernel));
        }
    }

    #[test]
    fn counting_sort_equals_the_bucket_encoder_at_the_edges() {
        let mut kernels = vec![vec![0i8; 0], vec![0i8; 8], vec![0i8; 301], vec![0i8; 65536]];
        // The last position of the 16-bit range, alone and in a dense
        // kernel whose values sweep every byte.
        let mut last = vec![0i8; 65536];
        last[65535] = i8::MIN;
        kernels.push(last);
        kernels.push((0..65536).map(|i| (i * 7 % 256) as u8 as i8).collect());
        for k in &kernels {
            assert_eq!(
                KernelCode::encode(k).unwrap(),
                bucket_encode(k),
                "len {}",
                k.len()
            );
        }
    }

    /// Every layer of AlexNet and VGG16 at seed 2019 encodes exactly as
    /// the bucket encoder encodes it.
    #[test]
    fn zoo_layers_encode_as_the_bucket_encoder() {
        use abm_model::{synthesize_model, zoo, PruneProfile};
        for (net, profile) in [
            (zoo::alexnet(), PruneProfile::alexnet_deep_compression()),
            (zoo::vgg16(), PruneProfile::vgg16_deep_compression()),
        ] {
            let model = synthesize_model(&net, &profile, 2019);
            for layer in &model.layers {
                let code = LayerCode::encode(&layer.weights).unwrap();
                let shape = layer.weights.shape();
                let oracle = LayerCode {
                    shape,
                    kernels: (0..shape.out_channels)
                        .map(|m| bucket_encode(layer.weights.kernel(m)))
                        .collect(),
                };
                assert!(code == oracle, "{}/{}", net.name(), layer.name());
            }
        }
    }
}
