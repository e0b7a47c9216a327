//! Integrity primitives over the lowered code streams: a stream
//! checksum for post-load SEU detection and a structural validator for
//! load-time corruption.
//!
//! Both operate on [`FlatCode`] — the software image of the WT-Buffer
//! (offsets) and Q-Table (values and group bounds) — and the validator
//! checks it against its witness, the [`LayerCode`] it was lowered
//! from, so they live here, next to [`AbmError`], rather than in
//! `abm-sparse` which must stay free of the fault vocabulary.

use crate::error::AbmError;
use crate::inject::{FNV_OFFSET, FNV_PRIME};
use abm_sparse::{FlatCode, FlatKernel, LayerCode};

/// Independent multiply chains the digest stripes words over. One
/// chain retires a word per multiply *latency*; four keep the
/// multiplier busy every cycle.
const LANES: usize = 4;

/// One FNV-1a step on a whole 64-bit word. For a fixed `w` this is a
/// bijection of `h` (xor, then an odd multiply), and for a fixed `h` a
/// bijection of `w`.
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// The lane state of [`kernel_digest`] (and of [`flat_checksum`]'s
/// header): [`LANES`] FNV-1a chains over 64-bit words plus the number
/// of words absorbed so far.
struct WordDigest {
    lanes: [u64; LANES],
    words: u64,
}

impl WordDigest {
    fn new() -> Self {
        Self {
            lanes: std::array::from_fn(|i| mix(FNV_OFFSET, i as u64)),
            words: 0,
        }
    }

    /// Absorbs one stream, `N` items to the word: first the item count
    /// into lane 0 (the length frame), then packed word `j` into lane
    /// `j mod LANES`. `pack` sees `N` items, or the 1..N left at the
    /// end of the stream, and must zero-fill what is missing; the frame
    /// tells a short last word from one padded with real zeros.
    fn absorb<T, const N: usize>(&mut self, items: &[T], pack: impl Fn(&[T]) -> u64) {
        self.lanes[0] = mix(self.lanes[0], items.len() as u64);
        let mut blocks = items.chunks_exact(LANES * N);
        for block in &mut blocks {
            for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(N)) {
                *lane = mix(*lane, pack(word));
            }
        }
        for (lane, word) in self.lanes.iter_mut().zip(blocks.remainder().chunks(N)) {
            *lane = mix(*lane, pack(word));
        }
        self.words += 1 + items.len().div_ceil(N) as u64;
    }

    /// Folds the lanes, then the word count, through one last chain.
    fn finish(self) -> u64 {
        let folded = self.lanes.into_iter().fold(FNV_OFFSET, mix);
        mix(folded, self.words)
    }
}

/// Little-endian packing of up to two `u32`s into one word.
fn pack_u32(pair: &[u32]) -> u64 {
    pair.iter().rev().fold(0, |w, &x| (w << 32) | u64::from(x))
}

/// Digest of every stream a [`FlatCode`] carries, plus its shape and
/// layout — exactly what the executor reads, about 4 B a non-zero. A
/// `PreparedConv` records this at construction and re-verifies before
/// execution: any post-load bit flip in an offset, value or group bound
/// changes the digest.
///
/// It is a fold: the header (shape, layout, kernel count) is digested,
/// then each kernel's [`kernel_digest`] is folded in, in kernel order
/// ([`fold_kernel_digests`]). Kernels digest independently, so a check
/// split across threads along runs of kernels computes the same value
/// as this serial walk.
///
/// The streams are hashed a 64-bit word at a time — `values` eight to
/// the word, `group_bounds` and `offsets` two — and
/// every stream of every kernel is prefixed with its length, so an
/// element that moves across a stream or kernel boundary changes two
/// frames even where the concatenated bytes stay the same.
///
/// **Why one changed word is always caught.** A word enters its
/// kernel's digest through `h ← (h ^ w) · P` on one lane. Two different
/// words give two different lane states; every later step on that lane,
/// the fold of the lanes and the fold of the word count are bijections
/// of the state they update, so the kernel's digest differs. That
/// digest `d` enters the layer's chain as `h ← (h ^ d) · P`, again a
/// bijection of `d` for the chain state before it and of that state for
/// every kernel after it, so the difference survives to the result (a
/// changed header word takes the same path through the header digest,
/// the chain's first state). A single-event upset changes one word, so
/// it is detected with certainty, exactly as with the byte-serial
/// FNV-1a this replaces (changes to several words can cancel, with
/// probability about 2⁻⁶⁴).
#[must_use]
pub fn flat_checksum(flat: &FlatCode) -> u64 {
    fold_kernel_digests(flat, flat.kernels().iter().map(kernel_digest))
}

/// One kernel's share of [`flat_checksum`]: its three streams, each
/// framed by its length, through one four-chain word digest.
#[must_use]
pub fn kernel_digest(kernel: &FlatKernel) -> u64 {
    let mut digest = WordDigest::new();
    digest.absorb::<_, 8>(kernel.values(), |bytes| {
        bytes
            .iter()
            .rev()
            .fold(0, |w, &v| (w << 8) | u64::from(v as u8))
    });
    digest.absorb::<_, 2>(kernel.group_bounds(), pack_u32);
    digest.absorb::<_, 2>(kernel.offsets(), pack_u32);
    digest.finish()
}

/// [`flat_checksum`] from its kernels' digests, given in kernel order:
/// the header's digest, then one FNV-1a step per kernel digest.
#[must_use]
pub fn fold_kernel_digests(flat: &FlatCode, digests: impl IntoIterator<Item = u64>) -> u64 {
    let shape = flat.shape();
    let layout = flat.layout();
    let header = [
        shape.out_channels,
        shape.in_channels,
        shape.kernel_rows,
        shape.kernel_cols,
        layout.in_rows,
        layout.in_cols,
        layout.stride,
        layout.pad,
        flat.kernels().len(),
    ];
    let mut digest = WordDigest::new();
    digest.absorb::<_, 1>(&header, |d| d[0] as u64);
    digests.into_iter().fold(digest.finish(), mix)
}

/// Structural validation of a [`FlatCode`] at load time against its
/// witness, the [`LayerCode`] it claims to lower — the software analogue
/// of checking a WT-Buffer/Q-Table page after the DDR transfer, before
/// any executor trusts it.
///
/// Checks, per kernel: group bounds start at zero, are monotone and
/// consistent with the value and offset stream lengths; Q-Table values
/// are strictly ascending (the encoder's order); the code's own Q-Table
/// counts tile its index stream; every group holds the code's value and
/// exactly the offsets of the code's indexes in that group, ascending —
/// looked up in the layer's one `index → offset` table
/// ([`FlatLayout::offset_table`](abm_sparse::FlatLayout::offset_table)),
/// one lookup a non-zero and no division; and the last position the
/// executor sweeps plus the kernel's largest offset stays inside the
/// re-laid-out input — the in-bounds proof for the whole output plane.
///
/// # Errors
///
/// Returns [`AbmError::CodeCorrupt`] naming the first inconsistent
/// kernel — of the lowering or of the witness.
pub fn validate_flat(flat: &FlatCode, code: &LayerCode) -> Result<(), AbmError> {
    let shape = flat.shape();
    let layout = flat.layout();
    let corrupt = |kernel: usize, detail: String| AbmError::CodeCorrupt { kernel, detail };
    if layout.stride == 0 {
        return Err(corrupt(0, "layout stride must be positive".into()));
    }
    if code.shape() != shape || code.kernels().len() != flat.kernels().len() {
        return Err(corrupt(
            0,
            format!(
                "{} kernels of {shape} lowered from a code of {} kernels of {}",
                flat.kernels().len(),
                code.kernels().len(),
                code.shape()
            ),
        ));
    }
    let (out_rows, out_cols) = layout.out_dims(shape.kernel_rows, shape.kernel_cols);
    let swept = layout.sweep_span(out_rows, out_cols);
    let relaid_len = layout.relaid_len(shape.in_channels);
    let table = layout.offset_table(shape);
    let mut expected = Vec::new();
    for (m, (k, source)) in flat.kernels().iter().zip(code.kernels()).enumerate() {
        let bounds = k.group_bounds();
        if bounds.first() != Some(&0) {
            return Err(corrupt(m, "group bounds must start at 0".into()));
        }
        if bounds.len() != k.values().len() + 1 {
            return Err(corrupt(
                m,
                format!(
                    "{} group bounds for {} values (want values + 1)",
                    bounds.len(),
                    k.values().len()
                ),
            ));
        }
        if let Some(w) = bounds.windows(2).find(|w| w[0] > w[1]) {
            return Err(corrupt(
                m,
                format!("group bounds not monotone: {} > {}", w[0], w[1]),
            ));
        }
        if bounds.last().copied().unwrap_or(0) as usize != k.offsets().len() {
            return Err(corrupt(
                m,
                format!(
                    "group bounds end at {} but the kernel has {} offsets",
                    bounds.last().copied().unwrap_or(0),
                    k.offsets().len()
                ),
            ));
        }
        if let Some(w) = k.values().windows(2).find(|w| w[0] >= w[1]) {
            return Err(corrupt(
                m,
                format!("Q-Table values not ascending: {} then {}", w[0], w[1]),
            ));
        }
        // The witness first: its groups must tile its index stream
        // before they can be walked.
        let counted: u64 = source.group_counts().sum();
        if counted != source.indices().len() as u64 || source.distinct() != k.distinct() {
            return Err(corrupt(
                m,
                format!(
                    "{} groups lowered from a code of {} groups counting {counted} of its {} indexes",
                    k.distinct(),
                    source.distinct(),
                    source.indices().len()
                ),
            ));
        }
        for (g, ((value, idxs), (lowered, offsets))) in
            source.groups().zip(k.offset_groups()).enumerate()
        {
            if value != lowered || idxs.len() != offsets.len() {
                return Err(corrupt(
                    m,
                    format!(
                        "group {g} holds {} offsets of value {lowered}, the code {} indexes of value {value}",
                        offsets.len(),
                        idxs.len()
                    ),
                ));
            }
            expected.clear();
            for &i in idxs {
                let Some(&off) = table.get(i as usize) else {
                    return Err(corrupt(
                        m,
                        format!(
                            "code index {i} lies past the {}-weight kernel volume",
                            table.len()
                        ),
                    ));
                };
                expected.push(off);
            }
            // The lowering sorts a strided layer's groups by offset.
            if layout.stride > 1 {
                expected.sort_unstable();
            }
            if let Some(j) = (0..offsets.len()).find(|&j| offsets[j] as usize != expected[j]) {
                return Err(corrupt(
                    m,
                    format!(
                        "offset {} at index {} is not the address of its code index (want {})",
                        offsets[j],
                        bounds[g] as usize + j,
                        expected[j]
                    ),
                ));
            }
            if let Some(w) = offsets.windows(2).find(|w| w[0] >= w[1]) {
                return Err(corrupt(
                    m,
                    format!(
                        "offsets not ascending within a group: {} then {}",
                        w[0], w[1]
                    ),
                ));
            }
        }
        if let Some(&max_off) = k.offsets().iter().max() {
            if swept > 0 && swept - 1 + max_off as usize >= relaid_len {
                return Err(corrupt(
                    m,
                    format!(
                        "offset {max_off} reads past the {relaid_len}-element re-laid-out input \
                         at the last of {swept} swept positions"
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_sparse::{FlatCode, FlatKernel, FlatLayout, LayerCode};
    use abm_tensor::{Shape4, Tensor4};
    use proptest::prelude::*;

    /// Three 2x3x3 kernels (a first, a middle and a last one) over a
    /// padded 6x6 input, at `stride`.
    fn lowered_at(stride: usize) -> (LayerCode, FlatCode) {
        let shape = Shape4::new(3, 2, 3, 3);
        let w = Tensor4::from_fn(shape, |m, n, k, kp| {
            // Values -2, -1, 1 and 2; zeros where x is 0 or 3.
            (((m * 7 + n * 5 + k * 3 + kp) % 6) as i8 - 3) % 3
        });
        let code = LayerCode::encode(&w).unwrap();
        let layout = FlatLayout {
            in_rows: 6,
            in_cols: 6,
            stride,
            pad: 1,
        };
        let flat = FlatCode::lower(&code, layout).unwrap();
        (code, flat)
    }

    fn lowered() -> (LayerCode, FlatCode) {
        lowered_at(1)
    }

    #[test]
    fn pristine_code_validates() {
        for stride in 1..=3 {
            let (code, flat) = lowered_at(stride);
            assert_eq!(validate_flat(&flat, &code), Ok(()), "stride {stride}");
        }
        let (_, flat) = lowered();
        assert_eq!(flat_checksum(&flat), flat_checksum(&flat));
    }

    #[test]
    fn every_offset_bit_flip_is_caught() {
        let (code, flat) = lowered();
        for bit in [0u32, 3, 17, 31] {
            let mut bad = flat.clone();
            let (_, _, offsets) = bad.kernels_mut()[0].streams_mut();
            offsets[1] ^= 1 << bit;
            let err = validate_flat(&bad, &code).unwrap_err();
            assert!(
                matches!(err, AbmError::CodeCorrupt { kernel: 0, .. }),
                "bit {bit}: {err}"
            );
            assert_ne!(flat_checksum(&bad), flat_checksum(&flat));
        }
    }

    /// The load-time fault class: one offset moved to the next address,
    /// which in a dense kernel is usually another *valid* tap's — the
    /// witness still knows which tap the group holds.
    #[test]
    fn an_offset_moved_onto_another_tap_is_caught() {
        for stride in 1..=3 {
            let (code, flat) = lowered_at(stride);
            for (m, kernel) in flat.kernels().iter().enumerate() {
                for i in 0..kernel.offsets().len() {
                    let mut bad = flat.clone();
                    let (_, _, offsets) = bad.kernels_mut()[m].streams_mut();
                    offsets[i] = offsets[i].wrapping_add(1);
                    let err = validate_flat(&bad, &code).unwrap_err();
                    assert!(
                        matches!(err, AbmError::CodeCorrupt { kernel, .. } if kernel == m),
                        "stride {stride} kernel {m} offset {i}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn broken_group_bounds_are_caught() {
        let (code, mut bad) = lowered();
        let (_, bounds, _) = bad.kernels_mut()[0].streams_mut();
        let last = bounds.len() - 1;
        bounds.swap(0, last);
        assert!(validate_flat(&bad, &code).is_err());
    }

    /// A corrupted witness is reported, never walked out of bounds: an
    /// index past the kernel volume, a count that overruns or underruns
    /// the index stream, an index moved to another position, a value
    /// changed, a kernel missing — each a typed `CodeCorrupt` naming the
    /// kernel.
    #[test]
    fn a_corrupted_witness_is_code_corrupt_not_a_panic() {
        let (code, flat) = lowered_at(2);
        let kernel_len = code.shape().kernel_len() as u16;
        type Edit = fn(&mut LayerCode, u16);
        let edits: [(&str, Edit); 6] = [
            ("index past the volume", |c, len| {
                c.kernels_mut()[1].streams_mut().1[0] = len;
            }),
            ("last index past the volume", |c, _| {
                *c.kernels_mut()[2].streams_mut().1.last_mut().unwrap() = u16::MAX;
            }),
            ("count overruns", |c, _| {
                c.kernels_mut()[1].streams_mut().0[0].count += 1;
            }),
            ("count underruns", |c, _| {
                c.kernels_mut()[1].streams_mut().0[0].count -= 1;
            }),
            ("index moved", |c, len| {
                let idx = &mut c.kernels_mut()[1].streams_mut().1[0];
                *idx = (*idx + 1) % len;
            }),
            ("value changed", |c, _| {
                c.kernels_mut()[1].streams_mut().0[0].value ^= 4;
            }),
        ];
        for (what, edit) in edits {
            let mut bad = code.clone();
            edit(&mut bad, kernel_len);
            let err = validate_flat(&flat, &bad).unwrap_err();
            assert!(matches!(err, AbmError::CodeCorrupt { .. }), "{what}: {err}");
        }
        let w = Tensor4::from_fn(Shape4::new(2, 2, 3, 3), |_, _, _, _| 1i8);
        let short = LayerCode::encode(&w).unwrap();
        assert!(matches!(
            validate_flat(&flat, &short),
            Err(AbmError::CodeCorrupt { kernel: 0, .. })
        ));
    }

    /// One flipped bit in any word of any of the three streams, in the
    /// first, a middle and the last kernel, at the first, a middle and
    /// the last element, changes the digest.
    #[test]
    fn checksum_covers_values_bounds_and_offsets() {
        let (_, flat) = lowered();
        let base = flat_checksum(&flat);
        let last = flat.kernels().len() - 1;
        for m in [0, last / 2, last] {
            let kernel = &flat.kernels()[m];
            let lens = [
                kernel.values().len(),
                kernel.group_bounds().len(),
                kernel.offsets().len(),
            ];
            for (stream, len) in lens.into_iter().enumerate() {
                assert!(len > 2, "kernel {m} stream {stream}");
                for i in [0, len / 2, len - 1] {
                    let mut bad = flat.clone();
                    let (values, bounds, offsets) = bad.kernels_mut()[m].streams_mut();
                    match stream {
                        0 => values[i] ^= 1,
                        1 => bounds[i] ^= 1,
                        _ => offsets[i] ^= 1,
                    }
                    assert_ne!(
                        flat_checksum(&bad),
                        base,
                        "kernel {m} stream {stream} element {i}"
                    );
                }
            }
        }
    }

    /// The three streams of a kernel, as [`FlatKernel::from_raw_parts`]
    /// takes them.
    type Streams = (Vec<i8>, Vec<u32>, Vec<u32>);

    /// Flips bit `.2` of element `.1` of one field of a kernel.
    type Flip = fn(&mut Streams, usize, u32);

    fn code_of(header: [usize; 8], kernels: &[Streams]) -> FlatCode {
        let [m, n, kr, kc, in_rows, in_cols, stride, pad] = header;
        FlatCode::from_kernels(
            Shape4::new(m, n, kr, kc),
            FlatLayout {
                in_rows,
                in_cols,
                stride,
                pad,
            },
            kernels
                .iter()
                .cloned()
                .map(|(v, b, o)| FlatKernel::from_raw_parts(v, b, o))
                .collect(),
        )
    }

    /// One word digest as its definition reads: each stream (its length,
    /// then its little-endian words) one word at a time with its own
    /// packing — no blocks, no tails.
    fn reference_words(streams: Vec<(usize, Vec<u64>)>) -> u64 {
        let mut lanes: [u64; LANES] = std::array::from_fn(|i| mix(FNV_OFFSET, i as u64));
        let mut count = 0u64;
        for (len, words) in streams {
            lanes[0] = mix(lanes[0], len as u64);
            for (j, w) in words.into_iter().enumerate() {
                lanes[j % LANES] = mix(lanes[j % LANES], w);
                count += 1;
            }
            count += 1;
        }
        let folded = lanes.into_iter().fold(FNV_OFFSET, mix);
        mix(folded, count)
    }

    /// [`flat_checksum`] as its definition reads: the header's word
    /// digest, then every kernel's, chained in kernel order.
    fn reference_digest(header: [usize; 8], kernels: &[Streams]) -> u64 {
        let le_words = |bytes: Vec<u8>| -> Vec<u64> {
            bytes
                .chunks(8)
                .map(|c| {
                    let mut word = [0u8; 8];
                    word[..c.len()].copy_from_slice(c);
                    u64::from_le_bytes(word)
                })
                .collect()
        };
        let u32_words = |words: &[u32]| {
            let bytes = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            (words.len(), le_words(bytes))
        };
        let mut head: Vec<u64> = header.iter().map(|&d| d as u64).collect();
        head.push(kernels.len() as u64);
        let head = reference_words(vec![(head.len(), head)]);
        kernels
            .iter()
            .map(|(values, bounds, offsets)| {
                reference_words(vec![
                    (
                        values.len(),
                        le_words(values.iter().map(|&v| v as u8).collect()),
                    ),
                    u32_words(bounds),
                    u32_words(offsets),
                ])
            })
            .fold(head, mix)
    }

    /// The streams as the unframed digest saw them: one concatenation
    /// of little-endian bytes, no lengths.
    fn unframed_bytes(kernels: &[Streams]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (values, bounds, offsets) in kernels {
            bytes.extend(values.iter().map(|&v| v as u8));
            bytes.extend(bounds.iter().chain(offsets).flat_map(|w| w.to_le_bytes()));
        }
        bytes
    }

    #[test]
    fn a_word_moved_across_a_boundary_changes_the_digest() {
        // Each pair differs only in which stream (or kernel) owns the
        // bytes at one boundary.
        let pairs: [(&str, Vec<Streams>, Vec<Streams>); 3] = [
            (
                "values | group_bounds",
                vec![(vec![1, 0, 0, 0], vec![0, 7], vec![3])],
                vec![(vec![], vec![1, 0, 7], vec![3])],
            ),
            (
                "group_bounds | offsets",
                vec![(vec![2], vec![0, 2, 5], vec![9])],
                vec![(vec![2], vec![0, 2], vec![5, 9])],
            ),
            (
                "kernel | kernel",
                vec![
                    (vec![], vec![], vec![0x0403_0201]),
                    (vec![5, 6, 7], vec![], vec![]),
                ],
                vec![
                    (vec![], vec![], vec![]),
                    (vec![1, 2, 3, 4, 5, 6, 7], vec![], vec![]),
                ],
            ),
        ];
        let header = [2, 2, 3, 3, 6, 6, 1, 1];
        for (boundary, before, after) in pairs {
            assert_eq!(
                unframed_bytes(&before),
                unframed_bytes(&after),
                "{boundary}: the pair must be indistinguishable without framing"
            );
            assert_ne!(
                flat_checksum(&code_of(header, &before)),
                flat_checksum(&code_of(header, &after)),
                "{boundary}"
            );
        }
    }

    /// Stream lengths reach past one full block of `LANES` words and
    /// cover every residue of the per-word packing; one kernel in six
    /// is empty.
    fn kernel_streams() -> impl Strategy<Value = Streams> {
        prop_oneof![
            1 => Just(Streams::default()),
            5 => (
                prop::collection::vec(any::<i8>(), 0..50),
                prop::collection::vec(any::<u32>(), 0..15),
                prop::collection::vec(any::<u32>(), 0..15),
            ),
        ]
    }

    proptest! {
        #[test]
        fn digest_matches_the_reference_fold_and_sees_every_bit(
            header in prop::collection::vec(any::<usize>(), 8..9),
            kernels in prop::collection::vec(kernel_streams(), 0..4),
        ) {
            let header: [usize; 8] = header.try_into().unwrap();
            let base = flat_checksum(&code_of(header, &kernels));
            prop_assert_eq!(base, reference_digest(header, &kernels));

            for field in 0..header.len() {
                for bit in 0..usize::BITS {
                    let mut h = header;
                    h[field] ^= 1 << bit;
                    prop_assert_ne!(flat_checksum(&code_of(h, &kernels)), base);
                }
            }
            for (m, (values, bounds, offsets)) in kernels.iter().enumerate() {
                // (elements, bits per element, the flip) for every field.
                let flips: [(usize, u32, Flip); 3] = [
                    (values.len(), 8, |k, i, bit| k.0[i] ^= 1 << bit),
                    (bounds.len(), 32, |k, i, bit| k.1[i] ^= 1 << bit),
                    (offsets.len(), 32, |k, i, bit| k.2[i] ^= 1 << bit),
                ];
                for (field, (len, bits, flip)) in flips.into_iter().enumerate() {
                    for i in 0..len {
                        for bit in 0..bits {
                            let mut ks = kernels.clone();
                            flip(&mut ks[m], i, bit);
                            prop_assert_ne!(
                                flat_checksum(&code_of(header, &ks)),
                                base,
                                "kernel {} field {} element {} bit {}", m, field, i, bit
                            );
                        }
                    }
                }
            }
        }
    }
}
