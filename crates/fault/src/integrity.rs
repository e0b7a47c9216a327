//! Integrity primitives over the lowered code streams: a stream
//! checksum for post-load SEU detection and a structural validator for
//! load-time corruption.
//!
//! Both operate on [`FlatCode`] — the software image of the WT-Buffer
//! (offsets), Q-Table (values and group bounds) and the decoded taps —
//! so they live here, next to [`AbmError`], rather than in `abm-sparse`
//! which must stay free of the fault vocabulary.

use crate::error::AbmError;
use crate::inject::{FNV_OFFSET, FNV_PRIME};
use abm_sparse::{FlatCode, FlatKernel, Tap};

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

/// One tap as one word: `n`, `k`, `k'` in the low three 16-bit fields.
fn pack_tap(t: Tap) -> u64 {
    u64::from(t.n) | u64::from(t.k) << 16 | u64::from(t.kp) << 32
}

/// Digest of every stream a [`FlatCode`] carries, plus its shape and
/// layout. A `PreparedConv` records this at construction and
/// re-verifies before execution: any post-load bit flip in an offset,
/// value, group bound or tap changes the digest.
///
/// It is a fold: the header (shape, layout, kernel count) is digested,
/// then each kernel's [`kernel_digest`] is folded in, in kernel order
/// ([`fold_kernel_digests`]). Kernels digest independently, so a check
/// split across threads along runs of kernels computes the same value
/// as this serial walk.
///
/// The streams are hashed a 64-bit word at a time — `values` eight to
/// the word, `group_bounds` and `offsets` two, each [`Tap`] one — and
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

/// One kernel's share of [`flat_checksum`]: its four streams, each
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
    digest.absorb::<_, 1>(kernel.taps(), |t| pack_tap(t[0]));
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

/// Structural validation of a [`FlatCode`] at load time — the software
/// analogue of checking a WT-Buffer/Q-Table page after the DDR
/// transfer, before any executor trusts it.
///
/// Checks, per kernel: group bounds start at zero, are monotone and
/// consistent with the value/offset/tap stream lengths; Q-Table values
/// are strictly ascending (the encoder's order); offsets are strictly
/// ascending within each group and each one is exactly
/// [`FlatLayout::offset_of`](abm_sparse::FlatLayout::offset_of) its
/// tap; taps stay inside the kernel volume; and the last position the
/// executor sweeps plus the kernel's largest offset stays inside the
/// re-laid-out input — the in-bounds proof for the whole output plane.
///
/// # Errors
///
/// Returns [`AbmError::CodeCorrupt`] naming the first inconsistent
/// kernel.
pub fn validate_flat(flat: &FlatCode) -> Result<(), AbmError> {
    let shape = flat.shape();
    let layout = flat.layout();
    let corrupt = |kernel: usize, detail: String| AbmError::CodeCorrupt { kernel, detail };
    if layout.stride == 0 {
        return Err(corrupt(0, "layout stride must be positive".into()));
    }
    let (out_rows, out_cols) = layout.out_dims(shape.kernel_rows, shape.kernel_cols);
    let swept = layout.sweep_span(out_rows, out_cols);
    let relaid_len = layout.relaid_len(shape.in_channels);
    for (m, k) in flat.kernels().iter().enumerate() {
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
        if k.taps().len() != k.offsets().len() {
            return Err(corrupt(
                m,
                format!("{} taps for {} offsets", k.taps().len(), k.offsets().len()),
            ));
        }
        if let Some(w) = k.values().windows(2).find(|w| w[0] >= w[1]) {
            return Err(corrupt(
                m,
                format!("Q-Table values not ascending: {} then {}", w[0], w[1]),
            ));
        }
        for (i, (&off, tap)) in k.offsets().iter().zip(k.taps()).enumerate() {
            if tap.n as usize >= shape.in_channels
                || tap.k as usize >= shape.kernel_rows
                || tap.kp as usize >= shape.kernel_cols
            {
                return Err(corrupt(
                    m,
                    format!(
                        "tap {i} ({}, {}, {}) outside the {}x{}x{} kernel volume",
                        tap.n,
                        tap.k,
                        tap.kp,
                        shape.in_channels,
                        shape.kernel_rows,
                        shape.kernel_cols
                    ),
                ));
            }
            let want = layout.offset_of(*tap);
            if off as usize != want {
                return Err(corrupt(
                    m,
                    format!("offset {off} at index {i} does not decode to its tap (want {want})"),
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
        for (_, group) in k.offset_groups() {
            if let Some(w) = group.windows(2).find(|w| w[0] >= w[1]) {
                return Err(corrupt(
                    m,
                    format!(
                        "offsets not ascending within a group: {} then {}",
                        w[0], w[1]
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

    fn lowered() -> (LayerCode, FlatCode) {
        let shape = Shape4::new(2, 2, 3, 3);
        let w = Tensor4::from_fn(shape, |m, n, k, kp| {
            let x = (m * 7 + n * 5 + k * 3 + kp) % 4;
            if x == 0 {
                0
            } else {
                x as i8 - 2
            }
        });
        let code = LayerCode::encode(&w).unwrap();
        let layout = FlatLayout {
            in_rows: 6,
            in_cols: 6,
            stride: 1,
            pad: 1,
        };
        let flat = FlatCode::lower(&code, layout).unwrap();
        (code, flat)
    }

    #[test]
    fn pristine_code_validates() {
        let (_, flat) = lowered();
        assert!(validate_flat(&flat).is_ok());
        assert_eq!(flat_checksum(&flat), flat_checksum(&flat));
    }

    #[test]
    fn every_offset_bit_flip_is_caught() {
        let (_, flat) = lowered();
        for bit in [0u32, 3, 17, 31] {
            let mut bad = flat.clone();
            let (_, _, offsets, _) = bad.kernels_mut()[0].streams_mut();
            offsets[1] ^= 1 << bit;
            let err = validate_flat(&bad).unwrap_err();
            assert!(
                matches!(err, AbmError::CodeCorrupt { kernel: 0, .. }),
                "bit {bit}: {err}"
            );
            assert_ne!(flat_checksum(&bad), flat_checksum(&flat));
        }
    }

    #[test]
    fn broken_group_bounds_are_caught() {
        let (_, mut bad) = lowered();
        let (_, bounds, _, _) = bad.kernels_mut()[0].streams_mut();
        let last = bounds.len() - 1;
        bounds.swap(0, last);
        assert!(validate_flat(&bad).is_err());
    }

    #[test]
    fn checksum_covers_values_and_taps() {
        let (_, mut flat) = lowered();
        let base = flat_checksum(&flat);
        let (values, _, _, _) = flat.kernels_mut()[0].streams_mut();
        values[0] ^= 1;
        assert_ne!(flat_checksum(&flat), base);
    }

    /// The four streams of a kernel, as [`FlatKernel::from_raw_parts`]
    /// takes them.
    type Streams = (Vec<i8>, Vec<u32>, Vec<u32>, Vec<Tap>);

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
                .map(|(v, b, o, t)| FlatKernel::from_raw_parts(v, b, o, t))
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
            .map(|(values, bounds, offsets, taps)| {
                let tap_bytes = taps.iter().flat_map(|t| [t.n, t.k, t.kp, 0]);
                reference_words(vec![
                    (
                        values.len(),
                        le_words(values.iter().map(|&v| v as u8).collect()),
                    ),
                    u32_words(bounds),
                    u32_words(offsets),
                    (
                        taps.len(),
                        le_words(tap_bytes.flat_map(u16::to_le_bytes).collect()),
                    ),
                ])
            })
            .fold(head, mix)
    }

    /// The streams as the unframed digest saw them: one concatenation
    /// of little-endian bytes, no lengths.
    fn unframed_bytes(kernels: &[Streams]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (values, bounds, offsets, taps) in kernels {
            bytes.extend(values.iter().map(|&v| v as u8));
            bytes.extend(bounds.iter().chain(offsets).flat_map(|w| w.to_le_bytes()));
            bytes.extend(
                taps.iter()
                    .flat_map(|t| [t.n, t.k, t.kp])
                    .flat_map(u16::to_le_bytes),
            );
        }
        bytes
    }

    #[test]
    fn a_word_moved_across_a_boundary_changes_the_digest() {
        let tap = |n, k, kp| Tap { n, k, kp };
        // Each pair differs only in which stream (or kernel) owns the
        // bytes at one boundary.
        let pairs: [(&str, Vec<Streams>, Vec<Streams>); 4] = [
            (
                "values | group_bounds",
                vec![(vec![1, 0, 0, 0], vec![0, 7], vec![3], vec![])],
                vec![(vec![], vec![1, 0, 7], vec![3], vec![])],
            ),
            (
                "group_bounds | offsets",
                vec![(vec![2], vec![0, 2, 5], vec![9], vec![])],
                vec![(vec![2], vec![0, 2], vec![5, 9], vec![])],
            ),
            (
                "offsets | taps",
                vec![(
                    vec![],
                    vec![0],
                    vec![0x0002_0001, 0x0004_0003, 0x0006_0005],
                    vec![],
                )],
                vec![(vec![], vec![0], vec![], vec![tap(1, 2, 3), tap(4, 5, 6)])],
            ),
            (
                "kernel | kernel",
                vec![
                    (vec![], vec![], vec![], vec![tap(0x0201, 0x0403, 0x0605)]),
                    (vec![7], vec![], vec![], vec![]),
                ],
                vec![
                    (vec![], vec![], vec![], vec![]),
                    (vec![1, 2, 3, 4, 5, 6, 7], vec![], vec![], vec![]),
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
        let tap =
            (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(n, k, kp)| Tap { n, k, kp });
        prop_oneof![
            1 => Just(Streams::default()),
            5 => (
                prop::collection::vec(any::<i8>(), 0..50),
                prop::collection::vec(any::<u32>(), 0..15),
                prop::collection::vec(any::<u32>(), 0..15),
                prop::collection::vec(tap, 0..11),
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
            for (m, (values, bounds, offsets, taps)) in kernels.iter().enumerate() {
                // (elements, bits per element, the flip) for every field.
                let flips: [(usize, u32, Flip); 6] = [
                    (values.len(), 8, |k, i, bit| k.0[i] ^= 1 << bit),
                    (bounds.len(), 32, |k, i, bit| k.1[i] ^= 1 << bit),
                    (offsets.len(), 32, |k, i, bit| k.2[i] ^= 1 << bit),
                    (taps.len(), 16, |k, i, bit| k.3[i].n ^= 1 << bit),
                    (taps.len(), 16, |k, i, bit| k.3[i].k ^= 1 << bit),
                    (taps.len(), 16, |k, i, bit| k.3[i].kp ^= 1 << bit),
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
