//! The stream checksum for post-load SEU detection over the lowered
//! code streams.
//!
//! It operates on [`FlatCode`] — the software image of the WT-Buffer
//! (offsets) and Q-Table (values and group bounds) — and lives here,
//! beside the fault vocabulary, rather than in `abm-sparse`. Validation
//! of a lowering against its witness is `abm-verify`'s lowering pass.

use crate::inject::{FNV_OFFSET, FNV_PRIME};
use abm_sparse::{FlatCode, FlatKernel};

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

#[cfg(test)]
mod tests {
    use super::*;
    use abm_sparse::{FlatCode, FlatKernel, FlatLayout, LayerCode};
    use abm_tensor::{Shape4, Tensor4};
    use proptest::prelude::*;

    /// Three 2x3x3 kernels (a first, a middle and a last one) lowered
    /// over a padded 6x6 input.
    fn lowered() -> FlatCode {
        let shape = Shape4::new(3, 2, 3, 3);
        let w = Tensor4::from_fn(shape, |m, n, k, kp| {
            // Values -2, -1, 1 and 2; zeros where x is 0 or 3.
            (((m * 7 + n * 5 + k * 3 + kp) % 6) as i8 - 3) % 3
        });
        let code = LayerCode::encode(&w).unwrap();
        let layout = FlatLayout {
            in_rows: 6,
            in_cols: 6,
            stride: 1,
            pad: 1,
        };
        FlatCode::lower(&code, layout).unwrap()
    }

    /// One flipped bit in any word of any of the three streams, in the
    /// first, a middle and the last kernel, at the first, a middle and
    /// the last element, changes the digest.
    #[test]
    fn checksum_covers_values_bounds_and_offsets() {
        let flat = lowered();
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
