//! Algorithm-based fault tolerance (ABFT) checks for the ABM executor.
//!
//! The classic ABFT idea for convolution: the sum of an output plane is
//! a *linear* functional of the input, so it can be predicted
//! independently of the executor from the weights and cheap input
//! aggregates. For kernel `m`,
//!
//! ```text
//! Σ_pixels out[m] = Σ_groups v_g · Σ_{taps t ∈ g} S(t)
//! ```
//!
//! where `S(t)` is the sum of the input values the tap `t` touches
//! across all output pixels — a rectangle of a stride-phased subgrid of
//! the tap's input channel. `S` depends only on the tap's position
//! `(channel, k, k')`, never on the kernel that holds it, so
//! [`verify_output`] accumulates it once and shares it between all `M`
//! kernels — accumulate before multiply, applied to the checker. It
//! reads the input the way the executor does, through the layer's
//! re-laid-out buffer ([`abm_sparse::FlatLayout`]): padding is already
//! zeros and the stride phases are already split, so tap `(n, k, k')`
//! touches one plain rectangle — rows `k div S …`, columns `k' div S …`,
//! the output plane's size — of phase plane `(k mod S, k' mod S)` of
//! channel `n`. One channel at a time it builds a 2-D prefix-sum table
//! per phase plane (cache-resident), answers one four-lookup rectangle
//! query per kernel position into an `S[channel][k][k']` table, and then
//! predicts each kernel from the layer's `LayerCode` — whose linear
//! weight indexes are positions in that table — with one load and one
//! add per tap and one multiply per distinct value. The whole check costs `O(C·H·W)` table
//! construction, `C·K·K'` rectangle queries and `O(taps + out)` loads
//! and adds per layer — one pass over taps the convolution walks once
//! per output pixel.
//!
//! Because the predicted sum is exact integer arithmetic (accumulators
//! stay well inside `i64`), *any* single-bit flip in an output
//! accumulator changes the observed plane sum and is detected; this is
//! the software analogue of the checksum-augmented output rows ABFT
//! schemes add to hardware MAC arrays.
//!
//! The module also carries the input-stream checksum helpers used by
//! the fault campaign to detect FI-Buffer corruption (a word flipped
//! between DDR admit and CU consume).

use crate::abm::{kernel_runs, Accumulator, PreparedConv};
use crate::parallel::on_shares;
use abm_fault::{stream_checksum_i16, AbmError};
use abm_tensor::Tensor3;
use std::ops::Range;

/// FNV digest of an input feature map — the "admit-side" signature the
/// campaign compares against the consume-side stream to catch FI-Buffer
/// word flips.
#[must_use]
pub fn input_checksum(input: &Tensor3<i16>) -> u64 {
    stream_checksum_i16(input.as_slice())
}

/// Compares an input feature map against its admit-side checksum.
///
/// # Errors
///
/// Returns [`AbmError::InputCorrupt`] when the digests differ.
pub fn verify_input(input: &Tensor3<i16>, expected: u64) -> Result<(), AbmError> {
    let computed = input_checksum(input);
    if computed == expected {
        Ok(())
    } else {
        Err(AbmError::InputCorrupt { expected, computed })
    }
}

/// Checks every output plane's sum against its ABFT prediction — the
/// tensor front door over the check the hardened inference path runs on
/// its own buffers.
///
/// `input` and `out` must be the tensors the prepared layer consumed
/// and produced; shapes are checked first.
///
/// # Errors
///
/// Returns [`AbmError::ShapeMismatch`] if the tensors do not match the
/// prepared geometry, or [`AbmError::AbftMismatch`] naming the first
/// kernel whose observed plane sum disagrees with the prediction.
pub fn verify_output(
    prep: &PreparedConv,
    input: &Tensor3<i16>,
    out: &Tensor3<i64>,
) -> Result<(), AbmError> {
    for (got, want) in [
        (input.shape(), prep.input_shape()),
        (out.shape(), prep.output_shape()),
    ] {
        if got != want {
            return Err(AbmError::ShapeMismatch {
                got: (got.channels, got.rows, got.cols),
                want: (want.channels, want.rows, want.cols),
            });
        }
    }
    let relaid = prep.flat().layout().relayout(input);
    verify_plane(
        prep,
        &relaid,
        out.as_slice(),
        &mut AbftScratch::default(),
        1,
    )
}

/// What [`verify_plane`] keeps between calls: one channel's prefix
/// tables and the layer's tap sums.
#[derive(Debug, Clone, Default)]
pub(crate) struct AbftScratch {
    pub prefix: Vec<i64>,
    pub sums: Vec<i64>,
}

/// The check itself, on the executor's own buffers: `relaid` is the
/// input as stored through the layer's layout, `plane` the dense
/// channel-major accumulator plane [`PreparedConv::execute_into`] filled,
/// narrow or wide.
/// The tap-sum table is built once, here; the per-kernel predictions
/// split across `shares` threads along the sweep's kernel runs, and the
/// error reported is the lowest-numbered failing kernel's, as serially.
pub(crate) fn verify_plane<A: Accumulator>(
    prep: &PreparedConv,
    relaid: &[i16],
    plane: &[A],
    scratch: &mut AbftScratch,
    shares: usize,
) -> Result<(), AbmError> {
    let flat = prep.flat();
    let (shape, layout) = (flat.shape(), flat.layout());
    let out_shape = prep.output_shape();
    let out_plane = out_shape.rows * out_shape.cols;
    if out_plane == 0 {
        return Ok(());
    }
    let (s, pc) = (layout.stride, layout.phase_cols());
    let phase = layout.relaid_len(1) / (s * s);
    let (pr, width) = (phase / pc, pc + 1);
    let AbftScratch { prefix, sums } = scratch;
    prefix.clear();
    prefix.resize(s * s * (pr + 1) * width, 0);
    sums.clear();
    // The shared tap-sum table `S[c][k][k']`, row-major over every
    // input channel and kernel position: one rectangle query each, read
    // by every kernel that has a tap there.
    for chan in relaid[..layout.relaid_len(prep.input_shape().channels)].chunks_exact(s * s * phase)
    {
        let tables = prefix.chunks_exact_mut((pr + 1) * width);
        for (table, plane) in tables.zip(chan.chunks_exact(phase)) {
            for (i, row) in plane.chunks_exact(pc).enumerate() {
                let (above, below) = table[i * width..].split_at_mut(width);
                let mut run = 0i64;
                for (j, &v) in row.iter().enumerate() {
                    run += v as i64;
                    below[j + 1] = above[j + 1] + run;
                }
            }
        }
        for k in 0..shape.kernel_rows {
            for kp in 0..shape.kernel_cols {
                let table = &prefix[((k % s) * s + kp % s) * (pr + 1) * width..];
                let at = |i: usize, j: usize| table[i * width + j];
                let (i, j) = (k / s, kp / s);
                let (i_end, j_end) = (i + out_shape.rows, j + out_shape.cols);
                sums.push(at(i_end, j_end) - at(i, j_end) - at(i_end, j) + at(i, j));
            }
        }
    }
    let sums = &*sums;
    let runs = kernel_runs(flat.kernels(), shares);
    let check = |run| check_planes(prep, sums, plane, out_plane, run);
    on_shares(runs, check, Result::and).unwrap_or(Ok(()))
}

/// [`verify_plane`] for a layer swept across a batch
/// (`PreparedConv::execute_lanes`): `lanes` is the lane buffer
/// `[in_feature][lane]` the sweep read, `plane` the `[kernel][lane]`
/// accumulators it filled, both of row length `pitch`. A kernel's plane
/// is its row of lanes and the input a tap touches across it is the
/// tap's feature in every lane, so the tap sums are the lane buffer's
/// row sums and the whole batch is checked for one image's walk over
/// the taps. A mismatch names the kernel, not the image: which lane an
/// accumulator went wrong in is for the caller to find out.
pub(crate) fn verify_lanes(
    prep: &PreparedConv,
    lanes: &[i16],
    pitch: usize,
    plane: &[i64],
    sums: &mut Vec<i64>,
) -> Result<(), AbmError> {
    let rows = lanes[..prep.input_shape().len() * pitch].chunks_exact(pitch);
    let row_sum = |row: &[i16]| row.iter().map(|&v| i64::from(v)).sum::<i64>();
    sums.clear();
    sums.extend(rows.map(row_sum));
    check_planes(prep, sums, plane, pitch, 0..prep.code().kernels().len())
}

/// Predicts the plane sum of every kernel in `run` from the tap sums
/// `S[c][k][k']` — one load and one add per non-zero, one multiply per
/// distinct value — and compares it with the `out_plane` accumulators
/// the kernel filled. Stops at the first kernel that disagrees.
///
/// The prediction reads the layer's [`LayerCode`](abm_sparse::LayerCode),
/// not the streams the sweep executed: a kernel's linear weight index is
/// already its tap's position in its channel group's run of `sums`, and
/// an index stream is 2 B a non-zero. A code edited since it was encoded
/// is reported, never walked past its end.
fn check_planes<A: Accumulator>(
    prep: &PreparedConv,
    sums: &[i64],
    plane: &[A],
    out_plane: usize,
    run: Range<usize>,
) -> Result<(), AbmError> {
    let code = prep.code();
    let shape = code.shape();
    let group_len = shape.kernel_len();
    let m_per_group = shape.out_channels / prep.geometry().groups;
    let corrupt = |kernel, detail| AbmError::CodeCorrupt { kernel, detail };

    for (m, kernel) in run.clone().zip(&code.kernels()[run]) {
        // The kernel's channel group owns one contiguous run of `sums`.
        let base = (m / m_per_group) * group_len;
        let group_sums = &sums[base..base + group_len];
        let indices = kernel.indices();
        let mut predicted = 0i64;
        let mut start = 0;
        for entry in kernel.entries() {
            let end = start + entry.count as usize;
            let Some(group) = indices.get(start..end) else {
                return Err(corrupt(
                    m,
                    format!("Q-Table counts overrun the {} indexes", indices.len()),
                ));
            };
            let mut tap_sum = 0i64;
            for &at in group {
                let Some(&s) = group_sums.get(at as usize) else {
                    return Err(corrupt(
                        m,
                        format!("index {at} outside the layer's {group_len}-weight kernel volume"),
                    ));
                };
                tap_sum += s;
            }
            predicted += entry.value as i64 * tap_sum;
            start = end;
        }
        if start != indices.len() {
            return Err(corrupt(
                m,
                format!(
                    "Q-Table counts cover {start} of the {} indexes",
                    indices.len()
                ),
            ));
        }
        // Wrapping: a flipped high bit may push the sum past `i64`, and
        // a sum off by ±2^bit modulo 2^64 is still a different sum.
        let observed = plane[m * out_plane..(m + 1) * out_plane]
            .iter()
            .fold(0i64, |sum, &v| sum.wrapping_add(v.into()));
        if observed != predicted {
            return Err(AbmError::AbftMismatch {
                kernel: m,
                predicted,
                observed,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Geometry;
    use abm_sparse::LayerCode;
    use abm_tensor::{Shape3, Shape4, Tensor3, Tensor4};
    use proptest::prelude::*;

    fn weights(shape: Shape4, salt: usize) -> Tensor4<i8> {
        Tensor4::from_fn(shape, |m, n, k, kp| {
            let x = (m * 13 + n * 7 + k * 5 + kp * 3 + salt) % 5;
            if x == 0 {
                0
            } else {
                x as i8 - 2
            }
        })
    }

    fn executed(
        in_shape: Shape3,
        w_shape: Shape4,
        geom: Geometry,
        salt: usize,
    ) -> (PreparedConv, Tensor3<i16>, Tensor3<i64>) {
        let w = weights(w_shape, salt);
        let code = LayerCode::encode(&w).unwrap();
        let prep = PreparedConv::try_new(code, in_shape, geom, None).unwrap();
        let input = Tensor3::from_fn(in_shape, |c, r, col| {
            (((c * 31 + r * 17 + col * 3 + salt) % 255) as i16) - 127
        });
        let out = prep.execute(&input);
        (prep, input, out)
    }

    fn check(in_shape: Shape3, w_shape: Shape4, geom: Geometry, salt: usize) {
        let (prep, input, out) = executed(in_shape, w_shape, geom, salt);
        verify_output(&prep, &input, &out).unwrap();
    }

    #[test]
    fn prediction_matches_execution() {
        check(
            Shape3::new(3, 8, 8),
            Shape4::new(4, 3, 3, 3),
            Geometry::new(1, 1),
            0,
        );
    }

    #[test]
    fn prediction_matches_strided_and_padded() {
        // Stride 2 exercises the phase decomposition; pad 2 with a 5x5
        // kernel exercises taps that fall outside the input for every
        // output position at the borders.
        check(
            Shape3::new(2, 11, 9),
            Shape4::new(3, 2, 5, 5),
            Geometry::new(2, 2),
            1,
        );
        check(
            Shape3::new(1, 7, 7),
            Shape4::new(2, 1, 3, 3),
            Geometry::new(3, 0),
            2,
        );
    }

    #[test]
    fn prediction_matches_grouped() {
        check(
            Shape3::new(4, 6, 6),
            Shape4::new(4, 2, 3, 3),
            Geometry::new(1, 1).with_groups(2),
            3,
        );
    }

    #[test]
    fn every_output_bit_flip_is_detected() {
        let in_shape = Shape3::new(2, 6, 6);
        let w = weights(Shape4::new(2, 2, 3, 3), 4);
        let code = LayerCode::encode(&w).unwrap();
        let prep = PreparedConv::try_new(code, in_shape, Geometry::new(1, 1), None).unwrap();
        let input = Tensor3::from_fn(in_shape, |c, r, col| ((c + r * 3 + col) % 11) as i16 - 5);
        let clean = prep.execute(&input);
        let plane = clean.shape().rows * clean.shape().cols;
        for bit in [0u32, 7, 23, 41, 62] {
            for idx in [0usize, plane + 3] {
                let mut corrupted = clean.clone();
                corrupted.as_mut_slice()[idx] ^= 1i64 << bit;
                let err = verify_output(&prep, &input, &corrupted).unwrap_err();
                let kernel = idx / plane;
                assert!(
                    matches!(err, AbmError::AbftMismatch { kernel: k, .. } if k == kernel),
                    "bit {bit} idx {idx}: {err}"
                );
            }
        }
    }

    /// ABFT predicts from the layer's code, so a code corrupted after
    /// load disagrees with the plane the intact streams filled: an index
    /// past the kernel volume or a count that no longer tiles the index
    /// stream is `CodeCorrupt`, an index moved onto another position or
    /// a value changed is `AbftMismatch` — typed, and never a read past
    /// the table or the stream.
    #[test]
    fn a_corrupted_code_is_code_corrupt_or_a_mismatch_never_a_panic() {
        let (prep, input, clean) = executed(
            Shape3::new(2, 7, 7),
            Shape4::new(3, 2, 3, 3),
            Geometry::new(2, 1),
            6,
        );
        let volume = prep.code().shape().kernel_len() as u16;
        type Edit = fn(&mut abm_sparse::KernelCode, u16);
        let edits: [(&str, Edit); 6] = [
            ("index past the volume", |k, volume| {
                k.streams_mut().1[0] = volume
            }),
            ("largest index", |k, _| {
                *k.streams_mut().1.last_mut().unwrap() = u16::MAX
            }),
            ("count overruns", |k, _| k.streams_mut().0[0].count += 1),
            ("count underruns", |k, _| k.streams_mut().0[0].count -= 1),
            ("index moved", |k, volume| {
                let i = &mut k.streams_mut().1[0];
                *i = (*i + 1) % volume;
            }),
            ("value changed", |k, _| k.streams_mut().0[0].value ^= 0x10),
        ];
        for (what, edit) in edits {
            let mut bad = prep.clone();
            edit(&mut bad.code_mut().kernels_mut()[1], volume);
            let err = verify_output(&bad, &input, &clean).unwrap_err();
            assert!(
                matches!(
                    err,
                    AbmError::CodeCorrupt { kernel: 1, .. }
                        | AbmError::AbftMismatch { kernel: 1, .. }
                ),
                "{what}: {err}"
            );
            // The edit copied the code: the layer it came from still
            // predicts its plane.
            assert_eq!(verify_output(&prep, &input, &clean), Ok(()), "{what}");
        }
    }

    /// Split over any number of threads — one tap-sum table, the
    /// kernels' predictions in runs — the check accepts the clean plane
    /// and names the kernel the serial check names: the lowest-numbered
    /// one whose plane is off, however many later kernels, in later
    /// runs, are off too.
    #[test]
    fn a_split_check_names_the_lowest_failing_kernel() {
        let (prep, input, clean) = executed(
            Shape3::new(3, 9, 9),
            Shape4::new(7, 3, 3, 3),
            Geometry::new(1, 1),
            5,
        );
        let relaid = prep.flat().layout().relayout(&input);
        let plane = clean.shape().rows * clean.shape().cols;
        let mut scratch = AbftScratch::default();
        let mut check = |accumulators: &[i64], shares| {
            verify_plane(&prep, &relaid, accumulators, &mut scratch, shares)
        };
        for shares in 1..=9 {
            assert_eq!(check(clean.as_slice(), shares), Ok(()));
        }
        for victims in [vec![6], vec![2, 5], vec![0, 3, 6], vec![4, 1]] {
            let mut corrupted = clean.as_slice().to_vec();
            for &v in &victims {
                corrupted[v * plane + 1] ^= 1 << 17;
            }
            let serial = check(&corrupted, 1).unwrap_err();
            let first = *victims.iter().min().unwrap();
            assert!(
                matches!(serial, AbmError::AbftMismatch { kernel, .. } if kernel == first),
                "{serial}"
            );
            for shares in 2..=9 {
                assert_eq!(check(&corrupted, shares), Err(serial.clone()), "{shares}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn accepts_execution_and_names_the_flipped_kernel(
            (stride, pad, groups) in (1usize..5, 0usize..4, 1usize..3),
            (kernel_rows, kernel_cols) in (1usize..6, 1usize..6),
            (channels_per_group, m_per_group) in (1usize..3, 1usize..4),
            // Rows and columns the input has beyond the kernel (flat
            // offsets need input >= kernel); `None` is the FC shape:
            // kernel == input, no padding, one output pixel.
            extra in prop_oneof![
                1 => Just(None),
                3 => (0usize..8, 0usize..8).prop_map(Some),
            ],
            salt in 0usize..1000,
            (word, bit) in (any::<usize>(), 0u32..64),
        ) {
            let (pad, in_rows, in_cols) = match extra {
                None => (0, kernel_rows, kernel_cols),
                Some((r, c)) => (pad, kernel_rows + r, kernel_cols + c),
            };
            let (prep, input, clean) = executed(
                Shape3::new(channels_per_group * groups, in_rows, in_cols),
                Shape4::new(m_per_group * groups, channels_per_group, kernel_rows, kernel_cols),
                Geometry::new(stride, pad).with_groups(groups),
                salt,
            );
            prop_assert!(verify_output(&prep, &input, &clean).is_ok());

            let plane = clean.shape().rows * clean.shape().cols;
            let idx = word % clean.as_slice().len();
            let mut corrupted = clean;
            corrupted.as_mut_slice()[idx] ^= 1i64 << bit;
            let err = verify_output(&prep, &input, &corrupted).unwrap_err();
            prop_assert!(
                matches!(err, AbmError::AbftMismatch { kernel, .. } if kernel == idx / plane),
                "word {} bit {}: {}", idx, bit, err
            );
        }
    }

    #[test]
    fn input_checksum_round_trips() {
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, r, c| (r * 4 + c) as i16);
        let sum = input_checksum(&input);
        verify_input(&input, sum).unwrap();
        let mut tampered = input.clone();
        tampered.as_mut_slice()[5] ^= 1;
        let err = verify_input(&tampered, sum).unwrap_err();
        assert!(matches!(err, AbmError::InputCorrupt { expected, .. } if expected == sum));
    }
}
