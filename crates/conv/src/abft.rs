//! Algorithm-based fault tolerance (ABFT) checks for the ABM executor.
//!
//! The classic ABFT idea for convolution: the sum of an output plane is
//! a *linear* functional of the input, so it can be predicted
//! independently of the executor from the weights and cheap input
//! aggregates. Summed over every kernel `m` as well (Huang & Abraham's
//! column checksum, 1984),
//!
//! ```text
//! Σ_m Σ_pixels out[m] = Σ_{c,k,k'} S(c,k,k') · col(c,k,k')
//! ```
//!
//! where `S(c,k,k')` is the sum of the input values a tap at position
//! `(k, k')` of channel `c` touches across all output pixels — a
//! rectangle of a stride-phased subgrid of the channel — and
//! `col(c,k,k') = Σ_m W[m][c][k][k']` sums the weights there over the
//! kernels of `c`'s channel group. `S` depends only on the input, `col`
//! only on the weights: [`PreparedConv`] builds `col` once from the code
//! it lowers, and the check is one dot product of the two — accumulate
//! before multiply, applied to the checker twice, once across output
//! pixels and once across kernels.
//!
//! The check reads the input the way the executor does, through the
//! layer's re-laid-out buffer ([`abm_sparse::FlatLayout`]): padding is
//! already zeros and the stride phases are already split, so tap
//! `(c, k, k')` touches one plain rectangle — rows `k div S …`, columns
//! `k' div S …`, the output plane's size — of phase plane
//! `(k mod S, k' mod S)` of channel `c`. One channel at a time it builds
//! a 2-D prefix-sum table per phase plane (cache-resident) and answers
//! one four-lookup rectangle query per kernel position, multiplying it
//! into the prediction at once. The whole check costs `O(C·H·W)` table
//! construction, `C·K·K'` queries and multiplies, and one add per
//! output accumulator — no pass over the taps.
//!
//! Both sides are summed wrapping, modulo 2⁶⁴. A single-bit flip in any
//! one accumulator moves the observed total by `±2^bit`, which is never
//! 0 modulo 2⁶⁴, so it is always detected; this is the software analogue
//! of the checksum-augmented output rows ABFT schemes add to hardware
//! MAC arrays. A stream fault is confined to one kernel, so it moves the
//! total exactly as it moves that kernel's own sum. What folding the
//! kernels gives up is the kernel's name, and detection of upsets in two
//! kernels that cancel exactly.
//!
//! What ABFT cannot see is a wrong input: it predicts from the input as
//! the layer read it, so an upset in a feature map between two layers
//! yields a right output of a wrong input. The host leaves those upsets
//! unprotected (DESIGN.md §11).

use crate::abm::{Accumulator, PreparedConv};
use abm_fault::AbmError;
use abm_tensor::Tensor3;

/// Checks the output's total against its ABFT prediction — the tensor
/// front door over the check the hardened inference path runs on its
/// own buffers.
///
/// `input` and `out` must be the tensors the prepared layer consumed
/// and produced; shapes are checked first.
///
/// # Errors
///
/// Returns [`AbmError::ShapeMismatch`] if the tensors do not match the
/// prepared geometry, or [`AbmError::AbftMismatch`] if the observed
/// total disagrees with the prediction.
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
    verify_plane(prep, &relaid, out.as_slice(), &mut Vec::new())
}

/// The check itself, on the executor's own buffers: `relaid` is the
/// input as stored through the layer's layout, `plane` the dense
/// channel-major accumulator plane [`PreparedConv::execute_into`] filled,
/// narrow or wide. `prefix` holds one channel's prefix tables between
/// calls.
pub(crate) fn verify_plane<A: Accumulator>(
    prep: &PreparedConv,
    relaid: &[i16],
    plane: &[A],
    prefix: &mut Vec<i64>,
) -> Result<(), AbmError> {
    let flat = prep.flat();
    let (shape, layout) = (flat.shape(), flat.layout());
    let out_shape = prep.output_shape();
    if out_shape.rows * out_shape.cols == 0 {
        return Ok(());
    }
    let (s, pc) = (layout.stride, layout.phase_cols());
    let phase = layout.relaid_len(1) / (s * s);
    let (pr, width) = (phase / pc, pc + 1);
    prefix.clear();
    prefix.resize(s * s * (pr + 1) * width, 0);
    let taps = shape.kernel_rows * shape.kernel_cols;
    let channels =
        relaid[..layout.relaid_len(prep.input_shape().channels)].chunks_exact(s * s * phase);
    let mut predicted = 0i64;
    for (chan, column) in channels.zip(prep.column().chunks_exact(taps)) {
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
        // `S(c, k, k')`, one rectangle query each, straight into the
        // dot product with the column checksum.
        let mut weights = column.iter();
        for k in 0..shape.kernel_rows {
            for (kp, &w) in (0..shape.kernel_cols).zip(&mut weights) {
                let table = &prefix[((k % s) * s + kp % s) * (pr + 1) * width..];
                let at = |i: usize, j: usize| table[i * width + j];
                let (i, j) = (k / s, kp / s);
                let (i_end, j_end) = (i + out_shape.rows, j + out_shape.cols);
                let tap_sum = at(i_end, j_end) - at(i, j_end) - at(i_end, j) + at(i, j);
                predicted = predicted.wrapping_add(tap_sum.wrapping_mul(w.into()));
            }
        }
    }
    compare(predicted, plane)
}

/// [`verify_plane`] for a layer swept across a batch
/// (`PreparedConv::execute_lanes`): `lanes` is the lane buffer
/// `[in_feature][lane]` the sweep read, `plane` the `[kernel][lane]`
/// accumulators it filled, both of row length `pitch`. The input a tap
/// touches across a kernel's row of lanes is the tap's feature in every
/// lane, so its tap sum is the lane buffer's row sum, and the whole
/// batch is checked for one dot product over the features. A mismatch
/// names neither the kernel nor the image: which accumulator went wrong
/// is for the caller to find out.
pub(crate) fn verify_lanes(
    prep: &PreparedConv,
    lanes: &[i16],
    pitch: usize,
    plane: &[i64],
) -> Result<(), AbmError> {
    let rows = lanes[..prep.input_shape().len() * pitch].chunks_exact(pitch);
    let predicted = rows.zip(prep.column()).fold(0i64, |sum, (row, &w)| {
        let row_sum = row.iter().map(|&v| i64::from(v)).sum::<i64>();
        sum.wrapping_add(row_sum.wrapping_mul(w.into()))
    });
    compare(predicted, &plane[..prep.output_shape().channels * pitch])
}

/// Compares the prediction with the wrapping total of `plane`: a flipped
/// high bit may push the sum past `i64`, and a sum off by `±2^bit`
/// modulo 2⁶⁴ is still a different sum.
fn compare<A: Accumulator>(predicted: i64, plane: &[A]) -> Result<(), AbmError> {
    let observed = plane
        .iter()
        .fold(0i64, |sum, &v| sum.wrapping_add(v.into()));
    if observed == predicted {
        Ok(())
    } else {
        Err(AbmError::AbftMismatch {
            predicted,
            observed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Geometry;
    use abm_kernel::AccWidth;
    use abm_pool::Parallelism;
    use abm_sparse::LayerCode;
    use abm_tensor::{Shape3, Shape4, Tensor3, Tensor4};
    use proptest::prelude::*;
    use std::sync::OnceLock;

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

    fn input(shape: Shape3, salt: usize) -> Tensor3<i16> {
        Tensor3::from_fn(shape, |c, r, col| {
            (((c * 31 + r * 17 + col * 3 + salt) % 255) as i16) - 127
        })
    }

    fn prepared(in_shape: Shape3, w_shape: Shape4, geom: Geometry, salt: usize) -> PreparedConv {
        let code = LayerCode::encode(&weights(w_shape, salt)).unwrap();
        PreparedConv::try_new(&code, in_shape, geom, None).unwrap()
    }

    fn executed(
        in_shape: Shape3,
        w_shape: Shape4,
        geom: Geometry,
        salt: usize,
    ) -> (PreparedConv, Tensor3<i16>, Tensor3<i64>) {
        let prep = prepared(in_shape, w_shape, geom, salt);
        let input = input(in_shape, salt);
        let out = prep.execute(&input);
        (prep, input, out)
    }

    fn check(in_shape: Shape3, w_shape: Shape4, geom: Geometry, salt: usize) {
        let (prep, input, out) = executed(in_shape, w_shape, geom, salt);
        verify_output(&prep, &input, &out).unwrap();
    }

    /// Flips every bit of every word of `plane` in turn, as the
    /// inferencer's injector does, and asserts that `verify` accepts the
    /// clean plane and rejects each flip.
    fn every_flip_fails<A: Accumulator>(
        plane: &[A],
        mut verify: impl FnMut(&[A]) -> Result<(), AbmError>,
    ) {
        assert_eq!(verify(plane), Ok(()));
        let mut corrupted = plane.to_vec();
        for word in 0..plane.len() {
            for bit in 0..A::WIDTH.bits() {
                corrupted[word] = A::narrow(plane[word].into() ^ (1i64 << bit));
                let err = verify(&corrupted).unwrap_err();
                assert!(
                    matches!(err, AbmError::AbftMismatch { .. }),
                    "{} word {word} bit {bit}: {err}",
                    A::WIDTH
                );
            }
            corrupted[word] = plane[word];
        }
    }

    /// Both planes a layer may sweep into: the `i64` one, and the `i32`
    /// one its stage-2 proof allows.
    fn every_plane_flip_fails(prep: &PreparedConv, input: &Tensor3<i16>, out: &Tensor3<i64>) {
        assert_eq!(prep.plane_width(), AccWidth::I32);
        let relaid = prep.flat().layout().relayout(input);
        let mut prefix = Vec::new();
        every_flip_fails(out.as_slice(), |plane| {
            verify_output(prep, input, &Tensor3::from_vec(out.shape(), plane.to_vec()))
        });
        let narrow: Vec<i32> = out.as_slice().iter().map(|&v| v as i32).collect();
        every_flip_fails(&narrow, |plane| {
            verify_plane(prep, &relaid, plane, &mut prefix)
        });
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

    /// Any single-bit upset of any output accumulator fails the check,
    /// in either plane, on a strided convolution and on an FC layer.
    #[test]
    fn every_output_bit_flip_is_detected() {
        for (in_shape, w_shape, geom) in [
            (
                Shape3::new(2, 7, 7),
                Shape4::new(3, 2, 3, 3),
                Geometry::new(2, 1),
            ),
            (
                Shape3::new(24, 1, 1),
                Shape4::new(5, 24, 1, 1),
                Geometry::unit(),
            ),
        ] {
            let (prep, input, out) = executed(in_shape, w_shape, geom, 4);
            every_plane_flip_fails(&prep, &input, &out);
        }
    }

    /// The same across a batch's lanes: every bit of every accumulator
    /// of the `[kernel][lane]` plane, dead lanes included.
    #[test]
    fn every_lane_bit_flip_is_detected() {
        let in_shape = Shape3::new(24, 1, 1);
        let prep = prepared(in_shape, Shape4::new(5, 24, 1, 1), Geometry::unit(), 5);
        let live = 3;
        let sel = prep.lane_selection(live);
        let pitch = live.next_multiple_of(sel.lanes());
        let lanes: Vec<i16> = (0..in_shape.len() * pitch)
            .map(|i| ((i * 37) % 255) as i16 - 127)
            .collect();
        let mut plane = vec![0i64; prep.output_shape().channels * pitch];
        prep.execute_lanes(Parallelism::Serial, sel, &lanes, (live, pitch), &mut plane);
        every_flip_fails(&plane, |plane| verify_lanes(&prep, &lanes, pitch, plane));
    }

    /// AlexNet FC8's geometry — 4096 features into 1000 kernels — with
    /// weights of this module's pattern, prepared once.
    fn fc8() -> &'static PreparedConv {
        static FC8: OnceLock<PreparedConv> = OnceLock::new();
        FC8.get_or_init(|| {
            prepared(
                Shape3::new(4096, 1, 1),
                Shape4::new(1000, 4096, 1, 1),
                Geometry::unit(),
                8,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn accepts_execution_and_rejects_any_flipped_bit(
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

            let idx = word % clean.as_slice().len();
            let mut corrupted = clean;
            corrupted.as_mut_slice()[idx] ^= 1i64 << bit;
            let err = verify_output(&prep, &input, &corrupted).unwrap_err();
            prop_assert!(
                matches!(err, AbmError::AbftMismatch { .. }),
                "word {} bit {}: {}", idx, bit, err
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// One image through FC8, any accumulator, any bit, either plane.
        #[test]
        fn alexnet_fc8_rejects_any_flipped_bit(
            salt in 0usize..1000,
            (word, bit) in (0usize..1000, 0u32..64),
        ) {
            let prep = fc8();
            let input = input(prep.input_shape(), salt);
            let clean = prep.execute(&input);
            prop_assert!(verify_output(prep, &input, &clean).is_ok());
            let mut corrupted = clean.clone();
            corrupted.as_mut_slice()[word] ^= 1i64 << bit;
            let err = verify_output(prep, &input, &corrupted).unwrap_err();
            prop_assert!(matches!(err, AbmError::AbftMismatch { .. }), "{}", err);

            prop_assert_eq!(prep.plane_width(), AccWidth::I32);
            let mut narrow: Vec<i32> = clean.as_slice().iter().map(|&v| v as i32).collect();
            narrow[word] ^= 1 << (bit % 32);
            let err = verify_plane(prep, input.as_slice(), &narrow, &mut Vec::new()).unwrap_err();
            prop_assert!(matches!(err, AbmError::AbftMismatch { .. }), "{}", err);
        }
    }
}
