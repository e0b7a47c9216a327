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
//! builds one 2-D prefix-sum table per (channel, row-phase, col-phase),
//! answers one four-lookup rectangle query per position into an
//! `S[channel][k][k']` table, and then predicts each kernel with one
//! load and one add per tap and one multiply per distinct value. The
//! whole check costs `O(C·H·W)` table construction, `C·K·K'` rectangle
//! queries and `O(taps + out)` loads and adds per layer — one pass over
//! taps the convolution walks once per output pixel.
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

use crate::abm::PreparedConv;
use abm_fault::{stream_checksum_i16, AbmError};
use abm_tensor::Tensor3;

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

/// Checks every output plane's sum against its ABFT prediction.
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
    if input.shape() != prep.input_shape() {
        return Err(AbmError::ShapeMismatch {
            got: (
                input.shape().channels,
                input.shape().rows,
                input.shape().cols,
            ),
            want: (
                prep.input_shape().channels,
                prep.input_shape().rows,
                prep.input_shape().cols,
            ),
        });
    }
    if out.shape() != prep.output_shape() {
        return Err(AbmError::ShapeMismatch {
            got: (out.shape().channels, out.shape().rows, out.shape().cols),
            want: (
                prep.output_shape().channels,
                prep.output_shape().rows,
                prep.output_shape().cols,
            ),
        });
    }

    let flat = prep.flat();
    let shape = flat.shape();
    let geom = prep.geometry();
    let out_shape = prep.output_shape();
    let m_per_group = shape.out_channels / geom.groups;
    let out_plane = out_shape.rows * out_shape.cols;
    let out_data = out.as_slice();
    let sums = PhaseTables::build(input, geom.stride).tap_sums(
        shape.kernel_rows,
        shape.kernel_cols,
        geom.pad,
        out_shape.rows,
        out_shape.cols,
    );
    let group_len = shape.in_channels * shape.kernel_rows * shape.kernel_cols;

    for (m, kernel) in flat.kernels().iter().enumerate() {
        // The kernel's channel group owns one contiguous run of `sums`.
        let base = (m / m_per_group) * group_len;
        let group_sums = &sums[base..base + group_len];
        let mut predicted = 0i64;
        for (value, taps) in kernel.tap_groups() {
            let mut tap_sum = 0i64;
            for tap in taps {
                let at = (tap.n as usize * shape.kernel_rows + tap.k as usize) * shape.kernel_cols
                    + tap.kp as usize;
                let Some(&s) = group_sums.get(at) else {
                    return Err(AbmError::CodeCorrupt {
                        kernel: m,
                        detail: format!(
                            "tap ({}, {}, {}) outside the layer's kernel volume",
                            tap.n, tap.k, tap.kp
                        ),
                    });
                };
                tap_sum += s;
            }
            predicted += value as i64 * tap_sum;
        }
        // Wrapping: a flipped high bit may push the sum past `i64`, and
        // a sum off by ±2^bit modulo 2^64 is still a different sum.
        let observed = out_data[m * out_plane..(m + 1) * out_plane]
            .iter()
            .fold(0i64, |sum, &v| sum.wrapping_add(v));
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

/// Per-(channel, row-phase, col-phase) 2-D prefix sums over the
/// stride-phased subgrids of the input. For stride 1 this degenerates
/// to one plain prefix table per channel.
struct PhaseTables {
    stride: usize,
    channels: usize,
    in_rows: usize,
    in_cols: usize,
    /// Where phase `(a, b)`'s table starts inside one channel's block,
    /// indexed `[a * s + b]`; the last entry is the block length.
    phase_starts: Vec<usize>,
    /// Every table back to back, channel-major then phase; each is a
    /// `(rows(a)+1) × (cols(b)+1)` prefix table, row-major.
    prefix: Vec<i64>,
}

/// Points of a `dim`-long axis on the stride-`s` subgrid starting at
/// `phase`.
fn grid(dim: usize, phase: usize, s: usize) -> usize {
    if phase >= dim {
        0
    } else {
        (dim - phase).div_ceil(s)
    }
}

impl PhaseTables {
    fn build(input: &Tensor3<i16>, stride: usize) -> Self {
        let shape = input.shape();
        let s = stride;
        let mut phase_starts = Vec::with_capacity(s * s + 1);
        let mut block_len = 0;
        for a in 0..s {
            for b in 0..s {
                phase_starts.push(block_len);
                block_len += (grid(shape.rows, a, s) + 1) * (grid(shape.cols, b, s) + 1);
            }
        }
        phase_starts.push(block_len);
        let mut prefix = vec![0i64; shape.channels * block_len];
        let planes = input.as_slice().chunks_exact(shape.rows * shape.cols);
        for (block, chan) in prefix.chunks_exact_mut(block_len).zip(planes) {
            for a in 0..s {
                for b in 0..s {
                    let gr = grid(shape.rows, a, s);
                    let gc = grid(shape.cols, b, s);
                    let p = &mut block[phase_starts[a * s + b]..phase_starts[a * s + b + 1]];
                    for i in 0..gr {
                        let row = &chan[(a + i * s) * shape.cols..];
                        for j in 0..gc {
                            p[(i + 1) * (gc + 1) + (j + 1)] = row[b + j * s] as i64
                                + p[i * (gc + 1) + (j + 1)]
                                + p[(i + 1) * (gc + 1) + j]
                                - p[i * (gc + 1) + j];
                        }
                    }
                }
            }
        }
        Self {
            stride: s,
            channels: shape.channels,
            in_rows: shape.rows,
            in_cols: shape.cols,
            phase_starts,
            prefix,
        }
    }

    /// The shared tap-sum table `S[c][k][k']`, row-major over every
    /// input channel and kernel position: one rectangle query each,
    /// read by every kernel that has a tap there.
    fn tap_sums(
        &self,
        kernel_rows: usize,
        kernel_cols: usize,
        pad: usize,
        out_rows: usize,
        out_cols: usize,
    ) -> Vec<i64> {
        let pad = pad as isize;
        let mut sums = Vec::with_capacity(self.channels * kernel_rows * kernel_cols);
        for c in 0..self.channels {
            for k in 0..kernel_rows {
                for kp in 0..kernel_cols {
                    sums.push(self.tap_sum(
                        c,
                        k as isize - pad,
                        kp as isize - pad,
                        out_rows,
                        out_cols,
                    ));
                }
            }
        }
        sums
    }

    /// `S(t)` for the tap displaced `(dr, dc)` from the output origin on
    /// input channel `c`: the sum of `input[c, orow·s + dr, ocol·s + dc]`
    /// over all in-bounds output pixels (out-of-bounds reads are the
    /// padding zeros and contribute nothing).
    fn tap_sum(&self, c: usize, dr: isize, dc: isize, out_rows: usize, out_cols: usize) -> i64 {
        let s = self.stride;
        let Some((i_lo, i_hi)) = span(dr, s, self.in_rows, out_rows) else {
            return 0;
        };
        let Some((j_lo, j_hi)) = span(dc, s, self.in_cols, out_cols) else {
            return 0;
        };
        let a = dr.rem_euclid(s as isize) as usize;
        let b = dc.rem_euclid(s as isize) as usize;
        let gc = grid(self.in_cols, b, s);
        let block_len = self.phase_starts[s * s];
        let p = &self.prefix[c * block_len + self.phase_starts[a * s + b]..];
        let at = |i: usize, j: usize| p[i * (gc + 1) + j];
        at(i_hi + 1, j_hi + 1) - at(i_lo, j_hi + 1) - at(i_hi + 1, j_lo) + at(i_lo, j_lo)
    }
}

/// The inclusive subgrid-index range `[i_lo, i_hi]` a tap displaced `d`
/// covers along one axis, or `None` when no output position lands the
/// tap inside the input.
fn span(d: isize, s: usize, in_dim: usize, out_dim: usize) -> Option<(usize, usize)> {
    let si = s as isize;
    // Smallest output index whose tapped input position is >= 0.
    let o_min = ((-d).max(0) as usize).div_ceil(s) as isize;
    // Largest output index whose tapped input position fits the input.
    let top = in_dim as isize - 1 - d;
    if top < 0 {
        return None;
    }
    let o_max = (top / si).min(out_dim as isize - 1);
    if o_max < o_min {
        return None;
    }
    // Subgrid index: with d = q·s + phase, position o maps to o + q.
    let a = d.rem_euclid(si);
    let q = (d - a) / si;
    Some(((o_min + q) as usize, (o_max + q) as usize))
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
        let prep = PreparedConv::try_new(&code, in_shape, geom, None).unwrap();
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
        let prep = PreparedConv::try_new(&code, in_shape, Geometry::new(1, 1), None).unwrap();
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
