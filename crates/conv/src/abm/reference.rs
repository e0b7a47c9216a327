//! The naive, interpretive ABM executor — the oracle the prepared hot
//! path (the parent [`abm`](crate::abm) module) is validated against.
//!
//! This engine decodes each kernel's `(n, k, k')` coordinates on the fly,
//! reads every input pixel through the bounds-checked
//! `dense::padded_read` and increments the work
//! counters **per executed iteration** — slow, but with no derived state
//! to get wrong. Equivalence tests pin the prepared engine to this one
//! bit for bit, including the operation counts.

use super::{validate_grouping, AbmWork};
use crate::dense::{padded_read, Geometry};
use abm_fault::AbmError;
use abm_sparse::LayerCode;
use abm_tensor::{Shape3, Tensor3};

/// Runs the reference two-stage ABM convolution, returning the exact
/// full-precision output.
///
/// # Errors
///
/// Returns [`AbmError`] on inconsistent channel counts or a group count
/// that does not divide the output channels.
pub fn conv2d(
    input: &Tensor3<i16>,
    code: &LayerCode,
    geom: Geometry,
) -> Result<Tensor3<i64>, AbmError> {
    Ok(conv2d_counted(input, code, geom)?.0)
}

/// Like [`conv2d`] but also reports the per-stage operation counts,
/// incremented one by one as the loop executes (the analytic accounting
/// of the prepared engine is proven against these).
///
/// # Errors
///
/// Returns [`AbmError`] on inconsistent channel counts or a group count
/// that does not divide the output channels.
pub fn conv2d_counted(
    input: &Tensor3<i16>,
    code: &LayerCode,
    geom: Geometry,
) -> Result<(Tensor3<i64>, AbmWork), AbmError> {
    let w = code.shape();
    validate_grouping(input.shape(), w, geom)?;
    let out_shape = Shape3::new(
        w.out_channels,
        abm_tensor::shape::conv_out_dim(input.shape().rows, w.kernel_rows, geom.stride, geom.pad),
        abm_tensor::shape::conv_out_dim(input.shape().cols, w.kernel_cols, geom.stride, geom.pad),
    );
    let m_per_group = w.out_channels / geom.groups;
    let mut out = Tensor3::zeros(out_shape);
    let mut work = AbmWork::default();

    // One value group after on-the-fly address decode: the quantized
    // value and the (n, k, k') positions carrying it.
    type DecodedGroup = (i8, Vec<(usize, usize, usize)>);

    // Pre-unravel each kernel's index stream once (the hardware's address
    // generator does this on the fly).
    for (m, kernel) in code.kernels().iter().enumerate() {
        let group = m / m_per_group;
        let in_base = group * w.in_channels;
        let decoded: Vec<DecodedGroup> = kernel
            .groups()
            .map(|(value, idxs)| (value, idxs.iter().map(|&i| code.unravel(i)).collect()))
            .collect();
        for orow in 0..out_shape.rows {
            for ocol in 0..out_shape.cols {
                let mut acc = 0i64;
                for (value, positions) in &decoded {
                    // Stage 1: accumulate all pixels sharing this value.
                    let mut partial = 0i64;
                    for &(n, k, kp) in positions {
                        let pr = (orow * geom.stride + k) as isize - geom.pad as isize;
                        let pc = (ocol * geom.stride + kp) as isize - geom.pad as isize;
                        partial += padded_read(input, in_base + n, pr, pc);
                        work.accumulations += 1;
                    }
                    // Stage 2: one multiply per distinct value + final
                    // accumulation.
                    acc += (*value as i64) * partial;
                    work.multiplications += 1;
                    work.final_accumulations += 1;
                }
                out[(m, orow, ocol)] = acc;
            }
        }
    }
    Ok((out, work))
}

/// The extreme stage-1 partial sums and stage-2 accumulators one
/// reference run actually produced — the observational counterpart of a
/// range certificate's proven intervals. An all-zero-work layer reports
/// the empty observation `[0, 0]` (no partial ever exists, but the
/// certified intervals always contain zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedRanges {
    /// Smallest stage-1 partial sum observed (over every value group,
    /// every output pixel, **including intermediate prefixes** of the
    /// running per-group sum — the quantity a packed i16 lane holds).
    pub stage1_min: i64,
    /// Largest such stage-1 partial sum.
    pub stage1_max: i64,
    /// Smallest stage-2 output accumulator observed. Final values per
    /// pixel: the reduction's intermediate state always lives in an
    /// `i64` register, so the certificate sizes only the output (and
    /// the ABFT checksums built from it).
    pub stage2_min: i64,
    /// Largest such stage-2 accumulator.
    pub stage2_max: i64,
}

/// Like [`conv2d_counted`] but also records the extreme stage-1 /
/// stage-2 values the run produced — the instrumentation the
/// certificate-soundness tests use to check "every observed runtime
/// value lies inside the certified interval".
///
/// # Errors
///
/// Returns [`AbmError`] on inconsistent channel counts or a group count
/// that does not divide the output channels.
pub fn conv2d_instrumented(
    input: &Tensor3<i16>,
    code: &LayerCode,
    geom: Geometry,
) -> Result<(Tensor3<i64>, AbmWork, ObservedRanges), AbmError> {
    let w = code.shape();
    validate_grouping(input.shape(), w, geom)?;
    let out_shape = Shape3::new(
        w.out_channels,
        abm_tensor::shape::conv_out_dim(input.shape().rows, w.kernel_rows, geom.stride, geom.pad),
        abm_tensor::shape::conv_out_dim(input.shape().cols, w.kernel_cols, geom.stride, geom.pad),
    );
    let m_per_group = w.out_channels / geom.groups;
    let mut out = Tensor3::zeros(out_shape);
    let mut work = AbmWork::default();
    let mut obs = ObservedRanges {
        stage1_min: 0,
        stage1_max: 0,
        stage2_min: 0,
        stage2_max: 0,
    };

    type DecodedGroup = (i8, Vec<(usize, usize, usize)>);
    for (m, kernel) in code.kernels().iter().enumerate() {
        let group = m / m_per_group;
        let in_base = group * w.in_channels;
        let decoded: Vec<DecodedGroup> = kernel
            .groups()
            .map(|(value, idxs)| (value, idxs.iter().map(|&i| code.unravel(i)).collect()))
            .collect();
        for orow in 0..out_shape.rows {
            for ocol in 0..out_shape.cols {
                let mut acc = 0i64;
                for (value, positions) in &decoded {
                    let mut partial = 0i64;
                    for &(n, k, kp) in positions {
                        let pr = (orow * geom.stride + k) as isize - geom.pad as isize;
                        let pc = (ocol * geom.stride + kp) as isize - geom.pad as isize;
                        partial += padded_read(input, in_base + n, pr, pc);
                        // Every intermediate prefix is an accumulator
                        // state a narrow register must hold.
                        obs.stage1_min = obs.stage1_min.min(partial);
                        obs.stage1_max = obs.stage1_max.max(partial);
                        work.accumulations += 1;
                    }
                    acc += (*value as i64) * partial;
                    work.multiplications += 1;
                    work.final_accumulations += 1;
                }
                obs.stage2_min = obs.stage2_min.min(acc);
                obs.stage2_max = obs.stage2_max.max(acc);
                out[(m, orow, ocol)] = acc;
            }
        }
    }
    Ok((out, work, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use abm_tensor::{Shape4, Tensor4};

    fn check_equivalence(input: &Tensor3<i16>, weights: &Tensor4<i8>, geom: Geometry) {
        let reference = dense::conv2d(input, weights, geom);
        let code = LayerCode::encode(weights).unwrap();
        let (result, work) = conv2d_counted(input, &code, geom).unwrap();
        assert_eq!(reference, result);
        // Work accounting sanity: accumulations = nnz * output pixels,
        // multiplications = sum of Q(m) * output pixels per kernel.
        let out_pixels = (reference.shape().rows * reference.shape().cols) as u64;
        assert_eq!(work.accumulations, code.total_nnz() * out_pixels);
        assert_eq!(work.multiplications, code.total_distinct() * out_pixels);
    }

    #[test]
    fn matches_dense_on_small_case() {
        let input = Tensor3::from_fn(Shape3::new(2, 6, 6), |c, r, col| {
            ((c * 36 + r * 6 + col) % 11) as i16 - 5
        });
        let weights = Tensor4::from_fn(Shape4::new(4, 2, 3, 3), |m, n, k, kp| {
            let x = (m * 18 + n * 9 + k * 3 + kp) % 4;
            if x == 0 {
                0
            } else {
                (x as i8) - 2
            }
        });
        check_equivalence(&input, &weights, Geometry::new(1, 1));
    }

    #[test]
    fn matches_dense_with_stride_and_pad() {
        let input = Tensor3::from_fn(Shape3::new(3, 7, 7), |c, r, col| {
            ((c * 49 + r * 7 + col) % 13) as i16 - 6
        });
        let weights = Tensor4::from_fn(Shape4::new(2, 3, 5, 5), |m, n, k, kp| {
            let x = (m * 75 + n * 25 + k * 5 + kp) % 7;
            if x < 3 {
                0
            } else {
                (x as i8) - 5
            }
        });
        check_equivalence(&input, &weights, Geometry::new(2, 2));
    }

    #[test]
    fn matches_dense_grouped() {
        let input = Tensor3::from_fn(Shape3::new(4, 5, 5), |c, r, col| {
            ((c * 25 + r * 5 + col) % 9) as i16 - 4
        });
        let weights = Tensor4::from_fn(Shape4::new(6, 2, 3, 3), |m, n, k, kp| {
            let x = (m * 18 + n * 9 + k * 3 + kp) % 5;
            if x == 1 {
                0
            } else {
                (x as i8) - 2
            }
        });
        check_equivalence(&input, &weights, Geometry::new(1, 1).with_groups(2));
    }

    #[test]
    fn all_zero_kernel_yields_zero() {
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, r, c| (r + c) as i16);
        let weights = Tensor4::<i8>::zeros(Shape4::new(2, 1, 3, 3));
        let code = LayerCode::encode(&weights).unwrap();
        let (out, work) = conv2d_counted(&input, &code, Geometry::new(1, 0)).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0));
        assert_eq!(work.total(), 0);
    }

    #[test]
    fn fc_equivalence() {
        let input = Tensor3::from_fn(Shape3::new(32, 1, 1), |c, _, _| (c as i16) - 16);
        let weights = Tensor4::from_fn(Shape4::new(10, 32, 1, 1), |m, n, _, _| {
            let x = (m * 32 + n) % 6;
            if x < 2 {
                0
            } else {
                (x as i8) - 3
            }
        });
        check_equivalence(&input, &weights, Geometry::unit());
    }

    #[test]
    fn work_totals_add_up() {
        let input = Tensor3::from_fn(Shape3::new(1, 3, 3), |_, r, c| (r * 3 + c) as i16);
        let weights = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![3i8, 3, -1, 0]);
        let code = LayerCode::encode(&weights).unwrap();
        let (_, work) = conv2d_counted(&input, &code, Geometry::new(1, 0)).unwrap();
        // 4 output pixels, nnz=3, Q=2.
        assert_eq!(work.accumulations, 12);
        assert_eq!(work.multiplications, 8);
        assert_eq!(work.final_accumulations, 8);
        assert_eq!(work.total(), 28);
    }

    #[test]
    fn invalid_grouping_is_typed_error() {
        let input = Tensor3::<i16>::zeros(Shape3::new(2, 4, 4));
        let w = Tensor4::<i8>::zeros(Shape4::new(3, 1, 1, 1));
        let code = LayerCode::encode(&w).unwrap();
        let err = conv2d(&input, &code, Geometry::new(1, 0).with_groups(2)).unwrap_err();
        assert!(matches!(err, AbmError::BadGrouping { .. }));
    }

    #[test]
    fn channel_mismatch_is_typed_error() {
        let input = Tensor3::<i16>::zeros(Shape3::new(3, 4, 4));
        let w = Tensor4::<i8>::zeros(Shape4::new(2, 2, 1, 1));
        let code = LayerCode::encode(&w).unwrap();
        let err = conv2d(&input, &code, Geometry::new(1, 0)).unwrap_err();
        assert!(matches!(err, AbmError::ChannelMismatch { .. }));
    }
}
