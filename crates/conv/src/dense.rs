//! The spatial-domain dense reference convolution (SDConv) — the paper's
//! Equation (1), computed exactly in integer arithmetic.
//!
//! Every other engine is validated against this one: bit for bit, or,
//! for the FFT comparator, within floating-point tolerance.

use abm_tensor::{Shape3, Tensor3, Tensor4};

/// Convolution geometry: stride, padding and channel grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Convolution stride `S` (both axes).
    pub stride: usize,
    /// Zero padding on all four sides.
    pub pad: usize,
    /// Channel groups (AlexNet's conv2/4/5 use 2).
    pub groups: usize,
}

impl Geometry {
    /// Creates an ungrouped geometry.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(stride: usize, pad: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            stride,
            pad,
            groups: 1,
        }
    }

    /// Sets the group count.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn with_groups(mut self, groups: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        self.groups = groups;
        self
    }

    /// The "unit" geometry used by FC layers (stride 1, no padding).
    pub fn unit() -> Self {
        Self::new(1, 0)
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::new(1, 0)
    }
}

/// Computes the output shape of a convolution.
///
/// # Panics
///
/// Panics if channel counts are inconsistent with the geometry (input
/// channels must equal `weights.in_channels * groups`, and `groups` must
/// divide the output channel count).
#[must_use]
pub fn output_shape(input: Shape3, weights: &Tensor4<i8>, geom: Geometry) -> Shape3 {
    let w = weights.shape();
    assert!(geom.groups > 0, "groups must be positive");
    assert_eq!(
        w.out_channels % geom.groups,
        0,
        "groups {} must divide out_channels {}",
        geom.groups,
        w.out_channels
    );
    assert_eq!(
        input.channels,
        w.in_channels * geom.groups,
        "input channels {} != weight in_channels {} x groups {}",
        input.channels,
        w.in_channels,
        geom.groups
    );
    Shape3::new(
        w.out_channels,
        abm_tensor::shape::conv_out_dim(input.rows, w.kernel_rows, geom.stride, geom.pad),
        abm_tensor::shape::conv_out_dim(input.cols, w.kernel_cols, geom.stride, geom.pad),
    )
}

/// Reads an input pixel honouring zero padding: coordinates are given in
/// *padded* space and out-of-bounds reads return zero.
#[inline]
pub(crate) fn padded_read(input: &Tensor3<i16>, c: usize, pr: isize, pc: isize) -> i64 {
    if pr < 0 || pc < 0 {
        return 0;
    }
    let (r, col) = (pr as usize, pc as usize);
    let s = input.shape();
    if r >= s.rows || col >= s.cols {
        0
    } else {
        input[(c, r, col)] as i64
    }
}

/// Dense spatial convolution, exact in `i64`.
///
/// Inputs are `i16` feature maps (the accelerator's 8-bit features fit
/// comfortably), weights are `i8` quantized values, and the result holds
/// the full-precision accumulator before any rounding — matching the
/// paper's "rounding is performed only once" rule.
///
/// # Panics
///
/// Panics on inconsistent channel counts or a group count that does not
/// divide the output channels (see [`output_shape`]).
#[must_use]
pub fn conv2d(input: &Tensor3<i16>, weights: &Tensor4<i8>, geom: Geometry) -> Tensor3<i64> {
    let out_shape = output_shape(input.shape(), weights, geom);
    let w = weights.shape();
    let m_per_group = w.out_channels / geom.groups;
    let n_per_group = w.in_channels;
    let mut out = Tensor3::zeros(out_shape);
    for m in 0..w.out_channels {
        let group = m / m_per_group;
        let in_base = group * n_per_group;
        let kernel = weights.kernel(m);
        for orow in 0..out_shape.rows {
            for ocol in 0..out_shape.cols {
                let mut acc = 0i64;
                let mut widx = 0usize;
                for n in 0..n_per_group {
                    for k in 0..w.kernel_rows {
                        let pr = (orow * geom.stride + k) as isize - geom.pad as isize;
                        for kp in 0..w.kernel_cols {
                            let wv = kernel[widx] as i64;
                            widx += 1;
                            if wv == 0 {
                                continue;
                            }
                            let pc = (ocol * geom.stride + kp) as isize - geom.pad as isize;
                            acc += wv * padded_read(input, in_base + n, pr, pc);
                        }
                    }
                }
                out[(m, orow, ocol)] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_tensor::Shape4;

    #[test]
    fn identity_kernel_passes_input_through() {
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, r, c| (r * 4 + c) as i16);
        // 1x1 kernel of value 1.
        let w = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![1i8]);
        let out = conv2d(&input, &w, Geometry::new(1, 0));
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(out[(0, r, c)], input[(0, r, c)] as i64);
            }
        }
    }

    #[test]
    fn known_3x3_result() {
        // Input 1..9 in a 3x3, box kernel of ones, valid conv -> sum = 45.
        let input = Tensor3::from_fn(Shape3::new(1, 3, 3), |_, r, c| (r * 3 + c + 1) as i16);
        let w = Tensor4::from_vec(Shape4::new(1, 1, 3, 3), vec![1i8; 9]);
        let out = conv2d(&input, &w, Geometry::new(1, 0));
        assert_eq!(out.shape(), Shape3::new(1, 1, 1));
        assert_eq!(out[(0, 0, 0)], 45);
    }

    #[test]
    fn padding_zero_extends() {
        let input = Tensor3::from_vec(Shape3::new(1, 1, 1), vec![3i16]);
        let w = Tensor4::from_vec(Shape4::new(1, 1, 3, 3), vec![1i8; 9]);
        let out = conv2d(&input, &w, Geometry::new(1, 1));
        assert_eq!(out.shape(), Shape3::new(1, 1, 1));
        assert_eq!(out[(0, 0, 0)], 3); // only the centre tap hits data
    }

    #[test]
    fn stride_subsamples() {
        let input = Tensor3::from_fn(Shape3::new(1, 5, 5), |_, r, c| (r * 5 + c) as i16);
        let w = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![2i8]);
        let out = conv2d(&input, &w, Geometry::new(2, 0));
        assert_eq!(out.shape(), Shape3::new(1, 3, 3));
        assert_eq!(out[(0, 1, 1)], 2 * 12);
        assert_eq!(out[(0, 2, 2)], 2 * 24);
    }

    #[test]
    fn channels_sum() {
        // Two input channels, kernel picks each with weight 1: output =
        // channel sum.
        let input = Tensor3::from_fn(Shape3::new(2, 2, 2), |ch, r, c| {
            (10 * (ch + 1) + r * 2 + c) as i16
        });
        let w = Tensor4::from_vec(Shape4::new(1, 2, 1, 1), vec![1i8, 1]);
        let out = conv2d(&input, &w, Geometry::new(1, 0));
        assert_eq!(out[(0, 0, 0)], 10 + 20);
        assert_eq!(out[(0, 1, 1)], 13 + 23);
    }

    #[test]
    fn grouped_conv_isolates_groups() {
        // 2 groups: outputs 0 sees channels {0,1}, output 1 sees {2,3}.
        let input = Tensor3::from_fn(Shape3::new(4, 1, 1), |ch, _, _| (ch + 1) as i16);
        let w = Tensor4::from_vec(Shape4::new(2, 2, 1, 1), vec![1i8, 1, 1, 1]);
        let out = conv2d(&input, &w, Geometry::new(1, 0).with_groups(2));
        assert_eq!(out[(0, 0, 0)], 1 + 2);
        assert_eq!(out[(1, 0, 0)], 3 + 4);
    }

    #[test]
    fn negative_weights_and_inputs() {
        let input = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![-5i16, 3, -2, 8]);
        let w = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![-1i8, 2, 3, -4]);
        let out = conv2d(&input, &w, Geometry::new(1, 0));
        assert_eq!(out[(0, 0, 0)], 5 + 6 - 6 - 32);
    }

    #[test]
    fn fc_as_1x1_conv() {
        // FC: 3 inputs, 2 outputs.
        let input = Tensor3::from_vec(Shape3::new(3, 1, 1), vec![1i16, 2, 3]);
        let w = Tensor4::from_vec(Shape4::new(2, 3, 1, 1), vec![1i8, 0, -1, 2, 2, 2]);
        let out = conv2d(&input, &w, Geometry::unit());
        assert_eq!(out[(0, 0, 0)], 1 - 3);
        assert_eq!(out[(1, 0, 0)], 2 + 4 + 6);
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        let input = Tensor3::<i16>::zeros(Shape3::new(3, 2, 2));
        let w = Tensor4::<i8>::zeros(Shape4::new(1, 2, 1, 1));
        let _ = conv2d(&input, &w, Geometry::new(1, 0));
    }
}
