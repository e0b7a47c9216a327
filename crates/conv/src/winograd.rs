//! Winograd minimal-filtering convolution `F(2×2, 3×3)` — the *other*
//! MAC-reduction family used by modern dense accelerators (an extension
//! beyond the paper's SDConv/FDConv/SpConv comparison set).
//!
//! Winograd computes a 2×2 output tile from a 4×4 input tile with 16
//! multiplications instead of 36 — a 2.25× multiply reduction for 3×3
//! stride-1 convolution. The standard transforms are
//!
//! ```text
//! Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//! ```
//!
//! `G` contains halves, so a floating-point implementation loses
//! bit-exactness. We instead use the *scaled-integer* trick: transform
//! weights with `2G` (integral), making the element-wise product carry a
//! factor of 4 that divides out exactly in the end — so this engine is
//! **bit-exact** against the dense reference on integer data, like every
//! other integer engine in this crate.

use crate::dense::{output_shape, padded_read, Geometry};
use abm_tensor::{Tensor3, Tensor4};

/// Weight transform with the scaled matrix `2G` (so all entries are
/// integers): `U = (2G) g (2G)ᵀ`, a 4×4 integer tile carrying a factor
/// of 4.
///
/// `g` is a 3×3 kernel slice in row-major order.
pub fn transform_kernel(g: &[i8]) -> [i64; 16] {
    assert_eq!(g.len(), 9, "3x3 kernel expected");
    let g = |r: usize, c: usize| g[r * 3 + c] as i64;
    // 2G = [[2,0,0],[1,1,1],[1,-1,1],[0,0,2]]
    let rows: [[i64; 3]; 4] = [
        [2 * g(0, 0), 2 * g(0, 1), 2 * g(0, 2)],
        [
            g(0, 0) + g(1, 0) + g(2, 0),
            g(0, 1) + g(1, 1) + g(2, 1),
            g(0, 2) + g(1, 2) + g(2, 2),
        ],
        [
            g(0, 0) - g(1, 0) + g(2, 0),
            g(0, 1) - g(1, 1) + g(2, 1),
            g(0, 2) - g(1, 2) + g(2, 2),
        ],
        [2 * g(2, 0), 2 * g(2, 1), 2 * g(2, 2)],
    ];
    // Multiply by (2G)^T on the right: same combination across columns.
    let mut u = [0i64; 16];
    for (r, row) in rows.iter().enumerate() {
        u[r * 4] = 2 * row[0];
        u[r * 4 + 1] = row[0] + row[1] + row[2];
        u[r * 4 + 2] = row[0] - row[1] + row[2];
        u[r * 4 + 3] = 2 * row[2];
    }
    u
}

/// Input transform `V = Bᵀ d B` (all-integer; `d` is a 4×4 input tile in
/// row-major order).
pub fn transform_input(d: &[i64; 16]) -> [i64; 16] {
    // B^T = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]
    let mut tmp = [0i64; 16];
    for c in 0..4 {
        let col = [d[c], d[4 + c], d[8 + c], d[12 + c]];
        tmp[c] = col[0] - col[2];
        tmp[4 + c] = col[1] + col[2];
        tmp[8 + c] = col[2] - col[1];
        tmp[12 + c] = col[1] - col[3];
    }
    let mut v = [0i64; 16];
    for r in 0..4 {
        let row = [tmp[r * 4], tmp[r * 4 + 1], tmp[r * 4 + 2], tmp[r * 4 + 3]];
        v[r * 4] = row[0] - row[2];
        v[r * 4 + 1] = row[1] + row[2];
        v[r * 4 + 2] = row[2] - row[1];
        v[r * 4 + 3] = row[1] - row[3];
    }
    v
}

/// Output transform `Y = Aᵀ m A` followed by the exact `/4` that undoes
/// the `2G` scaling; returns the 2×2 output tile.
///
/// # Panics
///
/// Panics in debug builds if the accumulated tile is not divisible by 4
/// (which would indicate a transform bug — the product of two exact
/// transforms always is).
pub fn transform_output(m: &[i64; 16]) -> [i64; 4] {
    // A^T = [[1,1,1,0],[0,1,-1,-1]]
    let mut tmp = [0i64; 8];
    for c in 0..4 {
        let col = [m[c], m[4 + c], m[8 + c], m[12 + c]];
        tmp[c] = col[0] + col[1] + col[2];
        tmp[4 + c] = col[1] - col[2] - col[3];
    }
    let mut y = [0i64; 4];
    for r in 0..2 {
        let row = [tmp[r * 4], tmp[r * 4 + 1], tmp[r * 4 + 2], tmp[r * 4 + 3]];
        let a = row[0] + row[1] + row[2];
        let b = row[1] - row[2] - row[3];
        debug_assert_eq!(a % 4, 0, "scaled Winograd output must divide by 4");
        debug_assert_eq!(b % 4, 0, "scaled Winograd output must divide by 4");
        y[r * 2] = a / 4;
        y[r * 2 + 1] = b / 4;
    }
    y
}

/// Winograd `F(2×2, 3×3)` convolution, bit-exact against
/// [`crate::dense::conv2d`], and the number of element-wise `u·v`
/// products it executed: 16 per 2×2 output tile per `(m, n)` pair, the
/// transforms being adds and shifts only.
///
/// # Panics
///
/// Panics unless the kernel is 3×3 with stride 1 (the shape Winograd
/// minimal filtering addresses; all of VGG16's conv layers qualify) or
/// on channel mismatch.
pub fn conv2d(input: &Tensor3<i16>, weights: &Tensor4<i8>, geom: Geometry) -> (Tensor3<i64>, u64) {
    let w = weights.shape();
    assert_eq!(
        (w.kernel_rows, w.kernel_cols, geom.stride),
        (3, 3, 1),
        "Winograd F(2x2,3x3) requires a 3x3 kernel with stride 1"
    );
    let out_shape = output_shape(input.shape(), weights, geom);
    let m_per_group = w.out_channels / geom.groups;
    let mut out = Tensor3::zeros(out_shape);
    let mut products = 0u64;

    // Pre-transform every kernel once.
    let mut u_all: Vec<[i64; 16]> = Vec::with_capacity(w.out_channels * w.in_channels);
    for m in 0..w.out_channels {
        let kernel = weights.kernel(m);
        for n in 0..w.in_channels {
            u_all.push(transform_kernel(&kernel[n * 9..(n + 1) * 9]));
        }
    }

    let tiles_r = out_shape.rows.div_ceil(2);
    let tiles_c = out_shape.cols.div_ceil(2);
    for m in 0..w.out_channels {
        let group = m / m_per_group.max(1);
        let in_base = group * w.in_channels;
        for tr in 0..tiles_r {
            for tc in 0..tiles_c {
                let (or0, oc0) = (tr * 2, tc * 2);
                // Accumulate the element-wise products over channels in
                // the Winograd domain.
                let mut acc = [0i64; 16];
                for n in 0..w.in_channels {
                    let mut d = [0i64; 16];
                    for dr in 0..4 {
                        for dc in 0..4 {
                            let pr = (or0 + dr) as isize - geom.pad as isize;
                            let pc = (oc0 + dc) as isize - geom.pad as isize;
                            d[dr * 4 + dc] = padded_read(input, in_base + n, pr, pc);
                        }
                    }
                    let v = transform_input(&d);
                    let u = &u_all[m * w.in_channels + n];
                    for i in 0..16 {
                        acc[i] += u[i] * v[i];
                    }
                    products += 16;
                }
                let y = transform_output(&acc);
                for dr in 0..2 {
                    for dc in 0..2 {
                        let (r, c) = (or0 + dr, oc0 + dc);
                        if r < out_shape.rows && c < out_shape.cols {
                            out[(m, r, c)] = y[dr * 2 + dc];
                        }
                    }
                }
            }
        }
    }
    (out, products)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use abm_tensor::{Shape3, Shape4};

    fn check(input: &Tensor3<i16>, weights: &Tensor4<i8>, geom: Geometry) {
        let reference = dense::conv2d(input, weights, geom);
        let (winograd, products) = conv2d(input, weights, geom);
        assert_eq!(reference, winograd);
        let out = reference.shape();
        let tiles = out.rows.div_ceil(2) * out.cols.div_ceil(2);
        let pairs = weights.shape().out_channels * weights.shape().in_channels;
        assert_eq!(products, 16 * (tiles * pairs) as u64);
    }

    #[test]
    fn identity_kernel() {
        let input = Tensor3::from_fn(Shape3::new(1, 6, 6), |_, r, c| (r * 6 + c) as i16);
        let mut w = Tensor4::<i8>::zeros(Shape4::new(1, 1, 3, 3));
        w[(0, 0, 1, 1)] = 1; // centre tap
        check(&input, &w, Geometry::new(1, 1));
    }

    #[test]
    fn matches_dense_multichannel() {
        let input = Tensor3::from_fn(Shape3::new(3, 10, 10), |c, r, col| {
            ((c * 100 + r * 10 + col) % 23) as i16 - 11
        });
        let weights = Tensor4::from_fn(Shape4::new(4, 3, 3, 3), |m, n, k, kp| {
            (((m * 27 + n * 9 + k * 3 + kp) % 7) as i8) - 3
        });
        check(&input, &weights, Geometry::new(1, 1));
    }

    #[test]
    fn matches_dense_valid_conv_odd_size() {
        // 7x7 valid conv -> 5x5 output: exercises the partial last tile.
        let input = Tensor3::from_fn(Shape3::new(2, 7, 7), |c, r, col| {
            ((c * 49 + r * 7 + col) % 13) as i16 - 6
        });
        let weights = Tensor4::from_fn(Shape4::new(2, 2, 3, 3), |m, n, k, kp| {
            (((m * 18 + n * 9 + k * 3 + kp) % 5) as i8) - 2
        });
        check(&input, &weights, Geometry::new(1, 0));
    }

    #[test]
    fn matches_dense_grouped() {
        let input = Tensor3::from_fn(Shape3::new(4, 6, 6), |c, r, col| {
            ((c * 36 + r * 6 + col) % 9) as i16 - 4
        });
        let weights = Tensor4::from_fn(Shape4::new(4, 2, 3, 3), |m, n, k, kp| {
            (((m * 18 + n * 9 + k * 3 + kp) % 4) as i8) - 2
        });
        check(&input, &weights, Geometry::new(1, 1).with_groups(2));
    }

    #[test]
    fn extreme_values_stay_exact() {
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, r, c| {
            if (r + c) % 2 == 0 {
                i16::MAX
            } else {
                i16::MIN
            }
        });
        let weights = Tensor4::from_fn(Shape4::new(1, 1, 3, 3), |_, _, k, kp| {
            if (k + kp) % 2 == 0 {
                127
            } else {
                -128
            }
        });
        check(&input, &weights, Geometry::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "3x3 kernel with stride 1")]
    fn rejects_5x5() {
        let input = Tensor3::<i16>::zeros(Shape3::new(1, 8, 8));
        let w = Tensor4::<i8>::zeros(Shape4::new(1, 1, 5, 5));
        let _ = conv2d(&input, &w, Geometry::new(1, 2));
    }
}
