//! Frequency-domain convolution (FDConv) — the scheme of the paper's
//! strongest baseline (\[3\], Zeng et al. FPGA'18), implemented from
//! scratch: an iterative radix-2 FFT, 2-D transforms, and
//! overlap-and-add (OaA) tiled convolution.
//!
//! OaA splits the input into tiles of `L - K + 1` output pixels, pads
//! each tile to an `L×L` FFT, multiplies pointwise with the kernel's
//! transform and accumulates across input channels in the frequency
//! domain — the MAC-reduction trick that gives FDConv its `R_mac ≈ 3.3×`
//! roof in Figure 1. [`OaaCost`] counts the real multiplications so the
//! reduction rate can be reproduced rather than assumed.

use crate::dense::Geometry;
use abm_tensor::{Shape3, Tensor3, Tensor4};

/// A complex number (we deliberately avoid external FFT crates — the
/// substrate is part of the reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, other: Self) -> Self {
        Self::new(self.re + other.re, self.im + other.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, other: Self) -> Self {
        Self::new(self.re - other.re, self.im - other.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, other: Self) -> Self {
        Self::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }
}

/// In-place iterative radix-2 FFT (`inverse` selects the inverse
/// transform, including the `1/L` normalization).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Danielson–Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for x in data.iter_mut() {
            x.re *= scale;
            x.im *= scale;
        }
    }
}

/// In-place 2-D FFT of an `l×l` row-major buffer.
pub fn fft2(data: &mut [Complex], l: usize, inverse: bool) {
    assert_eq!(data.len(), l * l, "buffer must be l*l");
    // Rows.
    for r in 0..l {
        fft(&mut data[r * l..(r + 1) * l], inverse);
    }
    // Columns (via transpose-free strided gather).
    let mut col = vec![Complex::default(); l];
    for c in 0..l {
        for r in 0..l {
            col[r] = data[r * l + c];
        }
        fft(&mut col, inverse);
        for r in 0..l {
            data[r * l + c] = col[r];
        }
    }
}

/// Frequency-domain convolution by overlap-and-add with FFT size
/// `l × l`, matching the integer engines' semantics (cross-correlation
/// with stride and zero padding) up to floating-point error.
///
/// # Panics
///
/// Panics if `l` is not a power of two or is smaller than the kernel, or
/// on inconsistent channel counts.
pub fn conv2d_oaa(
    input: &Tensor3<i16>,
    weights: &Tensor4<i8>,
    geom: Geometry,
    l: usize,
) -> Tensor3<f64> {
    let w = weights.shape();
    assert!(l.is_power_of_two(), "FFT size must be a power of two");
    assert!(
        l >= w.kernel_rows && l >= w.kernel_cols,
        "FFT size {l} smaller than kernel {}x{}",
        w.kernel_rows,
        w.kernel_cols
    );
    assert_eq!(input.shape().channels, w.in_channels * geom.groups);
    let out_shape = Shape3::new(
        w.out_channels,
        abm_tensor::shape::conv_out_dim(input.shape().rows, w.kernel_rows, geom.stride, geom.pad),
        abm_tensor::shape::conv_out_dim(input.shape().cols, w.kernel_cols, geom.stride, geom.pad),
    );

    // Materialize the zero-padded input once; OaA then tiles it.
    let padded_rows = input.shape().rows + 2 * geom.pad;
    let padded_cols = input.shape().cols + 2 * geom.pad;
    let in_ch = input.shape().channels;
    let padded = Tensor3::from_fn(Shape3::new(in_ch, padded_rows, padded_cols), |c, r, col| {
        if r < geom.pad || col < geom.pad {
            0.0
        } else {
            input
                .get(c, r - geom.pad, col - geom.pad)
                .map(|&v| v as f64)
                .unwrap_or(0.0)
        }
    });

    // Stride-1 full result rows/cols (subsampled at the end).
    let full_rows = padded_rows + 1 - w.kernel_rows;
    let full_cols = padded_cols + 1 - w.kernel_cols;
    let tile = l + 1 - w.kernel_rows.max(w.kernel_cols); // valid outputs per tile

    // Kernel transforms: FFT of the *flipped* kernel implements
    // cross-correlation via convolution.
    let mut kernel_fft = Vec::with_capacity(w.out_channels * w.in_channels);
    for m in 0..w.out_channels {
        for n in 0..w.in_channels {
            let mut buf = vec![Complex::default(); l * l];
            for k in 0..w.kernel_rows {
                for kp in 0..w.kernel_cols {
                    // Flip so that circular convolution == correlation.
                    buf[k * l + kp] = Complex::new(
                        weights[(m, n, w.kernel_rows - 1 - k, w.kernel_cols - 1 - kp)] as f64,
                        0.0,
                    );
                }
            }
            fft2(&mut buf, l, false);
            kernel_fft.push(buf);
        }
    }

    let m_per_group = w.out_channels / geom.groups;
    let mut full = Tensor3::<f64>::zeros(Shape3::new(w.out_channels, full_rows, full_cols));

    let tiles_r = full_rows.div_ceil(tile);
    let tiles_c = full_cols.div_ceil(tile);
    for tr in 0..tiles_r {
        for tc in 0..tiles_c {
            let r0 = tr * tile;
            let c0 = tc * tile;
            // FFT of each input-channel tile (input region r0..r0+l).
            let mut in_fft = Vec::with_capacity(in_ch);
            for ch in 0..in_ch {
                let mut buf = vec![Complex::default(); l * l];
                for dr in 0..l {
                    for dc in 0..l {
                        let (r, c) = (r0 + dr, c0 + dc);
                        if r < padded_rows && c < padded_cols {
                            buf[dr * l + dc] = Complex::new(padded[(ch, r, c)], 0.0);
                        }
                    }
                }
                fft2(&mut buf, l, false);
                in_fft.push(buf);
            }
            for m in 0..w.out_channels {
                let group = m / m_per_group.max(1);
                let in_base = group * w.in_channels;
                let mut acc = vec![Complex::default(); l * l];
                for n in 0..w.in_channels {
                    let kf = &kernel_fft[m * w.in_channels + n];
                    let xf = &in_fft[in_base + n];
                    for i in 0..l * l {
                        acc[i] = acc[i] + xf[i] * kf[i];
                    }
                }
                fft2(&mut acc, l, true);
                // Valid outputs of this tile start at kernel-1 within the
                // circular result.
                let kr = w.kernel_rows - 1;
                let kc = w.kernel_cols - 1;
                for dr in 0..tile.min(full_rows - r0) {
                    for dc in 0..tile.min(full_cols - c0) {
                        full[(m, r0 + dr, c0 + dc)] += acc[(kr + dr) * l + (kc + dc)].re;
                    }
                }
            }
        }
    }

    // Stride subsampling.
    Tensor3::from_fn(out_shape, |m, r, c| {
        full[(m, r * geom.stride, c * geom.stride)]
    })
}

/// Real-multiplication cost model of OaA FDConv for one layer — used to
/// reproduce the `R_mac` reduction rates of Figure 1 and Table 1's
/// FDConv column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OaaCost {
    /// FFT size used.
    pub fft_size: usize,
    /// Real multiplications for the input-tile FFTs.
    pub input_fft_mults: u64,
    /// Real multiplications for the frequency-domain Hadamard products.
    pub hadamard_mults: u64,
    /// Real multiplications for the inverse FFTs.
    pub inverse_fft_mults: u64,
    /// Real multiplications the dense spatial convolution would need.
    pub dense_mults: u64,
}

impl OaaCost {
    /// Estimates the cost of an `M×N×K×K` convolution over an
    /// `R'×C'` output with FFT size `l`.
    ///
    /// A radix-2 `l`-point complex FFT needs `(l/2)·log2(l)` complex
    /// multiplications, 4 real each; a 2-D transform runs `2l` of them.
    /// Kernel transforms are precomputed offline (as in \[3\]) and not
    /// counted.
    pub fn estimate(
        m: usize,
        n: usize,
        k: usize,
        out_rows: usize,
        out_cols: usize,
        l: usize,
    ) -> Self {
        let tile = l + 1 - k;
        let tiles = (out_rows.div_ceil(tile) * out_cols.div_ceil(tile)) as u64;
        let fft1d_cmul = (l as u64 / 2) * (l.trailing_zeros() as u64);
        let fft2d_rmul = 2 * l as u64 * fft1d_cmul * 4;
        let input_fft_mults = tiles * n as u64 * fft2d_rmul;
        // A real-signal Hadamard product costs ~4 real mults per bin but
        // conjugate symmetry halves the useful bins.
        let hadamard_mults = tiles * (m * n) as u64 * (l * l) as u64 * 2;
        let inverse_fft_mults = tiles * m as u64 * fft2d_rmul;
        let dense_mults = (m * n * k * k * out_rows * out_cols) as u64;
        Self {
            fft_size: l,
            input_fft_mults,
            hadamard_mults,
            inverse_fft_mults,
            dense_mults,
        }
    }

    /// Total FDConv real multiplications.
    pub fn total_mults(&self) -> u64 {
        self.input_fft_mults + self.hadamard_mults + self.inverse_fft_mults
    }

    /// The MAC reduction rate `R_mac` relative to dense convolution.
    pub fn reduction(&self) -> f64 {
        self.dense_mults as f64 / self.total_mults() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use abm_tensor::Shape4;

    #[test]
    fn fft_roundtrip() {
        let mut data: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, -(i as f64) / 3.0))
            .collect();
        let orig = data.clone();
        fft(&mut data, false);
        fft(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft(&mut data, false);
        for x in &data {
            assert!((x.re - 1.0).abs() < 1e-12 && x.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut data = vec![Complex::default(); 6];
        fft(&mut data, false);
    }

    #[test]
    fn fft2_roundtrip() {
        let mut data: Vec<Complex> = (0..64).map(|i| Complex::new((i % 7) as f64, 0.0)).collect();
        let orig = data.clone();
        fft2(&mut data, 8, false);
        fft2(&mut data, 8, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-9);
        }
    }

    fn check_against_dense(input: &Tensor3<i16>, weights: &Tensor4<i8>, geom: Geometry, l: usize) {
        let reference = dense::conv2d(input, weights, geom);
        let fd = conv2d_oaa(input, weights, geom, l);
        assert_eq!(reference.shape(), fd.shape());
        for (a, b) in reference.as_slice().iter().zip(fd.as_slice()) {
            assert!((*a as f64 - b).abs() < 1e-6, "dense {a} vs fdconv {b}");
        }
    }

    #[test]
    fn oaa_matches_dense_same_conv() {
        let input = Tensor3::from_fn(Shape3::new(2, 10, 10), |c, r, col| {
            ((c * 100 + r * 10 + col) % 19) as i16 - 9
        });
        let weights = Tensor4::from_fn(Shape4::new(3, 2, 3, 3), |m, n, k, kp| {
            (((m * 18 + n * 9 + k * 3 + kp) % 7) as i8) - 3
        });
        check_against_dense(&input, &weights, Geometry::new(1, 1), 8);
    }

    #[test]
    fn oaa_matches_dense_strided_5x5() {
        let input = Tensor3::from_fn(Shape3::new(1, 11, 11), |_, r, col| {
            ((r * 11 + col) % 13) as i16 - 6
        });
        let weights = Tensor4::from_fn(Shape4::new(2, 1, 5, 5), |m, _, k, kp| {
            (((m * 25 + k * 5 + kp) % 5) as i8) - 2
        });
        check_against_dense(&input, &weights, Geometry::new(2, 2), 8);
    }

    #[test]
    fn oaa_matches_dense_multiple_tiles() {
        // Output larger than one tile forces real overlap-and-add.
        let input = Tensor3::from_fn(Shape3::new(1, 20, 20), |_, r, col| {
            ((r * 20 + col) % 29) as i16 - 14
        });
        let weights = Tensor4::from_fn(Shape4::new(1, 1, 3, 3), |_, _, k, kp| {
            ((k * 3 + kp) as i8) - 4
        });
        check_against_dense(&input, &weights, Geometry::new(1, 1), 8);
    }

    #[test]
    fn grouped_oaa_matches_dense() {
        let input = Tensor3::from_fn(Shape3::new(4, 8, 8), |c, r, col| {
            ((c * 64 + r * 8 + col) % 11) as i16 - 5
        });
        let weights = Tensor4::from_fn(Shape4::new(2, 2, 3, 3), |m, n, k, kp| {
            (((m * 18 + n * 9 + k * 3 + kp) % 4) as i8) - 2
        });
        check_against_dense(&input, &weights, Geometry::new(1, 1).with_groups(2), 8);
    }

    #[test]
    fn cost_model_reduction_for_vgg_layers() {
        // A deep VGG16 layer: 512x512x3x3 over 28x28 with L=16 tiles
        // (the operating point used by the op model).
        let cost = OaaCost::estimate(512, 512, 3, 28, 28, 16);
        let r = cost.reduction();
        // [3] reports 3.3x for VGG16; FFT overheads amortize over the
        // large M*N so the Hadamard term dominates: expect 2.5-4.5x.
        assert!((2.5..=4.5).contains(&r), "reduction {r}");
    }

    #[test]
    fn cost_model_small_mn_is_fft_dominated() {
        let big = OaaCost::estimate(512, 512, 3, 28, 28, 16);
        let small = OaaCost::estimate(4, 4, 3, 28, 28, 16);
        assert!(small.reduction() < big.reduction());
    }
}
