//! Frequency-domain convolution (FDConv) — the scheme of the paper's
//! strongest baseline (\[3\], Zeng et al. FPGA'18), implemented from
//! scratch: an iterative radix-2 FFT, 2-D transforms, and
//! overlap-and-add (OaA) tiled convolution.
//!
//! OaA splits the input into tiles of `L - K + 1` output pixels, pads
//! each tile to an `L×L` FFT, multiplies pointwise with the kernel's
//! transform and accumulates across input channels in the frequency
//! domain — the MAC-reduction trick that gives FDConv its `R_mac ≈ 3.3×`
//! roof in Figure 1. [`conv2d_oaa`] counts the real multiplications it
//! executes, and [`OaaCost::estimate`] states the same count in closed
//! form, so the reduction rate is reproduced rather than assumed.

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

    /// The complex conjugate (a sign flip, no multiplication).
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
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

/// Twiddle factors of an `n`-point radix-2 transform, computed once per
/// transform size: entry `k` is `e^{∓2πik/n}` for `k < n/2`, and a
/// butterfly stage of length `len` reads every `(n/len)`-th entry, so a
/// transform multiplies only in its butterflies.
#[derive(Debug, Clone)]
pub struct Twiddles {
    n: usize,
    w: Vec<Complex>,
}

impl Twiddles {
    /// The table of the forward (`inverse == false`) or inverse `n`-point
    /// transform.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize, inverse: bool) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let sign = if inverse { 1.0 } else { -1.0 };
        let w = (0..n / 2)
            .map(|k| {
                let ang = sign * std::f64::consts::TAU * k as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        Self { n, w }
    }
}

/// In-place iterative radix-2 FFT in the direction of `tw`; returns the
/// real multiplications it executed: 4 per butterfly, one complex
/// twiddle product each (trivial twiddles included), so
/// `4·(n/2)·log2(n)`. The inverse is unnormalized (it yields `n·x`):
/// [`conv2d_oaa`] folds the normalization into its kernel transforms.
///
/// # Panics
///
/// Panics if the length differs from the table's.
pub fn fft(data: &mut [Complex], tw: &Twiddles) -> u64 {
    let n = data.len();
    assert_eq!(n, tw.n, "FFT length {n} does not match its twiddle table");
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
    let mut mults = 0;
    let mut len = 2;
    while len <= n {
        let step = n / len;
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            for (k, (u, v)) in lo.iter_mut().zip(hi).enumerate() {
                let t = *v * tw.w[k * step];
                mults += 4;
                (*u, *v) = (*u + t, *u - t);
            }
        }
        len <<= 1;
    }
    mults
}

/// In-place 2-D FFT of an `l×l` row-major buffer (`tw` is an `l`-point
/// table): `2l` one-dimensional transforms. Returns the real
/// multiplications executed.
pub fn fft2(data: &mut [Complex], l: usize, tw: &Twiddles) -> u64 {
    assert_eq!(data.len(), l * l, "buffer must be l*l");
    let mut mults = 0;
    for row in data.chunks_exact_mut(l) {
        mults += fft(row, tw);
    }
    // Columns (via transpose-free strided gather).
    let mut col = vec![Complex::default(); l];
    for c in 0..l {
        for r in 0..l {
            col[r] = data[r * l + c];
        }
        mults += fft(&mut col, tw);
        for r in 0..l {
            data[r * l + c] = col[r];
        }
    }
    mults
}

/// Frequency-domain convolution by overlap-and-add with FFT size
/// `l × l`, matching the integer engines' semantics (cross-correlation
/// with stride and zero padding) up to floating-point error, and the
/// real multiplications it executed, counted as [`OaaCost::estimate`]
/// states them.
///
/// OaA computes the stride-1 result and subsamples it. Each tile's
/// Hadamard product runs over the `l·(l/2+1)` bins of a real signal's
/// spectrum that are not mirror images, and fills the others by
/// conjugation.
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
) -> (Tensor3<f64>, OaaCost) {
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
    let forward = Twiddles::new(l, false);
    let inverse = Twiddles::new(l, true);

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

    // Kernel transforms, precomputed offline as in [3] and not counted:
    // the FFT of the *flipped* kernel implements cross-correlation via
    // convolution, and the inverse transforms' 1/l² normalization is
    // folded in (a power of two, so exactly).
    let norm = 1.0 / (l * l) as f64;
    let mut kernel_fft = Vec::with_capacity(w.out_channels * w.in_channels);
    for m in 0..w.out_channels {
        for n in 0..w.in_channels {
            let mut buf = vec![Complex::default(); l * l];
            for k in 0..w.kernel_rows {
                for kp in 0..w.kernel_cols {
                    let tap = weights[(m, n, w.kernel_rows - 1 - k, w.kernel_cols - 1 - kp)];
                    buf[k * l + kp] = Complex::new(tap as f64 * norm, 0.0);
                }
            }
            fft2(&mut buf, l, &forward);
            kernel_fft.push(buf);
        }
    }

    let m_per_group = w.out_channels / geom.groups;
    let half = l / 2 + 1; // non-redundant columns of a real spectrum
    let mut cost = OaaCost {
        fft_size: l,
        input_fft_mults: 0,
        hadamard_mults: 0,
        inverse_fft_mults: 0,
    };
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
                cost.input_fft_mults += fft2(&mut buf, l, &forward);
                in_fft.push(buf);
            }
            for m in 0..w.out_channels {
                let group = m / m_per_group.max(1);
                let in_base = group * w.in_channels;
                let mut acc = vec![Complex::default(); l * l];
                for n in 0..w.in_channels {
                    let kf = &kernel_fft[m * w.in_channels + n];
                    let xf = &in_fft[in_base + n];
                    for u in 0..l {
                        for v in 0..half {
                            let i = u * l + v;
                            acc[i] = acc[i] + xf[i] * kf[i];
                            cost.hadamard_mults += 4;
                        }
                    }
                }
                // Both factors are spectra of real tiles, so the sum is
                // conjugate-symmetric: X[u][v] = conj(X[-u][-v]).
                for u in 0..l {
                    for v in half..l {
                        acc[u * l + v] = acc[(l - u) % l * l + (l - v)].conj();
                    }
                }
                cost.inverse_fft_mults += fft2(&mut acc, l, &inverse);
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
    let out = Tensor3::from_fn(out_shape, |m, r, c| {
        full[(m, r * geom.stride, c * geom.stride)]
    });
    (out, cost)
}

/// Real-multiplication count of OaA FDConv for one layer: what
/// [`conv2d_oaa`] executes, and the closed form behind Table 1's FDConv
/// column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OaaCost {
    /// FFT size used.
    pub fft_size: usize,
    /// Real multiplications for the input-tile FFTs.
    pub input_fft_mults: u64,
    /// Real multiplications for the frequency-domain Hadamard products.
    pub hadamard_mults: u64,
    /// Real multiplications for the inverse FFTs.
    pub inverse_fft_mults: u64,
}

impl OaaCost {
    /// The cost of an `M×N×K×K` convolution whose stride-1 result is
    /// `rows×cols` (what OaA computes before a strided layer subsamples
    /// it) with FFT size `l`, under the conventions [`conv2d_oaa`] runs:
    ///
    /// * a radix-2 `l`-point FFT executes `(l/2)·log2(l)` butterflies of
    ///   one complex multiplication (4 real) each, every twiddle read
    ///   from a table and trivial ones included; a 2-D transform runs
    ///   `2l` of them;
    /// * the Hadamard product covers the `l·(l/2+1)` non-redundant bins
    ///   of a real signal's spectrum at 4 real multiplications each; the
    ///   mirror bins are filled by conjugation;
    /// * kernel transforms are precomputed offline (as in \[3\]), with
    ///   the inverse's `1/l²` normalization folded in, and not counted.
    pub fn estimate(m: usize, n: usize, k: usize, rows: usize, cols: usize, l: usize) -> Self {
        let tile = l + 1 - k;
        let tiles = (rows.div_ceil(tile) * cols.div_ceil(tile)) as u64;
        let fft1d_cmul = (l as u64 / 2) * (l.trailing_zeros() as u64);
        let fft2d_rmul = 2 * l as u64 * fft1d_cmul * 4;
        let bins = (l * (l / 2 + 1)) as u64;
        Self {
            fft_size: l,
            input_fft_mults: tiles * n as u64 * fft2d_rmul,
            hadamard_mults: tiles * (m * n) as u64 * bins * 4,
            inverse_fft_mults: tiles * m as u64 * fft2d_rmul,
        }
    }

    /// Total FDConv real multiplications.
    pub fn total_mults(&self) -> u64 {
        self.input_fft_mults + self.hadamard_mults + self.inverse_fft_mults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use abm_tensor::Shape4;

    /// Runs `fft` forward then inverse; the unnormalized inverse returns
    /// `n·x`.
    #[test]
    fn fft_roundtrip() {
        let mut data: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, -(i as f64) / 3.0))
            .collect();
        let orig = data.clone();
        let forward = fft(&mut data, &Twiddles::new(16, false));
        let inverse = fft(&mut data, &Twiddles::new(16, true));
        assert_eq!((forward, inverse), (4 * 8 * 4, 4 * 8 * 4));
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re / 16.0 - b.re).abs() < 1e-9 && (a.im / 16.0 - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft(&mut data, &Twiddles::new(8, false));
        for x in &data {
            assert!((x.re - 1.0).abs() < 1e-12 && x.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let _ = Twiddles::new(6, false);
    }

    #[test]
    fn fft2_roundtrip() {
        let mut data: Vec<Complex> = (0..64).map(|i| Complex::new((i % 7) as f64, 0.0)).collect();
        let orig = data.clone();
        let mults = fft2(&mut data, 8, &Twiddles::new(8, false));
        assert_eq!(mults, 2 * 8 * (4 * 3 * 4));
        fft2(&mut data, 8, &Twiddles::new(8, true));
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re / 64.0 - b.re).abs() < 1e-9);
        }
    }

    /// The executor against the dense reference, and its executed count
    /// against the closed form (per group, times the groups).
    fn check_against_dense(input: &Tensor3<i16>, weights: &Tensor4<i8>, geom: Geometry, l: usize) {
        let reference = dense::conv2d(input, weights, geom);
        let (fd, cost) = conv2d_oaa(input, weights, geom, l);
        assert_eq!(reference.shape(), fd.shape());
        for (a, b) in reference.as_slice().iter().zip(fd.as_slice()) {
            assert!((*a as f64 - b).abs() < 1e-6, "dense {a} vs fdconv {b}");
        }
        let w = weights.shape();
        let full = |d: usize| d + 2 * geom.pad + 1 - w.kernel_rows;
        let (rows, cols) = (full(input.shape().rows), full(input.shape().cols));
        let per_group = OaaCost::estimate(
            w.out_channels / geom.groups,
            w.in_channels,
            w.kernel_rows,
            rows,
            cols,
            l,
        );
        assert_eq!(
            cost.total_mults(),
            per_group.total_mults() * geom.groups as u64
        );
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

    /// Dense multiplications over FDConv's for `m×n` 3×3 kernels over a
    /// 28×28 output at `L = 16`.
    fn reduction_28x28(m: usize, n: usize) -> f64 {
        let dense = (m * n * 9 * 28 * 28) as f64;
        dense / OaaCost::estimate(m, n, 3, 28, 28, 16).total_mults() as f64
    }

    #[test]
    fn cost_model_reduction_for_vgg_layers() {
        // A deep VGG16 layer: 512x512x3x3 over 28x28 with L=16 tiles
        // (the operating point used by the op model).
        let r = reduction_28x28(512, 512);
        // [3] reports 3.3x for VGG16; FFT overheads amortize over the
        // large M*N so the Hadamard term dominates: expect 2.5-4.5x.
        assert!((2.5..=4.5).contains(&r), "reduction {r}");
    }

    #[test]
    fn cost_model_small_mn_is_fft_dominated() {
        assert!(reduction_28x28(4, 4) < reduction_28x28(512, 512));
    }
}
