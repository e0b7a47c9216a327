//! Host-side layers — pooling, ReLU, LRN and softmax.
//!
//! The paper runs these on the CPU ("FPGA executes all convolution and FC
//! layers, while the remaining layers ... are executed by the host
//! program"), overlapped with accelerator execution. They operate on the
//! quantized feature maps the accelerator writes back.

use abm_model::{LrnSpec, PoolKind, PoolSpec};
use abm_tensor::{QFormat, Shape3, Tensor3};
use std::ops::Range;

/// Rectified linear unit on a quantized feature map.
pub fn relu(input: &Tensor3<i16>) -> Tensor3<i16> {
    input.map(|&v| v.max(0))
}

/// Pooling (max or average) with the given spec; no padding, matching
/// both evaluated CNNs.
///
/// Average pooling rounds to nearest (ties away from zero).
pub fn pool(input: &Tensor3<i16>, spec: PoolSpec) -> Tensor3<i16> {
    let (shape, out_shape) = (input.shape(), spec.output_shape(input.shape()));
    let (plane, out_plane) = (shape.rows * shape.cols, out_shape.rows * out_shape.cols);
    let (mut out, mut columns) = (vec![0i16; out_shape.len()], Vec::new());
    for c in 0..shape.channels {
        let src = &input.as_slice()[c * plane..][..plane];
        let dst = &mut out[c * out_plane..][..out_plane];
        pool_plane(src, shape.cols, spec, dst, out_shape.cols, &mut columns);
    }
    Tensor3::from_vec(out_shape, out)
}

/// Pools one `cols`-wide channel plane into `dst`, `out_cols` wide —
/// the core under [`pool`] and the inference epilogue. Without padding
/// every window lies inside the plane, so there is nothing to clamp (and
/// a plane smaller than the window pools to nothing). `columns` is
/// scratch that keeps its capacity between calls.
pub(crate) fn pool_plane(
    src: &[i16],
    cols: usize,
    spec: PoolSpec,
    dst: &mut [i16],
    out_cols: usize,
    columns: &mut Vec<i16>,
) {
    let (w, s) = (spec.window, spec.stride);
    for (orow, out) in dst.chunks_exact_mut(out_cols.max(1)).enumerate() {
        let window = &src[orow * s * cols..][..w * cols];
        match spec.kind {
            // Column maxima of the window's rows first — a plain
            // element-wise max the compiler vectorises — then one
            // strided pass over them.
            PoolKind::Max => {
                columns.clear();
                columns.extend_from_slice(&window[..cols]);
                for row in window.chunks_exact(cols).skip(1) {
                    for (best, &v) in columns.iter_mut().zip(row) {
                        *best = (*best).max(v);
                    }
                }
                for (o, win) in out.iter_mut().zip(columns.windows(w).step_by(s)) {
                    *o = win.iter().fold(i16::MIN, |best, &v| best.max(v));
                }
            }
            PoolKind::Avg => {
                let count = (w * w) as i64;
                for (ocol, o) in out.iter_mut().enumerate() {
                    let rows = window.chunks_exact(cols);
                    let sum: i64 = rows
                        .flat_map(|row| &row[ocol * s..ocol * s + w])
                        .map(|&v| v as i64)
                        .sum();
                    // Round half away from zero (truncating division
                    // after a sign-matched half-step).
                    *o = ((2 * sum + sum.signum() * count) / (2 * count)) as i16;
                }
            }
        }
    }
}

/// Feature widths whose channel-window energy stays below this many
/// distinct values get a denominator table (8-bit features: at most
/// `5 · 128² + 1` entries); wider ones call `powf` per element.
const LRN_TABLE_LIMIT: i64 = 1 << 18;

/// Local response normalization (AlexNet). Executes in floating point on
/// the dequantized features — exactly what a host CPU does — and
/// requantizes into the same format (round to nearest, ties away,
/// saturating):
/// `x / (k + α/size · Σ_window x²)^β`.
///
/// The window's sum of squares is kept as an **integer** energy of the
/// raw features, slid across channel planes by one add and one subtract
/// per pixel, and the denominator is computed once per distinct energy
/// within the call. That is bit-identical to summing dequantized squares
/// in `f64` per element: each square is `raw² · 2^(−2·frac)`, the few of
/// them sum exactly below `2^53`, so `powf` sees the same argument
/// either way (for every `frac ≥ −112`, below which dequantizing to
/// `f32` overflows).
pub fn lrn(input: &Tensor3<i16>, fmt: QFormat, spec: &LrnSpec) -> Tensor3<i16> {
    let (shape, mut out) = (input.shape(), Vec::with_capacity(input.len()));
    let mut scratch = LrnScratch::default();
    let emit = |_, plane: &[i16]| out.extend_from_slice(plane);
    let channels = 0..shape.channels;
    lrn_planes(
        input.as_slice(),
        shape,
        fmt,
        spec,
        channels,
        &mut scratch,
        emit,
    );
    Tensor3::from_vec(shape, out)
}

/// What [`lrn_planes`] keeps between calls: the sliding window energy,
/// the denominator table and the plane being normalized.
#[derive(Debug, Clone, Default)]
pub(crate) struct LrnScratch {
    pub energy: Vec<i64>,
    pub table: Vec<f64>,
    pub out: Vec<i16>,
}

/// The core under [`lrn`] and the inference path: normalizes the
/// `channels` of the channel-major feature map `input` of shape `s` and
/// hands each finished channel plane to `emit`, in channel order. The
/// energy window starts whole at the run's first channel, so a run
/// computes the bits the whole map's pass computes for it, and runs on
/// their own scratch may go in parallel.
pub(crate) fn lrn_planes(
    input: &[i16],
    s: Shape3,
    fmt: QFormat,
    spec: &LrnSpec,
    channels: Range<usize>,
    scratch: &mut LrnScratch,
    mut emit: impl FnMut(usize, &[i16]),
) {
    let plane = s.rows * s.cols;
    if channels.is_empty() || plane == 0 {
        return;
    }
    let half = spec.size / 2;
    let lsb = fmt.lsb();
    let lsb_sq = lsb * lsb;
    let scale = 2f64.powi(fmt.frac() as i32);
    let (min_raw, max_raw) = (fmt.min_raw() as i64, fmt.max_raw() as i64);
    let (k, beta) = (spec.k as f64, spec.beta as f64);
    let alpha_per_size = spec.alpha as f64 / spec.size as f64;
    let denom_of = |energy: i64| (k + alpha_per_size * (energy as f64 * lsb_sq)).powf(beta);

    let input = &input[..s.len()];
    let planes = |c: usize| &input[c * plane..(c + 1) * plane];
    let square = |x: i16| x as i64 * x as i64;
    let LrnScratch { energy, table, out } = scratch;
    // One slot per energy features of this width can reach (none for
    // the wide ones), whatever this image holds: the table's size does
    // not depend on the data. NaN marks an unfilled slot (a NaN
    // denominator is just recomputed).
    let reach = (2 * half as i64 + 1).saturating_mul(1 << (2 * (fmt.bits().min(16) - 1)));
    table.clear();
    if reach < LRN_TABLE_LIMIT {
        table.resize(reach as usize + 1, f64::NAN);
    }

    // The window slides one channel at a time: a plane enters (+1) at
    // its upper end, one leaves (−1) at its lower end.
    let slide = |energy: &mut [i64], plane: &[i16], sign: i64| {
        for (e, &x) in energy.iter_mut().zip(plane) {
            *e += sign * square(x);
        }
    };
    let first = channels.start;
    energy.clear();
    energy.resize(plane, 0);
    for entering in first.saturating_sub(half)..=(first + half).min(s.channels - 1) {
        slide(energy, planes(entering), 1);
    }
    for c in channels {
        if c > first {
            if c + half < s.channels {
                slide(energy, planes(c + half), 1);
            }
            if c > half {
                slide(energy, planes(c - half - 1), -1);
            }
        }
        out.clear();
        out.extend(planes(c).iter().zip(energy.iter()).map(|(&x, &e)| {
            // Past the table: a wide format, or a raw outside its own.
            let denom = match table.get_mut(e as usize) {
                Some(slot) => {
                    if slot.is_nan() {
                        *slot = denom_of(e);
                    }
                    *slot
                }
                None => denom_of(e),
            };
            let scaled = ((x as f64 * lsb / denom) as f32) as f64 * scale;
            // Ties away from zero; the saturating cast truncates toward
            // zero, which is floor above zero and ceil below it.
            let rounded = if scaled >= 0.0 {
                scaled + 0.5
            } else {
                scaled - 0.5
            };
            (rounded as i64).clamp(min_raw, max_raw) as i16
        }));
        emit(c, out);
    }
}

/// Numerically stable softmax over dequantized logits.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![-3i16, 0, 5, -1]);
        assert_eq!(relu(&t).as_slice(), &[0, 0, 5, 0]);
    }

    #[test]
    fn max_pool_2x2() {
        let t = Tensor3::from_vec(
            Shape3::new(1, 4, 4),
            vec![1i16, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
        );
        let p = pool(&t, PoolSpec::max(2, 2));
        assert_eq!(p.shape(), Shape3::new(1, 2, 2));
        assert_eq!(p.as_slice(), &[6, 8, 14, 16]);
    }

    #[test]
    fn overlapped_pool_3x3_stride2() {
        // AlexNet style on 5x5: output 2x2.
        let t = Tensor3::from_fn(Shape3::new(1, 5, 5), |_, r, c| (r * 5 + c) as i16);
        let p = pool(&t, PoolSpec::max(3, 2));
        assert_eq!(p.shape(), Shape3::new(1, 2, 2));
        assert_eq!(p.as_slice(), &[12, 14, 22, 24]);
    }

    #[test]
    fn avg_pool_rounds() {
        let t = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![1i16, 2, 3, 5]);
        let spec = PoolSpec {
            kind: PoolKind::Avg,
            window: 2,
            stride: 2,
        };
        let p = pool(&t, spec);
        // mean 2.75 -> 3.
        assert_eq!(p.as_slice(), &[3]);
        let neg = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![-1i16, -2, -3, -5]);
        assert_eq!(pool(&neg, spec).as_slice(), &[-3]);
    }

    /// The per-element formula `lrn` used to evaluate directly: the
    /// oracle its integer-energy form must match bit for bit.
    fn lrn_reference(input: &Tensor3<i16>, fmt: QFormat, spec: &LrnSpec) -> Tensor3<i16> {
        let s = input.shape();
        let half = spec.size / 2;
        Tensor3::from_fn(s, |c, r, col| {
            let lo = c.saturating_sub(half);
            let hi = (c + half).min(s.channels - 1);
            let mut sumsq = 0f64;
            for ch in lo..=hi {
                let v = fmt.dequantize(input[(ch, r, col)] as i32) as f64;
                sumsq += v * v;
            }
            let x = fmt.dequantize(input[(c, r, col)] as i32) as f64;
            let denom = (spec.k as f64 + spec.alpha as f64 / spec.size as f64 * sumsq)
                .powf(spec.beta as f64);
            fmt.quantize_f32((x / denom) as f32) as i16
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bit-equality with the oracle over both feature widths, the
        /// fractional lengths calibration produces, windows wider than
        /// the channel count, and full-range raws (`i16::MIN` included;
        /// `narrow` folds them into 8 bits so the denominator table is
        /// exercised as well as the per-element path).
        #[test]
        fn lrn_is_bit_identical_to_the_per_element_formula(
            bits in prop_oneof![Just(8u8), Just(16u8)],
            frac in -8i8..13,
            size in prop_oneof![
                Just(1usize),
                Just(3usize),
                Just(5usize)
            ],
            dims in (1usize..10, 1usize..4, 1usize..4),
            raws in prop::collection::vec(any::<i16>(), 81..82),
            narrow in any::<bool>(),
            strong in any::<bool>(),
        ) {
            let (channels, rows, cols) = dims;
            let shape = Shape3::new(channels, rows, cols);
            let mut data: Vec<i16> = raws[..shape.len()].to_vec();
            data[0] = i16::MIN;
            if narrow {
                data.iter_mut().for_each(|x| *x >>= 8);
            }
            let input = Tensor3::from_vec(shape, data);
            let fmt = QFormat::new(bits, frac);
            // AlexNet's constants, or ones under which the window energy
            // dominates the denominator.
            let spec = if strong {
                LrnSpec { size, alpha: 0.5, beta: 0.5, k: 1.0 }
            } else {
                LrnSpec { size, ..LrnSpec::alexnet() }
            };
            prop_assert_eq!(
                lrn(&input, fmt, &spec),
                lrn_reference(&input, fmt, &spec),
                "bits {} frac {} size {} narrow {} strong {}", bits, frac, size, narrow, strong
            );
        }
    }

    #[test]
    fn lrn_preserves_sign_and_reduces_magnitude() {
        let fmt = QFormat::new(8, 4);
        let t = Tensor3::from_vec(Shape3::new(5, 1, 1), vec![16i16, -32, 48, 64, 80]);
        let out = lrn(&t, fmt, &LrnSpec::alexnet());
        for (o, i) in out.as_slice().iter().zip(t.as_slice()) {
            assert_eq!(o.signum(), i.signum());
            assert!(o.abs() <= i.abs());
        }
    }

    #[test]
    fn lrn_matches_the_published_formula() {
        // Single pixel, 3 channels, size-5 window: verify against the
        // formula x / (k + alpha/size * sum(x^2))^beta computed in f64.
        let fmt = QFormat::new(8, 4);
        let raws = [32i16, -48, 16];
        let t = Tensor3::from_vec(Shape3::new(3, 1, 1), raws.to_vec());
        let spec = LrnSpec::alexnet();
        let out = lrn(&t, fmt, &spec);
        let vals: Vec<f64> = raws
            .iter()
            .map(|&r| fmt.dequantize(r as i32) as f64)
            .collect();
        let sumsq: f64 = vals.iter().map(|v| v * v).sum();
        for (c, &v) in vals.iter().enumerate() {
            // All channels fall inside every window here (half = 2).
            let denom = (spec.k as f64 + spec.alpha as f64 / spec.size as f64 * sumsq)
                .powf(spec.beta as f64);
            let expect = fmt.quantize_f32((v / denom) as f32) as i16;
            assert_eq!(out[(c, 0, 0)], expect, "channel {c}");
        }
    }

    #[test]
    fn lrn_window_is_channel_local() {
        // Channels far apart must not normalize each other.
        let fmt = QFormat::new(8, 0);
        let mut data = vec![0i16; 16];
        data[0] = 100;
        data[15] = 100;
        let t = Tensor3::from_vec(Shape3::new(16, 1, 1), data);
        let out = lrn(&t, fmt, &LrnSpec::alexnet());
        // Channel 0's window (0..=2) excludes channel 15 and vice versa,
        // so both see the same local energy and normalize identically.
        assert_eq!(out[(0, 0, 0)], out[(15, 0, 0)]);
        // A neighbour inside the window is suppressed differently from a
        // distant channel (here both are zero inputs, stay zero).
        assert_eq!(out[(8, 0, 0)], 0);
    }

    #[test]
    fn softmax_is_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(softmax(&[]).is_empty());
        // Stability with huge logits.
        let q = softmax(&[1000.0, 1001.0]);
        assert!(q.iter().all(|x| x.is_finite()));
    }
}
