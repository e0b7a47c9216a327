//! Host-side layers — pooling, ReLU, LRN and softmax.
//!
//! The paper runs these on the CPU ("FPGA executes all convolution and FC
//! layers, while the remaining layers ... are executed by the host
//! program"), overlapped with accelerator execution. They operate on the
//! quantized feature maps the accelerator writes back.

use abm_model::{LrnSpec, PoolKind, PoolSpec};
use abm_tensor::{QFormat, Shape3, Tensor3};
use std::ops::{AddAssign, Mul, Range, SubAssign};

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
/// distinct values get a reciprocal-denominator table (8-bit features:
/// at most `5 · 128² + 1` entries, 0.66 MB of `f64`); wider ones call
/// `powf` per element.
const LRN_TABLE_LIMIT: i64 = 1 << 18;

/// `1.5 · 2^52`: added to an `f64` below `2^51` in magnitude, it rounds
/// the value to an integer (ties to even) and leaves that integer in
/// the low bits of the sum's mantissa.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `2^−23`: how far, relative to its magnitude, a quotient on the table
/// path must stay from a half-integer for its rounding to be decided
/// without the exact division (see [`lrn_planes`]).
const TIE_MARGIN: f64 = 1.0 / 8_388_608.0;

/// Local response normalization (AlexNet). Executes in floating point on
/// the dequantized features — exactly what a host CPU does — and
/// requantizes into the same format (round to nearest, ties away,
/// saturating):
/// `x / (k + α/size · Σ_window x²)^β`.
///
/// The window's sum of squares is kept as an **integer** energy of the
/// raw features, slid across channel planes by one add and one subtract
/// per pixel, and the denominator is computed once per energy and kept.
/// That is bit-identical to summing dequantized squares in `f64` per
/// element: each square is `raw² · 2^(−2·frac)`, the few of them sum
/// exactly below `2^53`, so `powf` sees the same argument either way
/// (for every `frac` in `−112..=127`; below it dequantizing to `f32`
/// overflows).
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

/// What [`lrn_planes`] keeps across calls: the sliding window energy,
/// the plane being normalized, and the table of reciprocal denominators
/// `1/d(e)` with the format and spec it was filled for. The table is
/// reserved at the format's reach on first use, so it never grows
/// afterwards, and filled only as a prefix, as far as the largest
/// energy a plane has held. It is emptied only when the format or the
/// spec changes: a scratch kept per LRN layer computes each
/// denominator once per format across calls, not once per call.
#[derive(Debug, Clone, Default)]
pub(crate) struct LrnScratch {
    /// The window energy on the table path (`i32`: it stays below
    /// [`LRN_TABLE_LIMIT`]) …
    energy: Vec<i32>,
    /// … and on the wide one.
    wide: Vec<i64>,
    out: Vec<i16>,
    table: Vec<f64>,
    filled_for: Option<(QFormat, LrnSpec)>,
}

impl LrnScratch {
    /// Bytes of capacity behind every buffer.
    pub fn bytes(&self) -> usize {
        4 * self.energy.capacity()
            + 8 * (self.wide.capacity() + self.table.capacity())
            + 2 * self.out.capacity()
    }
}

/// The core under [`lrn`] and the inference path: normalizes the
/// `channels` of the channel-major feature map `input` of shape `s` and
/// hands each finished channel plane to `emit`, in channel order. The
/// energy window starts whole at the run's first channel, so a run
/// computes the bits the whole map's pass computes for it, and runs on
/// their own scratch may go in parallel.
///
/// The exact form divides the dequantized `x` by `d`, rounds to `f32`
/// (the reference's arithmetic), scales back by `2^frac` and rounds to
/// the format. A format whose window energy stays below
/// [`LRN_TABLE_LIMIT`] (8 bits at AlexNet's size 5), with `frac ≤ 124`
/// and a window holding only raws inside it, takes the table path:
/// `i32` energies and a branch-free pass over `(x, table[e])` that the
/// compiler vectorizes — `x · (1/d)` rounded to the nearest integer,
/// which is the exact form's result wherever the quotient is not within
/// a few `f32` ulps of a half-integer; a plane with one that is goes
/// again in the exact form for those elements (see the proof below).
/// Anything else (a wide format, a raw outside its own, an extreme
/// `frac`) takes `i64` energies and the exact form with `powf` per
/// element.
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
    let (k, beta) = (spec.k as f64, spec.beta as f64);
    let alpha_per_size = spec.alpha as f64 / spec.size as f64;
    let denom_of = |energy: i64| (k + alpha_per_size * (energy as f64 * lsb_sq)).powf(beta);
    let (min_raw, max_raw) = (fmt.min_raw(), fmt.max_raw());
    let exact = |x: i16, energy: i64| {
        let scaled = ((x as f64 * lsb / denom_of(energy)) as f32) as f64 * scale;
        // Ties away from zero; the saturating cast truncates toward
        // zero, which is floor above zero and ceil below it.
        let rounded = scaled + 0.5f64.copysign(scaled);
        (rounded as i32).clamp(min_raw, max_raw) as i16
    };

    let input = &input[..s.len()];
    let planes = |c: usize| &input[c * plane..(c + 1) * plane];
    let window = channels.start.saturating_sub(half)..(channels.end + half).min(s.channels);
    let held = input[window.start * plane..window.end * plane].iter();
    let (lo, hi) = held.fold((0i16, 0i16), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    // Every energy features of this width can reach (none for the wide
    // ones), whatever this image holds.
    let reach = (2 * half as i64 + 1).saturating_mul(1 << (2 * (fmt.bits().min(16) - 1)));
    let tabled = reach < LRN_TABLE_LIMIT
        && fmt.frac() <= 124
        && min_raw <= lo as i32
        && hi as i32 <= max_raw;
    let LrnScratch {
        energy,
        wide,
        out,
        table,
        filled_for,
    } = scratch;
    out.resize(plane, 0);
    if !tabled {
        slide_energy(input, s, half, channels, wide, |c, energy| {
            let (x, out) = (planes(c), &mut out[..]);
            for ((o, &x), &e) in out.iter_mut().zip(x).zip(energy) {
                *o = exact(x, e);
            }
            emit(c, out);
        });
        return;
    }

    if *filled_for != Some((fmt, *spec)) {
        table.clear();
        *filled_for = Some((fmt, *spec));
    }
    table.reserve_exact((reach as usize + 1).saturating_sub(table.len()));
    // Why the table path's result is the exact form's, bit for bit.
    //
    // (1) Below `frac` 125 the division may run on the raw scale: the
    // pair `·lsb` … `·2^frac` around the `f32` rounding only moves
    // exponents, which is exact while `v = x·lsb/d` is an `f32` normal,
    // `|v| ≥ 2^−126`. Where it is not, `|x/d| < 2^(frac−126) ≤ 1/4` and
    // both forms round to 0 (an `f32` rounding does not cross the power
    // of two above it). At `frac` 125 an `x/d` just below 1/2 rounds up
    // to 1/2 on the raw scale and not as a subnormal `v`, hence the
    // bound. An overflowing `v` needs `|x/d| ≥ 2^(128+frac) ≥ 2^16`,
    // which saturates either way.
    //
    // (2) On the raw scale the result is a step function `g` of `y =
    // fl(x/d)`: round to `f32`, then to an integer, ties away. Its
    // step between `n` and `n + 1` sits within half an `f32` ulp,
    // `2^−24·(n + ½)`, below `n + ½`. The table path computes `y' =
    // fl(x · fl(1/d))`; both `y` and `y'` are within `2^−51·|x/d|` of
    // `x/d` (with `|x| ≥ 1` and `1/d` a normal nothing underflows; a
    // subnormal `1/d` leaves both below `2^−1000`, an infinite one or
    // a NaN `d` fails the test below). If `a = |y'|` lies more than
    // `(a + 2)·2^−23` from every half-integer, more than `2^−24·(a +
    // 3.5)` separates it from every step, no step lies between `y` and
    // `y'`, and `g(y)` is the integer nearest `y'` — the sum with
    // `ROUND` (`a < 2^22` there). An `a ≥ 2^16` saturates in both
    // forms (`y` is within `2^−50·a` of it, and no table-path format
    // reaches `2^8`). The sign is symmetric and the clamp is the same.
    // A quotient that passes neither test (about `(a + 2)·2^−22` of
    // them) is recomputed in the exact form.
    let bounds = (min_raw as f64, max_raw as f64);
    slide_energy(input, s, half, channels, energy, |c, energy| {
        let top = energy.iter().fold(0, |top, &e| top.max(e)) as usize;
        if top >= table.len() {
            table.extend((table.len()..=top).map(|e| 1.0 / denom_of(e as i64)));
        }
        normalize_plane(&mut out[..], planes(c), energy, table, bounds, exact);
        emit(c, out);
    });
}

/// The table path's pass over one plane: each `x` times its energy's
/// reciprocal denominator, rounded to the nearest integer inside
/// `bounds`, into `out`; then, only where some quotient came too close
/// to a half-integer for that to be the exact form's result, those
/// elements again through `exact`.
fn normalize_plane(
    out: &mut [i16],
    x: &[i16],
    energy: &[i32],
    table: &[f64],
    bounds: (f64, f64),
    exact: impl Fn(i16, i64) -> i16,
) {
    let pixels = out.iter_mut().zip(x).zip(energy);
    // Clamped to the filled prefix: no bounds check in the loop.
    let Some(last) = table.len().checked_sub(1) else {
        return pixels.for_each(|((o, &x), &e)| *o = exact(x, e as i64));
    };
    let table = &table[..=last];
    let mut clear = true;
    for ((o, &x), &e) in pixels {
        let (q, ok) = nearest(x, table[(e as usize).min(last)], bounds);
        *o = q;
        clear &= ok;
    }
    if !clear {
        for ((o, &x), &e) in out.iter_mut().zip(x).zip(energy) {
            if !nearest(x, table[(e as usize).min(last)], bounds).1 {
                *o = exact(x, e as i64);
            }
        }
    }
}

/// `x · recip` rounded to the nearest integer (ties to even) and
/// clamped to `bounds`, and whether that is decided: it lies more than
/// `(|x · recip| + 2) · TIE_MARGIN` from every half-integer, or at
/// least `2^16` from zero, past every table-path format, where it
/// saturates (never for a NaN). The clamp is written as selects so that
/// it compiles to `maxpd`/`minpd`.
#[inline(always)]
fn nearest(x: i16, recip: f64, (lo, hi): (f64, f64)) -> (i16, bool) {
    let y = x as f64 * recip;
    let n = (y + ROUND) - ROUND;
    let clear = 0.5 - (y - n).abs() > (y.abs() + 2.0) * TIE_MARGIN || y.abs() >= 65_536.0;
    let y = if y < lo { lo } else { y };
    let y = if y > hi { hi } else { y };
    ((y + ROUND).to_bits() as i16, clear)
}

/// Slides the window energy of `channels` of the map `input` of shape
/// `s` one channel at a time — a plane enters at its upper end, one
/// leaves at its lower end — and hands each channel with its energy
/// plane to `each`.
fn slide_energy<E>(
    input: &[i16],
    s: Shape3,
    half: usize,
    channels: Range<usize>,
    energy: &mut Vec<E>,
    mut each: impl FnMut(usize, &[E]),
) where
    E: Copy + Default + From<i16> + Mul<Output = E> + AddAssign + SubAssign,
{
    let plane = s.rows * s.cols;
    let planes = |c: usize| &input[c * plane..(c + 1) * plane];
    let square = |x: i16| E::from(x) * E::from(x);
    let first = channels.start;
    energy.clear();
    energy.resize(plane, E::default());
    for c in first.saturating_sub(half)..=(first + half).min(s.channels - 1) {
        for (e, &x) in energy.iter_mut().zip(planes(c)) {
            *e += square(x);
        }
    }
    for c in channels {
        if c > first {
            if c + half < s.channels {
                for (e, &x) in energy.iter_mut().zip(planes(c + half)) {
                    *e += square(x);
                }
            }
            if c > half {
                for (e, &x) in energy.iter_mut().zip(planes(c - half - 1)) {
                    *e -= square(x);
                }
            }
        }
        each(c, energy);
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
pub(crate) mod tests {
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
    pub(crate) fn lrn_reference(
        input: &Tensor3<i16>,
        fmt: QFormat,
        spec: &LrnSpec,
    ) -> Tensor3<i16> {
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

    /// A seeded map of `shape`: post-ReLU 8-bit features (half of them
    /// zero, the rest skewed small, as in AlexNet's LRN inputs) or, with
    /// `signed`, raws uniform over the whole 8-bit range.
    pub(crate) fn seeded_map(shape: Shape3, seed: u64, signed: bool) -> Tensor3<i16> {
        let mut state = seed;
        Tensor3::from_fn(shape, |_, _, _| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let z = z ^ (z >> 31);
            let (a, b) = ((z >> 8) % 128, (z >> 16) % 128);
            match (signed, z & 1) {
                (true, _) => (z >> 56) as i16 - 128,
                (false, 0) => 0,
                (false, _) => (a * b / 127) as i16,
            }
        })
    }

    /// AlexNet's two LRN inputs at the formats real images reach, and a
    /// full-range signed map: planes of 3025 and 729 leave every vector
    /// remainder, and the signed map fills the whole 8-bit table.
    #[test]
    fn lrn_matches_the_oracle_on_alexnet_shaped_maps() {
        let spec = LrnSpec::alexnet();
        let cases = [
            (Shape3::new(96, 55, 55), QFormat::new(8, -4), false),
            (Shape3::new(256, 27, 27), QFormat::new(8, -5), false),
            (Shape3::new(96, 55, 55), QFormat::new(8, 3), true),
        ];
        for (seed, (shape, fmt, signed)) in cases.into_iter().enumerate() {
            let input = seeded_map(shape, seed as u64, signed);
            assert_eq!(
                lrn(&input, fmt, &spec),
                lrn_reference(&input, fmt, &spec),
                "{shape:?} {fmt:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bit-equality with the oracle over both feature widths, every
        /// fractional length the docs claim (weighted toward the ones
        /// calibration produces, with the edges where the table path
        /// hands over to the exact form pinned), windows wider than the
        /// channel count, and full-range raws (`i16::MIN` included;
        /// `narrow` folds them into 8 bits so the table path is
        /// exercised as well as the per-element one).
        #[test]
        fn lrn_is_bit_identical_to_the_per_element_formula(
            bits in prop_oneof![Just(8u8), Just(16u8)],
            frac in prop_oneof![
                2 => -8i8..13,
                2 => (-112i16..128).prop_map(|f| f as i8),
                1 => prop_oneof![Just(-112i8), Just(124), Just(125), Just(126), Just(127)],
            ],
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

    /// Where `x·lsb/d` is an `f32` subnormal, rounding it there (the
    /// oracle) and rounding `x/d` on the raw scale part: each spec puts
    /// one quotient just below 1/2, inside the half-ulp the subnormal
    /// grid rounds up and `f32` normals do not. A pass that dropped the
    /// `·lsb` … `·2^frac` pair at these fractional lengths would read 0.
    #[test]
    fn lrn_rounds_like_the_oracle_where_f32_goes_subnormal() {
        let cases = [
            (125, 3, 36.0 + 2f32.powi(-18), 0.5),
            (127, 1, 2.0 + 2f32.powi(-22), 1.0),
        ];
        for (frac, x, k, beta) in cases {
            let (fmt, spec) = (
                QFormat::new(8, frac),
                LrnSpec {
                    size: 1,
                    alpha: 0.0,
                    beta,
                    k,
                },
            );
            let input = Tensor3::from_vec(Shape3::new(1, 1, 1), vec![x]);
            let raw_scale = (x as f64 / (k as f64).powf(beta as f64)) as f32;
            assert_eq!(raw_scale.round(), 0.0, "frac {frac}");
            assert_eq!(
                lrn_reference(&input, fmt, &spec).as_slice(),
                [1],
                "frac {frac}"
            );
            assert_eq!(lrn(&input, fmt, &spec).as_slice(), [1], "frac {frac}");
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
