//! Dynamic fixed-point formats and conversions.
//!
//! The paper quantizes weights to 8-bit dynamic fixed point following
//! Ristretto (Gysel et al.), where each layer carries its own fractional
//! length. A value `v` in format `QFormat { bits, frac }` is stored as the
//! integer `round(v * 2^frac)` clamped to the signed `bits`-bit range.

use std::fmt;

/// Rounding mode applied when converting a real value (or a wider
/// accumulator) into a narrower fixed-point representation.
///
/// The accelerator performs rounding exactly once, in the Sum/Round logic
/// before feature-map write-back (Section 4.2 of the paper); everywhere
/// else arithmetic is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round to nearest, ties away from zero (the common DSP behaviour).
    #[default]
    NearestTiesAway,
    /// Round to nearest, ties to even (IEEE style).
    NearestTiesEven,
    /// Truncate toward negative infinity (arithmetic shift right).
    Floor,
    /// Truncate toward zero.
    TowardZero,
}

/// A signed dynamic fixed-point format: `bits` total bits of which `frac`
/// are fractional.
///
/// `frac` may be negative (values scaled up) or exceed `bits` (all-
/// fractional subnormal-like formats), exactly as in Ristretto's dynamic
/// fixed point.
///
/// # Examples
///
/// ```
/// use abm_tensor::QFormat;
/// let q = QFormat::new(8, 4);
/// assert_eq!(q.max_raw(), 127);
/// assert_eq!(q.min_raw(), -128);
/// assert_eq!(q.quantize_f32(1.0), 16);
/// assert_eq!(q.quantize_f32(100.0), 127); // saturates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    bits: u8,
    frac: i8,
}

impl QFormat {
    /// Creates a new format with `bits` total bits and `frac` fractional
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 32.
    pub fn new(bits: u8, frac: i8) -> Self {
        assert!((1..=32).contains(&bits), "QFormat bits must be in 1..=32");
        Self { bits, frac }
    }

    /// The paper's weight format: 8-bit with a per-layer fractional length.
    pub fn w8(frac: i8) -> Self {
        Self::new(8, frac)
    }

    /// Total number of bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of fractional bits.
    pub fn frac(&self) -> i8 {
        self.frac
    }

    /// Largest representable raw integer (`2^(bits-1) - 1`).
    pub fn max_raw(&self) -> i32 {
        if self.bits == 32 {
            i32::MAX
        } else {
            (1i32 << (self.bits - 1)) - 1
        }
    }

    /// Smallest representable raw integer (`-2^(bits-1)`).
    pub fn min_raw(&self) -> i32 {
        if self.bits == 32 {
            i32::MIN
        } else {
            -(1i32 << (self.bits - 1))
        }
    }

    /// The real-valued resolution of one least-significant bit.
    pub fn lsb(&self) -> f64 {
        2f64.powi(-(self.frac as i32))
    }

    /// Largest representable real value.
    pub fn max_value(&self) -> f64 {
        self.max_raw() as f64 * self.lsb()
    }

    /// Smallest representable real value.
    pub fn min_value(&self) -> f64 {
        self.min_raw() as f64 * self.lsb()
    }

    /// Quantizes an `f32` to the raw integer representation with
    /// round-to-nearest-ties-away and saturation.
    pub fn quantize_f32(&self, v: f32) -> i32 {
        self.quantize_f32_with(v, Rounding::NearestTiesAway)
    }

    /// Quantizes an `f32` with an explicit [`Rounding`] mode, saturating to
    /// the representable range.
    pub fn quantize_f32_with(&self, v: f32, mode: Rounding) -> i32 {
        let scaled = v as f64 * 2f64.powi(self.frac as i32);
        let r = match mode {
            Rounding::NearestTiesAway => {
                if scaled >= 0.0 {
                    (scaled + 0.5).floor()
                } else {
                    (scaled - 0.5).ceil()
                }
            }
            Rounding::NearestTiesEven => {
                let f = scaled.floor();
                let d = scaled - f;
                let round_up = d > 0.5 || (d == 0.5 && (f as i64) % 2 != 0);
                if round_up {
                    f + 1.0
                } else {
                    f
                }
            }
            Rounding::Floor => scaled.floor(),
            Rounding::TowardZero => scaled.trunc(),
        };
        let r = r.clamp(self.min_raw() as f64, self.max_raw() as f64);
        r as i32
    }

    /// Converts a raw integer back to a real value.
    pub fn dequantize(&self, raw: i32) -> f32 {
        (raw as f64 * self.lsb()) as f32
    }

    /// Rescales a wide accumulator value (in a format with
    /// `self.frac + other.frac` fractional bits, as produced by multiplying
    /// two fixed-point numbers) into `target`, applying `mode` and
    /// saturating.
    ///
    /// This is the Sum/Round step of the accelerator data path.
    pub fn rescale_to(&self, acc: i64, other: QFormat, target: QFormat, mode: Rounding) -> i32 {
        let src_frac = self.frac as i32 + other.frac as i32;
        let shift = src_frac - target.frac as i32;
        let rounded = round_shift(acc, shift, mode);
        saturate(rounded, target)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.bits as i32 - self.frac as i32, self.frac)
    }
}

/// Arithmetic right-shift of `v` by `shift` bits with the given rounding
/// mode. A negative `shift` is a left shift (exact, may saturate later).
pub fn round_shift(v: i64, shift: i32, mode: Rounding) -> i64 {
    if shift <= 0 {
        return v
            .checked_shl((-shift) as u32)
            .unwrap_or(if v >= 0 { i64::MAX } else { i64::MIN });
    }
    if shift >= 63 {
        return match mode {
            Rounding::Floor if v < 0 => -1,
            _ => 0,
        };
    }
    let floor = v >> shift;
    let rem = v - (floor << shift);
    let half = 1i64 << (shift - 1);
    match mode {
        Rounding::Floor => floor,
        Rounding::TowardZero => {
            if v < 0 && rem != 0 {
                floor + 1
            } else {
                floor
            }
        }
        Rounding::NearestTiesAway => round_ties_away(v, shift as u32),
        Rounding::NearestTiesEven => {
            if rem > half || (rem == half && (floor & 1) == 1) {
                floor + 1
            } else {
                floor
            }
        }
    }
}

/// `v / 2^shift` rounded to nearest, ties away from zero, for
/// `1 <= shift <= 62` — the Sum/Round stage's rounding, branch-free so a
/// per-element loop (`abm_conv`'s requantize) carries no data-dependent
/// jump: round the magnitude, then restore the sign by xor/subtract.
/// The magnitude is a `u64` because `|i64::MIN| + half` overflows `i64`;
/// `2^63 + 2^61` does not overflow `u64`, and after a shift of at least
/// one bit the result fits `i64` again.
#[inline]
pub fn round_ties_away(v: i64, shift: u32) -> i64 {
    debug_assert!((1..=62).contains(&shift), "shift {shift} outside 1..=62");
    let half = 1u64 << (shift - 1);
    let magnitude = ((v.unsigned_abs() + half) >> shift) as i64;
    let sign = v >> 63;
    (magnitude ^ sign) - sign
}

/// Saturates a wide value into the raw range of `fmt`.
pub fn saturate(v: i64, fmt: QFormat) -> i32 {
    v.clamp(fmt.min_raw() as i64, fmt.max_raw() as i64) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qformat_ranges() {
        let q = QFormat::new(8, 0);
        assert_eq!(q.max_raw(), 127);
        assert_eq!(q.min_raw(), -128);
        let q16 = QFormat::new(16, 8);
        assert_eq!(q16.max_raw(), 32767);
        assert_eq!(q16.min_raw(), -32768);
        assert!((q16.max_value() - 127.99609375).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "QFormat bits")]
    fn qformat_rejects_zero_bits() {
        let _ = QFormat::new(0, 0);
    }

    #[test]
    fn quantize_round_trip_exact_values() {
        let q = QFormat::new(8, 6);
        for raw in q.min_raw()..=q.max_raw() {
            let v = q.dequantize(raw);
            assert_eq!(q.quantize_f32(v), raw, "value {v}");
        }
    }

    #[test]
    fn quantize_saturates() {
        let q = QFormat::new(8, 6);
        assert_eq!(q.quantize_f32(1000.0), 127);
        assert_eq!(q.quantize_f32(-1000.0), -128);
    }

    #[test]
    fn quantize_negative_frac() {
        // frac = -2: resolution is 4.0.
        let q = QFormat::new(8, -2);
        assert_eq!(q.quantize_f32(8.0), 2);
        assert_eq!(q.dequantize(2), 8.0);
        assert_eq!(q.quantize_f32(6.0), 2); // 1.5 rounds away to 2
    }

    #[test]
    fn rounding_ties() {
        let q = QFormat::new(8, 1);
        // 0.25 * 2 = 0.5: tie.
        assert_eq!(q.quantize_f32_with(0.25, Rounding::NearestTiesAway), 1);
        assert_eq!(q.quantize_f32_with(0.25, Rounding::NearestTiesEven), 0);
        assert_eq!(q.quantize_f32_with(0.75, Rounding::NearestTiesEven), 2);
        assert_eq!(q.quantize_f32_with(-0.25, Rounding::NearestTiesAway), -1);
        assert_eq!(q.quantize_f32_with(-0.25, Rounding::NearestTiesEven), 0);
        assert_eq!(q.quantize_f32_with(0.25, Rounding::Floor), 0);
        assert_eq!(q.quantize_f32_with(-0.25, Rounding::Floor), -1);
        assert_eq!(q.quantize_f32_with(-0.25, Rounding::TowardZero), 0);
    }

    #[test]
    fn round_shift_modes() {
        // 5 >> 1 = 2.5
        assert_eq!(round_shift(5, 1, Rounding::NearestTiesAway), 3);
        assert_eq!(round_shift(5, 1, Rounding::NearestTiesEven), 2);
        assert_eq!(round_shift(5, 1, Rounding::Floor), 2);
        assert_eq!(round_shift(-5, 1, Rounding::NearestTiesAway), -3);
        assert_eq!(round_shift(-5, 1, Rounding::NearestTiesEven), -2);
        assert_eq!(round_shift(-5, 1, Rounding::Floor), -3);
        assert_eq!(round_shift(-5, 1, Rounding::TowardZero), -2);
        // 7 >> 1 = 3.5 -> ties-even gives 4 (3 is odd).
        assert_eq!(round_shift(7, 1, Rounding::NearestTiesEven), 4);
        // Left shift.
        assert_eq!(round_shift(3, -2, Rounding::Floor), 12);
        // Huge shift collapses to sign-dependent floor.
        assert_eq!(round_shift(123, 64, Rounding::Floor), 0);
        assert_eq!(round_shift(-123, 64, Rounding::Floor), -1);
        assert_eq!(round_shift(-123, 64, Rounding::NearestTiesAway), 0);
    }

    /// The branchy ties-away rounding [`round_ties_away`] replaced, kept
    /// as its oracle (floor, remainder, a sign-dependent comparison).
    fn ties_away_branchy(v: i64, shift: u32) -> i64 {
        let floor = v >> shift;
        let rem = v - (floor << shift);
        let half = 1i64 << (shift - 1);
        let up = if v >= 0 { rem >= half } else { rem > half };
        floor + i64::from(up)
    }

    /// Branch-free rounding == the branchy oracle, value for value and
    /// in how many values saturate, over every shift it serves: the
    /// `i64` extremes (`|i64::MIN| + half` only fits `u64`), both sides
    /// of every tie, the targets' clamp boundaries, and a seeded random
    /// sweep.
    #[test]
    fn branch_free_rounding_matches_branchy_oracle() {
        let mut state = 0x2019_u64;
        let random: Vec<i64> = (0..10_000)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Full-width and narrow magnitudes alike.
                (state as i64) >> (i % 56)
            })
            .collect();
        for shift in 1u32..=62 {
            let half = 1i64 << (shift - 1);
            let mut edges = vec![i64::MIN, i64::MIN + 1, -(1 << 62), -1, 0, 1, i64::MAX];
            for h in [half - 1, half, half + 1] {
                edges.extend([h, -h]);
            }
            for k in [1i64, 127, 128, 129] {
                let scaled = k.checked_shl(shift).filter(|s| s >> shift == k);
                for centre in scaled.into_iter().flat_map(|s| [s, -s]) {
                    edges.extend([centre.saturating_sub(half), centre.saturating_add(half)]);
                }
            }
            for target in [QFormat::new(8, 0), QFormat::new(16, 0)] {
                let (lo, hi) = (target.min_raw() as i64, target.max_raw() as i64);
                let (mut saturated, mut want_saturated) = (0u64, 0u64);
                for &v in edges.iter().chain(&random) {
                    let (got, want) = (round_ties_away(v, shift), ties_away_branchy(v, shift));
                    assert_eq!(got, want, "v {v} shift {shift}");
                    assert_eq!(got, round_shift(v, shift as i32, Rounding::NearestTiesAway));
                    saturated += u64::from(got.clamp(lo, hi) != got);
                    if saturate(want, target) as i64 != want {
                        want_saturated += 1;
                    }
                }
                assert_eq!(saturated, want_saturated, "shift {shift} {target}");
            }
        }
    }

    #[test]
    fn rescale_matches_float_reference() {
        // features Q8 frac 4, weights Q8 frac 6, target Q8 frac 4.
        let ffmt = QFormat::new(16, 4);
        let wfmt = QFormat::new(8, 6);
        let target = QFormat::new(8, 4);
        let acc: i64 = 37 * 45; // raw product
        let out = ffmt.rescale_to(acc, wfmt, target, Rounding::NearestTiesAway);
        let real = (37.0 / 16.0) * (45.0 / 64.0);
        let expect = target.quantize_f32(real as f32);
        assert_eq!(out, expect);
    }

    #[test]
    fn saturate_clamps() {
        let q = QFormat::new(8, 0);
        assert_eq!(saturate(300, q), 127);
        assert_eq!(saturate(-300, q), -128);
        assert_eq!(saturate(7, q), 7);
    }

    #[test]
    fn display_format() {
        assert_eq!(QFormat::new(8, 6).to_string(), "Q2.6");
        assert_eq!(QFormat::new(16, 4).to_string(), "Q12.4");
    }
}
