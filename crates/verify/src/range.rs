//! Pass 4 — the whole-network abstract-interpretation range certifier.
//!
//! The worst-case [`AccumulatorModel`](crate::AccumulatorModel) proves
//! overflow-freedom assuming every input pixel can reach the full
//! `i16` magnitude. Real feature maps cannot: the Sum/Round write-back
//! saturates every activation into its layer's 8-bit dynamic
//! fixed-point format, ReLU clips the low side to zero, and pooling
//! never enlarges a value set. This pass propagates those facts as
//! abstract values through every lowered layer of a network and proves
//! *per-layer, value-range-aware* bit-widths — the software analogue of
//! the DSP48 width budgeting an FPGA build performs when it packs two
//! narrow multiplies through one DSP slice.
//!
//! Two abstract domains run in lock-step:
//!
//! * **intervals** — `[lo, hi]` bounds on every feature value, every
//!   stage-1 partial sum (per value group, including every intermediate
//!   prefix of the running sum and every padding-zeroed subset), every
//!   stage-2 output accumulator, and the ABFT checksum accumulators.
//!   All the arithmetic is linear over an input box, so interval
//!   propagation is *exact*: each bound is attained by a concrete
//!   vertex of the box — which is what the witness records.
//! * **known-bits** — the largest power of two dividing every possible
//!   stage-2 output (all weight values sharing a factor `2^t` force
//!   the outputs onto a `2^t` lattice). This does not shrink a
//!   register, but it is a machine-checked fact the witness replay
//!   cross-validates, and it catches a mis-lowered value stream that
//!   intervals alone would miss.
//!
//! Each accelerated layer yields a [`WidthCertificate`]: the proven
//! stage-1/stage-2/ABFT intervals and signed bit-widths plus an
//! [`ExtremalPatch`] witness — a concrete receptive-field input that
//! *attains* the binding bound. Both read the layer's [`LayerCode`] —
//! its Q-Tables and value-grouped indexes, which every lowering keeps
//! — so a certificate covers every lowering of the code.
//! [`WidthCertificate::validate`] replays
//! the witness through an independent index-level interpretation and
//! re-runs the analysis, so a certificate is never taken on faith;
//! `abm-conv`'s tests additionally replay the same patch through
//! `abm::reference` to pin the certifier to the real executor.
//!
//! Certificates are strictly at least as tight as the worst-case
//! model: the feature interval is a subset of `[-2^15, 2^15]`, so every
//! derived bound is a subset of the worst-case one. Layers the old
//! model rejected for `i32` lanes (large FC value groups) certify
//! narrow here, and layers whose stage-1 interval fits 16 signed bits
//! unlock the packed dual-lane kernel path.

use crate::lowering::ConvGeometry;
use crate::report::{Defect, VerifyReport};
use abm_sparse::LayerCode;
use abm_telemetry::json::{Node, Obj};

/// A closed signed interval. `i128` keeps every bound computation
/// overflow-free without case analysis (the widest real bound — a VGG
/// ABFT checksum — needs fewer than 50 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i128,
    /// Inclusive upper bound.
    pub hi: i128,
}

impl Interval {
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn new(lo: i128, hi: i128) -> Self {
        assert!(lo <= hi, "interval bounds inverted: [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The single value `v`.
    #[must_use]
    pub fn point(v: i128) -> Self {
        Self { lo: v, hi: v }
    }

    /// The full signed 8-bit feature range the Sum/Round write-back
    /// saturates into — the default inter-layer feature interval.
    #[must_use]
    pub fn i8_features() -> Self {
        Self { lo: -128, hi: 127 }
    }

    /// The full `i16` storage range (the worst-case model's assumption).
    #[must_use]
    pub fn i16_full() -> Self {
        Self {
            lo: i16::MIN as i128,
            hi: i16::MAX as i128,
        }
    }

    /// Smallest interval containing both operands.
    #[must_use]
    pub fn hull(self, other: Interval) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Hull with zero — the soundness closure for running sums: every
    /// prefix of a stage-1 accumulation (and every padding-zeroed
    /// subset of a group) lies in `hull(0, count · I)`.
    #[must_use]
    pub fn with_zero(self) -> Self {
        self.hull(Interval::point(0))
    }

    /// Exact scale by a (possibly negative) integer constant.
    #[must_use]
    pub fn scale(self, k: i128) -> Self {
        let a = self.lo * k;
        let b = self.hi * k;
        Self {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Whether `v` lies inside.
    #[must_use]
    pub fn contains(self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` is a subset.
    #[must_use]
    pub fn encloses(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Signed bits (magnitude + sign) needed to represent every value
    /// in the interval, with the same convention as
    /// [`AccumulatorModel::stage1_required_bits`](crate::AccumulatorModel::stage1_required_bits):
    /// a bound of `2^31` needs 33 bits. Never below 1.
    #[must_use]
    pub fn required_bits(self) -> u32 {
        signed_bits(self.lo).max(signed_bits(self.hi)).max(1)
    }
}

/// Exact interval sum.
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Minimum signed width holding the single value `v`: `v ≤ 2^(b-1) - 1`
/// for non-negative `v`, `v ≥ -2^(b-1)` for negative.
fn signed_bits(v: i128) -> u32 {
    if v >= 0 {
        // Need 2^(b-1) > v, i.e. b-1 > log2(v).
        (128 - (v as u128).leading_zeros()) + 1
    } else {
        // Need 2^(b-1) ≥ -v, i.e. b-1 ≥ ceil(log2(-v)).
        let m = (-(v + 1)) as u128; // -v - 1, avoids overflow at i128::MIN
        (128 - m.leading_zeros()) + 1
    }
}

/// The known-bits domain: every representable value is a multiple of
/// `2^pow2`. The lattice order is divisibility; `pow2 = 0` is top
/// (nothing known).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnownBits {
    /// All values are multiples of `2^pow2`.
    pub pow2: u32,
}

impl KnownBits {
    /// Nothing known.
    #[must_use]
    pub fn top() -> Self {
        Self { pow2: 0 }
    }

    /// Join (sum or hull of two value sets): keep the common factor.
    #[must_use]
    pub fn join(self, other: KnownBits) -> Self {
        Self {
            pow2: self.pow2.min(other.pow2),
        }
    }

    /// Scaling by `k` multiplies the guaranteed factor by `2^tz(k)`.
    #[must_use]
    pub fn scale(self, k: i128) -> Self {
        if k == 0 {
            // The zero function is a multiple of everything; cap at a
            // width no real register exceeds.
            return Self { pow2: 127 };
        }
        Self {
            pow2: self.pow2 + k.trailing_zeros(),
        }
    }

    /// Whether `v` respects the lattice.
    #[must_use]
    pub fn admits(self, v: i128) -> bool {
        v % (1i128 << self.pow2.min(126)) == 0
    }
}

/// The abstract feature value flowing between layers: an interval
/// refined by known bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbsVal {
    /// Value interval.
    pub range: Interval,
    /// Known-bits refinement.
    pub bits: KnownBits,
}

impl AbsVal {
    /// An interval with nothing known about low bits.
    #[must_use]
    pub fn from_range(range: Interval) -> Self {
        Self {
            range,
            bits: KnownBits::top(),
        }
    }

    /// The saturated 8-bit feature range — what every requantized
    /// feature map is guaranteed to lie in.
    #[must_use]
    pub fn i8_features() -> Self {
        Self::from_range(Interval::i8_features())
    }

    /// The full `i16` range — sound for arbitrary caller-supplied
    /// tensors (degenerates to the worst-case model).
    #[must_use]
    pub fn i16_full() -> Self {
        Self::from_range(Interval::i16_full())
    }
}

/// A concrete receptive-field input attaining a certified bound.
///
/// The patch is a dense `in_channels × K × K'` input (channel-major,
/// then row-major) such that an **unpadded, single-output-pixel**
/// convolution with the layer's kernels reproduces the bound exactly:
/// the stage-2 accumulator of kernel [`kernel`](Self::kernel) equals
/// [`expect`](Self::expect) (and, for a stage-1 witness, the running
/// partial of group [`group`](Self::group) does). Positions a padded
/// tap would contribute hold the padding value `0`, so the patch is
/// replayable through `abm::reference::conv2d` with `stride = 1`,
/// `pad = 0` on a `K × K'` input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtremalPatch {
    /// Kernel (output channel) whose bound this patch attains.
    pub kernel: usize,
    /// Value group within the kernel (stage-1 witnesses only).
    pub group: Option<usize>,
    /// Dense input patch, `in_channels · K · K'` long.
    pub patch: Vec<i16>,
    /// The exact accumulator value the patch attains.
    pub expect: i64,
}

/// A machine-checked per-layer width certificate.
///
/// Soundness contract: provided every input feature lies in
/// [`input`](Self::input)`.range` (padding contributes `0`), every
/// runtime stage-1 partial sum — including intermediate prefixes and
/// padding-zeroed subsets — lies in [`stage1`](Self::stage1), every
/// stage-2 output accumulator in [`stage2`](Self::stage2), and every
/// ABFT checksum accumulator in [`abft`](Self::abft). The witnesses
/// prove the binding bounds are *attained*, so the certified widths
/// are exact, never an under-estimate and never loose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthCertificate {
    /// Layer name.
    pub layer: String,
    /// The assumed input feature abstraction.
    pub input: AbsVal,
    /// Interval covering every stage-1 partial sum (hull over all
    /// groups of all kernels, closed over zero for prefixes).
    pub stage1: Interval,
    /// Signed bits [`stage1`](Self::stage1) needs.
    pub stage1_bits: u32,
    /// Interval covering every stage-2 output accumulator.
    pub stage2: Interval,
    /// Signed bits [`stage2`](Self::stage2) needs.
    pub stage2_bits: u32,
    /// Interval covering every ABFT per-kernel checksum accumulator
    /// (`stage2` scaled by the output pixel count).
    pub abft: Interval,
    /// Signed bits [`abft`](Self::abft) needs — must stay ≤ 64 for the
    /// `i64` checksum arithmetic to be overflow-free.
    pub abft_bits: u32,
    /// Every stage-2 output is a multiple of `2^out_pow2`.
    pub out_pow2: u32,
    /// Witness attaining the binding stage-2 bound.
    pub stage2_witness: ExtremalPatch,
    /// Witness attaining the binding stage-1 bound.
    pub stage1_witness: ExtremalPatch,
}

impl WidthCertificate {
    /// Whether the ABFT `i64` checksum arithmetic is proven
    /// overflow-free for this layer.
    #[must_use]
    pub fn abft_fits_i64(&self) -> bool {
        self.abft_bits <= 64
    }

    /// Whether the layer qualifies for the packed dual-lane kernel
    /// path: every stage-1 partial provably fits 16 signed bits.
    #[must_use]
    pub fn packable(&self) -> bool {
        self.stage1_bits <= 16
    }

    /// The summary a certificate file commits (everything but the
    /// patches, which are cheap to recompute but expensive to store).
    #[must_use]
    pub fn summary(&self) -> CertSummary {
        CertSummary {
            layer: self.layer.clone(),
            input: self.input.range,
            stage1: self.stage1,
            stage1_bits: self.stage1_bits,
            stage2: self.stage2,
            stage2_bits: self.stage2_bits,
            abft_bits: self.abft_bits,
            out_pow2: self.out_pow2,
        }
    }

    /// Self-validation: re-runs the analysis from scratch and replays
    /// both witnesses through an independent index-level interpretation.
    /// Any disagreement — re-analysis mismatch, a witness that fails
    /// to attain its bound, or a witness value escaping its interval —
    /// is a [`Defect::RangeUnsound`].
    #[must_use]
    pub fn validate(&self, code: &LayerCode, geom: &ConvGeometry) -> VerifyReport {
        let mut report = VerifyReport::new(&self.layer);
        let fresh = certify_layer(&self.layer, code, geom, self.input);
        if fresh != *self {
            report.defect(Defect::RangeUnsound {
                layer: self.layer.clone(),
                detail: format!(
                    "re-analysis disagrees: stage1 {} ({} bits) vs {} ({} bits), stage2 {} ({} bits) vs {} ({} bits)",
                    fresh.stage1,
                    fresh.stage1_bits,
                    self.stage1,
                    self.stage1_bits,
                    fresh.stage2,
                    fresh.stage2_bits,
                    self.stage2,
                    self.stage2_bits,
                ),
            });
            return report;
        }
        report.facts += 1;

        // Witness replay: interpret the indexes of the witness kernel
        // over the patch, exactly as the reference executor would on a
        // single-output-pixel unpadded geometry.
        let shape = code.shape();
        let kk = shape.kernel_rows * shape.kernel_cols;
        for (w, is_stage1) in [(&self.stage2_witness, false), (&self.stage1_witness, true)] {
            let Some(kc) = code.kernels().get(w.kernel) else {
                if code.kernels().is_empty() && w.patch.is_empty() && w.expect == 0 {
                    report.facts += 1;
                    continue;
                }
                report.defect(Defect::RangeUnsound {
                    layer: self.layer.clone(),
                    detail: format!("witness kernel {} out of range", w.kernel),
                });
                continue;
            };
            if w.patch.len() != geom.in_channels * kk {
                report.defect(Defect::RangeUnsound {
                    layer: self.layer.clone(),
                    detail: format!(
                        "witness patch has {} entries, layer needs {}",
                        w.patch.len(),
                        geom.in_channels * kk
                    ),
                });
                continue;
            }
            let m_per_group = shape.out_channels.div_ceil(geom.groups.max(1)).max(1);
            let chan_base = (w.kernel / m_per_group) * shape.in_channels;
            let index_value = |&i: &u16| -> i128 { w.patch[chan_base * kk + i as usize] as i128 };
            let (got, interval, bound_bits, what) = if is_stage1 {
                let Some((_, idxs)) = w.group.and_then(|g| kc.groups().nth(g)) else {
                    report.defect(Defect::RangeUnsound {
                        layer: self.layer.clone(),
                        detail: format!("stage-1 witness group missing on kernel {}", w.kernel),
                    });
                    continue;
                };
                let got: i128 = idxs.iter().map(index_value).sum();
                (got, self.stage1, self.stage1_bits, "stage-1")
            } else {
                let got: i128 = kc
                    .groups()
                    .map(|(v, idxs)| (v as i128) * idxs.iter().map(index_value).sum::<i128>())
                    .sum();
                (got, self.stage2, self.stage2_bits, "stage-2")
            };
            if got != w.expect as i128 {
                report.defect(Defect::RangeUnsound {
                    layer: self.layer.clone(),
                    detail: format!(
                        "{what} witness replays to {got}, certificate expects {}",
                        w.expect
                    ),
                });
                continue;
            }
            if !interval.contains(got) {
                report.defect(Defect::RangeUnsound {
                    layer: self.layer.clone(),
                    detail: format!("{what} witness value {got} escapes interval {interval}"),
                });
                continue;
            }
            // The witness must *attain* the binding width: the
            // certified bits are exact, not an over-estimate.
            if signed_bits(got).max(1) != bound_bits {
                report.defect(Defect::RangeUnsound {
                    layer: self.layer.clone(),
                    detail: format!(
                        "{what} witness needs {} bits, certificate claims the binding bound needs {bound_bits}",
                        signed_bits(got).max(1)
                    ),
                });
                continue;
            }
            if !is_stage1
                && !(KnownBits {
                    pow2: self.out_pow2,
                })
                .admits(got)
            {
                report.defect(Defect::RangeUnsound {
                    layer: self.layer.clone(),
                    detail: format!(
                        "stage-2 witness value {got} is not a multiple of 2^{}",
                        self.out_pow2
                    ),
                });
                continue;
            }
            report.facts += 1;
        }
        report
    }
}

/// Certifies one encoded layer at `geom`: propagates the input
/// abstraction through the two ABM stages and the ABFT checksum
/// arithmetic, and constructs the extremal witnesses.
#[must_use]
pub fn certify_layer(
    name: &str,
    code: &LayerCode,
    geom: &ConvGeometry,
    input: AbsVal,
) -> WidthCertificate {
    assert!(
        Interval::i16_full().encloses(input.range),
        "feature interval {} exceeds i16 storage",
        input.range
    );
    // What one tap can contribute: a feature value, or 0 via padding.
    let tap_iv = if geom.pad > 0 {
        input.range.with_zero()
    } else {
        input.range
    };

    let shape = code.shape();
    let kk = shape.kernel_rows * shape.kernel_cols;
    let m_per_group = shape.out_channels.div_ceil(geom.groups.max(1)).max(1);
    let out_pixels = (geom.out_rows * geom.out_cols) as i128;

    let mut stage1 = Interval::point(0);
    let mut stage2 = Interval::point(0);
    let mut out_bits = KnownBits { pow2: 127 }; // join identity (all-zero layer)
                                                // Binding-bound trackers: (bits, kernel, group, maximize?) so the
                                                // witness targets the endpoint that determines the width.
    let mut s1_best: Option<(u32, usize, usize, bool)> = None;
    let mut s2_best: Option<(u32, usize, bool)> = None;

    for (m, kc) in code.kernels().iter().enumerate() {
        let mut acc = Interval::point(0);
        let mut acc_bits = KnownBits { pow2: 127 };
        for (g, entry) in kc.entries().iter().enumerate() {
            let (v, count) = (entry.value, entry.count);
            // Stage 1: `count` taps, each in `tap_iv`; prefixes and
            // padding-zeroed subsets close the interval over zero.
            let s = tap_iv.scale(count as i128).with_zero();
            stage1 = stage1.hull(s);
            for (endpoint, maximize) in [(s.lo, false), (s.hi, true)] {
                let b = signed_bits(endpoint).max(1);
                if s1_best.is_none_or(|(bb, ..)| b > bb) {
                    s1_best = Some((b, m, g, maximize));
                }
            }
            // Stage 2: the group's exact (un-prefixed) contribution.
            acc = acc + tap_iv.scale(count as i128).scale(v as i128);
            acc_bits = acc_bits.join(input.bits.scale(v as i128));
        }
        stage2 = stage2.hull(acc);
        out_bits = out_bits.join(acc_bits);
        for (endpoint, maximize) in [(acc.lo, false), (acc.hi, true)] {
            let b = signed_bits(endpoint).max(1);
            if s2_best.is_none_or(|(bb, ..)| b > bb) {
                s2_best = Some((b, m, maximize));
            }
        }
    }

    // Build the witnesses at the binding endpoints. Interval
    // propagation of a linear map over a box is exact, so assigning
    // each tap its per-term extremal endpoint attains the bound.
    let patch_at = |kernel: usize, group: Option<usize>, maximize: bool| -> ExtremalPatch {
        let Some(kc) = code.kernels().get(kernel) else {
            return ExtremalPatch {
                kernel,
                group,
                patch: Vec::new(),
                expect: 0,
            };
        };
        let mut patch = vec![0i16; geom.in_channels * kk];
        let chan_base = (kernel / m_per_group) * shape.in_channels;
        let mut expect: i128 = 0;
        for (g, (v, idxs)) in kc.groups().enumerate() {
            if let Some(want) = group {
                if g != want {
                    continue;
                }
            }
            // For a stage-2 witness the sign of `v` flips which box
            // endpoint maximizes the term; a stage-1 witness sums the
            // raw taps (an implicit coefficient of +1).
            let coeff: i128 = if group.is_some() { 1 } else { v as i128 };
            let e = if (coeff >= 0) == maximize {
                tap_iv.hi
            } else {
                tap_iv.lo
            };
            for &i in idxs {
                patch[chan_base * kk + i as usize] = e as i16;
                expect += coeff * e;
            }
        }
        ExtremalPatch {
            kernel,
            group,
            patch,
            expect: expect as i64,
        }
    };

    let stage1_witness = match s1_best {
        Some((_, m, g, maximize)) => patch_at(m, Some(g), maximize),
        None => patch_at(0, Some(0), true),
    };
    let stage2_witness = match s2_best {
        Some((_, m, maximize)) => patch_at(m, None, maximize),
        None => patch_at(0, None, true),
    };

    let abft = stage2.scale(out_pixels);
    let out_pow2 = if out_bits.pow2 == 127 {
        0
    } else {
        out_bits.pow2
    };
    WidthCertificate {
        layer: name.to_string(),
        input,
        stage1_bits: stage1.required_bits(),
        stage1,
        stage2_bits: stage2.required_bits(),
        stage2,
        abft_bits: abft.required_bits(),
        abft,
        out_pow2,
        stage2_witness,
        stage1_witness,
    }
}

/// Walks a network layer by layer, threading the inter-layer feature
/// abstraction through the host steps (ReLU, pooling, residual adds)
/// and the accelerated layers' Sum/Round write-back.
#[derive(Debug, Clone)]
pub struct NetworkCertifier {
    state: AbsVal,
}

impl NetworkCertifier {
    /// Starts from the network input's abstraction (the calibrated
    /// input format's representable range).
    #[must_use]
    pub fn new(input: AbsVal) -> Self {
        Self { state: input }
    }

    /// The feature abstraction entering the next layer.
    #[must_use]
    pub fn state(&self) -> AbsVal {
        self.state
    }

    /// An accelerated conv/FC layer followed by its Sum/Round
    /// write-back into a signed `out_bits`-bit fixed-point format.
    /// Returns the layer's certificate and advances the state to the
    /// requantized output abstraction.
    pub fn conv(
        &mut self,
        name: &str,
        code: &LayerCode,
        geom: &ConvGeometry,
        out_bits: u8,
    ) -> WidthCertificate {
        let cert = certify_layer(name, code, geom, self.state);
        // Saturating write-back: the value lands in the target format's
        // raw range; the (unknown, layer-calibrated) shift destroys
        // known bits, but rounding preserves the accumulator's sign.
        let max_raw = (1i128 << (out_bits - 1)) - 1;
        let min_raw = -(1i128 << (out_bits - 1));
        self.state = AbsVal::from_range(Interval::new(
            if cert.stage2.lo >= 0 { 0 } else { min_raw },
            if cert.stage2.hi <= 0 { 0 } else { max_raw },
        ));
        cert
    }

    /// ReLU clips the low side to zero.
    pub fn relu(&mut self) {
        self.state.range.lo = self.state.range.lo.max(0);
    }

    /// Max/avg pooling selects from (or integer-averages over) the
    /// existing value set — the interval and known bits are closed.
    pub fn pool(&mut self) {}

    /// LRN and softmax run on the host in the paper; the reproduction's
    /// accelerated path treats them as feature-range-preserving (LRN
    /// divides by a factor ≥ 1). Interval closed.
    pub fn host_norm(&mut self) {}

    /// A residual-style element-wise add of another branch's features:
    /// exact interval sum, known bits join.
    pub fn residual_add(&mut self, other: AbsVal) {
        self.state = AbsVal {
            range: self.state.range + other.range,
            bits: self.state.bits.join(other.bits),
        };
    }
}

/// The committed (file-backed) form of one layer's certificate —
/// everything but the witness patches, which are recomputed and
/// re-validated on every check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertSummary {
    /// Layer name.
    pub layer: String,
    /// Assumed input feature interval.
    pub input: Interval,
    /// Certified stage-1 interval.
    pub stage1: Interval,
    /// Certified stage-1 signed bits.
    pub stage1_bits: u32,
    /// Certified stage-2 interval.
    pub stage2: Interval,
    /// Certified stage-2 signed bits.
    pub stage2_bits: u32,
    /// Certified ABFT checksum signed bits.
    pub abft_bits: u32,
    /// Stage-2 outputs are multiples of `2^out_pow2`.
    pub out_pow2: u32,
}

impl CertSummary {
    /// JSON rendering (one object).
    #[must_use]
    pub fn to_json(&self) -> String {
        Node::from(self).render()
    }
}

/// The summary as one object, for a certificate file to put in an array.
impl From<&CertSummary> for Node {
    fn from(c: &CertSummary) -> Self {
        let interval = |o: &mut Obj, key, i: Interval| {
            o.array(key, |a| {
                a.item(i.lo);
                a.item(i.hi);
            });
        };
        Node::object(|o| {
            o.field("layer", &c.layer);
            interval(o, "input", c.input);
            interval(o, "stage1", c.stage1);
            o.field("stage1_bits", c.stage1_bits);
            interval(o, "stage2", c.stage2);
            o.field("stage2_bits", c.stage2_bits);
            o.field("abft_bits", c.abft_bits);
            o.field("out_pow2", c.out_pow2);
        })
    }
}

/// Compares freshly computed certificates against the committed
/// summaries: a missing / spurious / *loosened* entry is
/// [`Defect::CertStale`] (regenerate the file), and a layer now
/// needing **more** bits than committed is
/// [`Defect::CertWidthRegression`] (the datapaths sized from the
/// certificate are no longer safe).
#[must_use]
pub fn check_certificates(
    subject: &str,
    committed: &[CertSummary],
    computed: &[WidthCertificate],
) -> VerifyReport {
    let mut report = VerifyReport::new(subject);
    for cert in computed {
        let Some(have) = committed.iter().find(|c| c.layer == cert.layer) else {
            report.defect(Defect::CertStale {
                layer: cert.layer.clone(),
                detail: "layer missing from the committed certificate".into(),
            });
            continue;
        };
        let fresh = cert.summary();
        for (field, committed_bits, computed_bits) in [
            ("stage1", have.stage1_bits, fresh.stage1_bits),
            ("stage2", have.stage2_bits, fresh.stage2_bits),
            ("abft", have.abft_bits, fresh.abft_bits),
        ] {
            match committed_bits.cmp(&computed_bits) {
                std::cmp::Ordering::Less => report.defect(Defect::CertWidthRegression {
                    layer: cert.layer.clone(),
                    field,
                    committed: committed_bits,
                    computed: computed_bits,
                }),
                std::cmp::Ordering::Greater => report.defect(Defect::CertStale {
                    layer: cert.layer.clone(),
                    detail: format!(
                        "{field} certified at {committed_bits} bits but the analysis proves {computed_bits}"
                    ),
                }),
                std::cmp::Ordering::Equal => report.facts += 1,
            }
        }
        if have.input != fresh.input
            || have.stage1 != fresh.stage1
            || have.stage2 != fresh.stage2
            || have.out_pow2 != fresh.out_pow2
        {
            // Same widths but different intervals still means the
            // committed file no longer describes this lowering.
            if have.stage1_bits == fresh.stage1_bits
                && have.stage2_bits == fresh.stage2_bits
                && have.abft_bits == fresh.abft_bits
            {
                report.defect(Defect::CertStale {
                    layer: cert.layer.clone(),
                    detail: "certified intervals differ from the current lowering".into(),
                });
            }
        } else {
            report.facts += 1;
        }
    }
    for have in committed {
        if !computed.iter().any(|c| c.layer == have.layer) {
            report.defect(Defect::CertStale {
                layer: have.layer.clone(),
                detail: "committed certificate names a layer the network no longer has".into(),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_sparse::LayerCode;
    use abm_telemetry::json::{self, Value};
    use abm_tensor::{Shape4, Tensor4};

    fn encode(
        w: &Tensor4<i8>,
        in_rows: usize,
        in_cols: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> (LayerCode, ConvGeometry) {
        let code = LayerCode::encode(w).unwrap();
        let shape = w.shape();
        let out_rows = abm_tensor::shape::conv_out_dim(in_rows, shape.kernel_rows, stride, pad);
        let out_cols = abm_tensor::shape::conv_out_dim(in_cols, shape.kernel_cols, stride, pad);
        let geom = ConvGeometry {
            in_channels: shape.in_channels * groups,
            in_rows,
            in_cols,
            stride,
            pad,
            groups,
            out_rows,
            out_cols,
        };
        (code, geom)
    }

    fn sample() -> (LayerCode, ConvGeometry) {
        let w = Tensor4::from_fn(Shape4::new(3, 2, 3, 3), |m, n, k, kp| {
            let x = (m * 131 + n * 31 + k * 7 + kp * 3) % 7;
            if x < 3 {
                0
            } else {
                (x as i8) - 3
            }
        });
        encode(&w, 8, 8, 1, 1, 1)
    }

    #[test]
    fn interval_arithmetic_is_exact() {
        let a = Interval::new(-3, 5);
        assert_eq!(a.scale(2), Interval::new(-6, 10));
        assert_eq!(a.scale(-2), Interval::new(-10, 6));
        assert_eq!(a + Interval::new(1, 1), Interval::new(-2, 6));
        assert_eq!(a.with_zero(), a);
        assert_eq!(Interval::new(2, 5).with_zero(), Interval::new(0, 5));
        assert!(a.contains(0) && !a.contains(6));
        assert!(Interval::new(-10, 10).encloses(a));
    }

    #[test]
    fn signed_bits_convention_matches_accumulator_model() {
        // Same convention as stage1_required_bits: 2^31 needs 33 bits.
        assert_eq!(signed_bits(1 << 31), 33);
        assert_eq!(signed_bits((1 << 31) - 1), 32);
        assert_eq!(signed_bits(i64::from(i32::MAX).into()), 32);
        assert_eq!(signed_bits(i32::MIN as i128), 32);
        assert_eq!(signed_bits((i32::MIN as i128) - 1), 33);
        assert_eq!(signed_bits(127), 8);
        assert_eq!(signed_bits(-128), 8);
        assert_eq!(signed_bits(0), 1);
        assert_eq!(Interval::new(-32768, 32767).required_bits(), 16);
        assert_eq!(Interval::new(-32769, 0).required_bits(), 17);
    }

    #[test]
    fn known_bits_lattice() {
        let b = KnownBits { pow2: 3 };
        assert_eq!(b.join(KnownBits { pow2: 1 }).pow2, 1);
        assert_eq!(b.scale(4).pow2, 5);
        assert_eq!(b.scale(0).pow2, 127);
        assert!(b.admits(16) && !b.admits(4));
    }

    #[test]
    fn certificate_is_internally_consistent_and_validates() {
        let (code, geom) = sample();
        let cert = certify_layer("t", &code, &geom, AbsVal::i8_features());
        assert!(cert.stage1.encloses(Interval::point(0)));
        assert!(cert.stage2.encloses(Interval::point(0)));
        assert_eq!(cert.stage1_bits, cert.stage1.required_bits());
        let r = cert.validate(&code, &geom);
        assert!(r.is_clean(), "{r}");
        assert!(r.facts >= 3);
    }

    #[test]
    fn certificate_is_strictly_tighter_than_worst_case_model() {
        let (code, geom) = sample();
        let cert = certify_layer("t", &code, &geom, AbsVal::i8_features());
        let counts = code.kernels().iter().flat_map(|k| k.group_counts());
        let worst = crate::AccumulatorModel::host().stage1_required_bits(counts);
        assert!(
            cert.stage1_bits < worst,
            "certified {} vs worst-case {worst}",
            cert.stage1_bits
        );
        // Full-range input degenerates to (at most) the worst case.
        let full = certify_layer("t", &code, &geom, AbsVal::i16_full());
        assert!(full.stage1_bits <= worst);
        assert!(full.stage1_bits >= cert.stage1_bits);
    }

    #[test]
    fn corrupted_certificate_is_range_unsound() {
        let (code, geom) = sample();
        let mut cert = certify_layer("t", &code, &geom, AbsVal::i8_features());
        cert.stage1_bits -= 1; // claim a narrower width than proven
        cert.stage1 = Interval::new(cert.stage1.lo / 2, cert.stage1.hi / 2);
        let r = cert.validate(&code, &geom);
        assert!(r.has_class("range_unsound"), "{r}");
    }

    #[test]
    fn tampered_witness_is_range_unsound() {
        let (code, geom) = sample();
        let mut cert = certify_layer("t", &code, &geom, AbsVal::i8_features());
        cert.stage2_witness.expect += 1;
        let r = cert.validate(&code, &geom);
        assert!(r.has_class("range_unsound"), "{r}");
    }

    #[test]
    fn known_bits_prove_even_outputs_for_even_weights() {
        let w = Tensor4::from_fn(Shape4::new(2, 1, 2, 2), |m, _, k, kp| {
            [2i8, -4, 6, 2, 4, -2, 2, 6][(m * 4 + k * 2 + kp) % 8]
        });
        let (code, geom) = encode(&w, 5, 5, 1, 0, 1);
        let cert = certify_layer("even", &code, &geom, AbsVal::i8_features());
        assert!(
            cert.out_pow2 >= 1,
            "outputs must be even, got 2^{}",
            cert.out_pow2
        );
        assert!(cert.validate(&code, &geom).is_clean());
    }

    #[test]
    fn network_certifier_threads_relu_and_requant() {
        let (code, geom) = sample();
        let mut net = NetworkCertifier::new(AbsVal::i8_features());
        let c1 = net.conv("conv1", &code, &geom, 8);
        // Requantized output is back in the 8-bit box.
        assert!(Interval::i8_features().encloses(net.state().range));
        net.relu();
        assert_eq!(net.state().range.lo, 0);
        net.pool();
        assert_eq!(net.state().range.lo, 0);
        // Post-ReLU input halves the negative side: the next conv's
        // certificate can only tighten or match.
        let c2 = net.conv("conv2", &code, &geom, 8);
        assert!(c2.stage1_bits <= c1.stage1_bits);
        // Residual add of the same branch doubles the box, exactly.
        let before = net.state();
        net.residual_add(before);
        assert_eq!(net.state().range, before.range + before.range);
    }

    #[test]
    fn packable_threshold_follows_stage1_bits() {
        // 4 taps · |x| ≤ 128 → |stage1| ≤ 512 → 11 bits: packable.
        let w = Tensor4::from_fn(Shape4::new(1, 1, 2, 2), |_, _, _, _| 3i8);
        let (code, geom) = encode(&w, 6, 6, 1, 0, 1);
        let cert = certify_layer("small", &code, &geom, AbsVal::i8_features());
        assert!(cert.packable(), "stage1_bits = {}", cert.stage1_bits);
        // The same layer under full i16 inputs is not.
        let wide = certify_layer("small", &code, &geom, AbsVal::i16_full());
        assert!(!wide.packable());
    }

    #[test]
    fn abft_bound_scales_with_output_pixels() {
        let (code, geom) = sample();
        let cert = certify_layer("t", &code, &geom, AbsVal::i8_features());
        let pixels = (geom.out_rows * geom.out_cols) as i128;
        assert_eq!(cert.abft, cert.stage2.scale(pixels));
        assert!(cert.abft_fits_i64());
    }

    #[test]
    fn check_certificates_flags_stale_and_regression() {
        let (code, geom) = sample();
        let cert = certify_layer("t", &code, &geom, AbsVal::i8_features());
        let good = vec![cert.summary()];
        let r = check_certificates("zoo", &good, std::slice::from_ref(&cert));
        assert!(r.is_clean(), "{r}");

        // Committed narrower than computed → regression.
        let mut regressed = good.clone();
        regressed[0].stage1_bits -= 1;
        let r = check_certificates("zoo", &regressed, std::slice::from_ref(&cert));
        assert!(r.has_class("cert_width_regression"), "{r}");

        // Committed wider than computed → stale.
        let mut loose = good.clone();
        loose[0].stage2_bits += 3;
        let r = check_certificates("zoo", &loose, std::slice::from_ref(&cert));
        assert!(r.has_class("cert_stale"), "{r}");

        // Missing layer → stale; spurious layer → stale.
        let r = check_certificates("zoo", &[], std::slice::from_ref(&cert));
        assert!(r.has_class("cert_stale"));
        let mut extra = good.clone();
        extra.push(CertSummary {
            layer: "ghost".into(),
            ..good[0].clone()
        });
        let r = check_certificates("zoo", &extra, std::slice::from_ref(&cert));
        assert!(r.has_class("cert_stale"));
    }

    #[test]
    fn summary_json_round_shape() {
        let (code, geom) = sample();
        let cert = certify_layer("CONV1", &code, &geom, AbsVal::i8_features());
        let doc = json::parse(&cert.summary().to_json()).unwrap();
        assert_eq!(doc.get("layer").and_then(Value::as_str), Some("CONV1"));
        assert_eq!(
            doc.get("stage1_bits"),
            Some(&Value::Num(f64::from(cert.stage1_bits)))
        );
        let stage2 = [cert.stage2.lo, cert.stage2.hi].map(|b| Value::Num(b as f64));
        assert_eq!(doc.get("stage2").and_then(Value::as_arr), Some(&stage2[..]));
    }

    /// Control characters in a layer name are escaped.
    #[test]
    fn summary_json_escapes_layer_names() {
        let (code, geom) = sample();
        let summary = certify_layer("CONV\n1", &code, &geom, AbsVal::i8_features()).summary();
        let doc = json::parse(&summary.to_json()).unwrap();
        assert_eq!(doc.get("layer").and_then(Value::as_str), Some("CONV\n1"));
    }
}
