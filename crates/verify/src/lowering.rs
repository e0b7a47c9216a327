//! Pass 1 — the lowering verifier.
//!
//! [`FlatCode`] is what the hot path executes *unchecked*: precomputed
//! `u32` offsets into the re-laid-out input (zero-padded, split into
//! stride phases — `abm_sparse::FlatLayout`) walked as pointer bumps,
//! one flat sweep over the whole output plane without per-tap bounds
//! tests, and analytic work counts trusted by construction. The
//! hardware earns the same trust at synthesis time — the offset ROM,
//! the Q-Table and the feature-buffer address ranges are fixed when the
//! bitstream is built. [`verify_lowering`] is the software analogue of
//! that synthesis-time proof: given the source [`LayerCode`], the
//! lowered [`FlatCode`] and the concrete convolution geometry, it proves
//!
//! 0. **walkability** — the layout's stride is positive, the source has
//!    its lowering's shape and kernel count, and each source kernel's
//!    Q-Table counts tile its index stream, so the checks below can
//!    walk both without dividing by zero or slicing past a stream (a
//!    corrupted source is a `malformed` defect, never a panic);
//! 1. **faithfulness** — every group's values and counts reconcile with
//!    the source Q-Table (the value groups partition exactly the
//!    non-zero weights, so the analytic `AbmWork` model counts the real
//!    work), every source index lies inside the kernel volume, and each
//!    group's offsets are exactly `FlatLayout::offset_of` of its source
//!    indexes, in ascending order (the lowering stores no coordinates:
//!    the source code is the witness);
//! 2. **in-bounds sweep** — the last position the executor sweeps (the
//!    output plane's last pixel) plus the kernel's largest offset stays
//!    inside the re-laid-out buffer. Positions only grow along the
//!    sweep and offsets are per-tap constants, so that one sum bounds
//!    every read of every pixel, wrap positions included. A layer whose
//!    sweep is **one position** (a fully-connected row) is also swept
//!    *across a batch*: its input is then a lane buffer
//!    `[feature][lane]` of some row length `P`, the positions of the
//!    sweep are the `P` lanes, and an offset `off` reads
//!    `(base + off)·P .. (base + off)·P + P` — inside the buffer's
//!    `input_len·P` elements for every `P` exactly when
//!    `base + off < input_len`. That is the obligation above at its one
//!    position; the pass states it as a fact of its own (and a defect
//!    of its own, `lane_sweep_out_of_bounds`), because the executor
//!    rests a second sweep on it;
//! 3. **stream order** — offsets ascend within each group (the
//!    forward-stream property the address generator relies on);
//! 4. **no overflow** — the worst-case accumulation magnitude fits the
//!    configured accumulator width.
//!
//! On success the executor's `debug_assert`-backed construction hook
//! (and `cargo xtask verify`) can state, not hope, that the unchecked
//! walk is safe. It is the one validator of a lowering against its
//! witness: nothing else decides that every flat offset is the address
//! of its code index.

use crate::report::{Defect, VerifyReport};
use abm_sparse::{FlatCode, FlatLayout, LayerCode};

/// The concrete convolution geometry a lowering is verified against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Total input channels (all groups).
    pub in_channels: usize,
    /// Input rows `R` (pre-padding).
    pub in_rows: usize,
    /// Input cols `C` (pre-padding).
    pub in_cols: usize,
    /// Stride `S`.
    pub stride: usize,
    /// Padding `P` on all sides.
    pub pad: usize,
    /// Channel groups.
    pub groups: usize,
    /// Output rows `R'`.
    pub out_rows: usize,
    /// Output cols `C'`.
    pub out_cols: usize,
}

/// The accumulator the verified layer will run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccumulatorModel {
    /// Signed accumulator width in bits.
    pub acc_bits: u32,
    /// Largest input magnitude the layer can see.
    pub max_abs_input: u64,
}

impl AccumulatorModel {
    /// The functional engine's host accumulator: `i64` partial sums over
    /// `i16` inputs.
    pub fn host() -> Self {
        Self {
            acc_bits: 64,
            max_abs_input: 1 << 15,
        }
    }

    /// Worst-case signed bits (magnitude + sign, same convention as the
    /// stage-2 check in [`verify_lowering`]) that any **stage-1 partial
    /// sum** of a layer can need under this model, from its value-group
    /// populations (`group_counts`, every kernel's Q-Table `NUM` column —
    /// [`LayerCode`] and its [`FlatCode`] lowering give the same ones):
    /// the largest population times the largest input magnitude. Every
    /// intermediate prefix of a group's accumulation is bounded by the
    /// same `count · max|input|` product, so the bound covers the whole
    /// running sum, not just its final value.
    ///
    /// This is the proof obligation the narrow-accumulator SIMD kernels
    /// discharge at lowering time: a result ≤ 32 licenses packing
    /// stage-1 lanes into `i32` vector elements
    /// (`abm_kernel::AccWidth::narrowest`), the CPU analogue of packing
    /// two narrow operands through one DSP48 multiplier.
    #[must_use]
    pub fn stage1_required_bits(&self, group_counts: impl IntoIterator<Item = u64>) -> u32 {
        let worst_count = group_counts.into_iter().max().unwrap_or(0);
        signed_bits(u128::from(worst_count) * u128::from(self.max_abs_input))
    }

    /// Worst-case signed bits any **stage-2 output accumulator** of a
    /// layer can need under this model: `max|input| · max over kernels
    /// of Σ_g |v_g|·count_g`, from every kernel's value groups
    /// (`kernels` yields, per kernel, its `(VAL, NUM)` pairs). A running
    /// sum of the products is bounded by the same total, so the bound
    /// covers every intermediate of the reduction, not just its result.
    ///
    /// [`verify_lowering`] checks it against the accumulator width, one
    /// kernel at a time; the host discharges it once per layer at
    /// preparation, where a result ≤ 32 lets the layer's output land in
    /// an `i32` accumulator plane instead of an `i64` one.
    #[must_use]
    pub fn stage2_required_bits<K>(&self, kernels: impl IntoIterator<Item = K>) -> u32
    where
        K: IntoIterator<Item = (i8, u64)>,
    {
        let weight = |groups: K| -> u128 {
            let products = groups.into_iter();
            products
                .map(|(v, count)| u128::from(v.unsigned_abs()) * u128::from(count))
                .sum()
        };
        let worst = kernels.into_iter().map(weight).max().unwrap_or(0);
        signed_bits(worst.saturating_mul(u128::from(self.max_abs_input)))
    }
}

/// Signed bits (magnitude + sign) a value of magnitude up to `worst`
/// needs.
fn signed_bits(worst: u128) -> u32 {
    128 - worst.leading_zeros() + 1
}

/// Verifies a flat lowering against its source code and geometry.
///
/// Returns a [`VerifyReport`] whose defects name the exact invariant
/// violated; a clean report means every property in the module docs was
/// proven for every kernel.
#[must_use]
pub fn verify_lowering(
    subject: &str,
    code: &LayerCode,
    flat: &FlatCode,
    geom: &ConvGeometry,
    acc: &AccumulatorModel,
) -> VerifyReport {
    let mut report = VerifyReport::new(subject);
    let shape = code.shape();
    // --- walkability of the layer: every layout computation below
    // divides by the stride, and the source must describe the kernels
    // its lowering holds.
    let malformed = |detail: String| Defect::Malformed { kernel: 0, detail };
    if geom.stride == 0 {
        report.defect(malformed("layout stride must be positive".into()));
        return report;
    }
    if flat.shape() != shape {
        let detail = format!(
            "flat code of {} lowered from a source of {shape}",
            flat.shape()
        );
        report.defect(malformed(detail));
        return report;
    }
    if flat.kernels().len() != code.kernels().len() {
        report.defect(Defect::KernelCountMismatch {
            flat: flat.kernels().len(),
            source: code.kernels().len(),
        });
        return report;
    }
    let layout = FlatLayout {
        in_rows: geom.in_rows,
        in_cols: geom.in_cols,
        stride: geom.stride,
        pad: geom.pad,
    };
    let input_len = layout.relaid_len(geom.in_channels) as u64;
    let channels_per_group = shape.in_channels;
    // Every source index's address, once per layer.
    let table = layout.offset_table(shape);

    // Positions the executor sweeps within one channel group: up to the
    // output plane's last pixel at the re-laid-out row pitch. Zero when
    // the plane is empty.
    let swept = layout.sweep_span(geom.out_rows, geom.out_cols) as u64;

    let m_per_group = shape.out_channels.div_ceil(geom.groups.max(1)).max(1);

    let mut expected = Vec::new();
    for (m, (fk, sk)) in flat.kernels().iter().zip(code.kernels()).enumerate() {
        // --- walkability of the source: its Q-Table counts must tile
        // its index stream before its groups can be walked.
        let counted: u64 = sk.group_counts().sum();
        if counted != sk.indices().len() as u64 {
            report.defect(Defect::Malformed {
                kernel: m,
                detail: format!(
                    "source Q-Table counts {counted} of its {} indexes",
                    sk.indices().len()
                ),
            });
            continue;
        }

        // --- structure: bounds table, arity ---
        let starts = fk.group_bounds();
        let offsets = fk.offsets();
        let bounds_ok = !starts.is_empty()
            && starts[0] == 0
            && starts.windows(2).all(|w| w[0] <= w[1])
            && *starts.last().unwrap_or(&0) as usize == offsets.len()
            && starts.len() == fk.values().len() + 1;
        if !bounds_ok {
            report.defect(Defect::GroupBoundsCorrupt { kernel: m });
            continue;
        }
        report.facts += 1;

        // --- faithfulness: the groups partition exactly the source's
        // non-zero weights, value for value and position for position.
        if fk.values().len() != sk.distinct() {
            report.defect(Defect::GroupValueMismatch {
                kernel: m,
                group: sk.distinct().min(fk.values().len()),
            });
            continue;
        }
        let mut prev_value: Option<i8> = None;
        for (g, ((&value, entry), (src_value, src_idxs))) in fk
            .values()
            .iter()
            .zip(sk.entries())
            .zip(sk.groups())
            .enumerate()
        {
            if value == 0 || prev_value.is_some_and(|p| p >= value) || value != entry.value {
                report.defect(Defect::GroupValueMismatch {
                    kernel: m,
                    group: g,
                });
            } else {
                report.facts += 1;
            }
            prev_value = Some(value);
            debug_assert_eq!(src_value, entry.value);

            let lo = starts[g] as usize;
            let hi = starts[g + 1] as usize;
            if hi - lo != src_idxs.len() {
                report.defect(Defect::GroupCountMismatch {
                    kernel: m,
                    group: g,
                    flat: (hi - lo) as u64,
                    source: src_idxs.len() as u64,
                });
                continue;
            }
            report.facts += 1;

            // The group's source addresses in executing order: ascending
            // offset (which for stride 1 is the encoder's scan order).
            expected.clear();
            for (j, &i) in src_idxs.iter().enumerate() {
                match table.get(i as usize) {
                    Some(&off) => expected.push(off),
                    None => report.defect(Defect::IndexOutOfKernel {
                        kernel: m,
                        index: lo + j,
                    }),
                }
            }
            if expected.len() != src_idxs.len() {
                continue;
            }
            expected.sort_unstable();

            let mut prev_off: Option<u32> = None;
            let mut ordered = true;
            for (j, &expected_off) in expected.iter().enumerate() {
                let i = lo + j;
                let off = offsets[i];
                // Offset is the re-laid-out address of the source index.
                if off as usize != expected_off {
                    report.defect(Defect::OffsetMismatch {
                        kernel: m,
                        index: i,
                        offset: off,
                        expected: expected_off as u32,
                    });
                    continue;
                }
                if prev_off.is_some_and(|p| p >= off) {
                    ordered = false;
                }
                prev_off = Some(off);
                report.facts += 1;
            }
            if !ordered {
                report.defect(Defect::StreamOrderViolation {
                    kernel: m,
                    group: g,
                });
            }
        }

        // --- in-bounds for the whole output plane: the last swept
        // position plus the largest offset is the largest read.
        let chan_base = (m / m_per_group) as u64 * layout.relaid_len(channels_per_group) as u64;
        let furthest = offsets.iter().max().map(|&off| chan_base + off as u64);
        if let (true, Some(furthest)) = (swept > 0, furthest) {
            let worst = furthest + (swept - 1);
            if worst >= input_len {
                report.defect(Defect::OffsetOutOfBounds {
                    kernel: m,
                    read_index: worst,
                    bound: input_len,
                });
            } else {
                report.facts += 1;
            }
        }

        // --- in-bounds for the sweep across a batch's lanes, which a
        // one-position layer also runs: the largest offset must pick a
        // feature the lane buffer has a row for, whatever its pitch.
        if swept == 1 {
            match furthest {
                Some(feature) if feature >= input_len => {
                    report.defect(Defect::LaneSweepOutOfBounds {
                        kernel: m,
                        feature,
                        features: input_len,
                    });
                }
                _ => {
                    report.facts += u64::from(furthest.is_some());
                    report.lane_kernels += 1;
                }
            }
        }

        // --- arithmetic: worst-case |accumulator| must fit acc_bits.
        // Stage 1's largest partial sum is `max count · max|input|`;
        // stage 2's output accumulator bounds everything at
        // `Σ |v_g|·count_g·max|input|`.
        let groups = fk.values().iter().copied().zip(fk.group_counts());
        let required_bits = acc.stage2_required_bits([groups]);
        if required_bits > acc.acc_bits {
            report.defect(Defect::AccumulatorOverflow {
                kernel: m,
                required_bits,
                acc_bits: acc.acc_bits,
            });
        } else {
            report.facts += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_sparse::FlatKernel;
    use abm_tensor::{Shape4, Tensor4};

    fn sample() -> (LayerCode, FlatCode, ConvGeometry) {
        sample_with(1, 1)
    }

    /// A 3x2x3x3 layer lowered against an 8x8 input.
    fn sample_with(stride: usize, pad: usize) -> (LayerCode, FlatCode, ConvGeometry) {
        let shape = Shape4::new(3, 2, 3, 3);
        let w = Tensor4::from_fn(shape, |m, n, k, kp| {
            let x = (m * 131 + n * 31 + k * 7 + kp * 3) % 7;
            if x < 3 {
                0
            } else {
                (x as i8) - 3
            }
        });
        let code = LayerCode::encode(&w).unwrap();
        let layout = FlatLayout {
            in_rows: 8,
            in_cols: 8,
            stride,
            pad,
        };
        let flat = FlatCode::lower(&code, layout).unwrap();
        let (out_rows, out_cols) = layout.out_dims(3, 3);
        let geom = ConvGeometry {
            in_channels: 2,
            in_rows: 8,
            in_cols: 8,
            stride,
            pad,
            groups: 1,
            out_rows,
            out_cols,
        };
        (code, flat, geom)
    }

    #[test]
    fn valid_lowering_is_clean() {
        let (code, flat, geom) = sample();
        let r = verify_lowering("t", &code, &flat, &geom, &AccumulatorModel::host());
        assert!(r.is_clean(), "{r}");
        assert!(r.facts > 0);
    }

    #[test]
    fn corrupt_offset_is_caught_as_offset_mismatch() {
        let (code, mut bad, geom) = sample();
        let (_, _, offsets) = bad.kernels_mut()[0].streams_mut();
        offsets[0] += 1; // one wrong address
        let r = verify_lowering("t", &code, &bad, &geom, &AccumulatorModel::host());
        assert!(r.has_class("offset_mismatch"), "{r}");
    }

    #[test]
    fn dropped_tap_is_caught_as_group_count_mismatch() {
        let (code, mut bad, geom) = sample();
        // Drop the last offset of the first group and re-point the bounds.
        let (_, starts, offsets) = bad.kernels_mut()[0].streams_mut();
        let cut = starts[1] as usize - 1;
        offsets.remove(cut);
        for s in starts.iter_mut().skip(1) {
            *s -= 1;
        }
        let r = verify_lowering("t", &code, &bad, &geom, &AccumulatorModel::host());
        assert!(r.has_class("group_count_mismatch"), "{r}");
    }

    #[test]
    fn valid_strided_lowering_is_clean() {
        // Stride > 1 sorts each group by offset, a permutation of the
        // encoder's scan order — still faithful.
        for (stride, pad) in [(2, 0), (2, 1), (3, 2), (4, 3)] {
            let (code, flat, geom) = sample_with(stride, pad);
            let r = verify_lowering("t", &code, &flat, &geom, &AccumulatorModel::host());
            assert!(r.is_clean(), "stride {stride} pad {pad}: {r}");
        }
    }

    #[test]
    fn offset_past_relaid_buffer_is_caught() {
        // The declared output plane claims rows the input cannot feed:
        // the flat sweep would read past the re-laid-out buffer.
        let (code, flat, mut geom) = sample();
        geom.out_rows += 3;
        let r = verify_lowering("t", &code, &flat, &geom, &AccumulatorModel::host());
        assert!(r.has_class("offset_out_of_bounds"), "{r}");
        // A buffer with a channel missing is as short.
        let (code, flat, mut geom) = sample();
        geom.in_channels = 1;
        let r = verify_lowering("t", &code, &flat, &geom, &AccumulatorModel::host());
        assert!(r.has_class("offset_out_of_bounds"), "{r}");
    }

    /// A fully-connected layer (what sweeps one position): 24 features
    /// in, 5 out, lowered as a 1×1 convolution over the flattened input.
    fn fc_sample() -> (LayerCode, FlatCode, ConvGeometry) {
        let w = Tensor4::from_fn(Shape4::new(5, 24, 1, 1), |m, n, _, _| {
            ((m * 7 + n * 3) % 5) as i8 - 2
        });
        let code = LayerCode::encode(&w).unwrap();
        let layout = FlatLayout {
            in_rows: 1,
            in_cols: 1,
            stride: 1,
            pad: 0,
        };
        let flat = FlatCode::lower(&code, layout).unwrap();
        let geom = ConvGeometry {
            in_channels: 24,
            in_rows: 1,
            in_cols: 1,
            stride: 1,
            pad: 0,
            groups: 1,
            out_rows: 1,
            out_cols: 1,
        };
        (code, flat, geom)
    }

    #[test]
    fn lane_sweep_is_proven_for_one_position_layers_only() {
        let (code, flat, geom) = fc_sample();
        let r = verify_lowering("fc", &code, &flat, &geom, &AccumulatorModel::host());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.lane_kernels, 5);
        // A convolution sweeps a plane: no lane sweep to prove.
        let (code, flat, geom) = sample();
        let r = verify_lowering("conv", &code, &flat, &geom, &AccumulatorModel::host());
        assert_eq!(r.lane_kernels, 0);
    }

    #[test]
    fn offset_equal_to_in_features_is_caught_for_the_lane_sweep() {
        let (code, flat, geom) = fc_sample();
        // Kernel 2 with its last offset re-pointed at `feature`.
        let repointed = |feature: u32| {
            let mut bad = flat.clone();
            let (_, _, offsets) = bad.kernels_mut()[2].streams_mut();
            *offsets.last_mut().unwrap() = feature;
            verify_lowering("fc", &code, &bad, &geom, &AccumulatorModel::host())
        };
        // One past the last feature: at pitch `P` the lane sweep would
        // read `24·P ..`, the first element past the lane buffer.
        let r = repointed(24);
        assert!(r.has_class("lane_sweep_out_of_bounds"), "{r}");
        assert!(r.has_class("offset_out_of_bounds"), "{r}");
        assert_eq!(r.lane_kernels, 4);
        // The last feature itself is in bounds at any pitch.
        let r = repointed(23);
        assert!(!r.has_class("lane_sweep_out_of_bounds"), "{r}");
        assert_eq!(r.lane_kernels, 5);
    }

    #[test]
    fn offset_not_decoding_to_tap_is_caught() {
        // Row-major offsets into the *unpadded, unsplit* input — what
        // the lowering emitted before the input was re-laid out — no
        // longer address the source index they stand for.
        let (code, mut bad, geom) = sample_with(2, 1);
        for k in bad.kernels_mut() {
            let taps: Vec<_> = k.taps().map(Option::unwrap).collect();
            let (_, _, offsets) = k.streams_mut();
            for (off, t) in offsets.iter_mut().zip(taps) {
                *off = (t.n as u32 * 8 + t.k as u32) * 8 + t.kp as u32;
            }
        }
        let r = verify_lowering("t", &code, &bad, &geom, &AccumulatorModel::host());
        assert!(r.has_class("offset_mismatch"), "{r}");
    }

    #[test]
    fn offset_moved_onto_a_neighbouring_tap_is_caught() {
        // The offset of a tap one column over is a valid address of the
        // layout — only the source code knows it is not this group's.
        let (code, mut bad, geom) = sample();
        let kernel_cols = bad.shape().kernel_cols;
        let kernel = &mut bad.kernels_mut()[0];
        let i = kernel
            .taps()
            .position(|t| (t.unwrap().kp as usize) + 1 < kernel_cols)
            .unwrap();
        kernel.streams_mut().2[i] += 1;
        let r = verify_lowering("t", &code, &bad, &geom, &AccumulatorModel::host());
        assert!(r.has_class("offset_mismatch"), "{r}");
    }

    #[test]
    fn source_index_past_the_kernel_volume_is_caught() {
        let (mut code, flat, geom) = sample();
        let kernel_len = code.shape().kernel_len() as u16;
        code.kernels_mut()[1].streams_mut().1[0] = kernel_len;
        let r = verify_lowering("t", &code, &flat, &geom, &AccumulatorModel::host());
        assert!(r.has_class("index_out_of_kernel"), "{r}");
    }

    /// What the walk cannot start on is a `malformed` defect naming its
    /// kernel, never a division by zero or a slice past the stream.
    #[test]
    fn an_unwalkable_lowering_is_malformed_not_a_panic() {
        let host = AccumulatorModel::host();
        let malformed_at = |r: &VerifyReport, kernel| {
            let first = r.defects.first().map(|d| (d.class(), d.kernel()));
            assert_eq!(first, Some(("malformed", Some(kernel))), "{r}");
        };
        let (code, flat, mut geom) = sample();
        geom.stride = 0;
        malformed_at(&verify_lowering("t", &code, &flat, &geom, &host), 0);
        // A source of another shape, with as many kernels.
        let (_, flat, geom) = sample();
        let other = Tensor4::from_fn(Shape4::new(3, 1, 3, 6), |_, _, _, _| 1i8);
        let other = LayerCode::encode(&other).unwrap();
        malformed_at(&verify_lowering("t", &other, &flat, &geom, &host), 0);
        // Q-Table counts that overrun or underrun the index stream.
        for delta in [1, -1] {
            let (mut code, flat, geom) = sample();
            let count = &mut code.kernels_mut()[1].streams_mut().0[0].count;
            *count = count.wrapping_add_signed(delta);
            malformed_at(&verify_lowering("t", &code, &flat, &geom, &host), 1);
        }
    }

    /// Corruption of either side of a lowering is a defect, and the
    /// first one names the corrupted kernel: of the streams (every
    /// offset moved to the next address at every stride, an offset's
    /// bits flipped, group bounds scrambled) and of the witness (an
    /// index past the volume, a count that overruns or underruns the
    /// index stream, an index moved, a value changed, a kernel missing).
    #[test]
    fn every_corruption_names_its_kernel_first() {
        let host = AccumulatorModel::host();
        let first = |code: &LayerCode, flat: &FlatCode, geom: &ConvGeometry| {
            let r = verify_lowering("t", code, flat, geom, &host);
            r.defects.first().map(|d| (d.class(), d.kernel()))
        };
        for stride in 1..=3 {
            let (code, flat, geom) = sample_with(stride, 1);
            for (m, kernel) in flat.kernels().iter().enumerate() {
                for i in 0..kernel.offsets().len() {
                    let mut bad = flat.clone();
                    bad.kernels_mut()[m].streams_mut().2[i] += 1;
                    let named = first(&code, &bad, &geom).and_then(|(_, k)| k);
                    assert_eq!(named, Some(m), "stride {stride} kernel {m} offset {i}");
                }
            }
        }

        let (code, flat, geom) = sample_with(2, 1);
        for bit in [0u32, 3, 7, 17, 31] {
            let mut bad = flat.clone();
            bad.kernels_mut()[1].streams_mut().2[2] ^= 1 << bit;
            let named = first(&code, &bad, &geom).and_then(|(_, k)| k);
            assert_eq!(named, Some(1), "bit {bit}");
        }
        let mut bad = flat.clone();
        let (_, bounds, _) = bad.kernels_mut()[0].streams_mut();
        let last = bounds.len() - 1;
        bounds.swap(0, last);
        let found = first(&code, &bad, &geom);
        assert_eq!(found, Some(("group_bounds_corrupt", Some(0))));

        let volume = code.shape().kernel_len() as u16;
        type Edit = fn(&mut LayerCode, u16);
        let edits: [(&str, usize, Edit); 6] = [
            ("index past the volume", 1, |c, volume| {
                c.kernels_mut()[1].streams_mut().1[0] = volume;
            }),
            ("last index past the volume", 2, |c, _| {
                *c.kernels_mut()[2].streams_mut().1.last_mut().unwrap() = u16::MAX;
            }),
            ("count overruns", 1, |c, _| {
                c.kernels_mut()[1].streams_mut().0[0].count += 1;
            }),
            ("count underruns", 1, |c, _| {
                c.kernels_mut()[1].streams_mut().0[0].count -= 1;
            }),
            ("index moved", 1, |c, volume| {
                let idx = &mut c.kernels_mut()[1].streams_mut().1[0];
                *idx = (*idx + 1) % volume;
            }),
            ("value changed", 1, |c, _| {
                c.kernels_mut()[1].streams_mut().0[0].value ^= 4;
            }),
        ];
        for (what, kernel, edit) in edits {
            let mut bad = code.clone();
            edit(&mut bad, volume);
            let named = first(&bad, &flat, &geom).and_then(|(_, k)| k);
            assert_eq!(named, Some(kernel), "{what}");
        }
        let short = Tensor4::from_fn(Shape4::new(2, 2, 3, 3), |_, _, _, _| 1i8);
        let short = LayerCode::encode(&short).unwrap();
        // A source of fewer kernels is of another shape: unwalkable.
        let found = first(&short, &flat, &geom);
        assert_eq!(found, Some(("malformed", Some(0))));
    }

    #[test]
    fn stage1_bits_track_worst_group() {
        let (code, flat, _) = sample();
        let counts = || flat.kernels().iter().flat_map(FlatKernel::group_counts);
        let worst_count = counts().max().unwrap();
        let model = AccumulatorModel::host();
        let bits = model.stage1_required_bits(counts());
        // The source Q-Table names the same populations.
        let source = code.kernels().iter().flat_map(|k| k.group_counts());
        assert_eq!(model.stage1_required_bits(source), bits);
        // Exact magnitude+sign recomputation for the worst group.
        let worst = worst_count as u128 * (1u128 << 15);
        assert_eq!(bits, 128 - worst.leading_zeros() + 1);
        // Small kernels over i16 inputs comfortably fit i32 lanes…
        assert!(bits <= 32);
        // …and the bound scales with the input model, crossing the i32
        // threshold once count · max|input| reaches 2^31.
        let hot = AccumulatorModel {
            acc_bits: 64,
            max_abs_input: 1 << 40,
        };
        assert!(hot.stage1_required_bits(counts()) > 32);
    }

    /// The stage-2 bound is the heaviest kernel's `Σ |v|·count` times
    /// the input magnitude, in the convention `verify_lowering` checks
    /// each kernel against: a worst case of exactly `2³¹ − 1` needs 32
    /// signed bits (an `i32` holds it), `2³¹` needs 33.
    #[test]
    fn stage2_bits_are_the_heaviest_kernel_at_the_i32_edge() {
        let unit = AccumulatorModel {
            acc_bits: 32,
            max_abs_input: 1,
        };
        let edge = i32::MAX as u64;
        // 127·c + r = 2³¹ − 1, split over a negative and a positive group.
        let (c, r) = (edge / 127, edge % 127);
        let below = vec![(-127, c), (r as i8, 1)];
        let above = vec![(-127, c), (r as i8 + 1, 1)];
        assert_eq!(unit.stage2_required_bits([below.clone()]), 32);
        assert_eq!(unit.stage2_required_bits([above.clone()]), 33);
        // The heaviest kernel decides, whatever the order; a layer of no
        // kernels needs only the sign bit.
        let light = vec![(3, 5)];
        let layer = [light.clone(), above, below];
        assert_eq!(unit.stage2_required_bits(layer), 33);
        assert_eq!(unit.stage2_required_bits([light]), 5);
        assert_eq!(unit.stage2_required_bits(Vec::<Vec<(i8, u64)>>::new()), 1);

        // On the host model the sample layer's bound is its heaviest
        // kernel's, which `verify_lowering` accepts at exactly that width
        // and rejects one bit narrower.
        let (code, flat, geom) = sample();
        let groups = |k: &FlatKernel| k.values().iter().copied().zip(k.group_counts()).collect();
        let kernels: Vec<Vec<(i8, u64)>> = flat.kernels().iter().map(groups).collect();
        let host = AccumulatorModel::host();
        let bits = host.stage2_required_bits(kernels.clone());
        let heaviest = kernels.iter().map(|k| {
            k.iter()
                .map(|&(v, c)| u128::from(v.unsigned_abs()) * u128::from(c))
                .sum::<u128>()
        });
        let worst = heaviest.max().unwrap() << 15;
        assert_eq!(bits, 128 - worst.leading_zeros() + 1);
        let at = |acc_bits| AccumulatorModel { acc_bits, ..host };
        assert!(verify_lowering("t", &code, &flat, &geom, &at(bits)).is_clean());
        let r = verify_lowering("t", &code, &flat, &geom, &at(bits - 1));
        assert!(r.has_class("accumulator_overflow"), "{r}");
    }

    #[test]
    fn narrow_accumulator_overflows() {
        let (code, flat, geom) = sample();
        let tiny = AccumulatorModel {
            acc_bits: 8,
            max_abs_input: 1 << 15,
        };
        let r = verify_lowering("t", &code, &flat, &geom, &tiny);
        assert!(r.has_class("accumulator_overflow"), "{r}");
        // A paper-width accumulator is fine.
        let wide = AccumulatorModel {
            acc_bits: 48,
            max_abs_input: 1 << 15,
        };
        assert!(verify_lowering("t", &code, &flat, &geom, &wide).is_clean());
    }
}
