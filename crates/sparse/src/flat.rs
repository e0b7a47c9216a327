//! Flat-offset lowering of the encoded weight streams — the software
//! analogue of the accelerator's address generator.
//!
//! The hardware walks each kernel's value-grouped WT-Buffer and turns
//! every 16-bit linear weight index into a feature-buffer address on the
//! fly; its feature buffer holds the *padded* window, so no accumulator
//! ever branches on padding or stride. [`FlatLayout`] is the one
//! definition of the same arrangement on the host, the **re-laid-out
//! input**: each channel is zero-padded by `pad` on all four sides and
//! then split space-to-depth into `stride × stride` phase planes of
//! `pr × pc` pixels (`pr = ⌈(R+2P)/S⌉`, `pc = ⌈(C+2P)/S⌉`; for `S = 1`
//! that is just the padded plane). Padded pixel `(n, y, x)` lives at
//!
//! ```text
//! ((n·S + y mod S)·S + x mod S) · pr·pc  +  (y div S)·pc  +  x div S
//! ```
//!
//! Output pixel `(r, c)` reads padded pixel `(r·S + k, c·S + k')` for tap
//! `(n, k, k')`, which is [`FlatLayout::offset_of`]`(tap) + r·pc + c`:
//! **every** output pixel — border or not, strided or not — is a base
//! plus a per-tap constant, and adjacent output columns are adjacent
//! addresses. [`FlatCode`] performs that decode **once per layer**, so
//! the inner accumulate loop is a pointer-bump walk over a contiguous
//! `u32` slice.
//!
//! **Two encodings of a non-zero, not three.** A prepared layer holds
//! its [`LayerCode`] (the 16-bit index stream, 2 B a non-zero) and this
//! lowering (the 32-bit offset stream, 4 B), nothing more. Whatever
//! reasons about weights rather than addresses — ABFT, the range
//! certifier, the load-time validator, the lowering verifier — reads
//! the code's indexes, which a lowered group holds the offsets of; and
//! because the address map is a bijection between the padded pixels and
//! the non-slack addresses, [`FlatLayout::tap_of`] decodes any offset
//! back to its `(n, k, k')` [`Tap`] when a view needs one
//! ([`FlatKernel::taps`], which stores nothing).

use crate::encode::{EncodeError, LayerCode};
use abm_tensor::shape::conv_out_dim;
use abm_tensor::{Shape3, Shape4, Tensor3};
use std::ops::Range;

/// Positions one row tile of the flat sweep aims for: enough that a
/// 13×13 or 27×27 plane is one tile of full vectors, small enough that
/// the input rows a tile of a 224-wide layer touches stay cache-resident
/// while every kernel of the layer sweeps them.
const TILE_POSITIONS: usize = 2048;

/// The input geometry a [`FlatCode`] is lowered against. Offsets are only
/// meaningful for inputs of exactly this shape and stride/pad, re-laid
/// out by [`relayout`](Self::relayout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlatLayout {
    /// Input feature-map rows `R` (pre-padding).
    pub in_rows: usize,
    /// Input feature-map columns `C` (pre-padding).
    pub in_cols: usize,
    /// Convolution stride `S` (both axes).
    pub stride: usize,
    /// Zero padding on all four sides.
    pub pad: usize,
}

impl FlatLayout {
    /// Rows of one phase plane, `pr = ⌈(R+2P)/S⌉`.
    fn phase_rows(&self) -> usize {
        (self.in_rows + 2 * self.pad).div_ceil(self.stride)
    }

    /// Columns of one phase plane, `pc = ⌈(C+2P)/S⌉` — the row pitch of
    /// the flat sweep.
    #[must_use]
    pub fn phase_cols(&self) -> usize {
        (self.in_cols + 2 * self.pad).div_ceil(self.stride)
    }

    /// Output rows and columns of a `kernel_rows × kernel_cols`
    /// convolution over this layout (zero when the kernel exceeds the
    /// padded input).
    #[must_use]
    pub fn out_dims(&self, kernel_rows: usize, kernel_cols: usize) -> (usize, usize) {
        let dim = |input, kernel| conv_out_dim(input, kernel, self.stride, self.pad);
        (
            dim(self.in_rows, kernel_rows),
            dim(self.in_cols, kernel_cols),
        )
    }

    /// Length of the re-laid-out buffer for `channels` input channels
    /// (`S²` phase planes each), saturating at `usize::MAX`.
    #[must_use]
    pub fn relaid_len(&self, channels: usize) -> usize {
        (self.phase_rows() * self.phase_cols())
            .saturating_mul(self.stride * self.stride)
            .saturating_mul(channels)
    }

    /// The layout of a feature map nothing pads or splits: stride 1, no
    /// padding, so the re-laid-out buffer is the plain channel-major
    /// tensor. What host layers, fully-connected layers and the
    /// non-lowered engines read their input through.
    #[must_use]
    pub fn identity(shape: Shape3) -> Self {
        Self {
            in_rows: shape.rows,
            in_cols: shape.cols,
            stride: 1,
            pad: 0,
        }
    }

    /// The address of padded pixel `(n, y, x)` in the re-laid-out buffer
    /// (see the module docs).
    fn address(&self, n: usize, y: usize, x: usize) -> usize {
        let s = self.stride;
        ((n * s + y % s) * s + x % s) * self.phase_rows() * self.phase_cols()
            + (y / s) * self.phase_cols()
            + x / s
    }

    /// The address of `tap` in the re-laid-out buffer, relative to the
    /// output pixel's base `group_base + r·pc + c`.
    #[must_use]
    pub fn offset_of(&self, tap: Tap) -> usize {
        self.address(tap.n as usize, tap.k as usize, tap.kp as usize)
    }

    /// The inverse of [`offset_of`](Self::offset_of) over the phase
    /// planes: the tap whose address `offset` is. Exact for every tap
    /// inside the padded input — so for every tap of a kernel whose
    /// output plane is not empty. `None` for an address in the rounding
    /// slack of the phase planes (a padded row past `R + 2P` or column
    /// past `C + 2P`), which no such tap reaches, for a coordinate past
    /// `u16`, and for a layout with no pixels or no stride.
    #[must_use]
    pub fn tap_of(&self, offset: usize) -> Option<Tap> {
        if self.stride == 0 {
            return None;
        }
        let (s, pc) = (self.stride, self.phase_cols());
        let plane = self.phase_rows() * pc;
        if plane == 0 {
            return None;
        }
        let (phase, at) = (offset / plane, offset % plane);
        let y = at / pc * s + phase / s % s;
        let x = at % pc * s + phase % s;
        if y >= self.in_rows + 2 * self.pad || x >= self.in_cols + 2 * self.pad {
            return None;
        }
        Some(Tap {
            n: u16::try_from(phase / (s * s)).ok()?,
            k: u16::try_from(y).ok()?,
            kp: u16::try_from(x).ok()?,
        })
    }

    /// Every linear weight index's offset for kernels of `shape`, in
    /// index (scan) order: `table[i]` is `offset_of` the tap `i`
    /// unravels to, built without a division per entry. Every kernel of
    /// a layer shares it, so a non-zero costs one lookup — what
    /// [`FlatCode::lower`] writes and the load-time validator checks
    /// offsets against.
    #[must_use]
    pub fn offset_table(&self, shape: Shape4) -> Vec<usize> {
        let mut table = Vec::with_capacity(shape.kernel_len());
        for n in 0..shape.in_channels {
            for k in 0..shape.kernel_rows {
                for kp in 0..shape.kernel_cols {
                    table.push(self.address(n, k, kp));
                }
            }
        }
        table
    }

    /// Stores channel `n`'s `in_rows × in_cols` plane at its re-laid-out
    /// position — the one definition of the arrangement on the write
    /// side. **Every** element of the channel's block is written, the
    /// zero padding and the rounding slack of the phase planes
    /// included, so the destination may hold anything (a buffer a layer
    /// of another shape used before): no stale halo survives a store.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is not `in_rows × in_cols` long or `relaid` is
    /// shorter than `relaid_len(n + 1)`.
    pub fn store_plane(&self, relaid: &mut [i16], n: usize, plane: &[i16]) {
        assert_eq!(
            plane.len(),
            self.in_rows * self.in_cols,
            "plane differs from the layout"
        );
        let (s, p, pc) = (self.stride, self.pad, self.phase_cols());
        let phase = self.phase_rows() * pc;
        let block = &mut relaid[n * s * s * phase..(n + 1) * s * s * phase];
        // Padded row `y` lands in row `y / s` of the `s` phase planes of
        // row phase `y % s`; rows above, below and past the input are
        // zeros.
        for y in 0..s * self.phase_rows() {
            let row_base = (y % s) * s * phase + (y / s) * pc;
            let row = match y.checked_sub(p) {
                Some(r) if r < self.in_rows => &plane[r * self.in_cols..(r + 1) * self.in_cols],
                _ => &[],
            };
            for q in 0..s {
                let dst = &mut block[row_base + q * phase..][..pc];
                if s == 1 && !row.is_empty() {
                    dst[..p].fill(0);
                    dst[p..p + row.len()].copy_from_slice(row);
                    dst[p + row.len()..].fill(0);
                    continue;
                }
                dst.fill(0);
                // First input column whose padded coordinate has phase q.
                let x0 = (q + s - p % s) % s;
                let data = row.iter().skip(x0).step_by(s);
                for (d, &v) in dst[(x0 + p) / s..].iter_mut().zip(data) {
                    *d = v;
                }
            }
        }
    }

    /// Re-lays `input` out: zero-pad each channel, then split it into
    /// `stride × stride` phase planes (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `input`'s plane is not `in_rows × in_cols`.
    #[must_use]
    pub fn relayout(&self, input: &Tensor3<i16>) -> Vec<i16> {
        let mut out = vec![0i16; self.relaid_len(input.shape().channels)];
        self.relayout_into(input, &mut out);
        out
    }

    /// [`relayout`](Self::relayout) into a buffer the caller owns (and
    /// may have used for anything): one
    /// [`store_plane`](Self::store_plane) per channel, or one copy when
    /// nothing pads or splits.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s plane is not `in_rows × in_cols` or `relaid`
    /// is shorter than `relaid_len(channels)`.
    pub fn relayout_into(&self, input: &Tensor3<i16>, relaid: &mut [i16]) {
        let shape = input.shape();
        assert_eq!(
            (shape.rows, shape.cols),
            (self.in_rows, self.in_cols),
            "input plane differs from the layout"
        );
        if (self.stride, self.pad) == (1, 0) {
            // The plain tensor as it lies — one copy, not one store per
            // 1×1 "plane" of a fully-connected layer's input.
            return relaid[..input.len()].copy_from_slice(input.as_slice());
        }
        let plane = self.in_rows * self.in_cols;
        for n in 0..shape.channels {
            self.store_plane(relaid, n, &input.as_slice()[n * plane..(n + 1) * plane]);
        }
    }

    /// The inverse of [`relayout`](Self::relayout): gathers `channels`
    /// channels back out of a re-laid-out buffer, dropping the padding.
    /// The way back to a tensor at the network boundary and for the
    /// engines that take one (never on the lowered hot path).
    ///
    /// # Panics
    ///
    /// Panics if `relaid` is shorter than `relaid_len(channels)`.
    #[must_use]
    pub fn strip(&self, relaid: &[i16], channels: usize) -> Tensor3<i16> {
        let shape = Shape3::new(channels, self.in_rows, self.in_cols);
        Tensor3::from_fn(shape, |n, y, x| {
            relaid[self.address(n, y + self.pad, x + self.pad)]
        })
    }

    /// The output-row tiles of the flat sweep: equal runs of rows
    /// holding about `TILE_POSITIONS` positions each, the last one
    /// possibly shorter.
    pub fn tiles(&self, out_rows: usize) -> impl Iterator<Item = Range<usize>> {
        let fit = (TILE_POSITIONS / self.phase_cols().max(1)).max(1);
        let count = out_rows.div_ceil(fit).max(1);
        let rows = out_rows.div_ceil(count).max(1);
        (0..out_rows)
            .step_by(rows)
            .map(move |r0| r0..(r0 + rows).min(out_rows))
    }

    /// Positions one sweep over `rows` consecutive output rows covers:
    /// whole pitches for all but the last row, whose sweep stops at its
    /// last useful pixel.
    #[must_use]
    pub fn sweep_span(&self, rows: usize, out_cols: usize) -> usize {
        if rows == 0 || out_cols == 0 {
            return 0;
        }
        (rows - 1) * self.phase_cols() + out_cols
    }

    /// The shortest sweep any tile of an `out_rows × out_cols` plane
    /// issues — the one sweep-length rule kernel dispatch reads
    /// (`abm_kernel::select_auto`): a variant whose lane count exceeds
    /// it would leave that tile on the one-pixel-at-a-time path.
    #[must_use]
    pub fn shortest_sweep(&self, out_rows: usize, out_cols: usize) -> usize {
        self.tiles(out_rows)
            .map(|tile| self.sweep_span(tile.len(), out_cols))
            .min()
            .unwrap_or(0)
    }
}

/// One decoded weight position: the `(n, k, k')` coordinates of a
/// non-zero weight — what [`FlatLayout::offset_of`] turns into an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tap {
    /// Input channel within the kernel's group (`n`).
    pub n: u16,
    /// Kernel row (`k`).
    pub k: u16,
    /// Kernel column (`k'`).
    pub kp: u16,
}

/// One kernel's value groups lowered to flat input offsets.
///
/// Groups appear in the same ascending-value order as the source
/// [`KernelCode`](crate::KernelCode), and offsets ascend within a group —
/// the forward-stream property the hardware address generator relies on
/// survives the lowering. For `stride == 1` that is the encoder's scan
/// order; for `stride > 1` each group is sorted by offset (stage-1 sums
/// are order-free, and the scan order stays in the [`LayerCode`]).
///
/// Three streams — values, group bounds, offsets — and the layout the
/// offsets address, which is what lets [`taps`](Self::taps) decode
/// coordinates without storing any.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlatKernel {
    values: Vec<i8>,
    /// Group `g` owns `offsets[starts[g] .. starts[g+1]]` (`len+1` entries).
    starts: Vec<u32>,
    offsets: Vec<u32>,
    layout: FlatLayout,
}

/// The layout of a kernel no [`FlatCode`] has placed yet: one 1×1
/// plane per channel, so an offset decodes as a fully-connected row's
/// feature index.
const UNPLACED: FlatLayout = FlatLayout {
    in_rows: 1,
    in_cols: 1,
    stride: 1,
    pad: 0,
};

impl FlatKernel {
    /// Assembles a kernel directly from its three streams, bypassing
    /// [`FlatCode::lower`]. No structural invariants are enforced — this
    /// exists so tools that deserialize offset tables (and the digest's
    /// property test) can build arbitrary, possibly-corrupt codes from
    /// scratch; to corrupt a lowered kernel, edit it through
    /// [`streams_mut`](Self::streams_mut). The kernel takes its layout
    /// from the [`FlatCode::from_kernels`] that assembles it. Anything
    /// destined for an executor should come from `lower` or pass
    /// `abm-verify`'s lowering pass first.
    pub fn from_raw_parts(values: Vec<i8>, group_bounds: Vec<u32>, offsets: Vec<u32>) -> Self {
        Self {
            values,
            starts: group_bounds,
            offsets,
            layout: UNPLACED,
        }
    }

    /// The three streams for editing in place, in
    /// [`from_raw_parts`](Self::from_raw_parts)' order: values, group
    /// bounds, offsets. Like that constructor it enforces nothing — it
    /// is how fault injection and the detectors' negative tests flip a
    /// bit or drop an offset of a lowered kernel without rebuilding it.
    pub fn streams_mut(&mut self) -> (&mut Vec<i8>, &mut Vec<u32>, &mut Vec<u32>) {
        (&mut self.values, &mut self.starts, &mut self.offsets)
    }

    /// The distinct quantized values, ascending (the Q-Table `VAL`s).
    #[inline]
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Group boundaries into [`offsets`](Self::offsets): group `g` is
    /// `starts[g]..starts[g+1]`.
    #[inline]
    pub fn group_bounds(&self) -> &[u32] {
        &self.starts
    }

    /// All flat offsets, groups concatenated in value order.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The `(n, k, k')` coordinates of every offset, in offset order,
    /// decoded on the fly ([`FlatLayout::tap_of`] against the kernel's
    /// layout) — a view, nothing is stored. `None` where an offset
    /// addresses no pixel of the padded input, which only a corrupted
    /// stream has. What reasons about weights reads the source
    /// [`LayerCode`]'s indexes instead; this is for a caller holding
    /// the lowering alone.
    pub fn taps(&self) -> impl ExactSizeIterator<Item = Option<Tap>> + '_ {
        let layout = self.layout;
        self.offsets
            .iter()
            .map(move |&off| layout.tap_of(off as usize))
    }

    /// Iterates `(value, flat offsets)` group by group.
    pub fn offset_groups(&self) -> impl ExactSizeIterator<Item = (i8, &[u32])> + '_ {
        self.values
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&v, w)| (v, &self.offsets[w[0] as usize..w[1] as usize]))
    }

    /// Per-group occurrence counts in value order — the source Q-Table's
    /// `NUM` column ([`KernelCode::group_counts`](crate::KernelCode::group_counts)),
    /// which the lowering preserves.
    pub fn group_counts(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.starts.windows(2).map(|w| (w[1] - w[0]) as u64)
    }

    /// Total non-zero weights (the kernel's accumulation workload).
    #[inline]
    pub fn total(&self) -> u32 {
        self.offsets.len() as u32
    }

    /// Number of distinct values (the multiplication workload `Q(m)`).
    #[inline]
    pub fn distinct(&self) -> usize {
        self.values.len()
    }
}

/// A whole layer's kernels lowered against one input geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatCode {
    shape: Shape4,
    layout: FlatLayout,
    kernels: Vec<FlatKernel>,
}

impl FlatCode {
    /// Lowers an encoded layer to flat offsets against `layout`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::OffsetOverflow`] if the re-laid-out input
    /// of one channel group is so large that an offset would not fit 32
    /// bits (`relaid_len(in_channels)` must stay within `2^32`), and
    /// [`EncodeError::CorruptCode`] for a code whose Q-Table counts do
    /// not add up to its index stream or whose index leaves the kernel
    /// volume (only an edited code has either).
    pub fn lower(code: &LayerCode, layout: FlatLayout) -> Result<Self, EncodeError> {
        let shape = code.shape();
        // Bases add up to a whole group's re-laid-out length to an
        // offset, so the length itself must stay addressable.
        let last = layout.relaid_len(shape.in_channels).saturating_sub(1);
        if u32::try_from(last).is_err() {
            return Err(EncodeError::OffsetOverflow { offset: last });
        }
        // Every kernel of the layer shares one geometry, so each linear
        // weight index decodes to its offset once per layer, in scan
        // order and without a division; a non-zero is a lookup.
        let table = layout.offset_table(shape);
        let mut kernels = Vec::with_capacity(code.kernels().len());
        for (m, kernel) in code.kernels().iter().enumerate() {
            let corrupt = EncodeError::CorruptCode { kernel: m };
            if kernel.group_counts().sum::<u64>() != kernel.indices().len() as u64 {
                return Err(corrupt);
            }
            let mut flat = FlatKernel {
                values: Vec::with_capacity(kernel.distinct()),
                starts: Vec::with_capacity(kernel.distinct() + 1),
                offsets: Vec::with_capacity(kernel.total() as usize),
                layout,
            };
            flat.starts.push(0);
            for (value, idxs) in kernel.groups() {
                flat.values.push(value);
                let start = flat.offsets.len();
                for &i in idxs {
                    let off = *table.get(i as usize).ok_or(corrupt)?;
                    let off32 = u32::try_from(off)
                        .map_err(|_| EncodeError::OffsetOverflow { offset: off })?;
                    flat.offsets.push(off32);
                }
                // Scan order already ascends for stride 1; the phase
                // split reorders it otherwise.
                if layout.stride > 1 {
                    flat.offsets[start..].sort_unstable();
                }
                flat.starts.push(flat.offsets.len() as u32);
            }
            kernels.push(flat);
        }
        Ok(Self {
            shape,
            layout,
            kernels,
        })
    }

    /// Assembles a layer from pre-built kernels without re-lowering,
    /// placing each of them at `layout`. Like
    /// [`FlatKernel::from_raw_parts`], this enforces nothing — it is the
    /// from-scratch escape hatch; a lowered layer is edited through
    /// [`kernels_mut`](Self::kernels_mut).
    pub fn from_kernels(shape: Shape4, layout: FlatLayout, mut kernels: Vec<FlatKernel>) -> Self {
        for kernel in &mut kernels {
            kernel.layout = layout;
        }
        Self {
            shape,
            layout,
            kernels,
        }
    }

    /// The source weight shape.
    #[inline]
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// The input geometry this code was lowered against.
    #[inline]
    pub fn layout(&self) -> FlatLayout {
        self.layout
    }

    /// Per-kernel flat codes in kernel order.
    #[inline]
    pub fn kernels(&self) -> &[FlatKernel] {
        &self.kernels
    }

    /// The kernels for editing in place (see
    /// [`FlatKernel::streams_mut`]); shape and layout stay as lowered.
    #[inline]
    pub fn kernels_mut(&mut self) -> &mut [FlatKernel] {
        &mut self.kernels
    }

    /// Total non-zero weights in the layer.
    pub fn total_nnz(&self) -> u64 {
        self.kernels.iter().map(|k| k.total() as u64).sum()
    }

    /// Total distinct-value groups summed over kernels (`Σ_m Q(m)`).
    pub fn total_distinct(&self) -> u64 {
        self.kernels.iter().map(|k| k.distinct() as u64).sum()
    }

    /// The largest per-kernel group count — the partial-sum scratch size
    /// an executor needs.
    pub fn max_distinct(&self) -> usize {
        self.kernels
            .iter()
            .map(FlatKernel::distinct)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_tensor::Tensor4;
    use proptest::prelude::*;

    fn layout(rows: usize, cols: usize, stride: usize, pad: usize) -> FlatLayout {
        FlatLayout {
            in_rows: rows,
            in_cols: cols,
            stride,
            pad,
        }
    }

    /// The lowering keeps every kernel's Q-Table: the same `(VAL, NUM)`
    /// entries in the same order — so `distinct()` and `total()` agree
    /// too. The simulator times the [`LayerCode`]'s Q-Tables on the
    /// strength of this for the streams the functional engine executes.
    fn assert_keeps_q_tables(code: &LayerCode, flat: &FlatCode) {
        assert_eq!(flat.shape(), code.shape());
        assert_eq!(flat.kernels().len(), code.kernels().len());
        for (m, (fk, kc)) in flat.kernels().iter().zip(code.kernels()).enumerate() {
            let entries: Vec<(i8, u64)> = kc
                .entries()
                .iter()
                .map(|e| (e.value, u64::from(e.count)))
                .collect();
            let groups: Vec<(i8, u64)> =
                fk.values().iter().copied().zip(fk.group_counts()).collect();
            assert_eq!(groups, entries, "kernel {m}");
            assert!(kc.group_counts().eq(fk.group_counts()), "kernel {m}");
            assert_eq!(fk.distinct(), kc.distinct(), "kernel {m}");
            assert_eq!(fk.total(), kc.total(), "kernel {m}");
        }
        assert_eq!(flat.total_nnz(), code.total_nnz());
        assert_eq!(flat.total_distinct(), code.total_distinct());
    }

    #[test]
    fn offsets_match_coordinate_arithmetic() {
        let shape = Shape4::new(1, 2, 2, 3);
        let w = Tensor4::from_fn(shape, |_, _, _, _| 1i8);
        let code = LayerCode::encode(&w).unwrap();
        // Each group's offsets, in executing order, from the source
        // indexes and a closed-form address.
        let expected = |address: &dyn Fn(usize, usize, usize) -> usize| -> Vec<u32> {
            let (_, idxs) = code.kernels()[0].groups().next().unwrap();
            let mut offs: Vec<u32> = idxs
                .iter()
                .map(|&i| {
                    let (n, k, kp) = code.unravel(i);
                    address(n, k, kp) as u32
                })
                .collect();
            offs.sort_unstable();
            offs
        };
        // Unit stride: the padded plane, row pitch C + 2P.
        let flat = FlatCode::lower(&code, layout(5, 6, 1, 1)).unwrap();
        let fk = &flat.kernels()[0];
        assert_eq!(fk.offsets(), expected(&|n, k, kp| n * (7 * 8) + k * 8 + kp));
        // Stride 2: four 3x3 phase planes per channel of the 5x6 input.
        let flat = FlatCode::lower(&code, layout(5, 6, 2, 0)).unwrap();
        let fk = &flat.kernels()[0];
        let phased = |n: usize, k: usize, kp: usize| {
            ((n * 2 + k % 2) * 2 + kp % 2) * 9 + (k / 2) * 3 + kp / 2
        };
        assert_eq!(fk.offsets(), expected(&phased));
        // The tap view decodes every offset back to its coordinates.
        for (&off, tap) in fk.offsets().iter().zip(fk.taps()) {
            let tap = tap.unwrap();
            assert_eq!(
                phased(tap.n as usize, tap.k as usize, tap.kp as usize),
                off as usize
            );
        }
        // Offsets ascend within a group whatever the stride.
        for (_, group) in fk.offset_groups() {
            assert!(group.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn a_corrupt_code_is_an_error_not_a_panic() {
        let w = Tensor4::from_fn(Shape4::new(2, 1, 2, 2), |m, _, k, kp| (m + k + kp) as i8);
        let lay = layout(3, 3, 1, 0);
        // An index past the 1x2x2 kernel volume.
        let mut code = LayerCode::encode(&w).unwrap();
        code.kernels_mut()[1].streams_mut().1[0] = 4;
        assert_eq!(
            FlatCode::lower(&code, lay),
            Err(EncodeError::CorruptCode { kernel: 1 })
        );
        // A Q-Table count that overruns the index stream.
        let mut code = LayerCode::encode(&w).unwrap();
        code.kernels_mut()[0].streams_mut().0[0].count += 1;
        assert_eq!(
            FlatCode::lower(&code, lay),
            Err(EncodeError::CorruptCode { kernel: 0 })
        );
    }

    #[test]
    fn tiles_cover_the_plane_and_name_the_shortest_sweep() {
        for (rows, cols, stride, pad) in [(13, 13, 1, 1), (224, 224, 1, 1), (227, 227, 4, 0)] {
            let lay = layout(rows, cols, stride, pad);
            let k = if stride == 4 { 11 } else { 3 };
            let (out_rows, out_cols) = lay.out_dims(k, k);
            let tiles: Vec<_> = lay.tiles(out_rows).collect();
            assert_eq!(tiles.first().unwrap().start, 0);
            assert_eq!(tiles.last().unwrap().end, out_rows);
            assert!(tiles.windows(2).all(|w| w[0].end == w[1].start));
            let shortest = tiles
                .iter()
                .map(|t| (t.len() - 1) * lay.phase_cols() + out_cols)
                .min()
                .unwrap();
            assert_eq!(lay.shortest_sweep(out_rows, out_cols), shortest);
        }
        // 13x13 "same" conv: one tile, 12 pitches of 15 plus 13 pixels.
        assert_eq!(layout(13, 13, 1, 1).shortest_sweep(13, 13), 193);
        // An FC layer sweeps one position; no output, no sweep.
        assert_eq!(layout(1, 1, 1, 0).shortest_sweep(1, 1), 1);
        assert_eq!(layout(2, 2, 1, 0).shortest_sweep(0, 0), 0);
    }

    #[test]
    fn oversized_relaid_buffer_is_offset_overflow() {
        // One channel of 2^16 x 2^16 already spans 2^32 positions.
        let w = Tensor4::from_fn(Shape4::new(1, 1, 1, 1), |_, _, _, _| 1i8);
        let code = LayerCode::encode(&w).unwrap();
        let err = FlatCode::lower(&code, layout(1 << 16, 1 << 16, 1, 1)).unwrap_err();
        assert!(
            matches!(err, EncodeError::OffsetOverflow { offset } if offset > u32::MAX as usize)
        );
    }

    #[test]
    fn empty_layer_lowering() {
        let w = Tensor4::<i8>::zeros(Shape4::new(2, 1, 3, 3));
        let code = LayerCode::encode(&w).unwrap();
        let flat = FlatCode::lower(&code, layout(4, 4, 1, 0)).unwrap();
        assert_eq!(flat.total_nnz(), 0);
        assert_eq!(flat.max_distinct(), 0);
        assert!(flat.kernels().iter().all(|k| k.offset_groups().len() == 0));
    }

    /// The lowering the per-layer table replaced — every non-zero's
    /// index unravelled and its offset computed afresh, each group
    /// sorted by offset when the stride splits phases — kept only as the
    /// oracle the table lowering must reproduce byte for byte.
    fn per_tap_lower(code: &LayerCode, layout: FlatLayout) -> FlatCode {
        let kernels = code
            .kernels()
            .iter()
            .map(|kernel| {
                let (mut values, mut starts, mut offsets) = (Vec::new(), vec![0u32], Vec::new());
                for (value, idxs) in kernel.groups() {
                    let mut group: Vec<u32> = idxs
                        .iter()
                        .map(|&i| {
                            let (n, k, kp) = code.unravel(i);
                            let tap = Tap {
                                n: n as u16,
                                k: k as u16,
                                kp: kp as u16,
                            };
                            layout.offset_of(tap) as u32
                        })
                        .collect();
                    if layout.stride > 1 {
                        group.sort();
                    }
                    values.push(value);
                    offsets.extend(group);
                    starts.push(offsets.len() as u32);
                }
                FlatKernel::from_raw_parts(values, starts, offsets)
            })
            .collect();
        FlatCode::from_kernels(code.shape(), layout, kernels)
    }

    /// Every layer of AlexNet and VGG16 at seed 2019 — strided, padded,
    /// grouped and fully connected — lowers exactly as the per-tap
    /// reference lowers it, and keeps its Q-Tables.
    #[test]
    fn zoo_layers_lower_as_the_per_tap_reference() {
        use abm_model::{synthesize_model, zoo, LayerKind, PruneProfile};
        for (net, profile) in [
            (zoo::alexnet(), PruneProfile::alexnet_deep_compression()),
            (zoo::vgg16(), PruneProfile::vgg16_deep_compression()),
        ] {
            let model = synthesize_model(&net, &profile, 2019);
            for layer in &model.layers {
                let code = LayerCode::encode(&layer.weights).unwrap();
                let input = layer.layer.input_shape;
                let lay = if matches!(layer.layer.layer.kind, LayerKind::FullyConnected(_)) {
                    layout(1, 1, 1, 0)
                } else {
                    layout(input.rows, input.cols, layer.stride(), layer.pad())
                };
                let flat = FlatCode::lower(&code, lay).unwrap();
                assert!(
                    flat == per_tap_lower(&code, lay),
                    "{}/{}",
                    net.name(),
                    layer.name()
                );
                assert_keeps_q_tables(&code, &flat);
            }
        }
    }

    proptest! {
        /// Random shapes, strides, pads, channel groups, sparsities and
        /// weight bit widths (2–8: few distinct values make long groups,
        /// many make short ones), as convolutions and as the same
        /// weights fully connected: every lowering keeps its Q-Tables.
        #[test]
        fn lowering_keeps_every_q_table(
            dims in (1usize..4, 1usize..3, 1usize..4, 1usize..9, 1usize..9),
            kernel in (1usize..6, 1usize..6),
            stride in 1usize..5,
            pad in 0usize..4,
            density in 0u32..101,
            bits in 2u32..9,
            draws in prop::collection::vec((0u32..100, any::<i8>()), 450..451),
        ) {
            let (m_per_group, groups, n, rows, cols) = dims;
            let (kr, kc) = kernel;
            // A grouped layer's weights are `M × N/g × K × K'`: the
            // groups multiply the kernels, each over `n` channels.
            let m = m_per_group * groups;
            // A `bits`-wide signed value: the draw's top bits.
            let weights: Vec<i8> = draws[..m * n * kr * kc]
                .iter()
                .map(|&(p, v)| if p < density { v >> (8 - bits) } else { 0 })
                .collect();
            let conv = Tensor4::from_vec(Shape4::new(m, n, kr, kc), weights.clone());
            let code = LayerCode::encode(&conv).unwrap();
            assert_keeps_q_tables(&code, &FlatCode::lower(&code, layout(rows, cols, stride, pad)).unwrap());
            let fc = Tensor4::from_vec(Shape4::new(m, n * kr * kc, 1, 1), weights);
            let code = LayerCode::encode(&fc).unwrap();
            assert_keeps_q_tables(&code, &FlatCode::lower(&code, layout(1, 1, 1, 0)).unwrap());
        }

        /// The layout proptest's domain — strides 1–4, pads 0–3, kernels
        /// up to 5×5 over up to 3 channels a group, inputs up to 8×8 —
        /// at every density, and the same weights as a fully-connected
        /// layer (one 1×1 kernel over the flattened input).
        #[test]
        fn table_lowering_equals_the_per_tap_reference(
            dims in (1usize..4, 1usize..4, 1usize..9, 1usize..9),
            kernel in (1usize..6, 1usize..6),
            stride in 1usize..5,
            pad in 0usize..4,
            density in 0u32..101,
            draws in prop::collection::vec((0u32..100, any::<i8>()), 225..226),
        ) {
            let (m, n, rows, cols) = dims;
            let (kr, kc) = kernel;
            let weights: Vec<i8> = draws[..m * n * kr * kc]
                .iter()
                .map(|&(p, v)| if p < density { v } else { 0 })
                .collect();
            let conv = Tensor4::from_vec(Shape4::new(m, n, kr, kc), weights.clone());
            let code = LayerCode::encode(&conv).unwrap();
            let lay = layout(rows, cols, stride, pad);
            prop_assert_eq!(FlatCode::lower(&code, lay).unwrap(), per_tap_lower(&code, lay));
            let fc = Tensor4::from_vec(Shape4::new(m, n * kr * kc, 1, 1), weights);
            let code = LayerCode::encode(&fc).unwrap();
            let lay = layout(1, 1, 1, 0);
            prop_assert_eq!(FlatCode::lower(&code, lay).unwrap(), per_tap_lower(&code, lay));
        }

        /// The whole point of the layout: for every output pixel and
        /// every tap, `relaid[base + offset_of(tap)]` is the zero-padded
        /// input pixel the convolution reads, and everything a sweep
        /// touches — wrap positions included — stays inside the buffer.
        #[test]
        fn relaid_reads_equal_the_padded_reference(
            dims in (1usize..4, 1usize..9, 1usize..9),
            kernel in (1usize..6, 1usize..6),
            stride in 1usize..5,
            pad in 0usize..4,
            groups in 1usize..3,
            salt in 0usize..1000,
        ) {
            let (per_group, rows, cols) = dims;
            let (kr, kc) = kernel;
            let lay = layout(rows, cols, stride, pad);
            let (out_rows, out_cols) = lay.out_dims(kr, kc);
            let channels = per_group * groups;
            let input = Tensor3::from_fn(Shape3::new(channels, rows, cols), |c, r, x| {
                ((c * 577 + r * 37 + x * 11 + salt) % 65_536) as u16 as i16
            });
            let relaid = lay.relayout(&input);
            prop_assert_eq!(relaid.len(), lay.relaid_len(channels));
            // The write side: plane stores over a dirty buffer leave the
            // same bytes (no stale halo), and stripping undoes them.
            let mut dirty = vec![0x5a5a_i16; relaid.len()];
            lay.relayout_into(&input, &mut dirty);
            prop_assert_eq!(&dirty, &relaid);
            prop_assert_eq!(&lay.strip(&relaid, channels), &input);
            let padded = |c: usize, y: usize, x: usize| {
                if y < pad || x < pad || y - pad >= rows || x - pad >= cols {
                    0
                } else {
                    input[(c, y - pad, x - pad)]
                }
            };
            let mut max_off = 0;
            for g in 0..groups {
                let group_base = g * lay.relaid_len(per_group);
                for n in 0..per_group {
                    for k in 0..kr {
                        for kp in 0..kc {
                            let tap = Tap { n: n as u16, k: k as u16, kp: kp as u16 };
                            let off = lay.offset_of(tap);
                            max_off = max_off.max(off);
                            for r in 0..out_rows {
                                for c in 0..out_cols {
                                    let base = group_base + r * lay.phase_cols() + c;
                                    prop_assert_eq!(
                                        relaid[base + off],
                                        padded(g * per_group + n, r * stride + k, c * stride + kp),
                                        "pixel ({}, {}) tap ({}, {}, {})", r, c, n, k, kp
                                    );
                                }
                            }
                        }
                    }
                }
            }
            // Every swept read, wrap positions included.
            let swept = lay.sweep_span(out_rows, out_cols);
            if swept > 0 {
                prop_assert!(
                    (groups - 1) * lay.relaid_len(per_group) + swept - 1 + max_off < relaid.len()
                );
            }
            // Tiles partition the rows; none sweeps further than the plane.
            let covered: usize = lay.tiles(out_rows).map(|t| t.len()).sum();
            prop_assert_eq!(covered, out_rows);
        }

        /// `tap_of` inverts `offset_of` over the same domain: every tap
        /// of the kernel volume that lies in the padded input — all of
        /// them whenever the layer has an output — decodes back to
        /// itself, and of the re-laid-out buffer's addresses exactly the
        /// padded pixels decode, each to the tap that addresses it, so
        /// every address of the phase planes' rounding slack is `None`.
        #[test]
        fn tap_of_inverts_offset_of(
            dims in (1usize..4, 1usize..9, 1usize..9),
            kernel in (1usize..6, 1usize..6),
            stride in 1usize..5,
            pad in 0usize..4,
        ) {
            let (channels, rows, cols) = dims;
            let (kr, kc) = kernel;
            let lay = layout(rows, cols, stride, pad);
            let (padded_rows, padded_cols) = (rows + 2 * pad, cols + 2 * pad);
            let mut decoded = 0;
            for n in 0..channels {
                for k in 0..kr.min(padded_rows) {
                    for kp in 0..kc.min(padded_cols) {
                        let tap = Tap { n: n as u16, k: k as u16, kp: kp as u16 };
                        prop_assert_eq!(lay.tap_of(lay.offset_of(tap)), Some(tap));
                        decoded += 1;
                    }
                }
            }
            let (out_rows, out_cols) = lay.out_dims(kr, kc);
            if out_rows > 0 && out_cols > 0 {
                prop_assert_eq!(decoded, channels * kr * kc);
            }
            let mut reached = 0;
            for address in 0..lay.relaid_len(channels) {
                if let Some(tap) = lay.tap_of(address) {
                    prop_assert_eq!(lay.offset_of(tap), address);
                    prop_assert!((tap.n as usize) < channels);
                    prop_assert!((tap.k as usize) < padded_rows && (tap.kp as usize) < padded_cols);
                    reached += 1;
                }
            }
            prop_assert_eq!(reached, channels * padded_rows * padded_cols);
        }
    }
}
