//! The Accumulate-Before-Multiply sparse convolution engine — the paper's
//! core contribution (Section 3, Equation 2).
//!
//! For every output pixel the engine runs the two-stage flow:
//!
//! 1. **Accumulate** — for each distinct non-zero weight value `Ŵp` of the
//!    kernel, sum the input pixels at that value's index positions,
//!    producing one partial sum per value;
//! 2. **Multiply** — multiply each partial sum by its `Ŵp` and reduce.
//!
//! Integer arithmetic makes the factorization exact: the result is
//! bit-identical to [`crate::dense::conv2d`].
//!
//! Two executors implement this flow:
//!
//! * [`PreparedConv`] — the hot path. Each kernel's value groups are
//!   lowered **once** to flat offsets into the *re-laid-out* input
//!   ([`abm_sparse::FlatLayout`]: zero-padded, then split into
//!   `stride × stride` phase planes — the software analogue of the
//!   accelerator's feature buffer and address generator). Against that
//!   buffer every output pixel is `base + offset`, so execution is one
//!   flat unit-stride sweep per row tile and kernel: no padding checks,
//!   no strided gather, and rows too short to fill a vector on their
//!   own still run in full lanes. The sweep has three phases: register
//!   blocks (`lanes × block` positions under one offset decode —
//!   [`AbmKernel::gather_block`]) while a whole block fits, then single
//!   vectors, then at most one vector overlapping the previous one; a
//!   span shorter than a vector (a fully-connected row) goes one
//!   position at a time. There is one core, `execute_into`: re-laid
//!   `&[i16]` in, dense accumulator plane out — `i32` wherever the
//!   layer's stage-2 worst case was proven to fit at preparation
//!   ([`PreparedConv::plane_width`]), `i64` anywhere — the largest
//!   magnitude taken on the way (inference runs it on its activation
//!   arena's buffers), the kernels split over threads in contiguous
//!   runs of near-equal non-zero count when a lone image has threads to
//!   spare — the accelerator's compute units each taking the next
//!   kernels of one window; [`PreparedConv::execute`] is the tensor
//!   front door that re-lays its input out and sweeps into a fresh
//!   tensor on the calling thread.
//!   Work counts are **analytic** —
//!   `accumulations = nnz × out_pixels`,
//!   `multiplications = final_accumulations = Σ Q(m) × out_pixels` —
//!   computed once per layer instead of incremented per iteration.
//! * [`mod@reference`] — the naive interpretive loop with per-iteration
//!   counters, kept as the oracle for equivalence tests.
//!
//! [`conv2d`] / [`conv2d_counted`] prepare on the fly; batch consumers
//! ([`crate::infer::Inferencer`]) prepare once and reuse.

use crate::dense::Geometry;
use abm_fault::{AbmError, FaultClass, SplitMix64};
use abm_kernel::{gather_one, AbmKernel, AccWidth, Isa, Selection};
use abm_pool::{on_shares, Parallelism};
use abm_sparse::{FlatCode, FlatKernel, FlatLayout, LayerCode};
use abm_tensor::{Shape3, Shape4, Tensor3};
use std::ops::Range;
use std::time::Instant;

pub mod reference;

/// Work performed by one invocation, split by stage — the measured
/// counterpart of Table 1's `Acc.`/`Mult.` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AbmWork {
    /// Stage-1 accumulations (one per non-zero weight per output pixel).
    pub accumulations: u64,
    /// Stage-2 multiplications (one per distinct value per output pixel).
    pub multiplications: u64,
    /// Stage-2 final accumulations of the partial products.
    pub final_accumulations: u64,
}

impl AbmWork {
    /// Total operations (all additions plus multiplications).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.accumulations + self.multiplications + self.final_accumulations
    }
}

/// Static metric names for one reachable kernel selection: its
/// preparation-time dispatch counter, then its per-call execute counter.
/// Static strings so the hot path never allocates to name a metric, and
/// three rows because `abm_kernel::select` returns nothing else: the
/// scalar port always accumulates in `i64`, the vector ISAs only in
/// proven `i32` (a hand-built vector/`i64` selection resolves to the
/// scalar port, so it is counted there).
fn selection_counters(sel: Selection) -> (&'static str, &'static str) {
    match (sel.isa, sel.acc) {
        (Isa::Scalar, _) | (_, AccWidth::I64) => (
            "abm_dispatch_scalar_i64_total",
            "abm_execute_scalar_i64_total",
        ),
        (Isa::Avx2, AccWidth::I32) => ("abm_dispatch_avx2_i32_total", "abm_execute_avx2_i32_total"),
        (Isa::Avx512, AccWidth::I32) => (
            "abm_dispatch_avx512_i32_total",
            "abm_execute_avx512_i32_total",
        ),
    }
}

/// Validates the channel/group contract shared by every ABM executor:
/// `groups` must be positive and divide the output channels, and the
/// input must carry `in_channels × groups` channels.
///
/// # Errors
///
/// Returns [`AbmError::BadGrouping`] or [`AbmError::ChannelMismatch`]
/// when the contract is violated.
pub(crate) fn validate_grouping(
    input: Shape3,
    weights: Shape4,
    geom: Geometry,
) -> Result<(), AbmError> {
    if geom.groups == 0 || !weights.out_channels.is_multiple_of(geom.groups) {
        return Err(AbmError::BadGrouping {
            groups: geom.groups,
            out_channels: weights.out_channels,
        });
    }
    if input.channels != weights.in_channels * geom.groups {
        return Err(AbmError::ChannelMismatch {
            input_channels: input.channels,
            expected: weights.in_channels * geom.groups,
        });
    }
    Ok(())
}

/// Runs ABM-SpConv over an encoded layer, returning the exact
/// full-precision output.
///
/// `code` must have been encoded from weights whose shape is consistent
/// with `input` and `geom` (see [`crate::dense::output_shape`]).
///
/// This prepares the flat-offset form on the fly; callers convolving the
/// same layer repeatedly should build a [`PreparedConv`] once instead.
///
/// # Errors
///
/// Returns [`AbmError`] on inconsistent channel counts, a group count
/// that does not divide the output channels, or an un-lowerable code.
pub fn conv2d(
    input: &Tensor3<i16>,
    code: &LayerCode,
    geom: Geometry,
) -> Result<Tensor3<i64>, AbmError> {
    PreparedConv::try_new(code, input.shape(), geom, None)?.try_execute(input)
}

/// Like [`conv2d`] but also reports the per-stage operation counts.
///
/// The counts are analytic (computed once from the encoded streams and
/// the output geometry) and exactly equal what [`reference::conv2d_counted`]
/// counts iteration by iteration.
///
/// # Errors
///
/// Returns [`AbmError`] on inconsistent channel counts, a group count
/// that does not divide the output channels, or an un-lowerable code.
pub fn conv2d_counted(
    input: &Tensor3<i16>,
    code: &LayerCode,
    geom: Geometry,
) -> Result<(Tensor3<i64>, AbmWork), AbmError> {
    let prepared = PreparedConv::try_new(code, input.shape(), geom, None)?;
    let out = prepared.try_execute(input)?;
    Ok((out, prepared.work))
}

/// An ABM layer prepared for repeated execution against one input
/// geometry: flat-offset streams, the kernel dispatch and the analytic
/// work accounting, all computed once. The encoded layer they were
/// lowered from is read while preparing and not kept: the flat streams
/// are the one resident encoding of every non-zero.
///
/// Prepared once per layer (offline, like the accelerator's encoder) and
/// reused across batch items and host workers — execution holds no
/// state between calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedConv {
    flat: FlatCode,
    in_shape: Shape3,
    out_shape: Shape3,
    geom: Geometry,
    /// Kernels per channel group (`M / groups`).
    m_per_group: usize,
    /// Huang & Abraham's column checksum of the source code, built at
    /// preparation: what ABFT predicts the plane total from (see
    /// [`column_sums`]).
    column: Vec<i32>,
    work: AbmWork,
    /// [`abm_fault::flat_checksum`] of the flat streams, recorded at
    /// preparation: the golden signature
    /// [`verify_checksum`](Self::verify_checksum) compares against to
    /// catch post-load bit flips.
    checksum: u64,
    /// The kernel variant dispatch resolved at preparation time: the
    /// ISA that will execute this layer and the stage-1 accumulator
    /// width the lowering verifier proved safe for it on any `i16`
    /// input (`abm_verify::AccumulatorModel::stage1_required_bits`).
    sel: Selection,
    /// What a one-position layer sweeps across a batch's lanes with
    /// (`abm_kernel::select_lane_kernels`): `[narrow, wide]`, from the
    /// same pin and the same proof.
    lane_sels: [Selection; 2],
    /// The narrowest output accumulator the layer's stage-2 worst case
    /// fits on any `i16` input
    /// (`abm_verify::AccumulatorModel::stage2_required_bits`): what its
    /// accumulator plane may be made of.
    plane: AccWidth,
    /// Kernel operations one image's sweep issues: per offset, one per
    /// vector of every tile's span, or one per position where a span is
    /// narrower than a vector. What a share's worth is measured in.
    sweep_ops: u64,
}

impl PreparedConv {
    /// Lowers an encoded layer against a concrete input shape and
    /// geometry. The code is borrowed: the lowering, the column
    /// checksum and (in debug builds) the lowering verifier read it
    /// here, and nothing of it is kept. `isa` is the kernel-ISA request:
    /// `Some(isa)` pins the
    /// variant (debugging, benchmarking, the CLI `--isa` flag), `None`
    /// defers to `ABM_FORCE_ISA` and then auto-detection. Whatever is
    /// requested, a layer whose stage-1 worst case does not fit `i32`
    /// runs the checked scalar `i64` port — the pin chooses an ISA,
    /// never an unproven accumulator. The output geometry, the analytic
    /// work, the golden checksum and the kernel dispatch are resolved
    /// here, once, never on the execution path.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError`] on inconsistent channel counts, a group
    /// count that does not divide the output channels, a flat offset
    /// that overflows the 32-bit encoding, or
    /// [`AbmError::IsaUnavailable`] when the pinned ISA cannot execute
    /// on this CPU (or the environment pin does not parse).
    pub fn try_new(
        code: &LayerCode,
        in_shape: Shape3,
        geom: Geometry,
        isa: Option<Isa>,
    ) -> Result<Self, AbmError> {
        validate_grouping(in_shape, code.shape(), geom)?;
        let flat = FlatCode::lower(code, Self::layout_for(in_shape, geom))?;
        let w = flat.shape();
        let layout = flat.layout();
        let (out_rows, out_cols) = layout.out_dims(w.kernel_rows, w.kernel_cols);
        let out_shape = Shape3::new(w.out_channels, out_rows, out_cols);
        let out_pixels = (out_shape.rows * out_shape.cols) as u64;
        // Analytic accounting: every executor variant performs exactly
        // nnz stage-1 accumulations and Q(m) stage-2 multiply+add pairs
        // per output pixel — padding reads contribute zero but are still
        // issued, exactly like the reference loop counts them.
        let work = AbmWork {
            accumulations: flat.total_nnz() * out_pixels,
            multiplications: flat.total_distinct() * out_pixels,
            final_accumulations: flat.total_distinct() * out_pixels,
        };
        let checksum = abm_fault::flat_checksum(&flat);
        // The narrow-accumulator proof: the verifier's worst-case
        // stage-1 magnitude for this exact lowering decides whether the
        // vector kernels may pack `i32` lanes. `select_auto` then
        // resolves the ISA (explicit pin → `ABM_FORCE_ISA` → widest
        // variant whose lanes this layer's shortest sweep can fill).
        let model = abm_verify::AccumulatorModel::host();
        let counts = flat.kernels().iter().flat_map(FlatKernel::group_counts);
        let stage1_bits = model.stage1_required_bits(counts);
        // The same proof for the output: a layer whose every kernel's
        // `Σ |v|·count · 2¹⁵` fits 32 signed bits sweeps into an `i32`
        // plane. The tile stays `i64`; the copy-out narrows.
        let groups = flat.kernels().iter();
        let groups = groups.map(|k| k.values().iter().copied().zip(k.group_counts()));
        let plane = AccWidth::narrowest(model.stage2_required_bits(groups));
        let sweep = layout.shortest_sweep(out_shape.rows, out_shape.cols);
        let unavailable = |detail| AbmError::IsaUnavailable { detail };
        let sel = abm_kernel::select_auto(isa, stage1_bits, sweep).map_err(unavailable)?;
        let lane_sels = abm_kernel::select_lane_kernels(isa, stage1_bits).map_err(unavailable)?;
        let per_offset: usize = layout
            .tiles(out_shape.rows)
            .map(|rows| match layout.sweep_span(rows.len(), out_shape.cols) {
                span if span < sel.lanes() => span,
                span => span.div_ceil(sel.lanes()),
            })
            .sum();
        // Dispatch accounting: one count per prepared layer, keyed by
        // the resolved variant (preparation-time, never the hot path).
        if abm_metrics::enabled() {
            let (dispatch, _) = selection_counters(sel);
            abm_metrics::global().add(dispatch, 1);
        }
        let prepared = Self {
            in_shape,
            out_shape,
            geom,
            m_per_group: w.out_channels / geom.groups,
            column: column_sums(code, geom.groups),
            work,
            checksum,
            sel,
            lane_sels,
            plane,
            sweep_ops: flat.total_nnz() * per_offset as u64,
            flat,
        };
        // Debug builds statically verify the lowering against its source
        // streams on construction; release builds skip the pass (`cargo
        // xtask verify` runs it explicitly over the model zoo).
        #[cfg(debug_assertions)]
        {
            let report = prepared.verify_lowering(code);
            debug_assert!(
                report.is_clean(),
                "ABM lowering failed static verification:\n{report}"
            );
        }
        Ok(prepared)
    }

    /// The re-laid-out form a layer of this input shape and geometry
    /// reads — what its producer stores through.
    #[must_use]
    pub fn layout_for(in_shape: Shape3, geom: Geometry) -> FlatLayout {
        FlatLayout {
            in_rows: in_shape.rows,
            in_cols: in_shape.cols,
            stride: geom.stride,
            pad: geom.pad,
        }
    }

    /// Runs the `abm-verify` lowering pass against `code`, the encoded
    /// layer this one was prepared from: every flat offset must be the
    /// address of its source index, the whole output plane's sweep must
    /// be provably in-bounds, the value groups must partition the
    /// encoded non-zeros, and worst-case accumulation must fit the host
    /// accumulator.
    #[must_use]
    pub fn verify_lowering(&self, code: &LayerCode) -> abm_verify::VerifyReport {
        let layout = self.flat.layout();
        let geometry = abm_verify::ConvGeometry {
            in_channels: self.in_shape.channels,
            in_rows: layout.in_rows,
            in_cols: layout.in_cols,
            stride: layout.stride,
            pad: layout.pad,
            groups: self.geom.groups,
            out_rows: self.out_shape.rows,
            out_cols: self.out_shape.cols,
        };
        abm_verify::verify_lowering(
            "prepared-conv",
            code,
            &self.flat,
            &geometry,
            &abm_verify::AccumulatorModel::host(),
        )
    }

    /// The input shape this layer was prepared against.
    #[must_use]
    pub fn input_shape(&self) -> Shape3 {
        self.in_shape
    }

    /// The output feature-map shape.
    #[must_use]
    pub fn output_shape(&self) -> Shape3 {
        self.out_shape
    }

    /// The convolution geometry this layer was prepared against.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The analytic per-invocation work (identical for every input).
    #[must_use]
    pub fn work(&self) -> AbmWork {
        self.work
    }

    /// The flat-offset form this layer executes from.
    #[must_use]
    pub fn flat(&self) -> &FlatCode {
        &self.flat
    }

    /// The column checksum ABFT predicts the plane total from: for each
    /// input channel `c` and kernel position `(k, k')`, the sum over the
    /// kernels of `c`'s group of their weight there — `C·K·K'` entries,
    /// row-major like the tap-sum table `S[c][k][k']`.
    pub(crate) fn column(&self) -> &[i32] {
        &self.column
    }

    /// The column checksum for editing in place: the table is state a
    /// request reads, so a test upsets it like any other.
    #[cfg(test)]
    pub(crate) fn column_mut(&mut self) -> &mut [i32] {
        &mut self.column
    }

    /// The golden stream checksum recorded at preparation time.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The kernel variant this layer dispatches to (ISA + proven
    /// stage-1 accumulator width), resolved once at preparation.
    #[must_use]
    pub fn selection(&self) -> Selection {
        self.sel
    }

    /// The accumulator plane this layer's output fits on any `i16`
    /// input, proven once at preparation: `I32` when every kernel's
    /// stage-2 worst case fits 32 signed bits — every layer of the
    /// AlexNet and VGG16 models — else `I64`.
    #[must_use]
    pub fn plane_width(&self) -> AccWidth {
        self.plane
    }

    /// The kernel variant a one-position layer (a fully-connected row)
    /// sweeps across a batch of `columns` images with: the narrowest
    /// vector that holds them all, else the widest there is.
    #[must_use]
    pub fn lane_selection(&self, columns: usize) -> Selection {
        let [narrow, wide] = self.lane_sels;
        if columns <= narrow.lanes() {
            narrow
        } else {
            wide
        }
    }

    /// Re-hashes the flat streams and compares against the golden
    /// checksum recorded at preparation — the cheap pre-execution guard
    /// that catches post-load bit flips (an M20K SEU in hardware
    /// terms).
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::ChecksumMismatch`] when the streams no
    /// longer hash to the stored digest.
    pub fn verify_checksum(&self) -> Result<(), AbmError> {
        self.compare_checksum(abm_fault::flat_checksum(&self.flat))
    }

    /// [`verify_checksum`](Self::verify_checksum) across `shares`
    /// threads, along the kernel runs a sweep of as many shares takes:
    /// each share digests its run's kernels into their slots of
    /// `digests` ([`abm_fault::kernel_digest`]), and the digests fold in
    /// kernel order into the value the serial check computes — the same
    /// verdict, the same error, at every width.
    pub(crate) fn verify_checksum_on(
        &self,
        shares: usize,
        digests: &mut Vec<u64>,
    ) -> Result<(), AbmError> {
        let kernels = self.flat.kernels();
        digests.resize(kernels.len(), 0);
        let runs = with_rows(kernel_runs(kernels, shares), digests, 1);
        let digest_run = |(run, slots): (Range<usize>, &mut [u64])| {
            for (slot, kernel) in slots.iter_mut().zip(&kernels[run]) {
                *slot = abm_fault::kernel_digest(kernel);
            }
        };
        on_shares(runs, digest_run, |(), ()| ());
        let digests = digests.iter().copied();
        self.compare_checksum(abm_fault::fold_kernel_digests(&self.flat, digests))
    }

    fn compare_checksum(&self, computed: u64) -> Result<(), AbmError> {
        if computed == self.checksum {
            Ok(())
        } else {
            Err(AbmError::ChecksumMismatch {
                stored: self.checksum,
                computed,
            })
        }
    }

    /// How many threads one pass over this layer's kernels — its sweep,
    /// its checksum — splits across when `width` are
    /// free: no more than `width`, and none with a share of fewer than
    /// [`MIN_SHARE`] of the kernel operations its sweep issues.
    pub(crate) fn shares(&self, width: usize) -> usize {
        share_count(width, self.sweep_ops)
    }

    /// The flat streams for editing in place while **keeping the golden
    /// checksum** — the fault-injection escape hatch modelling a
    /// post-load SEU: the streams change underneath the layer, the
    /// signature recorded at load does not, and
    /// [`verify_checksum`](Self::verify_checksum) is expected to notice.
    /// Never a correctness tool; campaign and test use only.
    pub fn flat_mut(&mut self) -> &mut FlatCode {
        &mut self.flat
    }

    /// Flips one seeded bit of the post-load state `class` names, in a
    /// kernel with non-zeros: an offset (`wt-word-flip`) or value
    /// (`qtable-word-flip`) word of the flat streams, through
    /// [`flat_mut`](Self::flat_mut). Returns where the bit landed, or
    /// `None` — the layer unchanged — for a class of no post-load state
    /// or a layer without a non-zero. The one source of these upsets for
    /// the fault campaign and serving chaos; never a correctness tool.
    pub fn upset(&mut self, class: FaultClass, rng: &mut SplitMix64) -> Option<String> {
        fn flip<W>(
            words: &mut [W],
            bits: u64,
            rng: &mut SplitMix64,
            flip: fn(&mut W, u32),
        ) -> String {
            let i = rng.below(words.len() as u64) as usize;
            let bit = rng.below(bits) as u32;
            flip(&mut words[i], bit);
            format!("{i} bit {bit}")
        }
        let nonempty: Vec<usize> = (self.flat.kernels().iter().enumerate())
            .filter_map(|(m, k)| (k.total() > 0).then_some(m))
            .collect();
        let m = *nonempty.get(rng.below(nonempty.len() as u64) as usize)?;
        let (values, _, offsets) = self.flat.kernels_mut()[m].streams_mut();
        let at = match class {
            FaultClass::WtWordFlip => {
                format!("offset {}", flip(offsets, 32, rng, |w, b| *w ^= 1 << b))
            }
            FaultClass::QTableWordFlip => {
                format!("value {}", flip(values, 8, rng, |w, b| *w ^= 1 << b))
            }
            _ => return None,
        };
        Some(format!("kernel {m} {at}"))
    }

    /// Runs the prepared layer, returning the exact full-precision
    /// output — the tensor front door over the crate's one execution
    /// core (`execute_into`): re-lay the input out, sweep into a fresh
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s shape differs from the prepared shape.
    #[must_use]
    pub fn execute(&self, input: &Tensor3<i16>) -> Tensor3<i64> {
        assert_eq!(
            input.shape(),
            self.in_shape,
            "input shape {} != prepared shape {}",
            input.shape(),
            self.in_shape
        );
        let relaid = self.flat.layout().relayout(input);
        let mut out = Tensor3::zeros(self.out_shape);
        self.execute_into(&relaid, out.as_mut_slice(), &mut Vec::new(), 1);
        out
    }

    /// The one execution core: sweeps `relaid` — the input as stored
    /// through this layer's [`FlatLayout`] — into `plane`, the dense
    /// channel-major accumulator plane (`output_shape().len()` long, of
    /// an element at least [`plane_width`](Self::plane_width) wide),
    /// and returns the largest accumulator magnitude, taken while each
    /// tile is still in cache (what the Sum/Round stage picks the
    /// output format from).
    ///
    /// The kernels are shared out over `shares` threads (the caller's
    /// [`shares`](Self::shares)) in contiguous runs of near-equal
    /// non-zero count, the paper's compute units each taking the next
    /// kernels of one prefetched window: a run writes its own kernels'
    /// rows of the plane through `sweeps[share]`, and the largest
    /// magnitude is the largest of the runs', so the result is the same
    /// bits at every width. `sweeps` grows to `shares` entries and keeps
    /// them.
    ///
    /// When the global metrics registry is enabled this also records
    /// the per-execute wall-clock histogram (`abm_execute_ns`), the
    /// resolved-variant execute counter, and the output pixels written
    /// against the lane positions swept for them (their ratio is the
    /// host's lane fill) — observation only, never on the result path.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is not `output_shape().len()` long, its element
    /// is narrower than the layer's proven width, or `relaid` is shorter
    /// than the layout's re-laid-out input.
    pub(crate) fn execute_into<A: Accumulator>(
        &self,
        relaid: &[i16],
        plane: &mut [A],
        sweeps: &mut Vec<SweepScratch>,
        shares: usize,
    ) -> u64 {
        if !abm_metrics::enabled() {
            return self.sweep_into(relaid, plane, sweeps, shares).0;
        }
        let timer = Instant::now();
        let (max_abs, swept) = self.sweep_into(relaid, plane, sweeps, shares);
        let elapsed = u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let m = abm_metrics::global();
        m.observe("abm_execute_ns", elapsed);
        let (_, execute) = selection_counters(self.sel);
        m.add(execute, 1);
        m.add("abm_output_pixels_total", self.out_shape.len() as u64);
        m.add("abm_swept_lanes_total", swept);
        max_abs
    }

    /// The uninstrumented body of [`execute_into`](Self::execute_into).
    /// Also returns the lane positions issued (vector lanes plus
    /// one-at-a-time pixels).
    fn sweep_into<A: Accumulator>(
        &self,
        relaid: &[i16],
        plane: &mut [A],
        sweeps: &mut Vec<SweepScratch>,
        shares: usize,
    ) -> (u64, u64) {
        assert_eq!(plane.len(), self.out_shape.len(), "plane != output shape");
        assert!(
            A::WIDTH.bits() >= self.plane.bits(),
            "an {} plane for a layer proven to need {}",
            A::WIDTH,
            self.plane
        );
        let out_plane = self.out_shape.rows * self.out_shape.cols;
        if out_plane == 0 {
            return (0, 0);
        }
        if sweeps.len() < shares {
            sweeps.resize_with(shares, SweepScratch::default);
        }
        // The dispatch resolved at preparation: one virtual call maps
        // the stored selection to its kernel object, then every sweep
        // below goes through it.
        let kern: &'static dyn AbmKernel = abm_kernel::resolve(self.sel);
        let runs = with_rows(kernel_runs(self.flat.kernels(), shares), plane, out_plane);
        let work = runs.zip(sweeps.iter_mut());
        let run = |((run, rows), scratch)| self.sweep_run(kern, relaid, run, rows, scratch);
        let reduce = |(a, s): (u64, u64), (b, t): (u64, u64)| (a.max(b), s + t);
        on_shares(work, run, reduce).unwrap_or((0, 0))
    }

    /// One share of [`sweep_into`](Self::sweep_into): the kernels of
    /// `run` swept into `plane`, their rows of the layer's plane. Returns
    /// the run's largest accumulator magnitude and the lane positions it
    /// issued.
    fn sweep_run<A: Accumulator>(
        &self,
        kern: &dyn AbmKernel,
        relaid: &[i16],
        run: Range<usize>,
        plane: &mut [A],
        scratch: &mut SweepScratch,
    ) -> (u64, u64) {
        let (out_rows, out_cols) = (self.out_shape.rows, self.out_shape.cols);
        let out_plane = out_rows * out_cols;
        let layout = self.flat.layout();
        let pitch = layout.phase_cols();
        // One tile scratch as long as the longest sweep; the
        // one-at-a-time fallback's partial-sum buffer (the software
        // stand-in for the lane's partial-sum FIFO) only when some sweep
        // is too short for a vector. Both keep their capacity between
        // calls.
        let longest = layout
            .tiles(out_rows)
            .map(|rows| layout.sweep_span(rows.len(), out_cols))
            .max()
            .unwrap_or(0);
        scratch.tile.resize(longest, 0);
        if layout.shortest_sweep(out_rows, out_cols) < kern.lanes() {
            scratch.partials.resize(self.flat.max_distinct(), 0);
        }
        let group_len = layout.relaid_len(self.flat.shape().in_channels);
        let kernels = &self.flat.kernels()[run.clone()];
        let mut swept = 0u64;
        let (mut lo, mut hi) = (0i64, 0i64);

        // Row tiles outermost, so a tile's input footprint stays cached
        // while every kernel of the run sweeps it (the line-buffer
        // prefetch window).
        for rows in layout.tiles(out_rows) {
            // The sweep lands here at the input's row pitch; the
            // `pitch - out_cols` wrap positions at each row's end are
            // computed like any other and dropped by the copy-out.
            let tile = &mut scratch.tile[..layout.sweep_span(rows.len(), out_cols)];
            let owned = run
                .clone()
                .zip(kernels)
                .zip(plane.chunks_exact_mut(out_plane));
            for ((m, kernel), out) in owned {
                let base = (m / self.m_per_group) * group_len + rows.start * pitch;
                swept += sweep(kern, kernel, relaid, base, 1, tile, &mut scratch.partials);
                let dst = &mut out[rows.start * out_cols..];
                for (dst, src) in dst.chunks_exact_mut(out_cols).zip(tile.chunks(pitch)) {
                    let src = &src[..out_cols];
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d = A::narrow(v);
                    }
                    // Extremes, not magnitudes: two compares an element
                    // on a row that is in L1 anyway.
                    for &v in src {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
        }
        (lo.unsigned_abs().max(hi.unsigned_abs()), swept)
    }

    /// [`execute_into`](Self::execute_into) across a batch: sweeps this
    /// one-position layer (a fully-connected row) over `lanes`, the lane
    /// buffer `[in_feature][lane]` of row length `pitch` — feature `f`
    /// of the image in column `c` at `f · pitch + c` — into `plane`,
    /// `[kernel][lane]` at the same pitch. It is the one sweep at
    /// `base = 0` and that pitch, from this layer's own offset stream:
    /// an offset picks a feature's row, the positions of the sweep are
    /// the images. `sel` is [`lane_selection`](Self::lane_selection)'s
    /// answer for the batch and `pitch` a whole number of its vectors.
    /// The kernels are shared out over `parallelism`'s workers in the
    /// runs [`execute_into`](Self::execute_into) splits into (each
    /// writes its own rows of the plane), when a share is worth a
    /// thread.
    ///
    /// Recorded like any execute when the metrics registry is on, with
    /// the honest lane fill of a batch: `live` columns carry an image,
    /// `pitch` lanes were issued a kernel.
    ///
    /// # Panics
    ///
    /// Panics if the layer sweeps more than one position, or `lanes` or
    /// `plane` are shorter than `pitch` rows of the layer's features.
    pub(crate) fn execute_lanes(
        &self,
        parallelism: Parallelism,
        sel: Selection,
        lanes: &[i16],
        (live, pitch): (usize, usize),
        plane: &mut [i64],
    ) {
        assert_eq!(
            (self.out_shape.rows * self.out_shape.cols, self.geom.groups),
            (1, 1),
            "a lane sweep is one position of one channel group"
        );
        let timer = abm_metrics::enabled().then(Instant::now);
        let kern = abm_kernel::resolve(sel);
        let lanes = &lanes[..self.in_shape.len() * pitch];
        let kernels = self.flat.kernels();
        let plane = &mut plane[..kernels.len() * pitch];
        // One position: an offset is one operation a vector of images.
        let ops = self.work.accumulations * (pitch / kern.lanes()) as u64;
        let shares = share_count(parallelism.worker_count(), ops);
        let runs = with_rows(kernel_runs(kernels, shares), plane, pitch);
        let run = |(run, rows): (Range<usize>, &mut [i64])| {
            for (kernel, row) in kernels[run].iter().zip(rows.chunks_mut(pitch)) {
                sweep(kern, kernel, lanes, 0, pitch, row, &mut []);
            }
        };
        on_shares(runs, run, |(), ()| ());
        if let Some(timer) = timer {
            let m = abm_metrics::global();
            m.observe(
                "abm_execute_ns",
                u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            let (_, execute) = selection_counters(sel);
            m.add(execute, 1);
            m.add("abm_output_pixels_total", (kernels.len() * live) as u64);
            m.add("abm_swept_lanes_total", (kernels.len() * pitch) as u64);
        }
    }

    /// [`execute`](Self::execute) behind a typed shape guard instead of
    /// an assertion — the entry point the resilient inference path
    /// uses.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::ShapeMismatch`] if `input`'s shape differs
    /// from the prepared shape.
    pub fn try_execute(&self, input: &Tensor3<i16>) -> Result<Tensor3<i64>, AbmError> {
        let got = input.shape();
        if got != self.in_shape {
            return Err(AbmError::ShapeMismatch {
                got: (got.channels, got.rows, got.cols),
                want: (
                    self.in_shape.channels,
                    self.in_shape.rows,
                    self.in_shape.cols,
                ),
            });
        }
        Ok(self.execute(input))
    }
}

/// Huang & Abraham's column checksum (1984) of an encoded layer split
/// into `groups` channel groups: entry `g·L + i`, for `L` the kernel
/// volume, is the sum over group `g`'s kernels of their weight at
/// linear index `i`. Built from a code that lowered, so every index is
/// inside the volume. `|entry| ≤ M·128`, well inside `i32`.
fn column_sums(code: &LayerCode, groups: usize) -> Vec<i32> {
    let volume = code.shape().kernel_len();
    let m_per_group = code.shape().out_channels / groups;
    let mut column = vec![0i32; groups * volume];
    for (m, kernel) in code.kernels().iter().enumerate() {
        let group = &mut column[(m / m_per_group) * volume..][..volume];
        for (value, indices) in kernel.groups() {
            for &i in indices {
                group[usize::from(i)] += i32::from(value);
            }
        }
    }
    column
}

/// An accumulator plane's element. Every engine computes in `i64`; a
/// plane stores each output as [`narrow`](Self::narrow) makes it.
pub(crate) trait Accumulator: Copy + Default + Send + Sync + Into<i64> {
    /// The accumulator width this element is.
    const WIDTH: AccWidth;

    /// `v` as this element: exact for any output of a layer whose
    /// [`PreparedConv::plane_width`] is no wider than [`WIDTH`](Self::WIDTH).
    fn narrow(v: i64) -> Self;
}

impl Accumulator for i32 {
    const WIDTH: AccWidth = AccWidth::I32;

    fn narrow(v: i64) -> Self {
        v as i32
    }
}

impl Accumulator for i64 {
    const WIDTH: AccWidth = AccWidth::I64;

    fn narrow(v: i64) -> Self {
        v
    }
}

/// What one share of a sweep needs beside its input and output: the
/// tile a kernel lands in and the partial sums of the one-position
/// path. Held by the caller, one a share, so repeated calls allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepScratch {
    pub tile: Vec<i64>,
    pub partials: Vec<i64>,
}

/// Kernel operations — one offset applied to one vector of positions,
/// or to one position of a sweep narrower than a vector — below which a
/// share of a layer's kernels is not worth a thread of its own: about a
/// hundred microseconds of sweeping, several times what spawning and
/// joining one costs. Counted in operations, not accumulations, because
/// a fully-connected row of one image pays a scalar operation per
/// accumulation where a convolution's vector pays one per sixteen.
const MIN_SHARE: u64 = 1 << 18;

/// How many threads `ops` kernel operations split across on `width`: at
/// most `width`, at least one, and no share smaller than [`MIN_SHARE`].
fn share_count(width: usize, ops: u64) -> usize {
    let worth = (ops / MIN_SHARE).max(1);
    (width.max(1) as u64).min(worth) as usize
}

/// `kernels` cut into `shares` contiguous runs of near-equal non-zero
/// count (fewer when there are fewer kernels): a run ends where the
/// running count reaches its share of the total, and the last takes the
/// rest. Every pass over a layer's kernels that splits — sweep,
/// checksum — splits here, so one share's kernels are the same in
/// each.
fn kernel_runs(kernels: &[FlatKernel], shares: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let shares = shares.clamp(1, kernels.len().max(1));
    let nnz: u64 = kernels.iter().map(|k| u64::from(k.total())).sum();
    let (mut first, mut taken) = (0, 0u64);
    (1..=shares).map(move |share| {
        let goal = nnz * share as u64 / shares as u64;
        let mut end = first;
        while end < kernels.len() && (taken < goal || share == shares) {
            taken += u64::from(kernels[end].total());
            end += 1;
        }
        let run = first..end;
        first = end;
        run
    })
}

/// Pairs each kernel run with its rows of `rows`, `row_len` elements a
/// kernel: the disjoint slices that run's share writes.
fn with_rows<'a, T>(
    runs: impl Iterator<Item = Range<usize>> + 'a,
    rows: &'a mut [T],
    row_len: usize,
) -> impl Iterator<Item = (Range<usize>, &'a mut [T])> + 'a {
    let mut rest = rows;
    runs.map(move |run| {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(run.len() * row_len);
        rest = tail;
        (run, mine)
    })
}

/// One kernel's sweep over `tile.len()` adjacent positions from `base`,
/// position `i` reading `data[base + i + off · pitch]` (the
/// [`AbmKernel`] contract: `pitch = 1` for a convolution's pixels, the
/// lane buffer's row length for a batch's images), in three phases:
/// register blocks of `lanes × block` positions while a whole block
/// fits, then single vectors, then at most one final vector overlapping
/// the previous one — every position is a pure function of the input,
/// so recomputing the overlap is bit-identical, and no call reads past
/// the span's last (valid) position. Spans narrower than one vector (a
/// fully-connected row of one image, `pitch = 1`) take [`gather_one`]
/// per position. Returns the lane positions issued.
fn sweep(
    kern: &dyn AbmKernel,
    kernel: &FlatKernel,
    data: &[i16],
    base: usize,
    pitch: usize,
    tile: &mut [i64],
    partials: &mut [i64],
) -> u64 {
    let (vals, bounds, offs) = (kernel.values(), kernel.group_bounds(), kernel.offsets());
    let (span, lanes) = (tile.len(), kern.lanes());
    if span < lanes {
        assert_eq!(pitch, 1, "a pitched sweep fills whole vectors");
        for (i, t) in tile.iter_mut().enumerate() {
            *t = gather_one(vals, bounds, offs, data, base + i, partials);
        }
        return span as u64;
    }
    let wide = lanes * kern.block();
    let mut i = 0;
    while i + wide <= span {
        let out = &mut tile[i..i + wide];
        kern.gather_block_pitched(vals, bounds, offs, data, base + i, pitch, out);
        i += wide;
    }
    while i + lanes <= span {
        let out = &mut tile[i..i + lanes];
        kern.gather_unit_pitched(vals, bounds, offs, data, base + i, pitch, out);
        i += lanes;
    }
    if i < span {
        let i = span - lanes;
        kern.gather_unit_pitched(vals, bounds, offs, data, base + i, pitch, &mut tile[i..]);
    }
    (span.div_ceil(lanes) * lanes) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use abm_tensor::{Shape4, Tensor4};

    /// Checks dense == reference == prepared on the auto-selected kernel
    /// and on every pinned variant, including bit-identical work counts
    /// between the analytic and per-iteration accounting.
    fn check_equivalence(input: &Tensor3<i16>, weights: &Tensor4<i8>, geom: Geometry) {
        let dense_out = dense::conv2d(input, weights, geom);
        let code = LayerCode::encode(weights).unwrap();
        let (ref_out, ref_work) = reference::conv2d_counted(input, &code, geom).unwrap();
        assert_eq!(dense_out, ref_out);
        let pins = std::iter::once(None).chain(Isa::detect_all().into_iter().map(Some));
        for isa in pins {
            let prepared = PreparedConv::try_new(&code, input.shape(), geom, isa).unwrap();
            let (out, work) = (prepared.execute(input), prepared.work());
            assert_eq!(ref_out, out, "{isa:?} -> {}", prepared.selection());
            assert_eq!(ref_work, work, "analytic work != counted work");
            assert_eq!(prepared.output_shape(), out.shape());
        }
    }

    fn pseudo_weights(shape: Shape4, modulus: usize) -> Tensor4<i8> {
        Tensor4::from_fn(shape, |m, n, k, kp| {
            let x = (m * 131 + n * 31 + k * 7 + kp * 3) % modulus;
            if x < modulus / 2 {
                0
            } else {
                (x as i8) - (modulus / 2) as i8
            }
        })
    }

    fn pseudo_input(shape: Shape3) -> Tensor3<i16> {
        Tensor3::from_fn(shape, |c, r, col| {
            ((c * 577 + r * 37 + col * 11) % 255) as i16 - 127
        })
    }

    #[test]
    fn prepared_matches_reference_unpadded() {
        let input = pseudo_input(Shape3::new(3, 9, 9));
        let weights = pseudo_weights(Shape4::new(4, 3, 3, 3), 6);
        check_equivalence(&input, &weights, Geometry::new(1, 0));
    }

    #[test]
    fn prepared_matches_reference_padded() {
        // Up to pad 3 >= kernel: whole output rows that read only zeros.
        let input = pseudo_input(Shape3::new(2, 7, 7));
        let weights = pseudo_weights(Shape4::new(3, 2, 3, 3), 8);
        for pad in 0..4 {
            check_equivalence(&input, &weights, Geometry::new(1, pad));
        }
    }

    #[test]
    fn prepared_matches_reference_strided() {
        let input = pseudo_input(Shape3::new(3, 11, 11));
        let weights = pseudo_weights(Shape4::new(2, 3, 5, 5), 10);
        for stride in 1..4 {
            for pad in 0..3 {
                check_equivalence(&input, &weights, Geometry::new(stride, pad));
            }
        }
    }

    #[test]
    fn prepared_matches_reference_grouped() {
        let input = pseudo_input(Shape3::new(4, 6, 6));
        let weights = pseudo_weights(Shape4::new(6, 2, 3, 3), 7);
        check_equivalence(&input, &weights, Geometry::new(1, 1).with_groups(2));
    }

    #[test]
    fn flat_sweep_edge_geometries() {
        // (input rows/cols, kernel, stride, pad)
        for (dim, k, stride, pad) in [
            (3, 5, 1, 1), // kernel spans the whole padded input: 1 pixel
            (3, 3, 1, 0), // 1-pixel output, no padding
            (4, 3, 2, 0), // 1-pixel output, strided
            (5, 3, 1, 1), // out_cols 5 < 8 lanes <= 33-position tile span
            (9, 2, 3, 0), // stride > kernel: phases no tap ever reads
            (9, 2, 3, 1),
            (9, 3, 4, 2), // 3x3 outputs at pitch 4: span 11 < 16 lanes
        ] {
            let input = pseudo_input(Shape3::new(2, dim, dim));
            let weights = pseudo_weights(Shape4::new(3, 2, k, k), 9);
            check_equivalence(&input, &weights, Geometry::new(stride, pad));
        }
        // One-row planes whose sweep span sits on each phase boundary of
        // every kernel's block width `w` (vector `l`): singles + overlap
        // only, a block alone, block + overlap (short and long), block +
        // single, block + singles + overlap, and two blocks + all three.
        for isa in Isa::detect_all() {
            let kern = abm_kernel::resolve(abm_kernel::select(Some(isa), 32).unwrap());
            let (l, w) = (kern.lanes(), kern.lanes() * kern.block());
            for span in [w - 1, w, w + 1, w + l - 1, w + l, 2 * w - 1, 2 * w + l + 1] {
                let input = pseudo_input(Shape3::new(2, 1, span + 2));
                let weights = pseudo_weights(Shape4::new(3, 2, 1, 3), 9);
                let layout = FlatLayout {
                    in_rows: 1,
                    in_cols: span + 2,
                    stride: 1,
                    pad: 0,
                };
                assert_eq!(layout.shortest_sweep(1, span), span);
                check_equivalence(&input, &weights, Geometry::new(1, 0));
            }
        }
    }

    #[test]
    fn non_square_kernels() {
        let input = pseudo_input(Shape3::new(2, 8, 6));
        let weights = Tensor4::from_fn(Shape4::new(2, 2, 3, 2), |m, n, k, kp| {
            (((m + 2 * n + 3 * k + kp) % 5) as i8) - 2
        });
        check_equivalence(&input, &weights, Geometry::new(1, 1));
    }

    #[test]
    fn fc_layer_sweeps_one_position() {
        let input = pseudo_input(Shape3::new(24, 1, 1));
        let weights = pseudo_weights(Shape4::new(5, 24, 1, 1), 6);
        check_equivalence(&input, &weights, Geometry::unit());
    }

    /// A fully-connected layer swept across a batch's lanes is every
    /// image's own `execute`, column by column — for every pinned
    /// kernel, a part-filled vector and more than a register block of
    /// images, stale values in the dead lanes, and whether one thread
    /// sweeps the kernels or three share them (the layer is large
    /// enough that a share is worth a thread).
    #[test]
    fn lane_sweep_is_every_image_alone_on_any_thread_count() {
        let in_shape = Shape3::new(2048, 1, 1);
        let kernels = 1600;
        let weights = pseudo_weights(Shape4::new(kernels, 2048, 1, 1), 6);
        let code = LayerCode::encode(&weights).unwrap();
        let images: Vec<Tensor3<i16>> = (0..70)
            .map(|salt| {
                Tensor3::from_fn(in_shape, |c, _, _| {
                    ((c * 577 + salt * 131) % 255) as i16 - 127
                })
            })
            .collect();
        for isa in Isa::detect_all() {
            let prep = PreparedConv::try_new(&code, in_shape, Geometry::unit(), Some(isa)).unwrap();
            let alone: Vec<Tensor3<i64>> = images.iter().map(|i| prep.execute(i)).collect();
            for live in [5usize, 70] {
                let sel = prep.lane_selection(live);
                let pitch = live.next_multiple_of(sel.lanes());
                let ops = prep.flat().total_nnz() * (pitch / sel.lanes()) as u64;
                assert!(ops >= 3 * MIN_SHARE);
                let mut lanes = vec![0x5a5a_i16; in_shape.len() * pitch];
                for (column, image) in images[..live].iter().enumerate() {
                    for (row, &v) in lanes.chunks_exact_mut(pitch).zip(image.as_slice()) {
                        row[column] = v;
                    }
                }
                for threads in [Parallelism::Serial, Parallelism::Threads(3)] {
                    let mut plane = vec![i64::MIN; kernels * pitch];
                    prep.execute_lanes(threads, sel, &lanes, (live, pitch), &mut plane);
                    for (column, alone) in alone[..live].iter().enumerate() {
                        let swept = plane.chunks_exact(pitch).map(|row| row[column]);
                        assert!(
                            swept.eq(alone.as_slice().iter().copied()),
                            "{sel} live {live} {threads} column {column}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_output_plane_is_empty() {
        // A 1x5 kernel does not fit a 3-wide input: rows but no columns.
        let input = pseudo_input(Shape3::new(1, 3, 3));
        let weights = pseudo_weights(Shape4::new(2, 1, 1, 5), 6);
        let out = dense::conv2d(&input, &weights, Geometry::new(1, 0));
        assert_eq!(out.shape(), Shape3::new(2, 3, 0));
        let code = LayerCode::encode(&weights).unwrap();
        assert_eq!(conv2d(&input, &code, Geometry::new(1, 0)).unwrap(), out);
    }

    #[test]
    fn all_zero_layer_is_free() {
        let input = pseudo_input(Shape3::new(1, 4, 4));
        let weights = Tensor4::<i8>::zeros(Shape4::new(2, 1, 3, 3));
        let code = LayerCode::encode(&weights).unwrap();
        let (out, work) = conv2d_counted(&input, &code, Geometry::new(1, 1)).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0));
        assert_eq!(work.total(), 0);
    }

    #[test]
    fn analytic_work_formula() {
        let input = pseudo_input(Shape3::new(1, 3, 3));
        let weights = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![3i8, 3, -1, 0]);
        let code = LayerCode::encode(&weights).unwrap();
        let (_, work) = conv2d_counted(&input, &code, Geometry::new(1, 0)).unwrap();
        // 4 output pixels, nnz=3, Q=2 — identical to the reference pins.
        assert_eq!(work.accumulations, 12);
        assert_eq!(work.multiplications, 8);
        assert_eq!(work.final_accumulations, 8);
        assert_eq!(work.total(), 28);
    }

    #[test]
    fn prepared_is_reusable_across_inputs() {
        let shape = Shape3::new(2, 6, 6);
        let weights = pseudo_weights(Shape4::new(3, 2, 3, 3), 6);
        let code = LayerCode::encode(&weights).unwrap();
        let geom = Geometry::new(1, 1);
        let prepared = PreparedConv::try_new(&code, shape, geom, None).unwrap();
        for salt in 0..3 {
            let input = Tensor3::from_fn(shape, |c, r, col| {
                ((c * 97 + r * 13 + col * 5 + salt * 41) % 200) as i16 - 100
            });
            assert_eq!(
                prepared.execute(&input),
                dense::conv2d(&input, &weights, geom)
            );
        }
    }

    /// Every selection `select` can return has its own dispatch and
    /// execute counter, named after it — so summing `abm_dispatch_*` /
    /// `abm_execute_*` (as `tests/metrics.rs` does) counts every layer
    /// exactly once whatever variant ran.
    #[test]
    fn every_reachable_selection_has_its_counters() {
        let mut seen = std::collections::HashSet::new();
        for isa in Isa::detect_all() {
            for bits in [32u32, 33] {
                let sel = abm_kernel::select(Some(isa), bits).unwrap();
                let (dispatch, execute) = selection_counters(sel);
                assert_eq!(
                    dispatch,
                    format!("abm_dispatch_{}_{}_total", sel.isa, sel.acc)
                );
                assert_eq!(
                    execute,
                    format!("abm_execute_{}_{}_total", sel.isa, sel.acc)
                );
                seen.insert(sel);
            }
        }
        assert_eq!(seen.len(), Isa::detect_all().len());
    }

    #[test]
    fn invalid_grouping_is_typed_error() {
        let input = Tensor3::<i16>::zeros(Shape3::new(2, 4, 4));
        let w = Tensor4::<i8>::zeros(Shape4::new(3, 1, 1, 1));
        let code = LayerCode::encode(&w).unwrap();
        let err = conv2d(&input, &code, Geometry::new(1, 0).with_groups(2)).unwrap_err();
        assert_eq!(
            err,
            AbmError::BadGrouping {
                groups: 2,
                out_channels: 3
            }
        );
    }

    #[test]
    fn channel_mismatch_is_typed_error() {
        let input = Tensor3::<i16>::zeros(Shape3::new(3, 4, 4));
        let w = Tensor4::<i8>::zeros(Shape4::new(2, 2, 1, 1));
        let code = LayerCode::encode(&w).unwrap();
        let err = conv2d(&input, &code, Geometry::new(1, 0)).unwrap_err();
        assert_eq!(
            err,
            AbmError::ChannelMismatch {
                input_channels: 3,
                expected: 2
            }
        );
    }

    #[test]
    fn wrong_input_shape_is_typed_error() {
        let w = Tensor4::<i8>::zeros(Shape4::new(1, 1, 1, 1));
        let code = LayerCode::encode(&w).unwrap();
        let prepared =
            PreparedConv::try_new(&code, Shape3::new(1, 4, 4), Geometry::unit(), None).unwrap();
        let err = prepared
            .try_execute(&Tensor3::<i16>::zeros(Shape3::new(1, 5, 5)))
            .unwrap_err();
        assert_eq!(
            err,
            AbmError::ShapeMismatch {
                got: (1, 5, 5),
                want: (1, 4, 4)
            }
        );
    }

    #[test]
    fn checksum_guard_catches_post_load_flip() {
        let weights = pseudo_weights(Shape4::new(2, 2, 3, 3), 6);
        let code = LayerCode::encode(&weights).unwrap();
        let prepared =
            PreparedConv::try_new(&code, Shape3::new(2, 6, 6), Geometry::new(1, 1), None).unwrap();
        assert!(prepared.verify_checksum().is_ok());
        // Flip one offset bit post-load, keeping the golden checksum.
        let mut poisoned = prepared.clone();
        let (_, _, offsets) = poisoned.flat_mut().kernels_mut()[0].streams_mut();
        offsets[0] ^= 1 << 3;
        let err = poisoned.verify_checksum().unwrap_err();
        assert!(matches!(err, AbmError::ChecksumMismatch { .. }));
    }

    /// A layer's kernels cut into runs: contiguous, in order, each
    /// kernel in exactly one — all-zero kernels at either end included —
    /// as many runs as shares (or kernels, if fewer), and no run more
    /// than one kernel over its share of the non-zeros.
    #[test]
    fn kernel_runs_tile_the_layer_by_non_zero_count() {
        let weights = pseudo_weights(Shape4::new(37, 5, 3, 3), 7);
        let code = LayerCode::encode(&weights).unwrap();
        let prep =
            PreparedConv::try_new(&code, Shape3::new(5, 9, 9), Geometry::new(1, 1), None).unwrap();
        let with_total =
            |n: usize| FlatKernel::from_raw_parts(vec![1], vec![0, n as u32], vec![0; n]);
        let sparse: Vec<FlatKernel> = [0, 0, 4, 0, 7, 1, 0, 3, 0, 0].map(with_total).into();
        for kernels in [prep.flat().kernels(), &sparse[..]] {
            let nnz: u64 = kernels.iter().map(|k| u64::from(k.total())).sum();
            let widest = kernels.iter().map(|k| u64::from(k.total())).max().unwrap();
            for shares in 0..=40 {
                let runs: Vec<Range<usize>> = kernel_runs(kernels, shares).collect();
                assert_eq!(runs.len(), shares.clamp(1, kernels.len()), "{shares}");
                let ends = (runs[0].start, runs[runs.len() - 1].end);
                assert_eq!(ends, (0, kernels.len()), "{runs:?}");
                assert!(runs.windows(2).all(|w| w[0].end == w[1].start), "{runs:?}");
                for run in &runs {
                    let share: u64 = kernels[run.clone()]
                        .iter()
                        .map(|k| u64::from(k.total()))
                        .sum();
                    let fair = nnz.div_ceil(runs.len() as u64) + widest;
                    assert!(share <= fair, "{runs:?}");
                }
            }
        }
    }

    /// A share is worth a thread only past [`MIN_SHARE`] kernel
    /// operations, and a layer counts them as its sweep issues them: a
    /// fully-connected row one a non-zero, a convolution one a non-zero
    /// and vector of its span.
    #[test]
    fn a_share_is_worth_a_thread() {
        assert_eq!(share_count(8, 0), 1);
        assert_eq!(share_count(0, u64::MAX), 1);
        assert_eq!(share_count(2, 2 * MIN_SHARE - 1), 1);
        assert_eq!(share_count(2, 2 * MIN_SHARE), 2);
        assert_eq!(share_count(3, 100 * MIN_SHARE), 3);

        let fc = LayerCode::encode(&pseudo_weights(Shape4::new(5, 24, 1, 1), 6)).unwrap();
        let fc = PreparedConv::try_new(&fc, Shape3::new(24, 1, 1), Geometry::unit(), None).unwrap();
        assert_eq!(fc.sweep_ops, fc.flat().total_nnz());
        // Pad 1 on 6×6: one tile of 5 rows at pitch 8 plus a last row of 6.
        let conv = LayerCode::encode(&pseudo_weights(Shape4::new(3, 2, 3, 3), 6)).unwrap();
        let geom = Geometry::new(1, 1);
        for isa in Isa::detect_all() {
            let prep = PreparedConv::try_new(&conv, Shape3::new(2, 6, 6), geom, Some(isa)).unwrap();
            let vectors = 46usize.div_ceil(prep.selection().lanes()) as u64;
            assert_eq!(prep.sweep_ops, prep.flat().total_nnz() * vectors, "{isa}");
            assert_eq!((prep.shares(1), prep.shares(64)), (1, 1));
        }
    }

    /// Split across any number of threads — more than the layer has
    /// kernels included — a sweep writes the bits the serial sweep
    /// writes and takes the same largest magnitude, on plain, strided,
    /// grouped and fully-connected layers ending in all-zero kernels, and
    /// every kernel; its scratch grows to one entry a share.
    #[test]
    fn a_split_sweep_is_the_serial_sweep() {
        for (in_shape, w_shape, geom) in [
            (
                Shape3::new(3, 13, 11),
                Shape4::new(7, 3, 3, 3),
                Geometry::new(1, 1),
            ),
            (
                Shape3::new(4, 15, 15),
                Shape4::new(6, 4, 5, 5),
                Geometry::new(2, 2),
            ),
            (
                Shape3::new(4, 9, 9),
                Shape4::new(6, 2, 3, 3),
                Geometry::new(1, 1).with_groups(2),
            ),
            (
                Shape3::new(96, 1, 1),
                Shape4::new(9, 96, 1, 1),
                Geometry::unit(),
            ),
        ] {
            let input = pseudo_input(in_shape);
            // The last two kernels are all zero: a run must still own,
            // and write, their rows.
            let dense = pseudo_weights(w_shape, 9);
            let last = w_shape.out_channels - 2;
            let weights =
                Tensor4::from_fn(
                    w_shape,
                    |m, n, k, kp| {
                        if m >= last {
                            0
                        } else {
                            dense[(m, n, k, kp)]
                        }
                    },
                );
            let code = LayerCode::encode(&weights).unwrap();
            for isa in Isa::detect_all() {
                let prep = PreparedConv::try_new(&code, in_shape, geom, Some(isa)).unwrap();
                let relaid = prep.flat().layout().relayout(&input);
                let serial = prep.execute(&input);
                let want = serial.as_slice().iter().map(|v| v.unsigned_abs()).max();
                for shares in 1..=w_shape.out_channels + 2 {
                    let mut plane = vec![i64::MIN; serial.as_slice().len()];
                    let mut sweeps = Vec::new();
                    let got = prep.execute_into(&relaid, &mut plane, &mut sweeps, shares);
                    assert_eq!(Some(got), want, "{isa} {shares} shares");
                    assert_eq!(&plane[..], serial.as_slice(), "{isa} {shares} shares");
                    assert_eq!(sweeps.len(), shares);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any single-bit flip in any stream of any kernel fails the
        /// checksum, and the check split over any number of threads
        /// returns exactly the serial verdict — clean or flipped, the
        /// same error with the same computed digest — from one reused
        /// digest buffer.
        #[test]
        fn a_split_checksum_is_the_serial_checksum(
            (m, n, k) in (1usize..9, 1usize..4, 1usize..4),
            salt in 0usize..1000,
            (kernel, stream, element) in (0usize..64, 0usize..3, 0usize..1024),
            bit in 0u32..32,
        ) {
            let weights = Tensor4::from_fn(Shape4::new(m, n, k, k), |a, b, c, d| {
                ((a * 131 + b * 31 + c * 7 + d * 3 + salt) % 9) as i8 - 4
            });
            let code = LayerCode::encode(&weights).unwrap();
            let in_shape = Shape3::new(n, k + 3, k + 2);
            let mut prep = PreparedConv::try_new(&code, in_shape, Geometry::new(1, 1), None)
                .unwrap();
            let mut digests = Vec::new();
            for shares in 1..=5 {
                proptest::prop_assert_eq!(prep.verify_checksum_on(shares, &mut digests), Ok(()));
            }
            let kernel = kernel % m;
            let (values, bounds, offsets) = prep.flat_mut().kernels_mut()[kernel].streams_mut();
            match stream {
                0 if !values.is_empty() => {
                    let i = element % values.len();
                    values[i] ^= (1u8 << (bit % 8)) as i8;
                }
                1 => {
                    let i = element % bounds.len();
                    bounds[i] ^= 1 << bit;
                }
                2 if !offsets.is_empty() => {
                    let i = element % offsets.len();
                    offsets[i] ^= 1 << bit;
                }
                // An all-zero kernel: nothing of that stream to flip.
                _ => return,
            }
            let serial = prep.verify_checksum();
            proptest::prop_assert!(
                matches!(serial, Err(AbmError::ChecksumMismatch { .. })),
                "kernel {} stream {}", kernel, stream
            );
            for shares in 1..=5 {
                proptest::prop_assert_eq!(prep.verify_checksum_on(shares, &mut digests), serial.clone());
            }
        }
    }
}
