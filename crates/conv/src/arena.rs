//! The activation arena, the plan that sizes it, and the epilogue that
//! writes into it — how layer N's output becomes layer N+1's input
//! without a tensor in between.
//!
//! The paper's multiplier array rounds "only once before writing feature
//! map data back" and writes straight into the next layer's padded
//! feature buffer. On the host that is three pieces:
//!
//! * [`Plan`] — computed once at `prepare`: for every network layer, the
//!   [`FlatLayout`] its output is stored through (its consumer's: a
//!   lowered convolution's padded, phase-split form, the plain tensor
//!   for everything else) and which ReLU / pool layers ride in the
//!   accelerated layer before them.
//! * [`Arena`] — one executing thread's buffers: the accumulator plane
//!   a layer sweeps into (`i32` for a layer whose stage-2 worst case was
//!   proven to fit it at preparation, `i64` for any other), the spare
//!   feature buffer its epilogue fills (the image's own buffer is being
//!   read; the two swap after every step), and the small scratch of the
//!   host layers and detectors. An image in flight owns only its feature
//!   buffer.
//! * [`LaneArena`] — one batch's buffers for the fully-connected tail it
//!   runs on its lanes (`crate::infer`'s batch executor): the images'
//!   tail inputs, the two lane buffers `[feature][lane]` a layer reads
//!   and writes, and the `[kernel][lane]` accumulator plane between.
//! * [`ArenaPool`] — the checkout pool inside `PreparedWeights`. Callers
//!   hold `&PreparedWeights` and batch workers are scoped threads spawned
//!   per call, so buffers live here, not in thread-locals; the pool ends
//!   up holding as many arenas as threads ever executed at once.
//!
//! The epilogue is two-phase by necessity: without a calibration the
//! output format is chosen from the *layer-wide* largest accumulator,
//! so nothing can be rounded before the whole layer is swept. Phase one
//! (`PreparedConv::execute_into`) fills the plane and takes the running
//! maximum; phase two ([`Arena::requantize_store`]) reads the plane once
//! and applies Sum/Round, the absorbed ReLU and pool, and the store.
//!
//! Buffers are shared by layers of different shapes, so a halo zeroed
//! once would go stale; [`FlatLayout::store_plane`] writes every element
//! of a channel's block, padding included, on every store.

use crate::abm::{Accumulator, PreparedConv, SweepScratch};
use crate::dense::Geometry;
use crate::host::{self, LrnScratch};
use abm_kernel::AccWidth;
use abm_model::{LayerKind, LrnSpec, Network, PoolSpec};
use abm_pool::on_shares;
use abm_sparse::FlatLayout;
use abm_tensor::fixed::round_shift;
use abm_tensor::{QFormat, Rounding, Shape3};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// One network layer's place in an image's flow.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    /// The layer's own output shape — its trace entry.
    pub shape: Shape3,
    /// A ReLU or pool the accelerated layer before it applied in its
    /// epilogue: the step only records its trace entry.
    pub absorbed: bool,
    /// Accelerated layers: the ReLU that follows immediately rides in
    /// the epilogue.
    pub relu: bool,
    /// The pool applied before the store: the layer itself, or the one
    /// after an accelerated layer (and its ReLU), riding in the epilogue.
    pub pool: Option<PoolSpec>,
    /// The shape this step leaves in the feature buffer (past what it
    /// absorbed) …
    pub stored: Shape3,
    /// … and the layout it is stored through: what the next executing
    /// layer reads.
    pub store: FlatLayout,
    /// Accelerated layers: the `layer_ns_<name>` histogram, named once.
    pub metric: String,
}

/// Where every layer of a network stores its output, and how large the
/// buffers holding it must be.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// The layout the network input is stored through.
    pub input: FlatLayout,
    /// One entry per network layer.
    pub steps: Vec<Step>,
    /// The longest re-laid-out feature map, network input included: the
    /// length of every feature buffer.
    feature_len: usize,
    /// The largest accumulator plane of any lowered layer: the length of
    /// every arena's narrow plane (0 when the plan lowers nothing).
    plane_len: usize,
    /// The fully-connected tail, when the network ends in one.
    pub tail: Option<Tail>,
}

/// The trailing run of fully-connected layers — with the ReLUs their
/// epilogues absorb and a closing softmax — that a batch runs once on
/// its lanes instead of once an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tail {
    /// The first layer of the run (a fully-connected one).
    pub first: usize,
    /// Features entering it: the plain tensor the step before stores.
    pub features: usize,
}

impl Plan {
    /// Plans `network`. With `lowered` (the ABM engine) convolutions read
    /// their padded, phase-split layout; every other consumer, and the
    /// dense engine, reads the plain tensor.
    pub fn new(network: &Network, lowered: bool) -> Self {
        let (layers, shapes) = (network.layers(), network.shapes());
        let shape_into = |i: usize| match i {
            0 => network.input_shape(),
            _ => shapes[i - 1],
        };
        // What each layer reads its input through, last to first. ReLU
        // and softmax keep shape, zeros and position, so they read (and
        // leave) whatever their consumer reads; `reads[len]` is the
        // network output.
        let mut reads = vec![FlatLayout::identity(network.output_shape()); layers.len() + 1];
        for (i, layer) in layers.iter().enumerate().rev() {
            reads[i] = match &layer.kind {
                LayerKind::Conv(spec) if lowered => {
                    PreparedConv::layout_for(shape_into(i), Geometry::new(spec.stride, spec.pad))
                }
                LayerKind::Relu | LayerKind::Softmax => reads[i + 1],
                _ => FlatLayout::identity(shape_into(i)),
            };
        }
        let mut plan = Self {
            input: reads[0],
            steps: Vec::with_capacity(layers.len()),
            feature_len: reads[0].relaid_len(network.input_shape().channels),
            plane_len: 0,
            tail: None,
        };
        let mut i = 0;
        while i < layers.len() {
            let accelerated = layers[i].is_accelerated();
            let kind_at = |j: usize| layers.get(j).map(|l| &l.kind);
            let mut end = i + 1;
            let relu = accelerated && matches!(kind_at(end), Some(LayerKind::Relu));
            end += usize::from(relu);
            let pool = match (kind_at(end), &layers[i].kind) {
                (Some(LayerKind::Pool(spec)), _) if accelerated => {
                    end += 1;
                    Some(*spec)
                }
                (_, LayerKind::Pool(spec)) => Some(*spec),
                _ => None,
            };
            let mut metric = String::new();
            if accelerated {
                metric = format!("layer_ns_{}", layers[i].name);
            }
            if accelerated && lowered {
                plan.plane_len = plan.plane_len.max(shapes[i].len());
            }
            let store = reads[end];
            plan.feature_len = plan
                .feature_len
                .max(store.relaid_len(shapes[end - 1].channels));
            let stored = shapes[end - 1];
            plan.steps.push(Step {
                shape: shapes[i],
                absorbed: false,
                relu,
                pool,
                stored,
                store,
                metric,
            });
            plan.steps.extend((i + 1..end).map(|j| Step {
                shape: shapes[j],
                absorbed: true,
                relu: false,
                pool: None,
                stored,
                store,
                metric: String::new(),
            }));
            i = end;
        }
        // Walk the tail back from the output for as long as the layers
        // are ones a lane buffer can carry: a value per feature and
        // image, nothing spatial.
        for (i, (layer, step)) in layers.iter().zip(&plan.steps).enumerate().rev() {
            match &layer.kind {
                LayerKind::FullyConnected(_) if step.pool.is_none() => {
                    plan.tail = Some(Tail {
                        first: i,
                        features: shape_into(i).len(),
                    });
                }
                LayerKind::Softmax if i + 1 == layers.len() => {}
                _ if step.absorbed => {}
                _ => break,
            }
        }
        plan
    }
}

/// One executing thread's buffers (see the module docs). Everything
/// keeps its capacity between images; the feature buffer and the narrow
/// plane are sized by the [`Plan`] when the arena is created, the rest
/// on first use.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    /// The feature buffer a step writes; swapped with the image's own
    /// once the step is done.
    pub spare: Vec<i16>,
    /// The accumulator plane of the layer being executed, when its
    /// [`PreparedConv::plane_width`] is `I32` …
    pub plane: Vec<i32>,
    /// … and when it is not, or its engine lowers nothing: empty until
    /// such a layer runs on this arena.
    pub wide: Vec<i64>,
    /// One sweep scratch a share of a layer split across threads (one
    /// when it runs on this thread alone).
    pub sweeps: Vec<SweepScratch>,
    /// One input channel's prefix tables, for the ABFT check.
    pub abft: Vec<i64>,
    /// One LRN scratch a run of channels (one on this thread alone).
    lrns: Vec<LrnScratch>,
    /// One requantized channel, one pooled channel, the pool's column
    /// maxima.
    channel: Vec<i16>,
    pooled: Vec<i16>,
    columns: Vec<i16>,
    /// [`bytes`](Self::bytes) when last returned (0 for a new arena).
    held: usize,
}

impl Arena {
    /// Bytes of capacity behind every buffer.
    fn bytes(&self) -> usize {
        let halves = [&self.spare, &self.channel, &self.pooled, &self.columns];
        let words = [&self.wide, &self.abft];
        let sweeps = self.sweeps.iter();
        let sweep_words = sweeps.map(|s| s.tile.capacity() + s.partials.capacity());
        let lrns = self.lrns.iter();
        let lrn_bytes =
            lrns.map(|l| 2 * l.out.capacity() + 8 * (l.energy.capacity() + l.table.capacity()));
        2 * halves.iter().map(|v| v.capacity()).sum::<usize>()
            + 4 * self.plane.capacity()
            + 8 * words.iter().map(|v| v.capacity()).sum::<usize>()
            + 8 * sweep_words.sum::<usize>()
            + std::mem::size_of::<SweepScratch>() * self.sweeps.capacity()
            + lrn_bytes.sum::<usize>()
            + std::mem::size_of::<LrnScratch>() * self.lrns.capacity()
    }

    /// The Sum/Round stage with everything that rides along, in one pass
    /// over the accumulator plane of the accelerated layer `step` — the
    /// narrow one or the wide one, as `width` says — whose largest
    /// magnitude is `max_abs`: round `shift` bits away into `target`
    /// (saturating), apply the step's absorbed ReLU and pool, and store
    /// through the step's layout into [`spare`](Self::spare). Returns how
    /// many values the format clipped.
    pub fn requantize_store(
        &mut self,
        step: &Step,
        width: AccWidth,
        max_abs: u64,
        shift: i32,
        target: QFormat,
    ) -> u64 {
        // The plane leaves the arena for the pass, so the scratch
        // beside it can be borrowed; it comes back whole.
        match width {
            AccWidth::I32 => {
                let plane = std::mem::take(&mut self.plane);
                let saturated = self.requantize_plane_store(&plane, step, max_abs, shift, target);
                self.plane = plane;
                saturated
            }
            AccWidth::I64 => {
                let plane = std::mem::take(&mut self.wide);
                let saturated = self.requantize_plane_store(&plane, step, max_abs, shift, target);
                self.wide = plane;
                saturated
            }
        }
    }

    fn requantize_plane_store<A: Accumulator>(
        &mut self,
        plane: &[A],
        step: &Step,
        max_abs: u64,
        shift: i32,
        target: QFormat,
    ) -> u64 {
        let (lo, hi) = (target.min_raw() as i64, target.max_raw() as i64);
        let (conv, relu) = (step.shape, step.relu);
        // Decided outside the loop, from the magnitude the sweep just
        // measured: every layer of the zoo shifts right by a few bits
        // into a format of at most 16 bits, and its accumulators (plus
        // the rounding half-step) fit `i32` — where the pass is a few
        // vector instructions an element (`packssdw`, `pmaxsw`,
        // `pminsw`), a quarter of what 64-bit lanes cost. Anything else
        // keeps the general path.
        let narrow = (1..=31).contains(&shift)
            && target.bits() <= 16
            && max_abs.saturating_add(1 << (shift - 1)) <= i32::MAX as u64;
        let len = conv.rows * conv.cols;
        // (Fully overwritten below, like `pooled`: no need to clear.)
        self.channel.resize(len, 0);
        let mut saturated = 0u64;
        for m in 0..conv.channels {
            let acc = &plane[m * len..(m + 1) * len];
            saturated += if narrow {
                let half = 1i32 << (shift - 1);
                // ReLU rides in the lower clamp bound: a second `.max(0)`
                // on the clamped `i16` compiles to a data-dependent
                // branch, four times slower on real (random-sign)
                // accumulators.
                let (lo, hi) = (lo as i32, hi as i32);
                let floor = if relu { lo.max(0) } else { lo } as i16;
                requantize_plane(acc, &mut self.channel, |v| {
                    // Lossless: |v| + half fits. Round the magnitude,
                    // ties away from zero, then restore the sign.
                    let v = v as i32;
                    let sign = v >> 31;
                    let r = ((((v ^ sign) - sign + half) >> shift) ^ sign) - sign;
                    let q = r.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                    let clipped = u32::from(r < lo) + u32::from(r > hi);
                    (q.max(floor).min(hi as i16), clipped)
                })
            } else {
                requantize_plane(acc, &mut self.channel, |v| {
                    round_feature(v, shift, (lo, hi), relu)
                })
            };
            let scratch = (&mut self.pooled, &mut self.columns);
            store_pooled(step, &mut self.spare, m, &self.channel, conv, scratch);
        }
        saturated
    }

    /// A pool layer no epilogue absorbed: `src` (the plain tensor of
    /// `shape`) pooled into [`spare`](Self::spare) through the step's
    /// layout.
    pub fn pool_store(&mut self, src: &[i16], shape: Shape3, step: &Step) {
        let len = shape.rows * shape.cols;
        for n in 0..shape.channels {
            let plane = &src[n * len..(n + 1) * len];
            let scratch = (&mut self.pooled, &mut self.columns);
            store_pooled(step, &mut self.spare, n, plane, shape, scratch);
        }
    }

    /// An LRN layer: `src` (the plain tensor of the step's shape, in
    /// `fmt`) normalized into [`spare`](Self::spare) through the step's
    /// layout, in `width` contiguous runs of channels on as many
    /// threads, each writing its own channels' blocks. A channel's
    /// output depends on the input alone, so every width stores the
    /// same bits.
    pub fn lrn_store(
        &mut self,
        src: &[i16],
        fmt: QFormat,
        spec: &LrnSpec,
        step: &Step,
        width: usize,
    ) {
        let (shape, store) = (step.shape, step.store);
        let runs = width.clamp(1, shape.channels.max(1));
        if self.lrns.len() < runs {
            self.lrns.resize_with(runs, LrnScratch::default);
        }
        let mut rest = &mut self.spare[..store.relaid_len(shape.channels)];
        let shares = (0..runs).zip(&mut self.lrns).map(|(i, scratch)| {
            let run = shape.channels * i / runs..shape.channels * (i + 1) / runs;
            let (blocks, tail) =
                std::mem::take(&mut rest).split_at_mut(store.relaid_len(run.len()));
            rest = tail;
            (run, blocks, scratch)
        });
        let each = |(run, blocks, scratch): (Range<usize>, &mut [i16], &mut LrnScratch)| {
            let first = run.start;
            let emit = |n, plane: &[i16]| store.store_plane(blocks, n - first, plane);
            host::lrn_planes(src, shape, fmt, spec, run, scratch, emit);
        };
        on_shares(shares, each, |(), ()| ());
    }
}

/// `buf`'s first `len` elements, grown to hold them on first use.
pub(crate) fn fit<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Sum/Round for one accumulator, any shift and any format: `shift` bits
/// rounded away (ties away from zero), clamped to the format's
/// `(lo, hi)`, then the ReLU. Returns the feature and whether the format
/// clipped it.
fn round_feature(v: i64, shift: i32, (lo, hi): (i64, i64), relu: bool) -> (i16, u32) {
    let r = round_shift(v, shift, Rounding::NearestTiesAway);
    let clamped = r.clamp(lo, hi);
    let q = clamped as i16;
    (if relu { q.max(0) } else { q }, u32::from(clamped != r))
}

/// One channel through Sum/Round: `each` turns an accumulator into its
/// clamped feature and how many bounds of the format it crossed. No
/// data-dependent branch: saturation is a sum.
fn requantize_plane<A: Accumulator>(
    acc: &[A],
    out: &mut [i16],
    each: impl Fn(i64) -> (i16, u32),
) -> u64 {
    let mut saturated = 0u32;
    for (q, &v) in out.iter_mut().zip(acc) {
        let (feature, clipped) = each(v.into());
        *q = feature;
        saturated += clipped;
    }
    saturated as u64
}

/// Stores channel `n`'s `plane` (one channel of `shape`) through the
/// step's layout, pooled first when the step carries a pool.
fn store_pooled(
    step: &Step,
    dst: &mut [i16],
    n: usize,
    plane: &[i16],
    shape: Shape3,
    (pooled, columns): (&mut Vec<i16>, &mut Vec<i16>),
) {
    let Some(spec) = step.pool else {
        return step.store.store_plane(dst, n, plane);
    };
    let out = spec.output_shape(shape);
    pooled.resize(out.rows * out.cols, 0);
    host::pool_plane(plane, shape.cols, spec, pooled, out.cols, columns);
    step.store.store_plane(dst, n, pooled);
}

/// How one column of a lane plane is rounded: each image of a batch
/// picks its own output format from its own largest accumulator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnRound {
    /// Bits rounded away.
    pub shift: i32,
    /// The format the column's features are clamped to.
    pub target: QFormat,
    /// Values the format clipped — counted by
    /// [`LaneArena::requantize_store`].
    pub saturated: u64,
}

/// One batch's buffers for the fully-connected tail it runs on its
/// lanes (see the module docs). Lane buffers hold feature `f` of the
/// image in column `c` at `f · pitch + c`; columns past the live ones
/// hold whatever was there — they are swept like any other and never
/// read back. Everything keeps its capacity between batches.
#[derive(Debug, Default)]
pub(crate) struct LaneArena {
    /// Every image's input to the tail, image-major: what an image
    /// leaving its convolutional prefix keeps once its full-size feature
    /// buffer goes back to the pool.
    pub rows: Vec<i16>,
    /// The lane buffer the layer being executed reads …
    pub input: Vec<i16>,
    /// … and the one its epilogue fills; swapped after every layer.
    pub output: Vec<i16>,
    /// The accumulator plane `[kernel][lane]` between them.
    pub plane: Vec<i64>,
    /// The largest accumulator magnitude of every live column.
    pub max_abs: Vec<u64>,
    /// How each live column is rounded, set by the caller between
    /// [`column_maxima`](Self::column_maxima) and
    /// [`requantize_store`](Self::requantize_store).
    pub rounds: Vec<ColumnRound>,
    /// [`bytes`](Self::bytes) when last returned (0 for a new one).
    held: usize,
}

impl LaneArena {
    /// Bytes of capacity behind every buffer.
    fn bytes(&self) -> usize {
        let halves = [&self.rows, &self.input, &self.output];
        let words = self.plane.capacity() + self.max_abs.capacity();
        2 * halves.iter().map(|v| v.capacity()).sum::<usize>()
            + 8 * words
            + std::mem::size_of::<ColumnRound>() * self.rounds.capacity()
    }

    /// Sizes the lane buffers and the plane for a layer of `features`
    /// inputs and `kernels` outputs at `pitch`. Contents are kept (the
    /// input buffer holds the layer's input already), and both lane
    /// buffers take the larger size: they swap roles after every layer.
    pub fn fit(&mut self, features: usize, kernels: usize, pitch: usize) {
        let lane = features.max(kernels) * pitch;
        self.input.resize(self.input.len().max(lane), 0);
        self.output.resize(self.output.len().max(lane), 0);
        self.plane.resize(self.plane.len().max(kernels * pitch), 0);
    }

    /// Scatters image `column`'s tail input out of [`rows`](Self::rows)
    /// (`row` is its index there) into the input lane buffer.
    pub fn scatter(&mut self, row: usize, features: usize, column: usize, pitch: usize) {
        let row = &self.rows[row * features..(row + 1) * features];
        for (lanes, &v) in self.input.chunks_exact_mut(pitch).zip(row) {
            lanes[column] = v;
        }
    }

    /// Gathers column `column`'s `features` values back out of the
    /// input lane buffer: the image's plain feature vector.
    pub fn gather<'a>(
        &'a self,
        features: usize,
        column: usize,
        pitch: usize,
    ) -> impl Iterator<Item = i16> + 'a {
        let rows = self.input[..features * pitch].chunks_exact(pitch);
        rows.map(move |lanes| lanes[column])
    }

    /// Takes the largest accumulator magnitude of each of the first
    /// `live` columns of the `kernels`-row plane into
    /// [`max_abs`](Self::max_abs): what each image picks its output
    /// format from.
    pub fn column_maxima(&mut self, kernels: usize, live: usize, pitch: usize) {
        self.max_abs.clear();
        self.max_abs.resize(live, 0);
        for row in self.plane[..kernels * pitch].chunks_exact(pitch) {
            for (max, &v) in self.max_abs.iter_mut().zip(row) {
                *max = (*max).max(v.unsigned_abs());
            }
        }
    }

    /// [`Arena::requantize_store`] for a lane plane: one pass over its
    /// `kernels` rows, each live column rounded as its entry of
    /// [`rounds`](Self::rounds) says and stored at the same lane of the
    /// output buffer — already the next layer's input layout, so nothing
    /// is transposed between the layers of a tail.
    pub fn requantize_store(&mut self, kernels: usize, pitch: usize, relu: bool) {
        let plane = self.plane[..kernels * pitch].chunks_exact(pitch);
        let output = self.output[..kernels * pitch].chunks_exact_mut(pitch);
        for (acc, out) in plane.zip(output) {
            for ((round, &v), q) in self.rounds.iter_mut().zip(acc).zip(out) {
                let bounds = (round.target.min_raw() as i64, round.target.max_raw() as i64);
                let (feature, clipped) = round_feature(v, round.shift, bounds, relu);
                *q = feature;
                round.saturated += u64::from(clipped);
            }
        }
    }
}

/// What the pool has handed out and holds — the observable that
/// replaces a counting allocator: `grown` must stay flat once every
/// executing thread has run one image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Checkouts (arenas and lane arenas) that came back with more
    /// capacity than they left with, plus feature buffers created.
    pub grown: u64,
    /// Arenas idle in the pool.
    pub arenas: usize,
    /// Feature buffers idle in the pool.
    pub feature_buffers: usize,
    /// Lane arenas idle in the pool (one a batch in flight).
    pub lane_arenas: usize,
}

/// The checkout pool of arenas and loose feature buffers (see the module
/// docs). A clone starts empty: buffers are never shared.
#[derive(Debug, Default)]
pub(crate) struct ArenaPool {
    idle: Mutex<Idle>,
    grown: AtomicU64,
}

/// What sits idle in an [`ArenaPool`].
#[derive(Debug, Default)]
struct Idle {
    arenas: Vec<Arena>,
    features: Vec<Vec<i16>>,
    lanes: Vec<LaneArena>,
}

impl Clone for ArenaPool {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl ArenaPool {
    /// The idle lists. A panic can only poison the lock between a push
    /// and a pop, which leave the lists valid, so the guard is recovered.
    fn idle(&self) -> std::sync::MutexGuard<'_, Idle> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks an arena out for one executing thread, creating one sized
    /// by `plan` when none is idle.
    pub fn take_arena(&self, plan: &Plan) -> Arena {
        let idle = self.idle().arenas.pop();
        idle.unwrap_or_else(|| Arena {
            spare: vec![0; plan.feature_len],
            plane: vec![0; plan.plane_len],
            ..Arena::default()
        })
    }

    /// Returns an arena, counting it if it grew while out.
    pub fn give_arena(&self, mut arena: Arena) {
        let bytes = arena.bytes();
        if bytes > arena.held {
            self.grown.fetch_add(1, Ordering::Relaxed);
        }
        arena.held = bytes;
        self.idle().arenas.push(arena);
    }

    /// Checks out the lane arena of one batch's fully-connected tail.
    pub fn take_lanes(&self) -> LaneArena {
        self.idle().lanes.pop().unwrap_or_default()
    }

    /// Returns a lane arena, counting it if it grew while out.
    pub fn give_lanes(&self, mut lanes: LaneArena) {
        let bytes = lanes.bytes();
        if bytes > lanes.held {
            self.grown.fetch_add(1, Ordering::Relaxed);
        }
        lanes.held = bytes;
        self.idle().lanes.push(lanes);
    }

    /// Checks out the feature buffer one image in flight owns.
    pub fn take_features(&self, plan: &Plan) -> Vec<i16> {
        let idle = self.idle().features.pop();
        idle.unwrap_or_else(|| {
            self.grown.fetch_add(1, Ordering::Relaxed);
            vec![0; plan.feature_len]
        })
    }

    /// Returns a finished image's feature buffer.
    pub fn give_features(&self, features: Vec<i16>) {
        self.idle().features.push(features);
    }

    /// Bytes of accumulator plane the idle arenas hold: the narrow
    /// (`i32`) planes, then the wide (`i64`) ones.
    pub fn plane_bytes(&self) -> (usize, usize) {
        let idle = self.idle();
        let narrow = idle.arenas.iter().map(|a| 4 * a.plane.capacity()).sum();
        let wide = idle.arenas.iter().map(|a| 8 * a.wide.capacity()).sum();
        (narrow, wide)
    }

    /// What has grown so far and what sits idle now.
    pub fn stats(&self) -> ArenaStats {
        let idle = self.idle();
        ArenaStats {
            grown: self.grown.load(Ordering::Relaxed),
            arenas: idle.arenas.len(),
            feature_buffers: idle.features.len(),
            lane_arenas: idle.lanes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_model::{zoo, PoolKind};
    use abm_tensor::Tensor3;
    use proptest::prelude::*;

    #[test]
    fn plan_absorbs_relu_and_pool_and_stores_through_the_consumer() {
        // tiny: CONV1 RELU1 POOL1 CONV2 RELU2 POOL2 FC3 RELU3 FC4 SOFTMAX.
        let plan = Plan::new(&zoo::tiny(), true);
        let absorbed: Vec<bool> = plan.steps.iter().map(|s| s.absorbed).collect();
        assert_eq!(
            absorbed,
            [false, true, true, false, true, true, false, true, false, false]
        );
        let conv1 = &plan.steps[0];
        assert!(conv1.relu && conv1.pool.is_some());
        assert_eq!(
            (conv1.shape, conv1.stored),
            (Shape3::new(16, 32, 32), Shape3::new(16, 16, 16))
        );
        // CONV2 pads by one: CONV1's epilogue writes the halo with it.
        assert_eq!((conv1.store.in_rows, conv1.store.pad), (16, 1));
        assert_eq!(plan.input.pad, 1);
        // POOL2 feeds FC3, FC3's ReLU feeds FC4: plain tensors.
        assert_eq!(
            plan.steps[3].store,
            FlatLayout::identity(Shape3::new(32, 8, 8))
        );
        assert!(plan.steps[6].relu && plan.steps[6].pool.is_none());
        assert_eq!(plan.steps[0].metric, "layer_ns_CONV1");
        assert_eq!(plan.plane_len, 16 * 32 * 32);
        assert_eq!(plan.feature_len, 16 * 18 * 18);

        // AlexNet: LRN sits between CONV1's ReLU and POOL1, so the pool
        // runs on its own and is the step that writes CONV2's padding.
        let plan = Plan::new(&zoo::alexnet(), true);
        let (conv1, lrn1, pool1) = (&plan.steps[0], &plan.steps[2], &plan.steps[3]);
        assert!(conv1.relu && conv1.pool.is_none() && plan.steps[1].absorbed);
        assert_eq!(conv1.store, FlatLayout::identity(conv1.shape));
        assert!(!lrn1.absorbed && lrn1.store == conv1.store);
        assert!(!pool1.absorbed && pool1.pool.is_some());
        assert_eq!((pool1.store.in_rows, pool1.store.pad), (27, 2));
        assert_eq!(plan.input.stride, 4);

        // The fully-connected tails a batch runs on its lanes: tiny's
        // FC3 RELU3 FC4 SOFTMAX after 32 channels of 8x8, AlexNet's
        // FC6 … FC8 SOFTMAX after 256 of 6x6; a network ending in a
        // convolution has none.
        let tail = |net: &Network| Plan::new(net, true).tail;
        let (first, features) = (6, 32 * 8 * 8);
        assert_eq!(tail(&zoo::tiny()), Some(Tail { first, features }));
        let (first, features) = (zoo::alexnet().len() - 6, 256 * 6 * 6);
        assert_eq!(tail(&zoo::alexnet()), Some(Tail { first, features }));
        let mut headless = Network::new("headless", Shape3::new(3, 8, 8));
        let conv = abm_model::ConvSpec::new(3, 4, 3, 1, 1);
        headless.push(abm_model::Layer::new("CONV", LayerKind::Conv(conv)));
        headless.push(abm_model::Layer::new("RELU", LayerKind::Relu));
        assert_eq!(tail(&headless), None);

        // The dense engine reads plain tensors everywhere, and sweeps
        // into no narrow plane.
        let plain = Plan::new(&zoo::tiny(), false);
        assert!(plain
            .steps
            .iter()
            .all(|s| s.store.pad == 0 && s.store.stride == 1));
        assert_eq!(plain.plane_len, 0);
    }

    /// Pooling as `host::pool` evaluated it before its plane core: one
    /// clamped window an output element — the oracle for both.
    fn pool_oracle(input: &Tensor3<i16>, spec: PoolSpec) -> Tensor3<i16> {
        let shape = input.shape();
        Tensor3::from_fn(spec.output_shape(shape), |c, orow, ocol| {
            let rows = orow * spec.stride..(orow * spec.stride + spec.window).min(shape.rows);
            let cols = ocol * spec.stride..(ocol * spec.stride + spec.window).min(shape.cols);
            let window = rows.flat_map(|r| cols.clone().map(move |col| input[(c, r, col)] as i64));
            match spec.kind {
                PoolKind::Max => window.max().unwrap_or(0) as i16,
                PoolKind::Avg => {
                    let (sum, count) = window.fold((0, 0), |(s, n), v| (s + v, n + 1));
                    ((2 * sum + sum.signum() * count) / (2 * count).max(1)) as i16
                }
            }
        })
    }

    /// The tensor chain the epilogue replaced, one fresh tensor a step.
    fn chain(acc: &Tensor3<i64>, shift: i32, target: QFormat, step: &Step) -> (Vec<i16>, u64) {
        let (lo, hi) = (target.min_raw() as i64, target.max_raw() as i64);
        let mut saturated = 0;
        let mut features = acc.map(|&v| {
            let r = round_shift(v, shift, Rounding::NearestTiesAway);
            saturated += u64::from(r.clamp(lo, hi) != r);
            r.clamp(lo, hi) as i16
        });
        if step.relu {
            features = host::relu(&features);
        }
        if let Some(spec) = step.pool {
            features = pool_oracle(&features, spec);
        }
        (step.store.relayout(&features), saturated)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random-sign accumulators (a periodic tile hides the branch
        /// the naive body compiles to, and the bugs with it), every
        /// absorbed tail, plain/padded/strided stores into a dirty
        /// buffer, right, left and oversized shifts, magnitudes on both
        /// sides of the 32-bit path, formats that do and do not clip.
        #[test]
        fn epilogue_equals_the_tensor_chain(
            (channels, rows, cols) in (1usize..4, 1usize..9, 1usize..9),
            relu in any::<bool>(),
            pool in prop_oneof![
                Just(None),
                Just(Some((PoolKind::Max, 2, 2))),
                Just(Some((PoolKind::Max, 3, 2))),
                Just(Some((PoolKind::Avg, 2, 1))),
            ],
            (stride, pad) in (1usize..4, 0usize..3),
            shift in prop_oneof![Just(-2i32), 1i32..14, Just(31i32), Just(40i32), Just(63i32)],
            magnitude in prop_oneof![Just(11u32), Just(20), Just(30), Just(31), Just(45)],
            (bits, frac) in (prop_oneof![Just(8u8), Just(16u8), Just(20u8)], -2i8..8),
            raw in prop::collection::vec(any::<i64>(), 192..193),
        ) {
            let conv = Shape3::new(channels, rows, cols);
            let acc = Tensor3::from_vec(
                conv,
                raw[..conv.len()].iter().map(|&v| v >> (64 - magnitude)).collect(),
            );
            let pool = pool.map(|(kind, window, stride)| PoolSpec { kind, window, stride });
            let stored = pool.map_or(conv, |spec| spec.output_shape(conv));
            let step = Step {
                shape: conv,
                absorbed: false,
                relu,
                pool,
                stored,
                store: FlatLayout { in_rows: stored.rows, in_cols: stored.cols, stride, pad },
                metric: String::new(),
            };
            let target = QFormat::new(bits, frac);
            let (expected, clipped) = chain(&acc, shift, target, &step);

            let mut arena = Arena {
                spare: vec![0x5a5a; expected.len() + 3],
                wide: acc.as_slice().to_vec(),
                ..Arena::default()
            };
            let max_abs = acc.as_slice().iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
            let saturated = arena.requantize_store(&step, AccWidth::I64, max_abs, shift, target);
            prop_assert_eq!(saturated, clipped);
            prop_assert_eq!(&arena.spare[..expected.len()], &expected[..]);
            prop_assert_eq!(&arena.spare[expected.len()..], &[0x5a5a; 3]);

            // Accumulators that fit 32 bits store the same features from
            // the narrow plane.
            let narrow: Result<Vec<i32>, _> = acc.as_slice().iter().map(|&v| v.try_into()).collect();
            if let Ok(narrow) = narrow {
                arena.spare.fill(0x5a5a);
                arena.plane = narrow;
                let saturated = arena.requantize_store(&step, AccWidth::I32, max_abs, shift, target);
                prop_assert_eq!(saturated, clipped);
                prop_assert_eq!(&arena.spare[..expected.len()], &expected[..]);
            }

            // The standalone pool stores the same way, and the tensor
            // wrapper agrees with the oracle.
            if let Some(spec) = pool {
                let features = acc.map(|&v| v as i16);
                let pooled = pool_oracle(&features, spec);
                prop_assert_eq!(&host::pool(&features, spec), &pooled);
                arena.spare.fill(0x5a5a);
                arena.pool_store(features.as_slice(), conv, &step);
                let expected = step.store.relayout(&pooled);
                prop_assert_eq!(&arena.spare[..expected.len()], &expected[..]);
            }
        }
    }

    /// AlexNet's two LRN layers, split into 1 to 4 runs of channels:
    /// every width stores the bits `host::lrn` computes, into the same
    /// blocks of the spare buffer and nothing past them.
    #[test]
    fn lrn_runs_store_the_same_bits_at_every_width() {
        let net = zoo::alexnet();
        let plan = Plan::new(&net, true);
        let fmt = QFormat::new(8, 3);
        let lrns = net.layers().iter().zip(&plan.steps);
        let lrns = lrns.filter_map(|(layer, step)| match &layer.kind {
            LayerKind::Lrn(spec) => Some((spec, step)),
            _ => None,
        });
        for (spec, step) in lrns {
            let input = Tensor3::from_fn(step.shape, |c, r, col| {
                ((c * 97 + r * 31 + col * 7) % 255) as i16 - 127
            });
            let expected = step.store.relayout(&host::lrn(&input, fmt, spec));
            let mut arena = Arena::default();
            for width in 1..=4 {
                arena.spare = vec![0x5a5a; expected.len() + 3];
                arena.lrn_store(input.as_slice(), fmt, spec, step, width);
                assert_eq!(&arena.spare[..expected.len()], &expected[..], "{width}");
                assert_eq!(&arena.spare[expected.len()..], &[0x5a5a; 3], "{width}");
            }
            assert_eq!(arena.lrns.len(), 4);
        }
    }

    #[test]
    fn an_all_zero_plane_requantizes_to_zeros() {
        let conv = Shape3::new(1, 2, 2);
        let plan = Plan::new(&zoo::tiny(), true);
        let step = Step {
            shape: conv,
            stored: conv,
            store: FlatLayout::identity(conv),
            ..plan.steps[9].clone()
        };
        let mut arena = Arena {
            spare: vec![7; 4],
            plane: vec![0; 4],
            ..Arena::default()
        };
        assert_eq!(
            arena.requantize_store(&step, AccWidth::I32, 0, 7, QFormat::new(8, 0)),
            0
        );
        assert_eq!(arena.spare, [0; 4]);
    }

    #[test]
    fn the_pool_counts_growth_once_and_hands_buffers_back() {
        let plan = Plan::new(&zoo::tiny(), true);
        let pool = ArenaPool::default();
        let mut arena = pool.take_arena(&plan);
        let features = pool.take_features(&plan);
        assert_eq!(
            (arena.plane.len(), features.len()),
            (plan.plane_len, plan.feature_len)
        );
        arena.channel.resize(100, 0);
        pool.give_arena(arena);
        pool.give_features(features);
        let first = pool.stats();
        assert_eq!(
            (first.grown, first.arenas, first.feature_buffers),
            (2, 1, 1)
        );
        // Same buffers again: nothing grows, nothing is added.
        let mut arena = pool.take_arena(&plan);
        arena.channel.resize(50, 0);
        pool.give_arena(arena);
        pool.give_features(pool.take_features(&plan));
        assert_eq!(pool.stats(), first);
        // Scratch that grows while out is counted when it comes back.
        let mut arena = pool.take_arena(&plan);
        arena.pooled.resize(1000, 0);
        pool.give_arena(arena);
        assert_eq!(pool.stats().grown, 3);
        assert_eq!(pool.clone().stats(), ArenaStats::default());
    }
}
