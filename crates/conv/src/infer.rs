//! End-to-end network inference through the ABM engine or the dense
//! reference.
//!
//! Feature maps travel through the network as 8-bit dynamic fixed point
//! (stored in `i16`, the accelerator's data-path width), accumulators are
//! exact, and — following the paper's "rounding is performed only once
//! before writing feature map data back to main memory" — each layer
//! rescales its full-precision result to the next 8-bit feature format in
//! a single rounding step, which also applies the ReLU and pool that
//! follow and stores straight into the form the next layer reads
//! (`crate::arena`): no tensor is built between input and logits.
//!
//! Because the per-layer output format is chosen deterministically from
//! the exact accumulator values, both engines produce **bit-identical**
//! feature maps at every layer; this is asserted by the integration
//! tests. The comparators (`freq`, `winograd`) stay layer-level
//! functions that count what they execute for Table 1.

mod lanes;

use crate::abft;
use crate::abm::{AbmWork, Accumulator, PreparedConv, SweepScratch};
use crate::arena::{fit, Arena, ArenaPool, ArenaStats, Plan, Step};
use crate::dense::{self, Geometry};
use crate::host;
use abm_fault::{AbmError, Injector, NullInjector};
use abm_kernel::{AccWidth, Isa};
use abm_model::{LayerKind, SparseLayer, SparseModel};
use abm_pool::{panic_message, parallel_map_salvage, Parallelism};
use abm_sparse::{FlatLayout, LayerCode};
use abm_telemetry::{FaultAction, TelemetrySink};
use abm_tensor::quantize::choose_frac;
use abm_tensor::{QFormat, Shape3, Tensor3};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Which convolution engine executes the accelerated layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Dense spatial reference (SDConv): the golden logits, and the
    /// calibration pass.
    Dense,
    /// Accumulate-before-multiply (the paper's scheme).
    #[default]
    Abm,
}

/// The outcome of one inference.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InferenceResult {
    /// Dequantized final-layer activations (pre-softmax logits).
    pub logits: Vec<f32>,
    /// Softmax probabilities (empty if the network has no softmax).
    pub probabilities: Vec<f32>,
    /// ABM work counters (all zero unless the ABM engine ran).
    pub work: AbmWork,
    /// Fixed-point format of each network layer's output features, one
    /// entry per layer in network order — what the image chose; each
    /// layer's name and shape are
    /// [`Network::layers`](abm_model::Network::layers) and
    /// [`Network::shapes`](abm_model::Network::shapes).
    pub formats: Vec<QFormat>,
    /// Largest real-valued accumulator magnitude per accelerated layer
    /// (execution order) — the statistic offline calibration consumes.
    pub layer_max_activation: Vec<f32>,
    /// Feature values that saturated the fixed output format (always 0
    /// without a calibration: dynamic formats are chosen to fit).
    pub saturated_features: u64,
    /// Total feature values written back by accelerated layers.
    pub total_features: u64,
}

impl InferenceResult {
    /// Books one executed accelerated layer: its calibration statistic,
    /// the features it wrote back and the work it did.
    fn record_layer(&mut self, step: &Step, max_real: f32, work: AbmWork) {
        self.layer_max_activation.push(max_real);
        self.total_features += step.shape.len() as u64;
        self.work.accumulations += work.accumulations;
        self.work.multiplications += work.multiplications;
        self.work.final_accumulations += work.final_accumulations;
    }

    /// Index of the highest logit (the predicted class).
    pub fn argmax(&self) -> Option<usize> {
        self.logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }
}

/// How the inference path detects and recovers from corrupted state —
/// the host-side expression of the fault model in `abm-fault`.
///
/// Under either policy an ABM layer's sweep runs behind a guard: an
/// offset or group bound upset past the input stops the sweep in a
/// checked window, and the guard returns that as
/// [`AbmError::CodeCorrupt`], never a panic. Unchecked (the default),
/// nothing else runs and the guard's error is the layer's; golden pins
/// and benchmarks are unaffected.
///
/// Hardened, every ABM layer has one detector on every request: the
/// total of its output plane is checked against the ABFT prediction,
/// one dot product of the input's tap sums with the column checksum
/// built at preparation (`abft::verify_plane`, the check
/// [`abft::verify_output`] runs on tensors). Beside it each call scrubs
/// one accelerated layer, round robin over its [`PreparedWeights`]: it
/// re-hashes that layer's streams before the layer's sweep
/// ([`PreparedConv::verify_checksum`]), so a stream upset ABFT cannot
/// see is found within as many calls as there are accelerated layers. A
/// detected corruption is recovered by rebuilding the layer once from
/// the model's raw weights — encoded and lowered again, and run only if
/// it lowers to the checksum recorded at load — and otherwise, or if the
/// rebuilt layer fails too, by the dense engine on those weights, which
/// cannot fail, so the ladder never exhausts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResiliencePolicy {
    /// No detector but the sweep's guard.
    #[default]
    Unchecked,
    /// ABFT, the scrub, the guard and the recovery ladder — what fault
    /// campaigns and the server run under.
    Hardened,
}

impl ResiliencePolicy {
    /// [`ResiliencePolicy::Hardened`].
    #[must_use]
    pub fn hardened() -> Self {
        Self::Hardened
    }
}

/// Runs a [`SparseModel`] on quantized inputs with a selectable engine.
///
/// `I` is the [`Injector`] a checked ABM layer polls for an accumulator
/// upset ([`injector`](Self::injector)); the default, [`NullInjector`],
/// compiles that site away.
#[derive(Debug)]
pub struct Inferencer<'m, I: Injector = NullInjector> {
    model: &'m SparseModel,
    engine: Engine,
    input_format: QFormat,
    calibration: Option<crate::calibrate::Calibration>,
    parallelism: Parallelism,
    telemetry: Option<TelemetrySink>,
    resilience: ResiliencePolicy,
    isa: Option<Isa>,
    /// Behind a lock: the hook takes `&mut`, and the images of a batch
    /// run on several threads.
    injector: Mutex<I>,
}

/// A clone carries a copy of the injector, delivery log included.
impl<I: Injector + Clone> Clone for Inferencer<'_, I> {
    fn clone(&self) -> Self {
        let injector = self.injector.lock().unwrap_or_else(PoisonError::into_inner);
        Self {
            model: self.model,
            engine: self.engine,
            input_format: self.input_format,
            calibration: self.calibration.clone(),
            parallelism: self.parallelism,
            telemetry: self.telemetry.clone(),
            resilience: self.resilience,
            isa: self.isa,
            injector: Mutex::new(injector.clone()),
        }
    }
}

impl<'m> Inferencer<'m> {
    /// Creates an inferencer with the default (ABM) engine, an 8-bit
    /// integer input format (`Q8.0`), and automatic batch parallelism.
    pub fn new(model: &'m SparseModel) -> Self {
        Self {
            model,
            engine: Engine::Abm,
            input_format: QFormat::new(8, 0),
            calibration: None,
            parallelism: Parallelism::Auto,
            telemetry: None,
            resilience: ResiliencePolicy::default(),
            isa: None,
            injector: Mutex::new(NullInjector),
        }
    }
}

impl<'m, I: Injector + Send> Inferencer<'m, I> {
    /// Polls `injector` for an accumulator upset in every checked ABM
    /// layer an image sweeps on its own, between the sweep and the ABFT
    /// check ([`Injector::accumulator_flip`]) — how a fault campaign
    /// lands a transient or a stuck upset in the plane the layer really
    /// sweeps; a recovery's sweep polls it again. Only the hardened
    /// [`ResiliencePolicy`] polls it, and a batch's FC tail on vector
    /// lanes does not.
    pub fn injector<J: Injector>(self, injector: J) -> Inferencer<'m, J> {
        Inferencer {
            model: self.model,
            engine: self.engine,
            input_format: self.input_format,
            calibration: self.calibration,
            parallelism: self.parallelism,
            telemetry: self.telemetry,
            resilience: self.resilience,
            isa: self.isa,
            injector: Mutex::new(injector),
        }
    }

    /// Selects the engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets how many host threads an inference may use. A batch of two
    /// or more fans its images out across them (each image's layers on
    /// one thread); a lone image — [`run_prepared`](Self::run_prepared),
    /// a batch of one — splits each ABM layer's kernels across them
    /// instead, where the layer is large enough for a share to be worth
    /// a thread. Results are bit-identical for every setting; this only
    /// changes wall-clock time.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the fixed-point format of the input features.
    pub fn input_format(mut self, format: QFormat) -> Self {
        self.input_format = format;
        self
    }

    /// Sets the detection/recovery policy for ABM layers (see
    /// [`ResiliencePolicy`]). The default leaves every detector off.
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Pins the host kernel ISA for every ABM layer (`None`, the
    /// default, defers to `ABM_FORCE_ISA` and then auto-detection; see
    /// [`abm_kernel::select`]). Results are bit-identical for every
    /// setting — the pin only chooses which vector unit executes the
    /// gather loops. Preparation fails with
    /// [`AbmError::IsaUnavailable`] if the pinned ISA cannot run here.
    pub fn isa(mut self, isa: Option<Isa>) -> Self {
        self.isa = isa;
        self
    }

    /// Attaches a telemetry sink. Every accelerated layer records a
    /// wall-clock [`HostSpan`](abm_telemetry::Event::HostSpan) carrying
    /// its ABM operation count (so span duration vs. `ops` gives
    /// measured host efficiency), and batch runs record per-worker
    /// claim counts. Inference *results* are unaffected — the sink only
    /// observes (asserted by `tests/telemetry.rs`).
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Uses fixed per-layer output formats from an offline
    /// [`Calibration`](crate::calibrate::Calibration) — the
    /// hardware-faithful deployment mode. Without one, output formats
    /// are chosen dynamically per image (convenient for testing, but
    /// not what the Sum/Round hardware can do).
    pub fn calibration(mut self, calibration: crate::calibrate::Calibration) -> Self {
        self.calibration = Some(calibration);
        self
    }

    /// Prepares the engine-specific weight representation once, so a
    /// batch of images does not re-encode per image (the accelerator
    /// encodes offline; this mirrors that). For the ABM engine this also
    /// lowers every layer to its flat-offset hot-path form
    /// ([`PreparedConv`]) against the network's per-layer input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError`] if a layer's kernels cannot be encoded or
    /// lowered (e.g. a flat offset overflowing the 32-bit encoding),
    /// tagged with the failing layer.
    pub fn prepare(&self) -> Result<PreparedWeights, AbmError> {
        let mut layers = Vec::with_capacity(self.model.layers.len());
        for (idx, sl) in self.model.layers.iter().enumerate() {
            layers.push(match self.engine {
                Engine::Abm => {
                    let code = LayerCode::encode(&sl.weights)
                        .map_err(|e| AbmError::from(e).at_layer(idx))?;
                    let (in_shape, geom) = accel_geometry(sl);
                    // The code is read here and dropped: a corrupted
                    // layer is rebuilt from the model's raw weights.
                    let prep = PreparedConv::try_new(&code, in_shape, geom, self.isa)
                        .map_err(|e| e.at_layer(idx))?;
                    if let Some(sink) = &self.telemetry {
                        let sel = prep.selection();
                        sink.record_dispatch(
                            idx as u32,
                            sel.isa.name(),
                            sel.acc.name(),
                            sel.lanes() as u32,
                        );
                    }
                    LayerWeights::Abm(Arc::new(prep))
                }
                Engine::Dense => LayerWeights::Model,
            });
        }
        Ok(PreparedWeights {
            layers,
            plan: Plan::new(&self.model.network, self.engine == Engine::Abm),
            arenas: ArenaPool::default(),
            scrub: ScrubCursor::default(),
        })
    }

    /// Runs inference on a batch of images, encoding weights only once
    /// and fanning images out across the configured
    /// [`Parallelism`] (see [`parallelism`](Self::parallelism)).
    ///
    /// The batch is deterministic: results are returned in input order
    /// and are bit-identical to running each image serially — parallel
    /// workers only share the read-only [`PreparedWeights`], never
    /// intermediate state (each checks its own arena out of the
    /// weights' pool, and every buffer is rewritten before it is read).
    ///
    /// # Errors
    ///
    /// Returns [`AbmError`] if preparation fails, any input's shape
    /// differs from the network's input shape, or any item fails; a
    /// worker panic is caught at the pool boundary and surfaces as
    /// [`AbmError::WorkerPanic`] naming the item. For per-item outcomes
    /// instead of the first error, [`prepare`](Self::prepare) and use
    /// [`run_batch_salvage`](Self::run_batch_salvage).
    pub fn run_batch(&self, inputs: &[Tensor3<i16>]) -> Result<Vec<InferenceResult>, AbmError> {
        let prepared = self.prepare()?;
        self.run_batch_prepared(&prepared, inputs)
    }

    /// Runs a batch against pre-encoded weights, salvaging what it can
    /// — the one batch executor [`run_batch_prepared`](Self::run_batch_prepared)
    /// and the serving layer both stand on. Every item gets its own
    /// typed outcome, in input order: `Ok` (bit-identical to a serial
    /// [`run_prepared`](Self::run_prepared)), the item's own error (a
    /// shape mismatch, a sweep stopped by corrupted streams under
    /// [`ResiliencePolicy::Unchecked`]), [`AbmError::WorkerPanic`] when
    /// a worker panicked on it (poisoning only itself), or — with
    /// `deadline: Some(_)` — [`AbmError::DeadlineExceeded`] when the
    /// clock passed before any worker claimed it; items claimed before
    /// the deadline run to completion. `tests/serve.rs` pins the
    /// mid-batch-deadline regression.
    ///
    /// A batch of two or more on the ABM engine runs in two phases when
    /// the network ends in fully-connected layers: every image's
    /// convolutional prefix on the pool, then that tail **once**, the
    /// images as the vector lanes of each layer's sweep (DESIGN.md §6,
    /// "FC on batch lanes") — one weight fetch serves the whole batch.
    /// The outcomes are the same; a panic in the shared tail is
    /// [`AbmError::WorkerPanic`] for every image it carried.
    ///
    /// A batch of one is a lone image: its layers split across the
    /// [`parallelism`](Self::parallelism) the images of a larger batch
    /// fan out over — one pool at a time, never one inside another.
    ///
    /// Hardened, the call scrubs one layer, the same for every image.
    pub fn run_batch_salvage(
        &self,
        prepared: &PreparedWeights,
        inputs: &[Tensor3<i16>],
        deadline: Option<std::time::Instant>,
    ) -> Vec<Result<InferenceResult, AbmError>> {
        let scrub = self.scrub(prepared);
        match prepared.plan.tail {
            Some(tail) if inputs.len() > 1 && self.engine == Engine::Abm => {
                self.run_batch_on_lanes(prepared, inputs, deadline, scrub, tail)
            }
            _ => {
                let width = match inputs.len() {
                    1 => self.parallelism.worker_count(),
                    _ => 1,
                };
                parallel_map_salvage(
                    self.parallelism,
                    inputs,
                    self.telemetry.as_ref(),
                    deadline,
                    |worker, _, input| {
                        self.run_prepared_on(prepared, input, (worker as u32, width), scrub)
                    },
                )
                .into_iter()
                .map(Result::flatten)
                .collect()
            }
        }
    }

    /// [`run_batch`](Self::run_batch) against weights prepared earlier
    /// with [`prepare`](Self::prepare) — the "prepare once, infer many"
    /// serving path.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::ShapeMismatch`] if any input's shape differs
    /// from the network's input shape (checked up front, before any
    /// worker spins up), otherwise the first failing item's error in
    /// input order: [`AbmError::NotPrepared`] if `prepared` came from a
    /// differently-configured inferencer, [`AbmError::WorkerPanic`] if
    /// a worker panicked mid-item (caught at the pool boundary, never
    /// crossing the join).
    pub fn run_batch_prepared(
        &self,
        prepared: &PreparedWeights,
        inputs: &[Tensor3<i16>],
    ) -> Result<Vec<InferenceResult>, AbmError> {
        for input in inputs {
            self.check_input(prepared, input)?;
        }
        self.run_batch_salvage(prepared, inputs, None)
            .into_iter()
            .collect()
    }

    /// [`run_batch_prepared`](Self::run_batch_prepared) under a second
    /// name, kept for source compatibility. On the host the
    /// image-parallel batch executor beats layer-pipelined stage threads
    /// (≈ 87 vs ≈ 35 AlexNet images/s on two vCPUs), so the layer
    /// pipeline lives only where each stage owns its own silicon: in the
    /// simulator (`abm_sim::pipeline`).
    ///
    /// The semantics are `run_batch_prepared`'s: every input is
    /// shape-checked up front, before any work runs; results are
    /// returned in input order and are bit-identical to it; an error is
    /// the first failing item's, in input order. The stage count is
    /// accepted and ignored, so any value is safe, 0 included.
    ///
    /// # Errors
    ///
    /// As [`run_batch_prepared`](Self::run_batch_prepared).
    pub fn run_batch_pipelined(
        &self,
        prepared: &PreparedWeights,
        inputs: &[Tensor3<i16>],
        _n_stages: usize,
    ) -> Result<Vec<InferenceResult>, AbmError> {
        self.run_batch_prepared(prepared, inputs)
    }

    /// Runs inference on a quantized input feature map.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError`] if preparation fails, the input shape is
    /// wrong, or corrupted streams stop a sweep under
    /// [`ResiliencePolicy::Unchecked`].
    pub fn run(&self, input: &Tensor3<i16>) -> Result<InferenceResult, AbmError> {
        let prepared = self.prepare()?;
        self.run_prepared(&prepared, input)
    }

    /// Runs one image against pre-encoded weights, each ABM layer split
    /// across the configured [`parallelism`](Self::parallelism) where
    /// it is large enough.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::ShapeMismatch`] on a wrong input shape,
    /// [`AbmError::NotPrepared`] if `prepared` came from a
    /// differently-configured inferencer, and [`AbmError::CodeCorrupt`]
    /// when corrupted streams stop a sweep under
    /// [`ResiliencePolicy::Unchecked`].
    pub fn run_prepared(
        &self,
        prepared: &PreparedWeights,
        input: &Tensor3<i16>,
    ) -> Result<InferenceResult, AbmError> {
        let width = self.parallelism.worker_count();
        self.run_prepared_on(prepared, input, (0, width), self.scrub(prepared))
    }

    /// The accelerated layer a call scrubs: the next of `prepared`'s
    /// under the hardened policy on the ABM engine, none otherwise.
    fn scrub(&self, prepared: &PreparedWeights) -> Option<usize> {
        let scrubs = self.resilience == ResiliencePolicy::Hardened && self.engine == Engine::Abm;
        let next = || prepared.scrub.0.fetch_add(1, Ordering::Relaxed);
        scrubs.then(|| next() % prepared.layers.len().max(1))
    }

    /// [`run_prepared`](Self::run_prepared) with telemetry spans tagged
    /// for worker `track` — one image runs on one worker at a time, so
    /// its layer spans never overlap on that track — its layers split
    /// across `width` threads, and `scrub` the layer it re-hashes.
    fn run_prepared_on(
        &self,
        prepared: &PreparedWeights,
        input: &Tensor3<i16>,
        (track, width): (u32, usize),
        scrub: Option<usize>,
    ) -> Result<InferenceResult, AbmError> {
        let timer = std::time::Instant::now();
        let layers = 0..prepared.plan.steps.len();
        let result = self
            .begin_checked(prepared, input, scrub)
            .and_then(|mut state| {
                self.advance(prepared, &mut state, layers, (track, width))?;
                Ok(state.finish(&prepared.arenas))
            });
        note_image(&result, timer.elapsed());
        result
    }

    /// Starts an image's flow through the network, behind the input
    /// guard: the per-image state every layer step threads forward, the
    /// input stored straight into a feature buffer out of the weights'
    /// pool through the layout its first consumer reads, and the layer
    /// its call scrubs.
    fn begin_checked(
        &self,
        prepared: &PreparedWeights,
        input: &Tensor3<i16>,
        scrub: Option<usize>,
    ) -> Result<ImageState, AbmError> {
        self.check_input(prepared, input)?;
        let (plan, pool) = (&prepared.plan, &prepared.arenas);
        let mut features = pool.take_features(plan);
        plan.input.relayout_into(input, &mut features);
        Ok(ImageState {
            features,
            shape: input.shape(),
            layout: plan.input,
            fmt: self.input_format,
            accel_idx: 0,
            scrub,
            result: InferenceResult::default(),
        })
    }

    /// Steps an image through `layers` on an arena checked out for the
    /// run, each `at` a track and width (see
    /// [`step_layer`](Self::step_layer)). A failing image's feature
    /// buffer goes back to the pool.
    fn advance(
        &self,
        prepared: &PreparedWeights,
        state: &mut ImageState,
        mut layers: std::ops::Range<usize>,
        at: (u32, usize),
    ) -> Result<(), AbmError> {
        let (plan, pool) = (&prepared.plan, &prepared.arenas);
        let mut arena = pool.take_arena(plan);
        let status =
            layers.try_for_each(|layer| self.step_layer(prepared, &mut arena, state, layer, at));
        pool.give_arena(arena);
        if status.is_err() {
            pool.give_features(std::mem::take(&mut state.features));
        }
        status
    }

    /// Advances an image through network layer `index`. Every executor
    /// shares this step — a lone image, a batch's prefixes, the lane
    /// tail's fallback — which is what makes them bit-identical by
    /// construction: an image's state never depends on any other image,
    /// only on the shared read-only
    /// [`PreparedWeights`]; `arena` is the executing thread's, and every
    /// buffer in it is fully rewritten before it is read. `at` is where
    /// the step runs: the telemetry track its span is recorded on, and
    /// how many threads an accelerated layer may split its kernels
    /// across (1 wherever the caller already runs images in parallel).
    fn step_layer(
        &self,
        prepared: &PreparedWeights,
        arena: &mut Arena,
        state: &mut ImageState,
        index: usize,
        at: (u32, usize),
    ) -> Result<(), AbmError> {
        let layer = &self.model.network.layers()[index];
        let step = &prepared.plan.steps[index];
        match &layer.kind {
            // Applied by the accelerated layer before it, in its epilogue.
            _ if step.absorbed => {}
            LayerKind::Conv(_) | LayerKind::FullyConnected(_) => {
                let layer_idx = state.accel_idx;
                self.accel_layer(prepared, arena, state, step, at)
                    .map_err(|e| e.at_layer(layer_idx))?;
            }
            LayerKind::Pool(_) => {
                arena.pool_store(&state.features, state.shape, step);
                std::mem::swap(&mut state.features, &mut arena.spare);
            }
            // In place, whatever the layout: padding stays zero.
            LayerKind::Relu => {
                let len = state.layout.relaid_len(state.shape.channels);
                state.features[..len]
                    .iter_mut()
                    .for_each(|v| *v = (*v).max(0));
            }
            LayerKind::Lrn(spec) => {
                arena.lrn_store(&state.features, state.fmt, spec, step, at.1);
                std::mem::swap(&mut state.features, &mut arena.spare);
            }
            LayerKind::Softmax => {
                let features = state.layout.strip(&state.features, state.shape.channels);
                let logits = features.as_slice().iter();
                state.result.logits = logits.map(|&v| state.fmt.dequantize(v as i32)).collect();
                state.result.probabilities = host::softmax(&state.result.logits);
            }
        }
        if !step.absorbed {
            (state.shape, state.layout) = (step.stored, step.store);
        }
        state.result.formats.push(state.fmt);
        Ok(())
    }

    /// Executes one accelerated layer: convolve exactly into the arena's
    /// accumulator plane — the lowered engine on the buffers as they
    /// are, into the narrow plane when the layer proved it may, the
    /// dense one on a tensor stripped out of them — then rescale
    /// to a fresh 8-bit feature format in one rounding step that also
    /// applies the ReLU and pool the plan absorbed and stores through
    /// the consumer's layout.
    fn accel_layer(
        &self,
        prepared: &PreparedWeights,
        arena: &mut Arena,
        state: &mut ImageState,
        step: &Step,
        (track, width): (u32, usize),
    ) -> Result<(), AbmError> {
        let layer_idx = state.accel_idx;
        let sl = &self.model.layers[layer_idx];
        let clock = self.layer_clock();
        let (in_shape, geom) = accel_geometry(sl);
        if in_shape != state.shape {
            // An FC layer: flattening is free, the plain tensor already
            // is the channel-major vector.
            (state.shape, state.layout) = (in_shape, FlatLayout::identity(in_shape));
        }
        let len = step.shape.len();
        let (max_abs, work, plane) = if self.engine == Engine::Abm {
            let prep = prepared.abm_layer(layer_idx).ok_or(AbmError::NotPrepared {
                layer: layer_idx,
                engine: "ABM",
            })?;
            let want = prep.input_shape();
            let planned = (want, prep.flat().layout(), prep.output_shape());
            if (state.shape, state.layout, step.shape) != planned {
                return Err(AbmError::ShapeMismatch {
                    got: (in_shape.channels, in_shape.rows, in_shape.cols),
                    want: (want.channels, want.rows, want.cols),
                });
            }
            let scrub = state.scrub == Some(layer_idx);
            let at = (layer_idx, prep.shares(width), scrub);
            // The map alone, not the pool buffer's slack behind it: an
            // offset past the map stops the sweep at its guard.
            let relaid = &state.features[..prep.flat().layout().relaid_len(want.channels)];
            let Arena {
                plane,
                wide,
                sweeps,
                abft,
                ..
            } = &mut *arena;
            let scratch = (sweeps, abft);
            let (max_abs, work) = match prep.plane_width() {
                AccWidth::I32 => self.execute_abm(prep, relaid, &mut plane[..len], scratch, at)?,
                AccWidth::I64 => self.execute_abm(prep, relaid, fit(wide, len), scratch, at)?,
            };
            (max_abs, work, prep.plane_width())
        } else {
            let input = state.layout.strip(&state.features, in_shape.channels);
            let acc = dense::conv2d(&input, &sl.weights, geom);
            let plane = fit(&mut arena.wide, len);
            (load_plane(plane, &acc), AbmWork::default(), AccWidth::I64)
        };
        let (max_real, target, shift) = self.output_format(layer_idx, state.fmt, max_abs);
        let result = &mut state.result;
        result.saturated_features += arena.requantize_store(step, plane, max_abs, shift, target);
        std::mem::swap(&mut state.features, &mut arena.spare);
        state.fmt = target;
        state.accel_idx += 1;
        result.record_layer(step, max_real, work);
        // ops = the layer's two-stage arithmetic total, so span
        // duration vs. ops gives measured host ops/sec (0 for the dense
        // engine, which counts no work).
        self.note_layer(clock, step, sl.name(), track, work.total());
        Ok(())
    }

    /// Starts the clocks an accelerated layer is observed by: the
    /// telemetry sink's and the metrics registry's, each only when on.
    fn layer_clock(&self) -> LayerClock {
        LayerClock {
            span: self.telemetry.as_ref().map(TelemetrySink::now_ns),
            metric: abm_metrics::enabled().then(std::time::Instant::now),
        }
    }

    /// Records one finished accelerated layer: its `infer_layer_ns` and
    /// `layer_ns_<name>` samples, and a host span of `ops` operations on
    /// `track` (what the serving layer's watchdog takes as a heartbeat).
    fn note_layer(&self, clock: LayerClock, step: &Step, name: &str, track: u32, ops: u64) {
        if let Some(start) = clock.metric {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let m = abm_metrics::global();
            m.observe("infer_layer_ns", ns);
            m.observe(&step.metric, ns);
        }
        if let (Some(sink), Some(start)) = (&self.telemetry, clock.span) {
            sink.record_span(track, name, start, ops);
        }
    }

    /// Sum/Round's decision for accelerated layer `layer_idx`, whose
    /// input came in `input` and whose largest accumulator magnitude is
    /// `max_abs`: that magnitude as a real value, the format the output
    /// is rounded to, and the bits rounded away. Without a calibration
    /// the format is chosen so the largest magnitude just fits; with
    /// one, out-of-range values saturate and are counted.
    fn output_format(&self, layer_idx: usize, input: QFormat, max_abs: u64) -> (f32, QFormat, i32) {
        let acc_frac = input.frac() as i32 + self.model.layers[layer_idx].format.frac() as i32;
        let max_real = (max_abs as f64 * 2f64.powi(-acc_frac)) as f32;
        let target = match &self.calibration {
            Some(calibration) => calibration.format(layer_idx),
            None => QFormat::new(8, choose_frac(&[max_real], 8)),
        };
        (max_real, target, acc_frac - target.frac() as i32)
    }

    /// Sweeps an ABM layer into `plane` — the arena's narrow or wide
    /// one, beside the rest of its sweep and ABFT `scratch` — `at` its
    /// accelerated-layer index, the shares its sweep splits into, and
    /// whether this call scrubs it, behind the sweep's guard
    /// ([`guarded`]). Unchecked, that is all. Hardened, a scrubbed layer
    /// is re-hashed first, ABFT checks every sweep against the very
    /// buffers the layer read and filled, and a detection climbs the
    /// recovery ladder: re-lower once — encode the model's raw weights
    /// and prepare them again — when the rebuilt layer's checksum is the
    /// one recorded at load, and otherwise, or when the rebuilt layer
    /// fails too, run the dense engine on the same raw weights, on a
    /// tensor stripped back out of `relaid`, into the same plane (the
    /// layer's stage-2 proof bounds every output of the weights both
    /// convolve with). Every detection and recovery is recorded as a
    /// telemetry [`Event::Fault`](abm_telemetry::Event::Fault). Only the
    /// sweep splits across `shares` threads.
    fn execute_abm<A: Accumulator>(
        &self,
        prep: &PreparedConv,
        relaid: &[i16],
        plane: &mut [A],
        (sweeps, abft): (&mut Vec<SweepScratch>, &mut Vec<i64>),
        (layer_idx, shares, scrub): (usize, usize, bool),
    ) -> Result<(u64, AbmWork), AbmError> {
        if self.resilience == ResiliencePolicy::Unchecked {
            let max_abs = guarded(|| prep.execute_into(relaid, plane, sweeps, shares))?;
            return Ok((max_abs, prep.work()));
        }
        let geom = prep.geometry();
        let mut attempt = |p: &PreparedConv, plane: &mut [A]| -> Result<_, AbmError> {
            let max_abs = guarded(|| p.execute_into(relaid, plane, sweeps, shares))?;
            if I::ENABLED {
                let mut injector = self.injector.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some((word, bit)) =
                    injector.accumulator_flip(layer_idx, plane.len(), A::WIDTH.bits())
                {
                    plane[word] = A::narrow(plane[word].into() ^ (1i64 << bit));
                }
            }
            timed_detector("abm_abft_ns", || abft::verify_plane(p, relaid, plane, abft))?;
            Ok((max_abs, p.work()))
        };
        let scrubbed = match scrub {
            true => timed_detector("abm_verify_checksum_ns", || prep.verify_checksum()),
            false => Ok(()),
        };
        let detected = match scrubbed.and_then(|()| attempt(prep, plane)) {
            Ok(r) => return Ok(r),
            Err(e) if e.is_corruption() => e,
            Err(e) => return Err(e),
        };
        self.record_fault(
            layer_idx,
            FaultAction::Detected,
            detector_name(&detected),
            &detected.to_string(),
        );
        // Rebuild the layer from the model's raw weights, and run it
        // only if it lowers to the very streams checksummed at load:
        // weights that changed since then are not the layer that was
        // prepared. One rebuild is enough — a second would be the first
        // again — and the dense rung stands behind it.
        let weights = &self.model.layers[layer_idx].weights;
        let fresh = LayerCode::encode(weights)
            .ok()
            .and_then(|code| PreparedConv::try_new(&code, prep.input_shape(), geom, self.isa).ok());
        let fresh = fresh.filter(|fresh| fresh.checksum() == prep.checksum());
        if let Some(r) = fresh.and_then(|fresh| attempt(&fresh, plane).ok()) {
            self.record_fault(
                layer_idx,
                FaultAction::Recovered,
                "re-lower",
                "clean after one rebuild from the raw weights",
            );
            return Ok(r);
        }
        // The dense engine needs nothing but the raw weights, which the
        // model always has. Work counters stay zero — the layer no
        // longer ran the two-stage scheme.
        let input = prep
            .flat()
            .layout()
            .strip(relaid, prep.input_shape().channels);
        let out = dense::conv2d(&input, &self.model.layers[layer_idx].weights, geom);
        self.record_fault(
            layer_idx,
            FaultAction::Recovered,
            "dense-fallback",
            "degraded to the dense oracle",
        );
        Ok((load_plane(plane, &out), AbmWork::default()))
    }

    /// Typed replacement for the old input-shape assertion, and the
    /// guard that `prepared` was planned for this network.
    fn check_input(
        &self,
        prepared: &PreparedWeights,
        input: &Tensor3<i16>,
    ) -> Result<(), AbmError> {
        let (got, want) = (input.shape(), self.model.network.input_shape());
        if got != want {
            return Err(AbmError::ShapeMismatch {
                got: (got.channels, got.rows, got.cols),
                want: (want.channels, want.rows, want.cols),
            });
        }
        let plan = &prepared.plan;
        if plan.steps.len() != self.model.network.len()
            || (plan.input.in_rows, plan.input.in_cols) != (want.rows, want.cols)
        {
            return Err(AbmError::NotPrepared {
                layer: 0,
                engine: "planned",
            });
        }
        Ok(())
    }

    /// Records one step of the ladder — a detection, or a recovery by
    /// the rung `class` names — as a telemetry fault event and its
    /// aggregate twin in the metrics registry, so campaign totals
    /// reconcile against summed events.
    fn record_fault(&self, layer: usize, action: FaultAction, class: &str, detail: &str) {
        if abm_metrics::enabled() {
            let counter = match (action, class) {
                (FaultAction::Recovered, "re-lower") => "recovery_relower_total",
                (FaultAction::Recovered, _) => "recovery_dense_total",
                _ => "fault_detected_total",
            };
            abm_metrics::global().add(counter, 1);
        }
        if let Some(sink) = &self.telemetry {
            sink.record_fault(layer as u32, action, class, detail);
        }
    }
}

/// When an accelerated layer started, on each clock that is on (see
/// `Inferencer::layer_clock`).
struct LayerClock {
    span: Option<u64>,
    metric: Option<std::time::Instant>,
}

/// Books one image's outcome — every executor's images end here: the
/// time it took and its count when the metrics registry is on, and an
/// error in `abm_errors_infer_total`.
fn note_image<T>(result: &Result<T, AbmError>, elapsed: std::time::Duration) {
    if abm_metrics::enabled() {
        let m = abm_metrics::global();
        m.observe(
            "infer_image_ns",
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        );
        m.add("infer_images_total", 1);
    }
    if result.is_err() {
        abm_metrics::global().note_error("infer");
    }
}

/// Runs one hardened-path detector and, when the metrics registry is
/// on, records its wall time — pass or fail — in the `histogram`, so the
/// detectors' share of a layer shows where the layer runs.
fn timed_detector<T>(histogram: &str, detector: impl FnOnce() -> T) -> T {
    let start = abm_metrics::enabled().then(std::time::Instant::now);
    let verdict = detector();
    if let Some(start) = start {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        abm_metrics::global().observe(histogram, ns);
    }
    verdict
}

/// The detector a corruption error names in telemetry and reports: the
/// scrub's stream checksum, ABFT, or the sweep's guard.
fn detector_name(e: &AbmError) -> &'static str {
    match e.root_cause() {
        AbmError::ChecksumMismatch { .. } => "scrub",
        AbmError::AbftMismatch { .. } => "abft",
        _ => "guard",
    }
}

/// Runs an ABM sweep behind its guard. The kernels read their input
/// through checked windows, so an offset or group bound upset past the
/// buffer stops the sweep with a panic — on whichever of its threads
/// met it, resumed on this one. The guard turns that into
/// [`AbmError::CodeCorrupt`], a detection like any other; the buffers
/// the sweep was writing are rewritten before anything reads them.
fn guarded<T>(sweep: impl FnOnce() -> T) -> Result<T, AbmError> {
    catch_unwind(AssertUnwindSafe(sweep)).map_err(|payload| AbmError::CodeCorrupt {
        kernel: 0,
        detail: format!("the sweep stopped: {}", panic_message(payload.as_ref())),
    })
}

/// The state one image threads through the network — created by
/// `begin_checked`, advanced layer by layer by `step_layer`, consumed by
/// [`finish`](Self::finish). It is self-contained per image (no shared
/// mutable state) and owns at most one buffer, which is what lets the
/// batch executor park it between its prefix and its lane tail without
/// changing a single computed bit.
#[derive(Debug)]
struct ImageState {
    /// The current feature map of `shape`, stored through `layout` —
    /// its next consumer's (a pool buffer, longer than the map).
    features: Vec<i16>,
    shape: Shape3,
    layout: FlatLayout,
    fmt: QFormat,
    accel_idx: usize,
    /// The accelerated layer this image re-hashes before its sweep — its
    /// call's scrub — if any.
    scrub: Option<usize>,
    /// The result so far; a softmax layer leaves its input in `logits`.
    result: InferenceResult,
}

impl ImageState {
    /// Packages the finished image and hands its buffer back to `pool`:
    /// logits are the pre-softmax activations if a softmax ran, else
    /// the dequantized features (the plan leaves the last layer's output
    /// a plain tensor).
    fn finish(&mut self, pool: &ArenaPool) -> InferenceResult {
        if self.result.logits.is_empty() {
            let features = self.features[..self.shape.len()].iter();
            self.result.logits = features.map(|&v| self.fmt.dequantize(v as i32)).collect();
        }
        pool.give_features(std::mem::take(&mut self.features));
        std::mem::take(&mut self.result)
    }
}

/// Copies a tensor engine's exact output into the accumulator plane and
/// returns its largest magnitude (what the lowered engine takes on the
/// way out of its sweep).
fn load_plane<A: Accumulator>(plane: &mut [A], acc: &Tensor3<i64>) -> u64 {
    assert_eq!(plane.len(), acc.len(), "plane != output shape");
    for (dst, &v) in plane.iter_mut().zip(acc.as_slice()) {
        *dst = A::narrow(v);
    }
    let magnitudes = acc.as_slice().iter().map(|&v| v.unsigned_abs());
    magnitudes.max().unwrap_or(0)
}

/// Engine-specific pre-encoded weights shared across a batch. Create
/// with [`Inferencer::prepare`].
///
/// For the ABM engine each layer is held in its prepared hot-path form
/// ([`PreparedConv`]): flat-offset streams, kernel dispatch and
/// analytic work accounting, lowered once and shared read-only across
/// batch items and host workers.
///
/// The source [`LayerCode`]s are not kept: the flat streams are the one
/// resident encoding of every non-zero, and the recovery path rebuilds a
/// corrupted layer from the model's raw weights (see
/// [`ResiliencePolicy`]). Beside the prepared forms sit the plan of
/// where every layer stores its output and the pool of activation
/// arenas the executing threads check out.
///
/// **One prepared model per process.** Every layer sits behind an
/// [`Arc`], so `clone()` copies handles, not streams (the clone starts
/// with an empty arena pool, and scrubs from its first layer): a server's workers, a campaign's trials
/// and a test's corrupted copy all read the one lowered model. Nothing
/// on an execution path writes a layer — the recovery ladder runs its
/// rebuilt layer locally and drops it. The only writer is
/// [`abm_layer_mut`](Self::abm_layer_mut), which copies the one layer
/// it touches first when another handle shares it: a corruption is
/// never visible through a sibling handle.
#[derive(Debug, Clone)]
pub struct PreparedWeights {
    /// One slot per accelerated layer, execution order.
    layers: Vec<LayerWeights>,
    plan: Plan,
    arenas: ArenaPool,
    scrub: ScrubCursor,
}

/// How many hardened calls a [`PreparedWeights`] has scrubbed: call `n`
/// re-hashes accelerated layer `n mod L`, so each of the `L` layers is
/// re-verified within `L` consecutive calls. A clone counts its own
/// calls from zero.
#[derive(Debug, Default)]
struct ScrubCursor(AtomicUsize);

impl Clone for ScrubCursor {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// What `prepare` holds for one accelerated layer, by engine.
#[derive(Debug, Clone)]
enum LayerWeights {
    /// ABM: the lowered layer.
    Abm(Arc<PreparedConv>),
    /// Dense reads the model's own tensors.
    Model,
}

impl PreparedWeights {
    /// A layer's prepared ABM form (`None` for the dense engine or an
    /// out-of-range index).
    #[must_use]
    pub fn abm_layer(&self, layer: usize) -> Option<&PreparedConv> {
        match self.layers.get(layer)? {
            LayerWeights::Abm(prep) => Some(prep),
            LayerWeights::Model => None,
        }
    }

    /// Mutable access to a layer's prepared ABM form — the escape hatch
    /// fault campaigns use to corrupt a layer's streams in place (see
    /// [`PreparedConv::flat_mut`]). Copy-on-write: if another handle
    /// shares the layer it is copied first, and only this handle sees
    /// the edit. Never needed on correct paths.
    #[must_use]
    pub fn abm_layer_mut(&mut self, layer: usize) -> Option<&mut PreparedConv> {
        match self.layers.get_mut(layer)? {
            LayerWeights::Abm(prep) => Some(Arc::make_mut(prep)),
            LayerWeights::Model => None,
        }
    }

    /// Re-points `layer`'s slot at `from`'s — a handle copy, dropping
    /// whatever private copy an [`abm_layer_mut`](Self::abm_layer_mut)
    /// write left here. How a chaos-corrupted layer is repaired from
    /// the clean model it was cloned from.
    pub fn share_layer(&mut self, layer: usize, from: &Self) {
        if let (Some(slot), Some(clean)) = (self.layers.get_mut(layer), from.layers.get(layer)) {
            *slot = clean.clone();
        }
    }

    /// What the activation-arena pool has grown by and holds idle.
    #[must_use]
    pub fn arena_stats(&self) -> ArenaStats {
        self.arenas.stats()
    }

    /// Bytes of accumulator plane the idle arenas hold: the `i32` planes
    /// of layers whose stage-2 worst case was proven to fit them
    /// ([`PreparedConv::plane_width`]), then the `i64` planes of any
    /// other, which an arena allocates only when such a layer runs.
    #[must_use]
    pub fn arena_plane_bytes(&self) -> (usize, usize) {
        self.arenas.plane_bytes()
    }
}

/// The input shape and geometry an accelerated layer convolves at: conv
/// layers run on their resolved feature-map shape, FC layers on the
/// channel-major flattened vector — the plain tensor as it lies.
fn accel_geometry(sl: &SparseLayer) -> (Shape3, Geometry) {
    match &sl.layer.layer.kind {
        LayerKind::Conv(spec) => (
            sl.layer.input_shape,
            Geometry::new(spec.stride, spec.pad).with_groups(spec.groups),
        ),
        _ => (
            Shape3::new(sl.layer.input_shape.len(), 1, 1),
            Geometry::unit(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};

    fn tiny_model() -> SparseModel {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
        synthesize_model(&net, &profile, 99)
    }

    fn tiny_input() -> Tensor3<i16> {
        Tensor3::from_fn(Shape3::new(3, 32, 32), |c, r, col| {
            (((c * 1024 + r * 32 + col) * 37 % 255) as i16) - 127
        })
    }

    /// Edits the value and offset streams of layer 0's first kernel in
    /// place, keeping the golden checksum — a post-load SEU.
    fn corrupt_first_kernel(
        prepared: &mut PreparedWeights,
        edit: impl FnOnce(&mut Vec<i8>, &mut Vec<u32>),
    ) {
        let prep = prepared.abm_layer_mut(0).unwrap();
        let (values, _, offsets) = prep.flat_mut().kernels_mut()[0].streams_mut();
        edit(values, offsets);
    }

    #[test]
    fn integer_engines_bit_identical() {
        let model = tiny_model();
        let input = tiny_input();
        let dense = Inferencer::new(&model)
            .engine(Engine::Dense)
            .run(&input)
            .unwrap();
        let abm = Inferencer::new(&model)
            .engine(Engine::Abm)
            .run(&input)
            .unwrap();
        assert_eq!(dense.logits, abm.logits);
        assert_eq!(dense.probabilities, abm.probabilities);
        // Only the ABM run reports two-stage work.
        assert_eq!(dense.work.accumulations, 0);
        assert!(abm.work.accumulations > 0);
        assert!(abm.work.multiplications < abm.work.accumulations);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let model = tiny_model();
        let r = Inferencer::new(&model).run(&tiny_input()).unwrap();
        assert_eq!(r.probabilities.len(), 10);
        let sum: f32 = r.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(r.argmax().unwrap() < 10);
    }

    #[test]
    fn formats_cover_every_layer() {
        let model = tiny_model();
        let r = Inferencer::new(&model).run(&tiny_input()).unwrap();
        assert_eq!(r.formats.len(), model.network.len());
    }

    #[test]
    fn wrong_input_shape_is_typed_error() {
        let model = tiny_model();
        let bad = Tensor3::<i16>::zeros(Shape3::new(1, 8, 8));
        let err = Inferencer::new(&model).run(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                AbmError::ShapeMismatch {
                    got: (1, 8, 8),
                    want: (3, 32, 32)
                }
            ),
            "{err}"
        );
        // The batch paths reject it the same way, without panicking.
        let inf = Inferencer::new(&model);
        assert!(inf.run_batch(std::slice::from_ref(&bad)).is_err());
        let prepared = inf.prepare().unwrap();
        let salvaged = inf.run_batch_salvage(&prepared, &[tiny_input(), bad], None);
        assert!(salvaged[0].is_ok());
        assert!(matches!(salvaged[1], Err(AbmError::ShapeMismatch { .. })));
    }

    #[test]
    fn hardened_policy_matches_unchecked_run() {
        // With nothing injected, the detectors must pass and the result
        // must be bit-identical to the unchecked path.
        let model = tiny_model();
        let input = tiny_input();
        let plain = Inferencer::new(&model).run(&input).unwrap();
        let checked = Inferencer::new(&model)
            .resilience(ResiliencePolicy::hardened())
            .run(&input)
            .unwrap();
        assert_eq!(plain, checked);
    }

    #[test]
    fn corrupted_layer_recovers_by_relowering() {
        let model = tiny_model();
        let input = tiny_input();
        let inf = Inferencer::new(&model).resilience(ResiliencePolicy::hardened());
        let golden = inf.run(&input).unwrap();
        let mut prepared = inf.prepare().unwrap();
        // Flip one offset bit in layer 0's streams.
        corrupt_first_kernel(&mut prepared, |_, offsets| offsets[0] ^= 1 << 2);
        let recovered = inf.run_prepared(&prepared, &input).unwrap();
        assert_eq!(recovered.logits, golden.logits);
        assert_eq!(recovered.probabilities, golden.probabilities);
    }

    /// The `Fault` events recorded since the last call, as
    /// `(layer, action, class)`.
    fn fault_events(sink: &TelemetrySink) -> Vec<(u32, FaultAction, String)> {
        use abm_telemetry::Event;
        let events = sink.drain().into_iter();
        let faults = events.filter_map(|e| match e {
            Event::Fault {
                layer,
                action,
                class,
                ..
            } => Some((layer, action, class)),
            _ => None,
        });
        faults.collect()
    }

    /// A detection by `detector` in layer `layer`, recovered by `rung`.
    fn detected(layer: u32, detector: &str, rung: &str) -> Vec<(u32, FaultAction, String)> {
        vec![
            (layer, FaultAction::Detected, detector.to_string()),
            (layer, FaultAction::Recovered, rung.to_string()),
        ]
    }

    /// A fresh handle's first hardened call scrubs its first layer: a
    /// flipped value there is the scrub's `ChecksumMismatch` before the
    /// layer sweeps, recorded against layer 0 and re-lowered golden.
    #[test]
    fn the_first_call_scrubs_the_first_layer() {
        let model = tiny_model();
        let input = tiny_input();
        let sink = TelemetrySink::new();
        let inf = Inferencer::new(&model)
            .resilience(ResiliencePolicy::hardened())
            .telemetry(sink.clone());
        let golden = inf.run(&input).unwrap();
        let mut prepared = inf.prepare().unwrap();
        corrupt_first_kernel(&mut prepared, |values, _| {
            values[0] = values[0].wrapping_add(1);
        });
        let recovered = inf.run_prepared(&prepared, &input).unwrap();
        assert_eq!(recovered.logits, golden.logits);
        assert_eq!(fault_events(&sink), detected(0, "scrub", "re-lower"));
    }

    /// A stuck accumulator bit lands on every sweep of its layer: ABFT
    /// detects it, the layer rebuilt from the raw weights — sound, it
    /// lowers to the checksum recorded at load — fails the same way, and
    /// only the dense rung, which sweeps no plane the upset reaches,
    /// recovers the golden logits: one `dense-fallback` recovery,
    /// counted once, and no `re-lower` event.
    #[test]
    fn a_stuck_accumulator_is_recovered_by_the_dense_rung_alone() {
        use abm_fault::{Fault, FaultClass, FaultPlan, PlanInjector};
        let model = tiny_model();
        let input = tiny_input();
        let sink = TelemetrySink::new();
        let hardened = Inferencer::new(&model)
            .resilience(ResiliencePolicy::hardened())
            .telemetry(sink.clone());
        let dense_total = || {
            abm_metrics::global()
                .counter("recovery_dense_total")
                .value()
        };
        let prepared = hardened.prepare().unwrap();
        let golden = hardened.run_prepared(&prepared, &input).unwrap();
        let words = prepared.abm_layer(0).unwrap().output_shape().len();
        for (unit, bit) in [(0, 0), (words / 2, 17), (words - 1, 31)] {
            let fault = Fault {
                layer: 0,
                unit,
                bit,
                ..Fault::default()
            };
            let plan = FaultPlan::single(FaultClass::AccumulatorStuck, fault);
            let stuck = hardened.clone().injector(PlanInjector::new(plan));
            let before = dense_total();
            let recovered = stuck.run_prepared(&prepared, &input).unwrap();
            assert_eq!(recovered.logits, golden.logits, "word {unit} bit {bit}");
            assert_eq!(
                fault_events(&sink),
                detected(0, "abft", "dense-fallback"),
                "word {unit} bit {bit}"
            );
            // Only this test reaches the dense rung in this binary, so
            // the shared registry's count moves by this run alone.
            assert_eq!(dense_total(), before + 1, "word {unit} bit {bit}");
        }
    }

    /// The column checksum is state a request reads: a flipped bit of
    /// it is an `abft` detection, and the hardened ladder's one
    /// re-lowering — a fresh layer, which rebuilds the table from the
    /// sound code — recovers the golden logits.
    #[test]
    fn a_flipped_column_checksum_is_detected_and_relowered() {
        let model = tiny_model();
        let input = tiny_input();
        let sink = TelemetrySink::new();
        let hardened = Inferencer::new(&model)
            .resilience(ResiliencePolicy::hardened())
            .telemetry(sink.clone());
        let clean = hardened.prepare().unwrap();
        let golden = hardened.run_prepared(&clean, &input).unwrap();
        let entries = clean.abm_layer(0).unwrap().column().len();
        for entry in [0, entries / 2, entries - 1] {
            for bit in 0..32 {
                let mut prepared = clean.clone();
                prepared.abm_layer_mut(0).unwrap().column_mut()[entry] ^= 1 << bit;
                let recovered = hardened.run_prepared(&prepared, &input).unwrap();
                assert_eq!(recovered.logits, golden.logits, "entry {entry} bit {bit}");
                assert_eq!(
                    fault_events(&sink),
                    detected(0, "abft", "re-lower"),
                    "entry {entry} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_individual_runs() {
        let model = tiny_model();
        let inputs: Vec<_> = (0..3)
            .map(|salt| {
                Tensor3::from_fn(Shape3::new(3, 32, 32), |c, r, col| {
                    ((((c + salt) * 997 + r * 31 + col) * 13 % 255) as i16) - 127
                })
            })
            .collect();
        let inf = Inferencer::new(&model).engine(Engine::Abm);
        let batch = inf.run_batch(&inputs).unwrap();
        assert_eq!(batch.len(), 3);
        for (input, result) in inputs.iter().zip(&batch) {
            assert_eq!(result, &inf.run(input).unwrap());
        }
        // Different inputs give different logits.
        assert_ne!(batch[0].logits, batch[1].logits);
    }

    /// A lone image on two threads splits each layer whose sweep is
    /// worth two shares — a 32→64 convolution on a 32×32 map, a
    /// 16384→96 fully-connected row — and its arena keeps one sweep
    /// scratch a share; tiny's layers are all too small to split.
    #[test]
    fn a_lone_image_splits_its_wide_layers_one_scratch_a_share() {
        use abm_model::{ConvSpec, FcSpec, Layer, Network, PoolSpec};
        for layer in &tiny_model().layers {
            let (in_shape, geom) = accel_geometry(layer);
            let code = LayerCode::encode(&layer.weights).unwrap();
            let prep = PreparedConv::try_new(&code, in_shape, geom, None).unwrap();
            assert_eq!(prep.shares(2), 1, "{}", layer.name());
        }

        let mut net = Network::new("wide", Shape3::new(32, 32, 32));
        let conv = ConvSpec::new(32, 64, 3, 1, 1);
        net.push(Layer::new("CONV", LayerKind::Conv(conv)));
        net.push(Layer::new("POOL", LayerKind::Pool(PoolSpec::max(2, 2))));
        let fc = FcSpec::new(64 * 16 * 16, 96);
        net.push(Layer::new("FC", LayerKind::FullyConnected(fc)));
        let profile = PruneProfile::uniform(LayerProfile::new(0.5, 9));
        let model = synthesize_model(&net, &profile, 21);
        let input = Tensor3::from_fn(net.input_shape(), |c, r, col| {
            ((c * 31 + r * 7 + col) % 255) as i16 - 127
        });
        let serial = Inferencer::new(&model).parallelism(Parallelism::Serial);
        let prepared = serial.prepare().unwrap();
        for layer in 0..2 {
            let prep = prepared.abm_layer(layer).unwrap();
            assert_eq!((prep.shares(1), prep.shares(2)), (1, 2), "layer {layer}");
        }
        let golden = serial.run_prepared(&prepared, &input).unwrap();
        let wide = serial.clone().parallelism(Parallelism::Threads(2));
        assert_eq!(wide.run_prepared(&prepared, &input).unwrap(), golden);
        let arena = prepared.arenas.take_arena(&prepared.plan);
        assert_eq!(arena.sweeps.len(), 2);
        assert!(arena.sweeps.iter().all(|s| !s.tile.is_empty()));
    }

    /// A 60→40 3×3 convolution on a 20×20 map (padded, so interior
    /// pixels read all 540 taps) whose every kernel carries
    /// `Σ |v|·count = sum`: 516 taps of 127 and one of the remainder, at
    /// positions that rotate kernel by kernel, all of one sign that
    /// alternates kernel by kernel — so one constant input drives half
    /// the kernels to `+2¹⁵·sum` and half to `−2¹⁵·sum`.
    fn boundary_model(sum: i32) -> SparseModel {
        let mut net = abm_model::Network::new("boundary", Shape3::new(60, 20, 20));
        let conv = abm_model::ConvSpec::new(60, 40, 3, 1, 1);
        net.push(abm_model::Layer::new("CONV", LayerKind::Conv(conv)));
        let mut model =
            synthesize_model(&net, &PruneProfile::uniform(LayerProfile::new(0.5, 9)), 1);
        let shape = model.layers[0].weights.shape();
        let volume = shape.kernel_len();
        model.layers[0].weights = abm_tensor::Tensor4::from_fn(shape, |m, n, k, kp| {
            let tap = ((n * 3 + k) * 3 + kp + volume - 13 * m % volume) % volume;
            let sign = if m % 2 == 0 { 1 } else { -1 };
            match tap {
                0..516 => 127 * sign,
                516 => ((sum - 516 * 127) * sign as i32) as i8,
                _ => 0,
            }
        });
        model
    }

    /// The proof's edge, end to end. `Σ |v|·count = 65 535` is a stage-2
    /// worst case of `2³¹ − 2¹⁵` — the largest multiple of `2¹⁵` that
    /// fits 32 signed bits — and the layer sweeps into an `i32` plane;
    /// `65 536` is `2³¹`, which does not fit, and a constant `−2¹⁵`
    /// input drives half its kernels there, so its plane must stay
    /// `i64`. Either way the plane a run leaves in its arena is
    /// `abm::reference`'s output and `PreparedConv::execute`'s, serial
    /// and split across two threads, unchecked and hardened.
    #[test]
    fn a_layer_sweeps_into_the_plane_its_stage2_bound_proves() {
        for (sum, width) in [(65_535, AccWidth::I32), (65_536, AccWidth::I64)] {
            let model = boundary_model(sum);
            let sl = &model.layers[0];
            let code = LayerCode::encode(&sl.weights).unwrap();
            let (in_shape, geom) = accel_geometry(sl);
            let prep = PreparedConv::try_new(&code, in_shape, geom, None).unwrap();
            assert_eq!((prep.plane_width(), prep.shares(2)), (width, 2), "{sum}");
            let spread = |c: usize, r: usize, col: usize| (c * 7919 + r * 271 + col * 31) as u16;
            let inputs = [
                Tensor3::from_fn(in_shape, |_, _, _| i16::MIN),
                Tensor3::from_fn(in_shape, |_, _, _| i16::MAX),
                Tensor3::from_fn(in_shape, |c, r, col| {
                    spread(c, r, col).wrapping_mul(40503) as i16
                }),
            ];
            for (i, input) in inputs.iter().enumerate() {
                let reference = abm::reference::conv2d(input, &code, geom).unwrap();
                assert_eq!(prep.execute(input), reference, "{sum} input {i}");
                if i == 0 {
                    let peak = reference.as_slice().iter().max().copied();
                    assert_eq!(peak, Some((1i64 << 15) * i64::from(sum)), "{sum}");
                }
                for policy in [ResiliencePolicy::default(), ResiliencePolicy::hardened()] {
                    for threads in [Parallelism::Serial, Parallelism::Threads(2)] {
                        let inf = Inferencer::new(&model)
                            .parallelism(threads)
                            .resilience(policy);
                        let prepared = inf.prepare().unwrap();
                        inf.run_prepared(&prepared, input).unwrap();
                        let arena = prepared.arenas.take_arena(&prepared.plan);
                        let len = reference.len();
                        let plane: Vec<i64> = match width {
                            AccWidth::I32 => arena.plane[..len].iter().map(|&v| v.into()).collect(),
                            AccWidth::I64 => arena.wide[..len].to_vec(),
                        };
                        let at = format!("{sum} input {i} {threads} {policy:?}");
                        assert_eq!(plane, reference.as_slice(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let model = tiny_model();
        let input = tiny_input();
        let a = Inferencer::new(&model).run(&input).unwrap();
        let b = Inferencer::new(&model).run(&input).unwrap();
        assert_eq!(a, b);
    }
}
