//! End-to-end network inference through any convolution engine.
//!
//! Feature maps travel through the network as 8-bit dynamic fixed point
//! (stored in `i16`, the accelerator's data-path width), accumulators are
//! exact, and — following the paper's "rounding is performed only once
//! before writing feature map data back to main memory" — each layer
//! rescales its full-precision result to the next 8-bit feature format in
//! a single rounding step.
//!
//! Because the per-layer output format is chosen deterministically from
//! the exact accumulator values, the three integer engines produce
//! **bit-identical** feature maps at every layer; this is asserted by the
//! integration tests.

use crate::abft;
use crate::abm::{self, AbmWork, PreparedConv};
use crate::dense::{self, Geometry};
use crate::freq;
use crate::host;
use crate::parallel::{parallel_map_salvage, Parallelism};
use crate::sparse as csr_engine;
use abm_fault::AbmError;
use abm_kernel::Isa;
use abm_model::{Layer, LayerKind, SparseLayer, SparseModel};
use abm_sparse::{CsrKernel, LayerCode};
use abm_telemetry::{FaultAction, TelemetrySink};
use abm_tensor::fixed::{round_shift, round_ties_away};
use abm_tensor::quantize::choose_frac;
use abm_tensor::{QFormat, Rounding, Shape3, Tensor3};

/// Which convolution engine executes the accelerated layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Dense spatial reference (SDConv).
    Dense,
    /// im2col + GEMM lowering (the MAC-array designs' substrate).
    Gemm,
    /// CSR sparse baseline (SpConv).
    Sparse,
    /// Accumulate-before-multiply (the paper's scheme).
    #[default]
    Abm,
    /// Frequency-domain OaA FFT (floating point; matches within
    /// tolerance).
    Freq,
}

/// Per-layer execution trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Output feature-map shape.
    pub shape: Shape3,
    /// Fixed-point format of the output features.
    pub format: QFormat,
}

/// The outcome of one inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Dequantized final-layer activations (pre-softmax logits).
    pub logits: Vec<f32>,
    /// Softmax probabilities (empty if the network has no softmax).
    pub probabilities: Vec<f32>,
    /// ABM work counters (all zero unless the ABM engine ran).
    pub work: AbmWork,
    /// Per-layer trace.
    pub trace: Vec<LayerTrace>,
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
/// With `verify` off (the default) the hot path is exactly the
/// unchecked executor; golden pins and benchmarks are unaffected. With
/// `verify` on, every ABM layer re-hashes its code streams before
/// executing ([`PreparedConv::verify_checksum`]) and checks the output
/// against its ABFT prediction ([`abft::verify_output`]) after; a
/// detected corruption triggers re-lowering from the retained
/// [`LayerCode`] (`max_retries` times) and then, when `fallback` is
/// set, graceful degradation to the `abm::reference` oracle and finally
/// the dense engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Run the checksum + ABFT detectors around every ABM layer.
    pub verify: bool,
    /// Re-lowering attempts before falling back (0 disables retry).
    pub max_retries: u32,
    /// Degrade to the reference (then dense) engine when retries fail.
    pub fallback: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self {
            verify: false,
            max_retries: 2,
            fallback: true,
        }
    }
}

impl ResiliencePolicy {
    /// Detection and the full recovery ladder enabled — the
    /// configuration fault campaigns run under.
    #[must_use]
    pub fn hardened() -> Self {
        Self {
            verify: true,
            ..Self::default()
        }
    }

    /// Detection on, recovery off: any detected corruption surfaces as
    /// an error. Useful for measuring raw detector coverage.
    #[must_use]
    pub fn detect_only() -> Self {
        Self {
            verify: true,
            max_retries: 0,
            fallback: false,
        }
    }
}

/// Runs a [`SparseModel`] on quantized inputs with a selectable engine.
#[derive(Debug, Clone)]
pub struct Inferencer<'m> {
    model: &'m SparseModel,
    engine: Engine,
    input_format: QFormat,
    calibration: Option<crate::calibrate::Calibration>,
    parallelism: Parallelism,
    telemetry: Option<TelemetrySink>,
    resilience: ResiliencePolicy,
    isa: Option<Isa>,
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
        }
    }

    /// Selects the engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets how [`run_batch`](Self::run_batch) fans images out across
    /// host threads. Results are bit-identical for every setting; this
    /// only changes wall-clock time.
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
    /// steal counts. Inference *results* are unaffected — the sink only
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
        let mut abm = Vec::new();
        let mut csr = Vec::new();
        let mut codes = Vec::new();
        for (idx, sl) in self.model.layers.iter().enumerate() {
            match self.engine {
                Engine::Abm => {
                    let code = LayerCode::encode(&sl.weights)
                        .map_err(|e| AbmError::from(e).at_layer(idx))?;
                    let (in_shape, geom) = accel_geometry(sl);
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
                    abm.push(Some(prep));
                    csr.push(None);
                    // Retain the source code so a corrupted layer can be
                    // re-lowered without re-encoding the whole model.
                    codes.push(Some(code));
                }
                Engine::Sparse => {
                    abm.push(None);
                    csr.push(Some(CsrKernel::encode_layer(&sl.weights)));
                    codes.push(None);
                }
                _ => {
                    abm.push(None);
                    csr.push(None);
                    codes.push(None);
                }
            }
        }
        Ok(PreparedWeights { abm, csr, codes })
    }

    /// Runs inference on a batch of images, encoding weights only once
    /// and fanning images out across the configured
    /// [`Parallelism`] (see [`parallelism`](Self::parallelism)).
    ///
    /// The batch is deterministic: results are returned in input order
    /// and are bit-identical to running each image serially — parallel
    /// workers only share the read-only [`PreparedWeights`], never
    /// intermediate state.
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
    /// shape mismatch, a detected corruption under a
    /// [`ResiliencePolicy`]), [`AbmError::WorkerPanic`] when a worker
    /// panicked on it (poisoning only itself), or — with
    /// `deadline: Some(_)` — [`AbmError::DeadlineExceeded`] when the
    /// clock passed before any worker claimed it; items claimed before
    /// the deadline run to completion. `tests/serve.rs` pins the
    /// mid-batch-deadline regression.
    pub fn run_batch_salvage(
        &self,
        prepared: &PreparedWeights,
        inputs: &[Tensor3<i16>],
        deadline: Option<std::time::Instant>,
    ) -> Vec<Result<InferenceResult, AbmError>> {
        parallel_map_salvage(
            self.parallelism,
            inputs,
            self.telemetry.as_ref(),
            deadline,
            |worker, _, input| self.run_prepared_on(prepared, input, worker as u32),
        )
        .into_iter()
        .map(Result::flatten)
        .collect()
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
            self.check_input_shape(input)?;
        }
        self.run_batch_salvage(prepared, inputs, None)
            .into_iter()
            .collect()
    }

    /// Runs a batch through a **layer-pipelined** executor — the
    /// host-side mirror of the simulator's
    /// [`PipelinedSchedule`](https://docs.rs/abm-sim): the network is
    /// split into `n_stages` contiguous layer spans (balanced by
    /// accelerated-layer count, with host-only layers riding along),
    /// each span owned by one stage thread, and images stream between
    /// stages over small bounded channels. Image `n` runs its
    /// stage-`s` layers while image `n + 1` is still in stage `s - 1`.
    ///
    /// Every stage advances images with the same per-layer step the
    /// sequential executors use, over the same shared read-only
    /// [`PreparedWeights`], and an image's state never depends on any
    /// other image — so the results are **bit-identical** to
    /// [`run_batch_prepared`](Self::run_batch_prepared), logits and
    /// per-layer traces alike (`tests/pipelined.rs` proves it with
    /// proptest). Telemetry spans from stage `s` are tagged with track
    /// `s`.
    ///
    /// `n_stages` is clamped to `1..=` the number of accelerated
    /// layers, so any requested depth is safe.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::ShapeMismatch`] if any input's shape differs
    /// from the network's input shape (checked up front, before any
    /// stage spins up), and [`AbmError::NotPrepared`] if `prepared`
    /// came from a differently-configured inferencer. A failing image's
    /// error passes through the remaining stages untouched and the
    /// first error in **input order** is returned, matching
    /// [`run_batch_prepared`](Self::run_batch_prepared).
    pub fn run_batch_pipelined(
        &self,
        prepared: &PreparedWeights,
        inputs: &[Tensor3<i16>],
        n_stages: usize,
    ) -> Result<Vec<InferenceResult>, AbmError> {
        for input in inputs {
            self.check_input_shape(input)?;
        }
        let layers = self.model.network.layers();
        let spans = stage_spans(layers, n_stages);
        let mut slots: Vec<Option<Result<InferenceResult, AbmError>>> = Vec::new();
        slots.resize_with(inputs.len(), || None);
        std::thread::scope(|scope| {
            // Feeder → stage 0 → … → last stage → collector (this
            // thread). Depth-2 channels give each boundary one image of
            // slack — enough to keep neighbours busy, small enough that
            // a slow stage backpressures instead of buffering the batch.
            let (first_tx, mut rx) =
                crossbeam::channel::bounded::<(usize, Result<ImageState, AbmError>)>(2);
            scope.spawn(move || {
                for (idx, input) in inputs.iter().enumerate() {
                    if first_tx.send((idx, Ok(self.begin_image(input)))).is_err() {
                        break;
                    }
                }
            });
            for (s, span) in spans.iter().cloned().enumerate() {
                let (tx, next_rx) = crossbeam::channel::bounded(2);
                let rx_in = std::mem::replace(&mut rx, next_rx);
                scope.spawn(move || {
                    for (idx, state) in rx_in.iter() {
                        let stepped = state.and_then(|mut st| {
                            for layer in &layers[span.clone()] {
                                self.step_layer(prepared, &mut st, layer, s as u32)?;
                            }
                            Ok(st)
                        });
                        if tx.send((idx, stepped)).is_err() {
                            break;
                        }
                    }
                });
            }
            for (idx, state) in rx.iter() {
                slots[idx] = Some(state.map(ImageState::finish));
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(item, slot)| {
                // Every image leaves the pipeline exactly once; an empty
                // slot means a stage thread died before forwarding it.
                slot.unwrap_or_else(|| {
                    Err(AbmError::WorkerPanic {
                        item,
                        message: "image lost in the stage pipeline".into(),
                    })
                })
            })
            .collect()
    }

    /// Runs inference on a quantized input feature map.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError`] if preparation fails, the input shape is
    /// wrong, or a detector under the configured [`ResiliencePolicy`]
    /// finds an unrecoverable corruption.
    pub fn run(&self, input: &Tensor3<i16>) -> Result<InferenceResult, AbmError> {
        let prepared = self.prepare()?;
        self.run_prepared(&prepared, input)
    }

    /// Runs one image against pre-encoded weights.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::ShapeMismatch`] on a wrong input shape,
    /// [`AbmError::NotPrepared`] if `prepared` came from a
    /// differently-configured inferencer, and detector/recovery errors
    /// under the configured [`ResiliencePolicy`].
    pub fn run_prepared(
        &self,
        prepared: &PreparedWeights,
        input: &Tensor3<i16>,
    ) -> Result<InferenceResult, AbmError> {
        self.run_prepared_on(prepared, input, 0)
    }

    /// [`run_prepared`](Self::run_prepared) with telemetry spans tagged
    /// for worker `track` — one image runs on one worker at a time, so
    /// its layer spans never overlap on that track.
    fn run_prepared_on(
        &self,
        prepared: &PreparedWeights,
        input: &Tensor3<i16>,
        track: u32,
    ) -> Result<InferenceResult, AbmError> {
        let timer = abm_metrics::enabled().then(std::time::Instant::now);
        let result: Result<InferenceResult, AbmError> = (|| {
            self.check_input_shape(input)?;
            let mut state = self.begin_image(input);
            for layer in self.model.network.layers() {
                self.step_layer(prepared, &mut state, layer, track)?;
            }
            Ok(state.finish())
        })();
        if let Some(timer) = timer {
            let m = abm_metrics::global();
            m.observe(
                "infer_image_ns",
                u64::try_from(timer.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            m.add("infer_images_total", 1);
        }
        if let Err(e) = &result {
            // Post-mortem hook: count the error and freeze the flight
            // recorder's tail as the forensic dump for this failure.
            abm_metrics::global().note_error("infer", &e.to_string());
        }
        result
    }

    /// Starts an image's flow through the network: the per-image state
    /// every layer step threads forward.
    fn begin_image(&self, input: &Tensor3<i16>) -> ImageState {
        ImageState {
            features: input.clone(),
            fmt: self.input_format,
            work: AbmWork::default(),
            trace: Vec::new(),
            accel_idx: 0,
            pre_softmax: None,
            probabilities: Vec::new(),
            layer_max_activation: Vec::new(),
            saturated_features: 0,
            total_features: 0,
        }
    }

    /// Advances an image through exactly one network layer. The
    /// sequential and pipelined executors share this step, which is
    /// what makes them bit-identical by construction: an image's state
    /// never depends on any other image, only on the shared read-only
    /// [`PreparedWeights`].
    fn step_layer(
        &self,
        prepared: &PreparedWeights,
        state: &mut ImageState,
        layer: &Layer,
        track: u32,
    ) -> Result<(), AbmError> {
        match &layer.kind {
            LayerKind::Conv(spec) => {
                let sl = &self.model.layers[state.accel_idx];
                let geom = Geometry::new(spec.stride, spec.pad).with_groups(spec.groups);
                let (out, out_fmt, w, numerics) = self
                    .conv_layer(
                        &state.features,
                        state.fmt,
                        sl,
                        prepared,
                        state.accel_idx,
                        geom,
                        track,
                    )
                    .map_err(|e| e.at_layer(state.accel_idx))?;
                state.absorb_accelerated(out, out_fmt, w, numerics);
            }
            LayerKind::FullyConnected(_) => {
                let sl = &self.model.layers[state.accel_idx];
                let flat = host::flatten(&state.features);
                let (out, out_fmt, w, numerics) = self
                    .conv_layer(
                        &flat,
                        state.fmt,
                        sl,
                        prepared,
                        state.accel_idx,
                        Geometry::unit(),
                        track,
                    )
                    .map_err(|e| e.at_layer(state.accel_idx))?;
                state.absorb_accelerated(out, out_fmt, w, numerics);
            }
            LayerKind::Pool(spec) => state.features = host::pool(&state.features, *spec),
            LayerKind::Relu => state.features = host::relu(&state.features),
            LayerKind::Lrn(spec) => state.features = host::lrn(&state.features, state.fmt, spec),
            LayerKind::Softmax => {
                let logits: Vec<f32> = state
                    .features
                    .as_slice()
                    .iter()
                    .map(|&v| state.fmt.dequantize(v as i32))
                    .collect();
                state.probabilities = host::softmax(&logits);
                state.pre_softmax = Some(logits);
            }
        }
        state.trace.push(LayerTrace {
            name: layer.name.clone(),
            shape: state.features.shape(),
            format: state.fmt,
        });
        Ok(())
    }

    /// Executes one accelerated layer: convolve exactly, then rescale to
    /// a fresh 8-bit feature format in one rounding step.
    #[allow(clippy::too_many_arguments)]
    fn conv_layer(
        &self,
        input: &Tensor3<i16>,
        fmt: QFormat,
        sl: &SparseLayer,
        prepared: &PreparedWeights,
        layer_idx: usize,
        geom: Geometry,
        track: u32,
    ) -> Result<(Tensor3<i16>, QFormat, AbmWork, LayerNumerics), AbmError> {
        let span_start = self.telemetry.as_ref().map(TelemetrySink::now_ns);
        let metric_start = abm_metrics::enabled().then(std::time::Instant::now);
        let mut work = AbmWork::default();
        let acc: Tensor3<i64> = match self.engine {
            Engine::Dense => dense::conv2d(input, &sl.weights, geom),
            Engine::Gemm => crate::gemm::conv2d(input, &sl.weights, geom),
            Engine::Sparse => {
                let kernels = prepared.csr.get(layer_idx).and_then(Option::as_ref).ok_or(
                    AbmError::NotPrepared {
                        layer: layer_idx,
                        engine: "Sparse",
                    },
                )?;
                csr_engine::conv2d(input, kernels, sl.weights.shape(), geom)
            }
            Engine::Abm => {
                let prep = prepared.abm.get(layer_idx).and_then(Option::as_ref).ok_or(
                    AbmError::NotPrepared {
                        layer: layer_idx,
                        engine: "ABM",
                    },
                )?;
                if input.shape() != prep.input_shape() {
                    return Err(AbmError::ShapeMismatch {
                        got: (
                            input.shape().channels,
                            input.shape().rows,
                            input.shape().cols,
                        ),
                        want: (
                            prep.input_shape().channels,
                            prep.input_shape().rows,
                            prep.input_shape().cols,
                        ),
                    });
                }
                let (out, w) = if self.resilience.verify {
                    let code = prepared.codes.get(layer_idx).and_then(Option::as_ref);
                    self.execute_abm_checked(prep, code, sl, input, layer_idx, geom)?
                } else {
                    (prep.execute(input), prep.work())
                };
                work = w;
                out
            }
            Engine::Freq => {
                let f = freq::conv2d(input, &sl.weights, geom);
                f.map(|&v| v.round() as i64)
            }
        };
        let target = self.calibration.as_ref().map(|c| c.format(layer_idx));
        let (out, out_fmt, numerics) = requantize(&acc, fmt, sl.format, target);
        if let Some(start) = metric_start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let m = abm_metrics::global();
            m.observe("infer_layer_ns", ns);
            m.observe(&format!("layer_ns_{}", sl.name()), ns);
        }
        if let (Some(sink), Some(start)) = (&self.telemetry, span_start) {
            // ops = the layer's two-stage arithmetic total, so span
            // duration vs. ops gives measured host ops/sec (0 for
            // engines that don't count work).
            sink.record_span(track, sl.name(), start, work.total());
        }
        Ok((out, out_fmt, work, numerics))
    }

    /// The detect-and-recover ABM executor: checksum before, ABFT after,
    /// and on a detected corruption climb the recovery ladder —
    /// re-lower from the retained [`LayerCode`] up to
    /// `max_retries` times, then (with `fallback`) degrade to the
    /// `abm::reference` oracle and finally the dense engine. Every
    /// detection and recovery is recorded as a telemetry
    /// [`Event::Fault`](abm_telemetry::Event::Fault).
    fn execute_abm_checked(
        &self,
        prep: &PreparedConv,
        code: Option<&LayerCode>,
        sl: &SparseLayer,
        input: &Tensor3<i16>,
        layer_idx: usize,
        geom: Geometry,
    ) -> Result<(Tensor3<i64>, AbmWork), AbmError> {
        let attempt = |p: &PreparedConv| -> Result<(Tensor3<i64>, AbmWork), AbmError> {
            timed_detector("abm_verify_checksum_ns", || p.verify_checksum())?;
            let out = p.execute(input);
            timed_detector("abm_abft_ns", || abft::verify_output(p, input, &out))?;
            Ok((out, p.work()))
        };
        let mut last = match attempt(prep) {
            Ok(r) => return Ok(r),
            Err(e) if e.is_corruption() => e,
            Err(e) => return Err(e),
        };
        self.record_fault(
            layer_idx,
            FaultAction::Detected,
            detector_name(&last),
            &last.to_string(),
        );
        if let Some(code) = code {
            for attempts in 1..=self.resilience.max_retries {
                match PreparedConv::try_new(code, prep.input_shape(), geom, self.isa)
                    .and_then(|fresh| attempt(&fresh))
                {
                    Ok(r) => {
                        self.record_fault(
                            layer_idx,
                            FaultAction::Recovered,
                            "re-lower",
                            &format!("clean after {attempts} re-lowering(s)"),
                        );
                        return Ok(r);
                    }
                    Err(e) => last = e,
                }
            }
        }
        if self.resilience.fallback {
            if let Some(code) = code {
                if let Ok((out, w)) = abm::reference::conv2d_counted(input, code, geom) {
                    self.record_fault(
                        layer_idx,
                        FaultAction::Recovered,
                        "reference-fallback",
                        "degraded to the abm::reference oracle",
                    );
                    return Ok((out, w));
                }
            }
            // Last resort: the dense engine needs nothing but the raw
            // weights, which the model always has. Work counters stay
            // zero — the layer no longer ran the two-stage scheme.
            let out = dense::conv2d(input, &sl.weights, geom);
            self.record_fault(
                layer_idx,
                FaultAction::Recovered,
                "dense-fallback",
                "degraded to the dense oracle",
            );
            return Ok((out, AbmWork::default()));
        }
        if abm_metrics::enabled() {
            abm_metrics::global().add("recovery_exhausted_total", 1);
        }
        Err(AbmError::RecoveryExhausted {
            layer: layer_idx,
            attempts: self.resilience.max_retries,
            last: Box::new(last),
        })
    }

    /// Typed replacement for the old input-shape assertion.
    fn check_input_shape(&self, input: &Tensor3<i16>) -> Result<(), AbmError> {
        let want = self.model.network.input_shape();
        if input.shape() != want {
            return Err(AbmError::ShapeMismatch {
                got: (
                    input.shape().channels,
                    input.shape().rows,
                    input.shape().cols,
                ),
                want: (want.channels, want.rows, want.cols),
            });
        }
        Ok(())
    }

    fn record_fault(&self, layer: usize, action: FaultAction, class: &str, detail: &str) {
        // Per-rung recovery-ladder counters: every telemetry fault
        // event has an aggregate twin, so campaign totals reconcile
        // against summed events.
        if abm_metrics::enabled() {
            let m = abm_metrics::global();
            match action {
                FaultAction::Injected => m.add("fault_injected_total", 1),
                FaultAction::Detected => m.add("fault_detected_total", 1),
                FaultAction::Masked => m.add("fault_masked_total", 1),
                FaultAction::Recovered => match class {
                    "re-lower" => m.add("recovery_relower_total", 1),
                    "reference-fallback" => m.add("recovery_reference_total", 1),
                    "dense-fallback" => m.add("recovery_dense_total", 1),
                    _ => m.add("recovery_other_total", 1),
                },
            }
        }
        if let Some(sink) = &self.telemetry {
            sink.record_fault(layer as u32, action, class, detail);
        }
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

/// The detector a corruption error names in telemetry and reports.
fn detector_name(e: &AbmError) -> &'static str {
    match e.root_cause() {
        AbmError::ChecksumMismatch { .. } => "checksum",
        AbmError::CodeCorrupt { .. } => "load-validate",
        AbmError::AbftMismatch { .. } => "abft",
        AbmError::InputCorrupt { .. } => "input-checksum",
        _ => "guard",
    }
}

/// The state one image threads through the network — created by
/// `begin_image`, advanced layer by layer by `step_layer`, consumed by
/// [`finish`](Self::finish). It is self-contained per image (no shared
/// mutable state), which is what lets the pipelined executor hand it
/// between stage threads without changing a single computed bit.
#[derive(Debug, Clone)]
struct ImageState {
    features: Tensor3<i16>,
    fmt: QFormat,
    work: AbmWork,
    trace: Vec<LayerTrace>,
    accel_idx: usize,
    pre_softmax: Option<Vec<f32>>,
    probabilities: Vec<f32>,
    layer_max_activation: Vec<f32>,
    saturated_features: u64,
    total_features: u64,
}

impl ImageState {
    /// Folds one accelerated layer's output into the running state.
    fn absorb_accelerated(
        &mut self,
        out: Tensor3<i16>,
        out_fmt: QFormat,
        w: AbmWork,
        numerics: LayerNumerics,
    ) {
        self.layer_max_activation.push(numerics.max_real);
        self.saturated_features += numerics.saturated;
        self.total_features += out.len() as u64;
        self.accel_idx += 1;
        self.work.accumulations += w.accumulations;
        self.work.multiplications += w.multiplications;
        self.work.final_accumulations += w.final_accumulations;
        self.features = out;
        self.fmt = out_fmt;
    }

    /// Packages the finished image: logits are the pre-softmax
    /// activations if a softmax ran, else the dequantized features.
    fn finish(self) -> InferenceResult {
        let logits = self.pre_softmax.unwrap_or_else(|| {
            self.features
                .as_slice()
                .iter()
                .map(|&v| self.fmt.dequantize(v as i32))
                .collect()
        });
        InferenceResult {
            logits,
            probabilities: self.probabilities,
            work: self.work,
            trace: self.trace,
            layer_max_activation: self.layer_max_activation,
            saturated_features: self.saturated_features,
            total_features: self.total_features,
        }
    }
}

/// Splits the network's layers into at most `n_stages` contiguous
/// spans, balanced by accelerated-layer count; host-only layers (pool,
/// ReLU, LRN, softmax) ride with the accelerated layer they follow.
/// The stage count is clamped to the number of accelerated layers, so
/// no span is ever left without real work.
fn stage_spans(layers: &[Layer], n_stages: usize) -> Vec<std::ops::Range<usize>> {
    let accel: Vec<usize> = layers
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l.kind, LayerKind::Conv(_) | LayerKind::FullyConnected(_)))
        .map(|(i, _)| i)
        .collect();
    let stages = n_stages.clamp(1, accel.len().max(1));
    let base = accel.len() / stages;
    let extra = accel.len() % stages;
    let mut spans = Vec::with_capacity(stages);
    let mut start = 0usize;
    let mut taken = 0usize;
    for s in 0..stages {
        taken += base + usize::from(s < extra);
        let end = if s + 1 == stages {
            layers.len()
        } else {
            // Cut right before the next group's first accelerated
            // layer, so trailing host layers stay with their producer.
            accel[taken]
        };
        spans.push(start..end);
        start = end;
    }
    spans
}

/// Numeric side-channel of one accelerated layer's requantization.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerNumerics {
    /// Largest real-valued accumulator magnitude.
    pub max_real: f32,
    /// Output values clipped by the fixed format (0 in dynamic mode).
    pub saturated: u64,
}

/// Engine-specific pre-encoded weights shared across a batch. Create
/// with [`Inferencer::prepare`].
///
/// For the ABM engine each layer is held in its prepared hot-path form
/// ([`PreparedConv`]): flat-offset streams, kernel dispatch and
/// analytic work accounting, lowered once and shared read-only across
/// batch items and host workers.
///
/// Alongside the prepared forms, the source [`LayerCode`]s are retained
/// so a corrupted layer can be re-lowered in place by the recovery path
/// (see [`ResiliencePolicy`]).
#[derive(Debug, Clone, Default)]
pub struct PreparedWeights {
    abm: Vec<Option<PreparedConv>>,
    csr: Vec<Option<Vec<CsrKernel>>>,
    codes: Vec<Option<LayerCode>>,
}

impl PreparedWeights {
    /// A layer's prepared ABM form (`None` for non-ABM engines or an
    /// out-of-range index).
    #[must_use]
    pub fn abm_layer(&self, layer: usize) -> Option<&PreparedConv> {
        self.abm.get(layer).and_then(Option::as_ref)
    }

    /// Mutable access to a layer's prepared ABM form — the escape hatch
    /// fault campaigns use to corrupt a layer's streams in place (see
    /// [`PreparedConv::with_flat`]). Never needed on correct paths.
    #[must_use]
    pub fn abm_layer_mut(&mut self, layer: usize) -> Option<&mut PreparedConv> {
        self.abm.get_mut(layer).and_then(Option::as_mut)
    }

    /// The retained source code for a layer (`None` unless prepared
    /// with the ABM engine).
    #[must_use]
    pub fn layer_code(&self, layer: usize) -> Option<&LayerCode> {
        self.codes.get(layer).and_then(Option::as_ref)
    }
}

/// The input shape and geometry an accelerated layer convolves at: conv
/// layers run on their resolved feature-map shape, FC layers on the
/// channel-major flattened vector (matching [`host::flatten`]).
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

/// Rescales an exact accumulator tensor into an 8-bit feature format —
/// the Sum/Round stage of the data path. With `target = None` the
/// format is chosen dynamically so the largest magnitude just fits;
/// with a calibrated format, out-of-range values saturate and are
/// counted.
fn requantize(
    acc: &Tensor3<i64>,
    feat: QFormat,
    weight: QFormat,
    target: Option<QFormat>,
) -> (Tensor3<i16>, QFormat, LayerNumerics) {
    let acc_frac = feat.frac() as i32 + weight.frac() as i32;
    let max_abs = acc
        .as_slice()
        .iter()
        .map(|&v| v.unsigned_abs())
        .max()
        .unwrap_or(0);
    let max_real = (max_abs as f64 * 2f64.powi(-acc_frac)) as f32;
    let target = target.unwrap_or_else(|| QFormat::new(8, choose_frac(&[max_real], 8)));
    let shift = acc_frac - target.frac() as i32;
    let (lo, hi) = (target.min_raw() as i64, target.max_raw() as i64);
    let mut saturated = 0u64;
    // Saturation is counted as a sum of `bool`s, so the loop body has no
    // data-dependent branch.
    let mut clip = |rounded: i64| {
        let clipped = rounded.clamp(lo, hi);
        saturated += u64::from(clipped != rounded);
        clipped as i16
    };
    // Decided once, outside the loop: every layer of the zoo shifts
    // right by a few bits and takes the branch-free rounding; a left or
    // a 63-bit shift keeps the general path.
    let out = if (1..=62).contains(&shift) {
        acc.map(|&v| clip(round_ties_away(v, shift as u32)))
    } else {
        acc.map(|&v| clip(round_shift(v, shift, Rounding::NearestTiesAway)))
    };
    (
        out,
        target,
        LayerNumerics {
            max_real,
            saturated,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn integer_engines_bit_identical() {
        let model = tiny_model();
        let input = tiny_input();
        let dense = Inferencer::new(&model)
            .engine(Engine::Dense)
            .run(&input)
            .unwrap();
        let sparse = Inferencer::new(&model)
            .engine(Engine::Sparse)
            .run(&input)
            .unwrap();
        let abm = Inferencer::new(&model)
            .engine(Engine::Abm)
            .run(&input)
            .unwrap();
        let gemm = Inferencer::new(&model)
            .engine(Engine::Gemm)
            .run(&input)
            .unwrap();
        assert_eq!(dense.logits, sparse.logits);
        assert_eq!(dense.logits, abm.logits);
        assert_eq!(dense.logits, gemm.logits);
        assert_eq!(dense.probabilities, abm.probabilities);
        // Only the ABM run reports two-stage work.
        assert_eq!(dense.work.accumulations, 0);
        assert!(abm.work.accumulations > 0);
        assert!(abm.work.multiplications < abm.work.accumulations);
    }

    #[test]
    fn freq_engine_close_to_exact() {
        let model = tiny_model();
        let input = tiny_input();
        let exact = Inferencer::new(&model)
            .engine(Engine::Dense)
            .run(&input)
            .unwrap();
        let fd = Inferencer::new(&model)
            .engine(Engine::Freq)
            .run(&input)
            .unwrap();
        assert_eq!(exact.logits.len(), fd.logits.len());
        // Quantized pipelines can diverge by an LSB per layer; demand
        // close agreement, not equality.
        let max_abs = exact
            .logits
            .iter()
            .fold(0f32, |a, &b| a.max(b.abs()))
            .max(1e-6);
        for (a, b) in exact.logits.iter().zip(&fd.logits) {
            assert!((a - b).abs() <= 0.25 * max_abs, "freq diverged: {a} vs {b}");
        }
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
    fn trace_covers_every_layer() {
        let model = tiny_model();
        let r = Inferencer::new(&model).run(&tiny_input()).unwrap();
        assert_eq!(r.trace.len(), model.network.len());
        assert_eq!(r.trace.last().unwrap().shape, Shape3::new(10, 1, 1));
        // Shapes follow the network's shape inference.
        for (t, s) in r.trace.iter().zip(model.network.shapes()) {
            assert_eq!(t.shape, s, "layer {}", t.name);
        }
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
        // Flip one offset bit in layer 0's streams, keeping the golden
        // checksum — a post-load SEU.
        let prep = prepared.abm_layer_mut(0).unwrap();
        let flat = prep.flat().clone();
        let k = &flat.kernels()[0];
        let mut offsets = k.offsets().to_vec();
        offsets[0] ^= 1 << 2;
        let corrupted = abm_sparse::FlatCode::from_kernels(
            flat.shape(),
            flat.layout(),
            std::iter::once(abm_sparse::FlatKernel::from_raw_parts(
                k.values().to_vec(),
                k.group_bounds().to_vec(),
                offsets,
                k.taps().to_vec(),
            ))
            .chain(flat.kernels()[1..].iter().cloned())
            .collect(),
        );
        *prep = prep.clone().with_flat(corrupted);
        let recovered = inf.run_prepared(&prepared, &input).unwrap();
        assert_eq!(recovered.logits, golden.logits);
        assert_eq!(recovered.probabilities, golden.probabilities);
    }

    #[test]
    fn detect_only_policy_surfaces_corruption() {
        let model = tiny_model();
        let input = tiny_input();
        let inf = Inferencer::new(&model).resilience(ResiliencePolicy::detect_only());
        let mut prepared = inf.prepare().unwrap();
        let prep = prepared.abm_layer_mut(0).unwrap();
        let flat = prep.flat().clone();
        let k = &flat.kernels()[0];
        let mut values = k.values().to_vec();
        values[0] = values[0].wrapping_add(1);
        let corrupted = abm_sparse::FlatCode::from_kernels(
            flat.shape(),
            flat.layout(),
            std::iter::once(abm_sparse::FlatKernel::from_raw_parts(
                values,
                k.group_bounds().to_vec(),
                k.offsets().to_vec(),
                k.taps().to_vec(),
            ))
            .chain(flat.kernels()[1..].iter().cloned())
            .collect(),
        );
        *prep = prep.clone().with_flat(corrupted);
        let err = inf.run_prepared(&prepared, &input).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert!(
            matches!(err.root_cause(), AbmError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(matches!(err, AbmError::Layer { layer: 0, .. }), "{err}");
    }

    #[test]
    fn requantize_all_zero() {
        let acc = Tensor3::<i64>::zeros(Shape3::new(1, 2, 2));
        let (out, fmt, numerics) = requantize(&acc, QFormat::new(8, 0), QFormat::new(8, 7), None);
        assert!(out.as_slice().iter().all(|&v| v == 0));
        assert_eq!(fmt.bits(), 8);
        assert_eq!(numerics.saturated, 0);
        assert_eq!(numerics.max_real, 0.0);
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

    #[test]
    fn deterministic_across_runs() {
        let model = tiny_model();
        let input = tiny_input();
        let a = Inferencer::new(&model).run(&input).unwrap();
        let b = Inferencer::new(&model).run(&input).unwrap();
        assert_eq!(a, b);
    }
}
