//! FC on batch lanes — the batch executor's two phases.
//!
//! A fully-connected layer sweeps one position, so alone an image fills
//! no vector lane; a batch of them fills a lane each. Phase one runs
//! every image's convolutional prefix on the work-stealing pool, as a
//! batch always ran; an image leaving it hands its full-size feature
//! buffer back and keeps only its input to the tail. Phase two runs the
//! tail **once**: the survivors' inputs are scattered into a lane buffer
//! `[feature][lane]`, each fully-connected layer is swept across it from
//! its own offset stream (`PreparedConv::execute_lanes`), every column
//! picks its own output format from its own largest accumulator, and the
//! fused requantize→ReLU→store epilogue writes each column straight into
//! the next layer's lane buffer.
//!
//! What the tail cannot carry on lanes it finishes an image at a time,
//! through the per-image step every executor shares: a lone survivor,
//! and — under [`ResiliencePolicy::verify`](super::ResiliencePolicy) —
//! every image of a chunk whose layer failed its checksum (verified once
//! a batch) or its ABFT check (over the lane plane). That keeps one
//! recovery ladder: the tail only detects, silently, and the images
//! that re-run the layer alone detect, recover and record their `Fault`
//! events exactly as a single image does.

use super::{note_image, ImageState, InferenceResult, Inferencer, LayerTrace, PreparedWeights};
use crate::abft;
use crate::abm::PreparedConv;
use crate::arena::{ColumnRound, LaneArena, Tail};
use crate::host;
use crate::parallel::{panic_message, parallel_map_salvage};
use abm_fault::AbmError;
use abm_model::LayerKind;
use abm_tensor::Tensor3;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// An image between the phases: it left its prefix, its tail input
/// waits in row `item` of the lane arena's `rows`.
struct Carried {
    /// Its place in the batch.
    item: usize,
    /// Its state at the tail's first layer; it owns no feature buffer.
    state: ImageState,
    /// What its prefix took.
    busy: Duration,
}

impl Inferencer<'_> {
    /// The two-phase batch executor (see the module docs) for a network
    /// ending in `tail`.
    pub(super) fn run_batch_on_lanes(
        &self,
        prepared: &PreparedWeights,
        inputs: &[Tensor3<i16>],
        deadline: Option<Instant>,
        tail: Tail,
    ) -> Vec<Result<InferenceResult, AbmError>> {
        let pool = &prepared.arenas;
        let mut lanes = pool.take_lanes();
        let staged = inputs.len() * tail.features;
        lanes.rows.resize(lanes.rows.len().max(staged), 0);
        // Each image writes its own row; the lock is never contended.
        let rows = lanes.rows[..staged].chunks_mut(tail.features);
        let rows: Vec<Mutex<&mut [i16]>> = rows.map(Mutex::new).collect();
        let prefixes = parallel_map_salvage(
            self.parallelism,
            inputs,
            self.telemetry.as_ref(),
            deadline,
            |worker, item, input| {
                let timer = Instant::now();
                let prefix = self.begin_checked(prepared, input).and_then(|mut state| {
                    self.advance(prepared, &mut state, 0..tail.first, (worker as u32, 1))?;
                    let mut row = rows[item].lock().unwrap_or_else(PoisonError::into_inner);
                    row.copy_from_slice(&state.features[..tail.features]);
                    pool.give_features(std::mem::take(&mut state.features));
                    Ok(state)
                });
                if prefix.is_err() {
                    note_image(&prefix, timer.elapsed());
                }
                prefix.map(|state| (state, timer.elapsed()))
            },
        );
        drop(rows);

        // An image that left its prefix rides exactly one chunk, which
        // overwrites the placeholder it gets here.
        let mut outcomes = Vec::with_capacity(inputs.len());
        let mut carried = Vec::new();
        for (item, prefix) in prefixes.into_iter().enumerate() {
            outcomes.push(prefix.flatten().and_then(|(state, busy)| {
                carried.push(Carried { item, state, busy });
                let message = "image lost between the batch's phases".into();
                Err(AbmError::WorkerPanic { item, message })
            }));
        }
        // Columns are chunked so the lane buffers stay bounded whatever
        // the batch — at a register block of the narrowest of the
        // kernels the tail's layers sweep a full batch with — in
        // near-equal chunks, so none is left a lone image.
        let block = |prep: &PreparedConv| {
            let kern = abm_kernel::resolve(prep.lane_selection(usize::MAX));
            kern.lanes() * kern.block()
        };
        let first = carried.first().map_or(0, |c| c.state.accel_idx);
        let most = tail_layers(prepared, first).map(block).min().unwrap_or(1);
        let chunks = carried.len().div_ceil(most).max(1);
        let each = carried.len().div_ceil(chunks).max(1);
        for chunk in carried.chunks_mut(each) {
            let finished = catch_unwind(AssertUnwindSafe(|| {
                self.run_tail(prepared, &mut lanes, tail, chunk)
            }));
            match finished {
                Ok(results) => {
                    for (carried, result) in chunk.iter().zip(results) {
                        outcomes[carried.item] = result;
                    }
                }
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    for &Carried { item, .. } in chunk.iter() {
                        let message = message.clone();
                        outcomes[item] = Err(AbmError::WorkerPanic { item, message });
                    }
                }
            }
        }
        pool.give_lanes(lanes);
        outcomes
    }

    /// Phase two for one chunk of images: the tail on their lanes, every
    /// image's outcome in chunk order.
    fn run_tail(
        &self,
        prepared: &PreparedWeights,
        lanes: &mut LaneArena,
        tail: Tail,
        chunk: &mut [Carried],
    ) -> Vec<Result<InferenceResult, AbmError>> {
        let timer = Instant::now();
        let live = chunk.len();
        // One pitch for the whole tail: a whole number of vectors of
        // every kernel its layers picked for this many images.
        let widest = tail_layers(prepared, chunk[0].state.accel_idx)
            .map(|prep| prep.lane_selection(live).lanes())
            .max();
        let pitch = match widest {
            Some(widest) if live > 1 => live.next_multiple_of(widest),
            _ => 1,
        };
        lanes.fit(tail.features, 0, pitch);
        for (column, carried) in chunk.iter().enumerate() {
            lanes.scatter(carried.item, tail.features, column, pitch);
        }
        // A lone image is carried nowhere: it takes the whole tail alone.
        let (alone, width) = match pitch {
            1 => (Some(tail.first), tail.features),
            _ => self.carry(prepared, lanes, tail, chunk, pitch),
        };
        let (plan, pool) = (&prepared.plan, &prepared.arenas);
        let finish = |(column, carried): (usize, &mut Carried)| {
            let state = &mut carried.state;
            let features = lanes.gather(width, column, pitch);
            let result = match alone {
                None => {
                    if state.result.logits.is_empty() {
                        let logits = features.map(|v| state.fmt.dequantize(v as i32));
                        state.result.logits = logits.collect();
                    }
                    Ok(std::mem::take(&mut state.result))
                }
                Some(from) => {
                    state.features = pool.take_features(plan);
                    for (feature, v) in state.features.iter_mut().zip(features) {
                        *feature = v;
                    }
                    self.advance(prepared, state, from..plan.steps.len(), (0, 1))
                        .map(|()| state.finish(pool))
                }
            };
            note_image(&result, carried.busy + timer.elapsed());
            result
        };
        chunk.iter_mut().enumerate().map(finish).collect()
    }

    /// Carries a chunk through the tail on its lanes, as far as they
    /// take it. Returns the layer every image must go on from alone —
    /// a detector fired there, or the plan is not these weights' — if
    /// there is one, and how many features wide the lane buffer is then.
    fn carry(
        &self,
        prepared: &PreparedWeights,
        lanes: &mut LaneArena,
        tail: Tail,
        chunk: &mut [Carried],
        pitch: usize,
    ) -> (Option<usize>, usize) {
        let (layers, steps) = (self.model.network.layers(), &prepared.plan.steps);
        let mut width = tail.features;
        for index in tail.first..steps.len() {
            let (layer, step) = (&layers[index], &steps[index]);
            match &layer.kind {
                _ if step.absorbed => {}
                LayerKind::FullyConnected(_) => {
                    let fill = (width, pitch);
                    if self
                        .lane_layer(prepared, lanes, chunk, index, fill)
                        .is_err()
                    {
                        return (Some(index), width);
                    }
                    width = step.shape.len();
                }
                // (Softmax: the plan lets nothing else into a tail.)
                _ => {
                    for (column, carried) in chunk.iter_mut().enumerate() {
                        let state = &mut carried.state;
                        state.result.logits = lanes
                            .gather(width, column, pitch)
                            .map(|v| state.fmt.dequantize(v as i32))
                            .collect();
                        state.result.probabilities = host::softmax(&state.result.logits);
                    }
                }
            }
            for carried in chunk.iter_mut() {
                let state = &mut carried.state;
                if !step.absorbed {
                    (state.shape, state.layout) = (step.stored, step.store);
                }
                state.result.trace.push(LayerTrace {
                    name: layer.name.clone(),
                    shape: step.shape,
                    format: state.fmt,
                });
            }
        }
        (None, width)
    }

    /// One fully-connected layer of the tail (network layer `index`) for
    /// every column of the lane buffer — `width` features at `pitch` —
    /// at once: checksum, sweep, ABFT and extremes on the shared plane,
    /// then each column's own format and the epilogue into the next
    /// layer's lane buffer.
    ///
    /// # Errors
    ///
    /// Returns what the per-image step would say of weights that were
    /// not prepared or planned for this layer, and — under
    /// [`ResiliencePolicy::verify`](super::ResiliencePolicy) — the
    /// detector's error. Nothing of the images' states has changed then:
    /// the lane buffer still holds the layer's input.
    fn lane_layer(
        &self,
        prepared: &PreparedWeights,
        lanes: &mut LaneArena,
        chunk: &mut [Carried],
        index: usize,
        (width, pitch): (usize, usize),
    ) -> Result<(), AbmError> {
        let step = &prepared.plan.steps[index];
        let layer_idx = chunk[0].state.accel_idx;
        let clock = self.layer_clock();
        let prep = prepared.abm_layer(layer_idx).ok_or(AbmError::NotPrepared {
            layer: layer_idx,
            engine: "ABM",
        })?;
        let (want, kernels) = (prep.input_shape(), step.shape.len());
        if (want.len(), prep.output_shape()) != (width, step.shape) {
            return Err(AbmError::ShapeMismatch {
                got: (width, 1, 1),
                want: (want.channels, want.rows, want.cols),
            });
        }
        let live = chunk.len();
        lanes.fit(width, kernels, pitch);
        if self.resilience.verify {
            super::timed_detector("abm_verify_checksum_ns", || prep.verify_checksum())?;
        }
        let sel = prep.lane_selection(live);
        let fill = (live, pitch);
        prep.execute_lanes(self.parallelism, sel, &lanes.input, fill, &mut lanes.plane);
        if self.resilience.verify {
            let LaneArena {
                input, plane, sums, ..
            } = lanes;
            super::timed_detector("abm_abft_ns", || {
                abft::verify_lanes(prep, input, pitch, plane, sums)
            })?;
        }
        lanes.column_maxima(kernels, live, pitch);
        lanes.rounds.clear();
        for (column, carried) in chunk.iter_mut().enumerate() {
            let state = &mut carried.state;
            let (max_real, target, shift) =
                self.output_format(layer_idx, state.fmt, lanes.max_abs[column]);
            lanes.rounds.push(ColumnRound {
                shift,
                target,
                saturated: 0,
            });
            state.fmt = target;
            state.accel_idx += 1;
            state.result.record_layer(step, max_real, prep.work());
        }
        lanes.requantize_store(kernels, pitch, step.relu);
        for (carried, round) in chunk.iter_mut().zip(&lanes.rounds) {
            carried.state.result.saturated_features += round.saturated;
        }
        std::mem::swap(&mut lanes.input, &mut lanes.output);
        let name = self.model.layers[layer_idx].name();
        let ops = prep.work().total() * live as u64;
        self.note_layer(clock, step, name, 0, ops);
        Ok(())
    }
}

/// The prepared layers of a tail whose first accelerated layer is
/// `first`: every accelerated layer from there on.
fn tail_layers(
    prepared: &PreparedWeights,
    first: usize,
) -> impl Iterator<Item = &PreparedConv> + '_ {
    (first..).map_while(|layer| prepared.abm_layer(layer))
}
