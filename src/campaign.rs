//! The seeded fault-injection campaign: every fault class, on real
//! model-zoo networks, with the CI gate that no fault is ever silent.
//!
//! Each trial injects exactly one fault from a deterministic,
//! seed-derived plan and resolves it to a
//! [`FaultOutcome`]:
//!
//! * **functional classes** (word flips, stream corruption, accumulator
//!   upsets) run through the hardened inference path
//!   ([`ResiliencePolicy::hardened`]) or the standalone detectors
//!   (input checksum, load-time validation, ABFT), and recovery must
//!   reproduce the pristine logits bit-identically;
//! * **timing classes** (FIFO stalls and drops, CU hangs, bandwidth
//!   throttles) run through the simulator's fail-stop guards
//!   ([`SimContext::simulate_workload`] with the trial's injector),
//!   where a fault is either provably absorbed by slack (the guarded
//!   [`LayerSim`] is bit-identical to the clean one)
//!   or detected by a watchdog and recovered by fault-free replay;
//! * **pipelined timing trials** re-inject the two dataflow-sensitive
//!   classes — a FIFO stall at an inter-stage boundary and a CU hang on
//!   a pipeline stage — into the layer-pipelined simulation
//!   ([`SimContext::simulate_pipeline`]),
//!   where the provisioned FIFO margin / watchdog slack absorbs them or
//!   the fail-stop guard trips and a fault-free replay of the whole
//!   pipeline recovers bit-identically.
//!
//! Every injection, detection and recovery is also recorded on the
//! attached [`TelemetrySink`] as
//! [`Event::Fault`]s, so a campaign
//! exports onto the same Chrome-trace timeline as the rest of the
//! instrumentation.

use abm_conv::abm::PreparedConv;
use abm_conv::{
    abft, Engine, InferenceResult, Inferencer, Parallelism, PreparedWeights, ResiliencePolicy,
};
use abm_fault::{
    fnv1a_bytes, AbmError, CampaignReport, Fault, FaultClass, FaultOutcome, FaultPlan,
    PlanInjector, RecoveryAction, SplitMix64, TrialRecord,
};
use abm_model::{synthesize_model, SparseModel};
use abm_sim::task::Workload;
use abm_sim::{
    lane, plan_pipeline, simulate_pipeline, AcceleratorConfig, LayerSim, PipelineOptions,
    PipelineSim, PipelinedSchedule, SimContext, Watchdog,
};
use abm_sparse::FlatKernel;
use abm_telemetry::{Event, FaultAction, TelemetrySink};
use abm_tensor::{Shape3, Tensor3};
use std::sync::Arc;

/// What a campaign sweeps: which zoo networks, under which seed, and
/// how many trials of each fault class per network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Zoo network names (`alexnet`, `vgg16`, `vgg19`, `tiny`).
    pub nets: Vec<String>,
    /// Campaign seed: derives every fault coordinate and magnitude, so
    /// a report is reproducible from its seed alone.
    pub seed: u64,
    /// Trials of each fault class per network.
    pub trials_per_class: usize,
}

impl CampaignConfig {
    /// The CI smoke campaign: AlexNet only, one trial per class.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            nets: vec!["alexnet".into()],
            seed: 2019,
            trials_per_class: 1,
        }
    }

    /// The full campaign: AlexNet and VGG16, three trials per class.
    #[must_use]
    pub fn full() -> Self {
        Self {
            nets: vec!["alexnet".into(), "vgg16".into()],
            seed: 2019,
            trials_per_class: 3,
        }
    }

    /// A campaign over one network with the default seed and one trial
    /// per class.
    #[must_use]
    pub fn net(name: &str) -> Self {
        Self {
            nets: vec![name.to_string()],
            seed: 2019,
            trials_per_class: 1,
        }
    }
}

/// Runs the campaign, recording fault telemetry into `sink`.
///
/// # Errors
///
/// Returns [`AbmError`] only for infrastructure failures (a layer that
/// cannot be encoded or prepared); every *injected* fault resolves to a
/// [`TrialRecord`] instead of an error, including unrecovered ones.
pub fn run_campaign(
    config: &CampaignConfig,
    sink: &TelemetrySink,
) -> Result<CampaignReport, AbmError> {
    // Tee every campaign event into the global flight recorder: the
    // clone shares the caller's event buffer (they still see the full
    // stream), while the recorder keeps the forensic tail that gets
    // frozen the moment a trial surfaces an `AbmError`.
    let sink = abm_metrics::flight_tee(sink.clone());
    let mut report = CampaignReport::new(config.seed);
    for net in &config.nets {
        if let Err(e) = run_net(net, config, &sink, &mut report) {
            abm_metrics::global().note_error("campaign", &e.to_string());
            return Err(e);
        }
    }
    abm_metrics::global().add("campaign_trials_total", report.trials.len() as u64);
    Ok(report)
}

/// Deterministic synthetic image for a network input shape (same LCG
/// family the CLI and property tests use, offset by the campaign seed).
fn synth_input(shape: Shape3, seed: u64) -> Tensor3<i16> {
    let mut state = seed ^ 0x9e37_79b9_u64;
    Tensor3::from_fn(shape, |_, _, _| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 33) % 256) as i16 - 128
    })
}

fn run_net(
    net: &str,
    config: &CampaignConfig,
    sink: &TelemetrySink,
    report: &mut CampaignReport,
) -> Result<(), AbmError> {
    let (network, profile) = crate::cli::lookup(net);
    let model = synthesize_model(&network, &profile, config.seed);
    let input = synth_input(network.input_shape(), config.seed);
    let mut rng = SplitMix64::new(config.seed ^ fnv1a_bytes(net.bytes()));

    let inferencer = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Serial)
        .resilience(ResiliencePolicy::hardened())
        .telemetry(sink.clone());
    let golden_prep = inferencer.prepare()?;
    let golden = inferencer.run_prepared(&golden_prep, &input)?;
    let conv_layers = model.conv_indices();

    let sim_cfg = AcceleratorConfig::paper_for(net);

    // The pipelined dataflow the two extra timing trials per round run
    // under: planned once per net (the planner and DES are
    // deterministic, so the clean reference is too).
    let workloads = model
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| Workload::from_layer(l).map_err(|e| AbmError::from(e).at_layer(i)))
        .collect::<Result<Vec<_>, _>>()?;
    let pipe_batch = 2;
    let schedule = plan_pipeline(
        &workloads,
        &sim_cfg,
        &PipelineOptions::for_config(&sim_cfg),
        pipe_batch,
    )
    .expect("the default pipeline options plan every zoo network");
    let clean_pipe = simulate_pipeline(&workloads, &sim_cfg, &schedule, pipe_batch);

    for _ in 0..config.trials_per_class {
        for class in FaultClass::ALL {
            let trial = if class.is_timing() {
                timing_trial(net, &model, &sim_cfg, class, &mut rng, sink)?
            } else {
                functional_trial(FunctionalTrial {
                    net,
                    inferencer: &inferencer,
                    golden_prep: &golden_prep,
                    golden: &golden,
                    input: &input,
                    conv_layers: &conv_layers,
                    class,
                    rng: &mut rng,
                    sink,
                })?
            };
            report.trials.push(trial);
        }
        for class in [FaultClass::FifoStall, FaultClass::CuHang] {
            let trial = pipelined_trial(PipelinedTrial {
                net,
                workloads: &workloads,
                cfg: &sim_cfg,
                schedule: &schedule,
                clean: &clean_pipe,
                batch: pipe_batch,
                class,
                rng: &mut rng,
                sink,
            })?;
            report.trials.push(trial);
        }
    }
    Ok(())
}

/// Everything one functional trial needs (bundled to keep the call
/// sites readable).
struct FunctionalTrial<'a> {
    net: &'a str,
    inferencer: &'a Inferencer<'a>,
    golden_prep: &'a PreparedWeights,
    golden: &'a InferenceResult,
    input: &'a Tensor3<i16>,
    conv_layers: &'a [usize],
    class: FaultClass,
    rng: &'a mut SplitMix64,
    sink: &'a TelemetrySink,
}

fn functional_trial(t: FunctionalTrial<'_>) -> Result<TrialRecord, AbmError> {
    match t.class {
        FaultClass::FiWordFlip => fi_word_trial(t),
        FaultClass::WtWordFlip | FaultClass::QTableWordFlip => post_load_flip_trial(t),
        FaultClass::OffsetCorrupt | FaultClass::ValueGroupCorrupt => load_time_trial(t),
        FaultClass::AccumulatorFlip => accumulator_trial(t),
        timing => unreachable!("{timing} is a timing class"),
    }
}

/// FI-Buffer word flip: the input stream is checksummed at admission;
/// the consume-side re-hash catches the flip and recovery re-fetches
/// the stream from its source.
fn fi_word_trial(t: FunctionalTrial<'_>) -> Result<TrialRecord, AbmError> {
    let mut tampered = t.input.clone();
    let word = t.rng.below(tampered.as_slice().len() as u64) as usize;
    let bit = t.rng.below(16) as u32;
    let admitted = abft::input_checksum(t.input);
    tampered.as_mut_slice()[word] ^= 1i16 << bit;
    record_injected(t.sink, 0, t.class.name(), &format!("word {word} bit {bit}"));
    match abft::verify_input(&tampered, admitted) {
        Err(_) => {
            t.sink.record_fault(
                0,
                FaultAction::Detected,
                "input-checksum",
                "admit/consume digests differ",
            );
            // Recovery: re-fetch the admitted stream and run on it.
            let rerun = t.inferencer.run_prepared(t.golden_prep, t.input)?;
            let identical = rerun.logits == t.golden.logits;
            t.sink.record_fault(
                0,
                FaultAction::Recovered,
                "refetch",
                "re-fetched input stream",
            );
            Ok(trial(
                t.net,
                0,
                t.class,
                outcome(true, identical),
                "input-checksum",
                RecoveryAction::Refetched,
            ))
        }
        Ok(()) => {
            // Detector missed (cannot happen for a real flip): run the
            // tampered stream and classify honestly.
            let run = t.inferencer.run_prepared(t.golden_prep, &tampered)?;
            let identical = run.logits == t.golden.logits;
            Ok(trial(
                t.net,
                0,
                t.class,
                outcome(false, identical),
                "-",
                RecoveryAction::None,
            ))
        }
    }
}

/// Post-load SEU in the WT-Buffer offsets or Q-Table values of one
/// prepared layer: the hardened inference path must detect it (stored
/// checksum) and climb the recovery ladder on its own.
fn post_load_flip_trial(t: FunctionalTrial<'_>) -> Result<TrialRecord, AbmError> {
    let layer = t.conv_layers[t.rng.below(t.conv_layers.len() as u64) as usize];
    // A handle clone of the golden model: the write below copies the one
    // layer it corrupts, the golden streams stay as lowered.
    let mut prepared = t.golden_prep.clone();
    let slot = prepared.abm_layer_mut(layer).ok_or(AbmError::NotPrepared {
        layer,
        engine: "ABM",
    })?;

    let kernel = pick_nonempty_kernel(slot.flat().kernels(), t.rng);
    let (values, _, offsets) = slot.flat_mut().kernels_mut()[kernel].streams_mut();
    let detail = match t.class {
        FaultClass::WtWordFlip => {
            let idx = t.rng.below(offsets.len() as u64) as usize;
            let bit = t.rng.below(32) as u32;
            offsets[idx] ^= 1u32 << bit;
            format!("kernel {kernel} offset {idx} bit {bit}")
        }
        _ => {
            let idx = t.rng.below(values.len() as u64) as usize;
            let bit = t.rng.below(8) as u32;
            values[idx] ^= 1i8 << bit;
            format!("kernel {kernel} value {idx} bit {bit}")
        }
    };
    record_injected(t.sink, layer as u32, t.class.name(), &detail);

    let before = t.sink.events().len();
    let run = t.inferencer.run_prepared(&prepared, t.input);
    let events = t.sink.events();
    let (detector, action) = scan_fault_events(&events[before..]);
    match run {
        Ok(r) => {
            let identical = r.logits == t.golden.logits;
            Ok(trial(
                t.net,
                layer,
                t.class,
                outcome(detector.is_some(), identical),
                detector.unwrap_or("-"),
                action,
            ))
        }
        Err(_) => Ok(trial(
            t.net,
            layer,
            t.class,
            FaultOutcome::DetectedUnrecovered,
            detector.unwrap_or("guard"),
            action,
        )),
    }
}

/// Pre-load stream corruption: a mis-transferred WT-Buffer page
/// (offsets no longer the addresses of the code's indexes) or Q-Table
/// page (group bounds inconsistent). The validator, with the retained
/// `LayerCode` as its witness, must reject the load and re-lowering
/// from that code must reproduce the pristine streams bit-identically.
fn load_time_trial(t: FunctionalTrial<'_>) -> Result<TrialRecord, AbmError> {
    let layer = t.conv_layers[t.rng.below(t.conv_layers.len() as u64) as usize];
    let pristine = t
        .golden_prep
        .abm_layer(layer)
        .ok_or(AbmError::NotPrepared {
            layer,
            engine: "ABM",
        })?;
    let code = pristine.code();

    // The page as mis-transferred: a copy of the layer's streams, which
    // the validator is handed by value.
    let mut bad = pristine.flat().clone();
    let kernel = pick_nonempty_kernel(bad.kernels(), t.rng);
    let (_, bounds, offsets) = bad.kernels_mut()[kernel].streams_mut();
    let detail = match t.class {
        FaultClass::OffsetCorrupt => {
            let idx = t.rng.below(offsets.len() as u64) as usize;
            offsets[idx] = offsets[idx].wrapping_add(1);
            format!("kernel {kernel} offset {idx} no longer decodes to its tap")
        }
        _ => {
            let last = bounds.len() - 1;
            bounds.swap(0, last);
            format!("kernel {kernel} group bounds scrambled")
        }
    };
    record_injected(t.sink, layer as u32, t.class.name(), &detail);

    match PreparedConv::try_from_flat(
        bad,
        Arc::clone(code),
        pristine.input_shape(),
        pristine.geometry(),
    ) {
        Err(e) if e.is_corruption() => {
            t.sink.record_fault(
                layer as u32,
                FaultAction::Detected,
                "load-validate",
                &e.to_string(),
            );
            // Recovery: re-lower the retained source code; bit-identical
            // streams mean bit-identical execution.
            let fresh = PreparedConv::try_new(
                Arc::clone(code),
                pristine.input_shape(),
                pristine.geometry(),
                None,
            )?;
            let identical = fresh.checksum() == pristine.checksum();
            t.sink.record_fault(
                layer as u32,
                FaultAction::Recovered,
                "re-lower",
                "re-lowered from the retained LayerCode",
            );
            Ok(trial(
                t.net,
                layer,
                t.class,
                outcome(true, identical),
                "load-validate",
                RecoveryAction::Relowered { attempts: 1 },
            ))
        }
        Err(e) => Err(e),
        // The validator accepted a corrupted page: silent by definition.
        Ok(_) => Ok(trial(
            t.net,
            layer,
            t.class,
            FaultOutcome::Silent,
            "-",
            RecoveryAction::None,
        )),
    }
}

/// Output-accumulator upset on the first conv layer: the ABFT plane
/// checksum must flag the write-back and a replay must reproduce the
/// pristine plane.
fn accumulator_trial(t: FunctionalTrial<'_>) -> Result<TrialRecord, AbmError> {
    let layer = t.conv_layers[0];
    let prep = t
        .golden_prep
        .abm_layer(layer)
        .ok_or(AbmError::NotPrepared {
            layer,
            engine: "ABM",
        })?;
    let out = prep.execute(t.input);
    let mut bad = out.clone();
    let idx = t.rng.below(bad.as_slice().len() as u64) as usize;
    let bit = t.rng.below(63) as u32;
    bad.as_mut_slice()[idx] ^= 1i64 << bit;
    record_injected(
        t.sink,
        layer as u32,
        t.class.name(),
        &format!("accumulator {idx} bit {bit}"),
    );
    match abft::verify_output(prep, t.input, &bad) {
        Err(e) if e.is_corruption() => {
            t.sink
                .record_fault(layer as u32, FaultAction::Detected, "abft", &e.to_string());
            let replay = prep.execute(t.input);
            let identical = replay == out && abft::verify_output(prep, t.input, &replay).is_ok();
            t.sink.record_fault(
                layer as u32,
                FaultAction::Recovered,
                "replay",
                "re-executed the layer",
            );
            Ok(trial(
                t.net,
                layer,
                t.class,
                outcome(true, identical),
                "abft",
                RecoveryAction::Replayed,
            ))
        }
        Err(e) => Err(e),
        Ok(()) => Ok(trial(
            t.net,
            layer,
            t.class,
            FaultOutcome::Silent,
            "-",
            RecoveryAction::None,
        )),
    }
}

/// One timing-domain trial through the simulator's fail-stop guards.
fn timing_trial(
    net: &str,
    model: &SparseModel,
    cfg: &AcceleratorConfig,
    class: FaultClass,
    rng: &mut SplitMix64,
    sink: &TelemetrySink,
) -> Result<TrialRecord, AbmError> {
    let layer = rng.below(model.layers.len() as u64) as usize;
    let w = Workload::from_layer(&model.layers[layer])
        .map_err(|e| AbmError::from(e).at_layer(layer))?;
    let watchdog = Watchdog::default();
    let serial = || SimContext {
        parallelism: Parallelism::Serial,
        watchdog,
        ..SimContext::default()
    };
    let clean = serial().simulate_workload(&w, cfg, layer as u32, 0)?;

    let kernel = w
        .code
        .kernels()
        .iter()
        .position(|k| k.total() > 0)
        .unwrap_or(0);
    let fault = match class {
        FaultClass::FifoStall => {
            let high_water =
                lane::vector_cycles_probed(&w.code.kernels()[kernel], cfg.n as u64, cfg.fifo_depth)
                    .fifo_high_water as u64;
            let slack = (cfg.fifo_depth as u64).saturating_sub(high_water) * cfg.n as u64;
            // 1..4x the absorption slack: some trials mask, some detect.
            Fault {
                layer,
                unit: kernel,
                cycles: rng.in_range(1, (4 * slack).max(2)),
                ..Fault::default()
            }
        }
        FaultClass::FifoDrop => Fault {
            layer,
            unit: kernel,
            ..Fault::default()
        },
        FaultClass::CuHang => {
            let tasks = (w.window_count(cfg) * w.batches(cfg)) as u64;
            Fault {
                layer,
                unit: rng.below(tasks) as usize,
                // Around the watchdog slack: jitter masks, hangs detect.
                cycles: rng.in_range(1, watchdog.slack_cycles * 8),
                ..Fault::default()
            }
        }
        _ => Fault {
            layer,
            derate_milli: rng.in_range(1001, 3001) as u32,
            ..Fault::default()
        },
    };
    record_injected(
        sink,
        layer as u32,
        class.name(),
        &format!(
            "unit {} cycles {} derate {}",
            fault.unit, fault.cycles, fault.derate_milli
        ),
    );
    let mut injector = PlanInjector::new(FaultPlan::single(0, class, fault));
    let guarded = serial()
        .injector(&mut injector)
        .simulate_workload(&w, cfg, layer as u32, 0);
    match guarded {
        Ok(sim) => {
            let identical = same_timing(&sim, &clean);
            if identical {
                sink.record_fault(
                    layer as u32,
                    FaultAction::Masked,
                    class.name(),
                    "absorbed by slack",
                );
            }
            Ok(trial(
                net,
                layer,
                class,
                outcome(false, identical),
                "-",
                RecoveryAction::None,
            ))
        }
        Err(e) if e.is_watchdog() => {
            let detector = watchdog_name(&e);
            sink.record_fault(
                layer as u32,
                FaultAction::Detected,
                detector,
                &e.to_string(),
            );
            // Recovery: replay the layer fault-free.
            let replay = serial().simulate_workload(&w, cfg, layer as u32, 0)?;
            let identical = same_timing(&replay, &clean);
            sink.record_fault(
                layer as u32,
                FaultAction::Recovered,
                "replay",
                "fault-free replay",
            );
            Ok(trial(
                net,
                layer,
                class,
                outcome(true, identical),
                detector,
                RecoveryAction::Replayed,
            ))
        }
        Err(e) => Err(e),
    }
}

/// Everything one pipelined timing trial needs (bundled to keep the
/// call sites readable, like [`FunctionalTrial`]).
struct PipelinedTrial<'a> {
    net: &'a str,
    workloads: &'a [Workload],
    cfg: &'a AcceleratorConfig,
    schedule: &'a PipelinedSchedule,
    clean: &'a PipelineSim,
    batch: usize,
    class: FaultClass,
    rng: &'a mut SplitMix64,
    sink: &'a TelemetrySink,
}

/// Rows a layer streams per image in the pipelined dataflow (the unit
/// the inter-stage FIFOs are sized in): one "row" for FC layers,
/// output rows for convolutions.
fn stream_rows(w: &Workload) -> u64 {
    if w.is_fc {
        1
    } else {
        w.out_rows as u64
    }
}

/// One timing-domain trial through the *pipelined* dataflow guards: a
/// FIFO stall at an inter-stage boundary or a CU hang on a stage. The
/// provisioned FIFO margin / watchdog slack absorbs the fault (the
/// guarded [`PipelineSim`] is bit-identical to the clean one) or the
/// fail-stop guard trips and a fault-free replay of the whole pipeline
/// recovers it.
fn pipelined_trial(t: PipelinedTrial<'_>) -> Result<TrialRecord, AbmError> {
    let watchdog = Watchdog::default();
    let fault = match t.class {
        FaultClass::FifoStall => {
            // Target a random inter-stage boundary. The absorption
            // threshold is `headroom_rows × producer row cycles`; the
            // drawn magnitude straddles an estimate of it (average row
            // service time of the producer stage), so some trials mask
            // and some detect.
            let b = t.rng.below((t.schedule.stages.len() - 1) as u64) as usize;
            let consumer = &t.schedule.stages[b + 1];
            let producer = &t.schedule.stages[b];
            let boundary = &t.clean.boundaries[b];
            let headroom = consumer.fifo_rows.saturating_sub(boundary.high_water_rows) as u64;
            let stage_rows: u64 = t.workloads[producer.layer_start..producer.layer_end]
                .iter()
                .map(stream_rows)
                .sum();
            let row_est = t.clean.stages[b].busy_cycles / (stage_rows * t.batch as u64).max(1);
            let slack_est = headroom * row_est;
            Fault {
                layer: consumer.layer_start,
                unit: b,
                cycles: t.rng.in_range(1, (4 * slack_est).max(2)),
                ..Fault::default()
            }
        }
        FaultClass::CuHang => {
            // A hang on a random stage, polled per streamed image:
            // around the watchdog slack, so jitter masks and hangs
            // detect.
            let stage = t.rng.below(t.schedule.stages.len() as u64) as usize;
            Fault {
                layer: t.schedule.stages[stage].layer_start,
                unit: t.rng.below(t.batch as u64) as usize,
                cycles: t.rng.in_range(1, watchdog.slack_cycles * 8),
                ..Fault::default()
            }
        }
        other => unreachable!("{other} has no pipelined injection site"),
    };
    record_injected(
        t.sink,
        fault.layer as u32,
        t.class.name(),
        &format!("pipelined unit {} cycles {}", fault.unit, fault.cycles),
    );
    let mut injector = PlanInjector::new(FaultPlan::single(0, t.class, fault));
    let guarded = SimContext {
        watchdog,
        ..SimContext::default()
    }
    .injector(&mut injector)
    .simulate_pipeline(t.workloads, t.cfg, t.schedule, t.batch);
    match guarded {
        Ok(sim) => {
            let identical = &sim == t.clean;
            if identical {
                t.sink.record_fault(
                    fault.layer as u32,
                    FaultAction::Masked,
                    t.class.name(),
                    "absorbed by pipeline slack",
                );
            }
            Ok(trial(
                t.net,
                fault.layer,
                t.class,
                outcome(false, identical),
                "-",
                RecoveryAction::None,
            ))
        }
        Err(e) if e.is_watchdog() => {
            let detector = watchdog_name(&e);
            t.sink.record_fault(
                fault.layer as u32,
                FaultAction::Detected,
                detector,
                &e.to_string(),
            );
            // Recovery: replay the pipeline fault-free.
            let replay = simulate_pipeline(t.workloads, t.cfg, t.schedule, t.batch);
            let identical = &replay == t.clean;
            t.sink.record_fault(
                fault.layer as u32,
                FaultAction::Recovered,
                "replay",
                "fault-free pipeline replay",
            );
            Ok(trial(
                t.net,
                fault.layer,
                t.class,
                outcome(true, identical),
                detector,
                RecoveryAction::Replayed,
            ))
        }
        Err(e) => Err(e),
    }
}

/// Bit-identical timing comparison for the simulator domain.
fn same_timing(a: &LayerSim, b: &LayerSim) -> bool {
    a.compute_cycles == b.compute_cycles
        && a.busy_cycles == b.busy_cycles
        && a.seconds.to_bits() == b.seconds.to_bits()
}

/// A kernel index with a nonzero stream (flips need a word to flip).
fn pick_nonempty_kernel(kernels: &[FlatKernel], rng: &mut SplitMix64) -> usize {
    let nonempty: Vec<usize> = kernels
        .iter()
        .enumerate()
        .filter(|(_, k)| k.total() > 0)
        .map(|(i, _)| i)
        .collect();
    nonempty[rng.below(nonempty.len() as u64) as usize]
}

/// Resolves (detected?, bit-identical?) to the outcome lattice.
fn outcome(detected: bool, identical: bool) -> FaultOutcome {
    match (detected, identical) {
        (true, true) => FaultOutcome::DetectedRecovered,
        (true, false) => FaultOutcome::DetectedUnrecovered,
        (false, true) => FaultOutcome::Masked,
        (false, false) => FaultOutcome::Silent,
    }
}

/// The watchdog an error names in reports.
fn watchdog_name(e: &AbmError) -> &'static str {
    match e.root_cause() {
        AbmError::FifoOverflow { .. } => "fifo-high-water",
        AbmError::CuDeadline { .. } | AbmError::LostDeposit { .. } => "cu-progress",
        AbmError::BandwidthCollapse { .. } => "layer-latency",
        _ => "guard",
    }
}

/// Records an injection on the sink and mirrors it into the global
/// metrics registry. Injections originate here (not in the inference
/// path, which only detects and recovers), so the
/// `fault_injected_total` counter lives here too.
fn record_injected(sink: &TelemetrySink, layer: u32, class: &str, detail: &str) {
    if abm_metrics::enabled() {
        abm_metrics::global().add("fault_injected_total", 1);
    }
    sink.record_fault(layer, FaultAction::Injected, class, detail);
}

/// Extracts the detector and recovery action from the `Event::Fault`s
/// the hardened inference path emitted during one trial.
fn scan_fault_events(events: &[Event]) -> (Option<&str>, RecoveryAction) {
    let mut detector = None;
    let mut action = RecoveryAction::None;
    for e in events {
        if let Event::Fault {
            action: a, class, ..
        } = e
        {
            match a {
                FaultAction::Detected if detector.is_none() => detector = Some(class.as_str()),
                FaultAction::Recovered => {
                    action = match class.as_str() {
                        "re-lower" => RecoveryAction::Relowered { attempts: 1 },
                        "reference-fallback" => RecoveryAction::ReferenceFallback,
                        "dense-fallback" => RecoveryAction::DenseFallback,
                        "refetch" => RecoveryAction::Refetched,
                        _ => RecoveryAction::Replayed,
                    }
                }
                _ => {}
            }
        }
    }
    (detector, action)
}

fn trial(
    net: &str,
    layer: usize,
    class: FaultClass,
    outcome: FaultOutcome,
    detector: &str,
    action: RecoveryAction,
) -> TrialRecord {
    TrialRecord {
        net: net.to_string(),
        layer,
        class,
        outcome,
        detector: detector.to_string(),
        action,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_is_clean_and_covers_every_class() {
        let sink = TelemetrySink::new();
        let config = CampaignConfig::net("tiny");
        let report = run_campaign(&config, &sink).unwrap();
        // Every class once, plus the two pipelined dataflow trials
        // (a boundary FIFO stall and a stage CU hang).
        assert_eq!(report.trials.len(), FaultClass::ALL.len() + 2);
        assert!(report.is_clean(), "\n{}", report.summary_table());
        let counts = report.class_counts();
        assert_eq!(counts.len(), FaultClass::ALL.len());
        for (name, c) in counts {
            let expected = if name == "fifo-stall" || name == "cu-hang" {
                2
            } else {
                1
            };
            assert_eq!(c.injected, expected, "{name}");
            assert_eq!(c.silent, 0, "{name}");
        }
        // Telemetry carries the injections.
        let injected = sink
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Fault {
                        action: FaultAction::Injected,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(injected, FaultClass::ALL.len() + 2);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&CampaignConfig::net("tiny"), &TelemetrySink::new()).unwrap();
        let b = run_campaign(&CampaignConfig::net("tiny"), &TelemetrySink::new()).unwrap();
        assert_eq!(a, b);
        let mut other = CampaignConfig::net("tiny");
        other.seed = 7;
        let c = run_campaign(&other, &TelemetrySink::new()).unwrap();
        assert!(c.is_clean());
    }

    #[test]
    fn functional_detectors_name_themselves() {
        let report = run_campaign(&CampaignConfig::net("tiny"), &TelemetrySink::new()).unwrap();
        for t in &report.trials {
            match t.class {
                FaultClass::FiWordFlip => assert_eq!(t.detector, "input-checksum"),
                FaultClass::OffsetCorrupt | FaultClass::ValueGroupCorrupt => {
                    assert_eq!(t.detector, "load-validate");
                }
                FaultClass::AccumulatorFlip => assert_eq!(t.detector, "abft"),
                FaultClass::WtWordFlip | FaultClass::QTableWordFlip => {
                    assert_eq!(t.detector, "checksum");
                }
                _ => {} // timing detectors depend on drawn magnitudes
            }
        }
    }
}
