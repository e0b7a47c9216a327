//! Integration tests for the fault-injection and recovery stack: the
//! never-silent property over every fault class, host trials scored
//! from the runtime's own fault events, the NullInjector zero-overhead
//! bit-identity guarantee, per-item batch salvage, the offset-overflow
//! typed-error regression, stream flips that never panic and are
//! caught within a round of scrubs, and the one flip only the scrub
//! sees.

use abm_spconv_repro::campaign::{run_campaign, CampaignConfig};
use abm_spconv_repro::conv::{Engine, InferenceResult, Inferencer, Parallelism, ResiliencePolicy};
use abm_spconv_repro::fault::{
    AbmError, FaultClass, FaultOutcome, FaultPlan, NullInjector, PlanInjector, RecoveryAction,
    SplitMix64,
};
use abm_spconv_repro::model::{
    synthesize_model, zoo, LayerProfile, Network, PruneProfile, SparseModel,
};
use abm_spconv_repro::sim::task::Workload;
use abm_spconv_repro::sim::{AcceleratorConfig, SimContext};
use abm_spconv_repro::sparse::{EncodeError, FlatCode, FlatLayout, LayerCode};
use abm_spconv_repro::telemetry::{Event, FaultAction, TelemetrySink};
use abm_spconv_repro::tensor::{Shape3, Shape4, Tensor3, Tensor4};
use proptest::prelude::*;

fn tiny_model() -> abm_spconv_repro::model::SparseModel {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 16));
    synthesize_model(&net, &profile, 7)
}

fn synth_image(shape: Shape3, salt: usize) -> Tensor3<i16> {
    Tensor3::from_fn(shape, |c, r, col| {
        ((((c + 1) * (r + 3) * (col + 7 + salt)) % 255) as i16) - 127
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: whatever the seed, every fault class the
    /// campaign injects into the tiny network is either detected (and
    /// recovered bit-identically) or provably masked — never silent,
    /// never unrecovered.
    #[test]
    fn every_fault_class_is_never_silent(seed in any::<u64>()) {
        let mut config = CampaignConfig::net("tiny");
        config.seed = seed;
        let report = run_campaign(&config, &TelemetrySink::new()).unwrap();
        // Every class once, plus the two pipelined dataflow trials
        // (boundary FIFO stall + stage CU hang), which must obey the
        // same lattice: detected-and-recovered or provably masked.
        prop_assert_eq!(report.trials.len(), FaultClass::ALL.len() + 2);
        prop_assert_eq!(report.count(FaultOutcome::Silent), 0);
        prop_assert_eq!(report.count(FaultOutcome::DetectedUnrecovered), 0);
        // Every class was actually injected; the two dataflow-sensitive
        // classes land on both the time-multiplexed and pipelined rails.
        let counts = report.class_counts();
        for class in FaultClass::ALL {
            let expected = match class {
                FaultClass::FifoStall | FaultClass::CuHang => 2,
                _ => 1,
            };
            prop_assert_eq!(counts[class.name()].injected, expected);
        }
        // The host classes end where the runtime's ladder puts them,
        // wherever the seed lands the flip: a stream flip and a
        // transient accumulator upset are re-lowered (the raw weights
        // rebuild the layer checksummed at load, and the upset does not
        // come back); a stuck accumulator fails the rebuilt layer's
        // sweep too, so only the dense rung recovers it. A stream flip
        // is the scrub's in the first layer — which a trial's fresh
        // handle scrubs on its one call — and ABFT's or the sweep
        // guard's anywhere else.
        for t in &report.trials {
            let (outcome, detector, action) = (t.outcome, t.detector.as_str(), t.action);
            let expected = match t.class {
                FaultClass::WtWordFlip | FaultClass::QTableWordFlip => {
                    let seen = match t.layer {
                        0 => "scrub",
                        _ if detector == "guard" => "guard",
                        _ => "abft",
                    };
                    (FaultOutcome::DetectedRecovered, seen, RecoveryAction::Relowered)
                }
                FaultClass::AccumulatorFlip => {
                    (FaultOutcome::DetectedRecovered, "abft", RecoveryAction::Relowered)
                }
                FaultClass::AccumulatorStuck => {
                    (FaultOutcome::DetectedRecovered, "abft", RecoveryAction::DenseFallback)
                }
                _ => continue,
            };
            prop_assert_eq!((outcome, detector, action), expected, "{}", t.class);
        }
    }
}

/// The principle of the campaign: it scores the runtime, not itself.
/// For every host trial the recorded detector and action are the first
/// `Detected` class and the last `Recovered` rung the inference path
/// emitted between that trial's `Injected` event and the next trial's;
/// the campaign records nothing else for a host trial.
#[test]
fn host_trials_are_scored_from_the_runtimes_fault_events() {
    let sink = TelemetrySink::new();
    let mut config = CampaignConfig::net("tiny");
    config.trials_per_class = 3;
    let report = run_campaign(&config, &sink).unwrap();
    let events = sink.events();
    let faults: Vec<(FaultAction, &str)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Fault { action, class, .. } => Some((*action, class.as_str())),
            _ => None,
        })
        .collect();
    let injected: Vec<usize> = (0..faults.len())
        .filter(|&i| faults[i].0 == FaultAction::Injected)
        .chain([faults.len()])
        .collect();
    assert_eq!(injected.len(), report.trials.len() + 1);
    let mut actions = Vec::new();
    for (t, window) in report.trials.iter().zip(injected.windows(2)) {
        let events = &faults[window[0]..window[1]];
        assert_eq!(events[0].1, t.class.name());
        if t.class.is_timing() {
            continue;
        }
        let detector = events.iter().find(|(a, _)| *a == FaultAction::Detected);
        let rung = events
            .iter()
            .rev()
            .find(|(a, _)| *a == FaultAction::Recovered);
        let action = match rung.map(|&(_, rung)| rung) {
            None => RecoveryAction::None,
            Some("re-lower") => RecoveryAction::Relowered,
            Some("dense-fallback") => RecoveryAction::DenseFallback,
            Some(other) => panic!("{}: no runtime rung is called {other}", t.class),
        };
        assert_eq!(t.detector, detector.map_or("-", |&(_, d)| d), "{}", t.class);
        assert_eq!(t.action, action, "{}", t.class);
        let runtime_only = events[1..]
            .iter()
            .all(|(a, _)| matches!(a, FaultAction::Detected | FaultAction::Recovered));
        assert!(runtime_only, "{}: {events:?}", t.class);
        actions.push(action);
    }
    for action in [RecoveryAction::Relowered, RecoveryAction::DenseFallback] {
        assert!(actions.contains(&action), "no host trial ended {action}");
    }
}

/// The rebuild rung trusts the raw weights only as far as the load-time
/// checksum: a model whose weights changed after it was prepared
/// rebuilds a layer that is not the one prepared, so a detected layer
/// is never run from it. Flipping an offset sends layer 0 to recovery
/// (the scrub of a fresh handle's first call)
/// under an inferencer over a clone with one non-zero weight changed;
/// the rebuilt layer's checksum differs from the one recorded at load,
/// and the dense rung recovers — on the clone's weights, so the logits
/// are the clone's own.
#[test]
fn a_layer_rebuilt_from_changed_weights_is_never_run() {
    let model = tiny_model();
    let input = synth_image(model.network.input_shape(), 0);
    let mut changed = model.clone();
    let weights = changed.layers[0].weights.as_mut_slice();
    let w = weights.iter_mut().find(|w| **w != 0).unwrap();
    *w = if *w == 1 { 2 } else { 1 };
    let want = Inferencer::new(&changed).run(&input).unwrap();
    assert_ne!(
        want.logits,
        Inferencer::new(&model).run(&input).unwrap().logits
    );

    let mut prepared = Inferencer::new(&model).prepare().unwrap();
    let kernels = prepared.abm_layer_mut(0).unwrap().flat_mut().kernels_mut();
    let kernel = kernels.iter_mut().find(|k| k.total() > 0).unwrap();
    kernel.streams_mut().2[0] ^= 1 << 2;
    let sink = TelemetrySink::new();
    let hardened = Inferencer::new(&changed)
        .resilience(ResiliencePolicy::hardened())
        .telemetry(sink.clone());
    let got = hardened.run_prepared(&prepared, &input).unwrap();
    assert_eq!(got.logits, want.logits);
    let faults: Vec<(FaultAction, String)> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::Fault { action, class, .. } => Some((action, class)),
            _ => None,
        })
        .collect();
    let detected = (FaultAction::Detected, "scrub".to_string());
    let dense = (FaultAction::Recovered, "dense-fallback".to_string());
    assert_eq!(faults, [detected, dense]);
}

/// A lone image's sweep reads its own feature map, not the pool buffer
/// behind it: an FC offset set one past the layer's inputs stops the
/// sweep at the guard — a typed `CodeCorrupt` unchecked, a recovered
/// detection hardened — instead of reading the buffer's slack into a
/// wrong answer.
#[test]
fn an_fc_offset_one_past_its_inputs_is_the_guards() {
    let model = tiny_model();
    let input = synth_image(model.network.input_shape(), 0);
    let unchecked = Inferencer::new(&model);
    let clean = unchecked.prepare().unwrap();
    let golden = unchecked.run_prepared(&clean, &input).unwrap();
    let fc = model
        .network
        .conv_fc_layers()
        .position(|l| l.layer.name == "FC3")
        .unwrap();
    let in_features = clean.abm_layer(fc).unwrap().input_shape().len();
    let mut upset = clean.clone();
    let kernels = upset.abm_layer_mut(fc).unwrap().flat_mut().kernels_mut();
    let kernel = kernels.iter_mut().find(|k| k.total() > 0).unwrap();
    kernel.streams_mut().2[0] = u32::try_from(in_features).unwrap();

    let err = unchecked.run_prepared(&upset, &input).unwrap_err();
    assert!(
        matches!(err.root_cause(), AbmError::CodeCorrupt { detail, .. } if detail.starts_with("the sweep stopped")),
        "{err}"
    );
    let sink = TelemetrySink::new();
    let hardened = unchecked
        .resilience(ResiliencePolicy::hardened())
        .telemetry(sink.clone());
    let got = hardened.run_prepared(&upset, &input).unwrap();
    assert_eq!(got.logits, golden.logits);
    let detected: Vec<(u32, String)> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::Fault {
                layer,
                action: FaultAction::Detected,
                class,
                ..
            } => Some((layer, class)),
            _ => None,
        })
        .collect();
    assert_eq!(detected, [(fc as u32, "guard".to_string())]);
}

/// A flip ABFT cannot see is the scrub's to catch. On `tiny`, FC4 is
/// accelerated layer 3 of 4 and reads RELU3's 64 outputs (one feature
/// per offset: a 1×1 input lays feature `n` at offset `n`). Moving one
/// FC4 offset from feature `i` to feature `j` moves ABFT's prediction
/// and the output alike, by `w·(x_j − x_i)`: zero for an image whose
/// two features are equal, so for that image the flip is blind and
/// masked. A fresh hardened handle serves it golden, with no fault,
/// until its round-robin scrub reaches layer 3 on call 3, which detects
/// the flip and re-lowers the layer. Unchecked, an image for which the
/// two features differ comes out wrong: the flip is not harmless.
#[test]
fn an_abft_blind_flip_is_the_scrubs_to_catch() {
    let model = tiny_model();
    let net = &model.network;
    let fc4 = net
        .conv_fc_layers()
        .position(|l| l.layer.name == "FC4")
        .unwrap();
    assert_eq!((fc4, model.layers.len()), (3, 4));

    // FC4's input features for an image: the network cut after RELU3.
    let relu3 = net.layers().iter().position(|l| l.name == "RELU3").unwrap();
    let mut cut = Network::new("TinyNet to RELU3", net.input_shape());
    for layer in &net.layers()[..=relu3] {
        cut.push(layer.clone());
    }
    let cut = SparseModel {
        network: cut,
        layers: model.layers[..fc4].to_vec(),
    };
    let features = |image: &Tensor3<i16>| Inferencer::new(&cut).run(image).unwrap().logits;

    let unchecked = Inferencer::new(&model);
    let clean = unchecked.prepare().unwrap();
    let shape = net.input_shape();
    let (blind, seen) = (synth_image(shape, 0), synth_image(shape, 1));
    let (x, y) = (features(&blind), features(&seen));
    assert_eq!(x.len(), 64);
    let golden = unchecked.run_prepared(&clean, &blind).unwrap();

    // The first tap of an FC4 kernel whose feature `i` equals another
    // feature `j` for the blind image (two ReLU zeros will do) but not
    // for the seen one.
    let mut upset = clean.clone();
    let kernels = upset.abm_layer_mut(fc4).unwrap().flat_mut().kernels_mut();
    kernels
        .iter_mut()
        .flat_map(|k| k.streams_mut().2.iter_mut())
        .find_map(|offset| {
            let i = *offset as usize;
            let j = (0..x.len()).find(|&j| x[j] == x[i] && y[j] != y[i])?;
            *offset = j as u32;
            Some(())
        })
        .expect("an FC4 tap whose feature has a twin for one image only");

    let sink = TelemetrySink::new();
    let hardened = Inferencer::new(&model)
        .resilience(ResiliencePolicy::hardened())
        .telemetry(sink.clone());
    let faults = || -> Vec<(u32, FaultAction, String)> {
        let events = sink.events().into_iter();
        events
            .filter_map(|e| match e {
                Event::Fault {
                    layer,
                    action,
                    class,
                    ..
                } => Some((layer, action, class)),
                _ => None,
            })
            .collect()
    };
    for call in 0..3 {
        let got = hardened.run_prepared(&upset, &blind).unwrap();
        assert_eq!(got.logits, golden.logits, "call {call}");
        assert_eq!(faults(), [], "call {call} scrubs a clean layer");
    }
    let got = hardened.run_prepared(&upset, &blind).unwrap();
    assert_eq!(got.logits, golden.logits);
    let detected = (fc4 as u32, FaultAction::Detected, "scrub".to_string());
    let recovered = (fc4 as u32, FaultAction::Recovered, "re-lower".to_string());
    assert_eq!(faults(), [detected, recovered]);

    let want = unchecked.run_prepared(&clean, &seen).unwrap();
    let got = unchecked.run_prepared(&upset, &seen).unwrap();
    assert_ne!(got.logits, want.logits);
}

/// The injector's one inference hook compiles away: a hardened run
/// under `NullInjector` is the default inferencer, and one under an
/// enabled injector with an empty plan polls the hook and delivers
/// nothing — the same logits, and no fault event.
#[test]
fn null_injector_inference_is_bit_identical() {
    let model = tiny_model();
    let sink = TelemetrySink::new();
    let hardened = Inferencer::new(&model)
        .resilience(ResiliencePolicy::hardened())
        .telemetry(sink.clone());
    let prepared = hardened.prepare().unwrap();
    let input = synth_image(model.network.input_shape(), 0);
    let plain = hardened.run_prepared(&prepared, &input).unwrap();
    let null = hardened.clone().injector(NullInjector);
    let idle = hardened
        .clone()
        .injector(PlanInjector::new(FaultPlan::default()));
    assert_eq!(null.run_prepared(&prepared, &input).unwrap(), plain);
    assert_eq!(idle.run_prepared(&prepared, &input).unwrap(), plain);
    let faults = sink
        .events()
        .iter()
        .filter(|e| matches!(e, Event::Fault { .. }))
        .count();
    assert_eq!(faults, 0);
}

/// Zero-overhead guarantee of the fault guards at the integration
/// level: the workload core under the disabled injector, and under an
/// enabled injector that walks every guard but delivers nothing,
/// returns the plain simulation on every layer.
#[test]
fn null_injector_guarded_sim_is_bit_identical() {
    let model = tiny_model();
    let cfg = AcceleratorConfig::paper();
    let guarded = || SimContext {
        parallelism: Parallelism::Serial,
        ..SimContext::default()
    };
    for (i, layer) in model.layers.iter().enumerate() {
        let w = Workload::from_layer(layer).unwrap();
        let plain = SimContext::default()
            .simulate_workload(&w, &cfg, 0, 0)
            .unwrap();
        let null = guarded()
            .injector(&mut NullInjector)
            .simulate_workload(&w, &cfg, i as u32, 0)
            .unwrap();
        let idle = guarded()
            .injector(&mut PlanInjector::new(FaultPlan::default()))
            .simulate_workload(&w, &cfg, i as u32, 0)
            .unwrap();
        assert_eq!(null, plain, "layer {i}");
        assert_eq!(idle, plain, "layer {i}");
    }
}

/// One corrupted image in a batch fails alone: the other items complete
/// and match a clean serial run exactly.
#[test]
fn corrupted_batch_item_is_salvaged_per_item() {
    let model = tiny_model();
    let shape = model.network.input_shape();
    let wrong = Shape3::new(shape.channels + 1, shape.rows, shape.cols);
    let inputs = vec![
        synth_image(shape, 0),
        synth_image(wrong, 1), // corrupted: wrong channel count
        synth_image(shape, 2),
    ];
    let inferencer = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Threads(2));
    let prepared = inferencer.prepare().unwrap();
    let results = inferencer.run_batch_salvage(&prepared, &inputs, None);
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert!(
        matches!(results[1], Err(AbmError::ShapeMismatch { .. })),
        "bad item must fail alone, got {:?}",
        results[1]
    );
    assert!(results[2].is_ok());

    // Salvaged items match a clean run bit-identically.
    let clean = inferencer
        .run_batch(&[inputs[0].clone(), inputs[2].clone()])
        .unwrap();
    assert_eq!(results[0].as_ref().unwrap().logits, clean[0].logits);
    assert_eq!(results[2].as_ref().unwrap().logits, clean[1].logits);

    // The fail-fast path reports the same corruption as a hard error.
    assert!(matches!(
        inferencer.run_batch(&inputs),
        Err(AbmError::ShapeMismatch { .. })
    ));
}

/// Regression: an input plane too large for 32-bit flat offsets is a
/// typed error, not a panic (the overflow used to be unchecked).
#[test]
fn flat_offset_overflow_is_a_typed_error() {
    let weights = Tensor4::from_fn(Shape4::new(1, 2, 1, 1), |_, _, _, _| 1i8);
    let code = LayerCode::encode(&weights).unwrap();
    // plane = 2^16 * 2^16 = 2^32, so channel n = 1 lands past u32::MAX.
    let layout = FlatLayout {
        in_rows: 1 << 16,
        in_cols: 1 << 16,
        stride: 1,
        pad: 0,
    };
    match FlatCode::lower(&code, layout) {
        Err(EncodeError::OffsetOverflow { offset }) => {
            assert!(offset > u32::MAX as usize);
        }
        other => panic!("expected OffsetOverflow, got {other:?}"),
    }
    // And the conversion into the unified error type is lossless.
    let e = AbmError::from(FlatCode::lower(&code, layout).unwrap_err());
    assert!(e.to_string().contains("offset"), "unhelpful error: {e}");
}

/// The telemetry fault track records the whole injected → detected →
/// recovered lifecycle for a campaign.
#[test]
fn campaign_telemetry_records_fault_lifecycle() {
    let sink = TelemetrySink::new();
    let report = run_campaign(&CampaignConfig::net("tiny"), &sink).unwrap();
    assert!(report.is_clean(), "\n{}", report.summary_table());
    let events = sink.events();
    let count = |action: FaultAction| {
        events
            .iter()
            .filter(|e| matches!(e, Event::Fault { action: a, .. } if *a == action))
            .count()
    };
    // Eight classes plus the two pipelined dataflow trials.
    assert_eq!(count(FaultAction::Injected), FaultClass::ALL.len() + 2);
    // Every detected trial also recorded a recovery.
    assert_eq!(count(FaultAction::Detected), count(FaultAction::Recovered));
    assert_eq!(
        count(FaultAction::Detected),
        report.count(FaultOutcome::DetectedRecovered)
    );
}

/// What one executor call returned, and the fault events it recorded,
/// as `(layer, action)`.
type Call = (
    Vec<Result<InferenceResult, AbmError>>,
    Vec<(usize, FaultAction)>,
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One random bit of one stream — values, group bounds or offsets —
    /// of a random kernel with taps, in each `tiny` layer in turn, run
    /// as a lone image and as a batch of three at width two. No panic
    /// escapes either executor. Unchecked, every image completes or is
    /// the sweep guard's typed `CodeCorrupt`. Hardened, every image
    /// completes; a call that records a fault returns the golden
    /// logits for every image; and within as many calls on the handle
    /// as the model has accelerated layers the upset is detected in its
    /// own layer — the scrub re-hashes each layer once in that round.
    #[test]
    fn a_stream_flip_never_panics_and_is_caught_within_a_round_of_scrubs(seed in any::<u64>()) {
        let model = tiny_model();
        let shape = model.network.input_shape();
        let images: Vec<_> = (0..3).map(|salt| synth_image(shape, salt)).collect();
        let unchecked = Inferencer::new(&model).parallelism(Parallelism::Threads(2));
        let clean = unchecked.prepare().unwrap();
        let golden: Vec<Vec<f32>> = unchecked
            .run_batch_prepared(&clean, &images)
            .unwrap()
            .into_iter()
            .map(|r| r.logits)
            .collect();
        let sink = TelemetrySink::new();
        let hardened = unchecked
            .clone()
            .resilience(ResiliencePolicy::hardened())
            .telemetry(sink.clone());
        let layers = model.layers.len();
        let mut rng = SplitMix64::new(seed);
        for layer in 0..layers {
            let mut upset = clean.clone();
            let kernels = upset.abm_layer_mut(layer).unwrap().flat_mut().kernels_mut();
            let taps: Vec<usize> = (0..kernels.len()).filter(|&k| kernels[k].total() > 0).collect();
            let kernel = taps[rng.below(taps.len() as u64) as usize];
            let (values, bounds, offsets) = kernels[kernel].streams_mut();
            let stream = rng.below(3);
            let at = match stream {
                0 => flip(values, 8, &mut rng, |w, bit| *w ^= 1 << bit),
                1 => flip(bounds, 32, &mut rng, |w, bit| *w ^= 1 << bit),
                _ => flip(offsets, 32, &mut rng, |w, bit| *w ^= 1 << bit),
            };
            let what = format!("layer {layer} kernel {kernel} stream {stream} {at}");
            for batch in [&images[..1], &images[..]] {
                let call = |inferencer: &Inferencer, handle| -> Call {
                    let results = match batch.len() {
                        1 => vec![inferencer.run_prepared(handle, &batch[0])],
                        _ => inferencer.run_batch_salvage(handle, batch, None),
                    };
                    let faults = sink.drain().into_iter().filter_map(|e| match e {
                        Event::Fault { layer, action, .. } => Some((layer as usize, action)),
                        _ => None,
                    });
                    (results, faults.collect())
                };
                let at = format!("{what}, {} image(s)", batch.len());
                let (results, _) = call(&unchecked, &upset);
                for result in results {
                    if let Err(e) = result {
                        prop_assert!(
                            matches!(e.root_cause(), AbmError::CodeCorrupt { .. }),
                            "{}: {}", at, e
                        );
                    }
                }
                // A fresh handle, so its round of scrubs starts here.
                let handle = upset.clone();
                let mut detected = false;
                for _ in 0..layers {
                    let (results, faults) = call(&hardened, &handle);
                    for (result, want) in results.iter().zip(&golden) {
                        prop_assert!(result.is_ok(), "{}: {:?}", at, result);
                        if let (Ok(got), false) = (result, faults.is_empty()) {
                            prop_assert_eq!(&got.logits, want, "{}: {:?}", at, faults);
                        }
                    }
                    for &(seen, _) in &faults {
                        prop_assert_eq!(seen, layer, "{}", at);
                    }
                    detected |= faults.iter().any(|&(_, a)| a == FaultAction::Detected);
                }
                prop_assert!(detected, "{}: not detected in {} calls", at, layers);
            }
        }
    }
}

/// Flips one drawn bit of one drawn word of `words`, which hold `bits`
/// bits each, and says where.
fn flip<W>(words: &mut [W], bits: u64, rng: &mut SplitMix64, at: fn(&mut W, u32)) -> String {
    let i = rng.below(words.len() as u64) as usize;
    let bit = rng.below(bits) as u32;
    at(&mut words[i], bit);
    format!("word {i} bit {bit}")
}
