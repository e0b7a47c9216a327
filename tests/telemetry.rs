//! Telemetry must be an observer, never a participant: collecting it
//! cannot change a single simulated cycle or inference bit.
//!
//! The structural guarantee is that there is one simulation core,
//! generic over the `SimContext`'s collector, and the uninstrumented run
//! is its `NullCollector` monomorphization — there is no second code
//! path to drift. These tests close the loop empirically:
//! the `RecordingCollector` run must reproduce the uninstrumented run
//! exactly, across scheduling policies, host parallelism and synthesis
//! randomness, and the golden pins must hold with collection on.

use abm_spconv_repro::conv::{Engine, Inferencer, Parallelism};
use abm_spconv_repro::dse::{estimate_network, SimReport};
use abm_spconv_repro::model::{synthesize_model, zoo, LayerProfile, PruneProfile, SparseModel};
use abm_spconv_repro::sim::{AcceleratorConfig, NetworkSim, SchedulingPolicy, SimContext};
use abm_spconv_repro::telemetry::{ChromeTrace, Event, RecordingCollector, TelemetrySink};
use abm_spconv_repro::tensor::Tensor3;
use proptest::prelude::*;

/// One network simulation under `policy` / `parallelism`, recorded.
fn collected(
    model: &SparseModel,
    cfg: &AcceleratorConfig,
    policy: SchedulingPolicy,
    parallelism: Parallelism,
) -> (NetworkSim, RecordingCollector) {
    let mut rec = RecordingCollector::new();
    let ctx = SimContext {
        policy,
        parallelism,
        ..SimContext::default()
    };
    let sim = ctx
        .collector(&mut rec)
        .simulate_network(model, cfg)
        .unwrap();
    (sim, rec)
}

fn tiny_model(density: f64, levels: usize, seed: u64) -> SparseModel {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(density, levels));
    synthesize_model(&net, &profile, seed)
}

proptest! {
    /// Recording telemetry reproduces the uninstrumented simulation
    /// bit-for-bit — every field of every `LayerSim` — whatever the
    /// scheduling policy, host parallelism or synthesized weights.
    #[test]
    fn recording_collector_never_perturbs_simulation(
        density in 0.2f64..0.9,
        levels in 4usize..32,
        seed in 0u64..1_000,
        lock_step in any::<bool>(),
        threads in 1usize..5,
    ) {
        let model = tiny_model(density, levels, seed);
        let cfg = AcceleratorConfig::paper();
        let policy = if lock_step {
            SchedulingPolicy::LockStep
        } else {
            SchedulingPolicy::SemiSynchronous
        };
        let parallelism = if threads == 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        };
        let plain = SimContext {
            policy,
            parallelism,
            ..SimContext::default()
        }
        .simulate_network(&model, &cfg)
        .unwrap();
        let (collected, rec) = collected(&model, &cfg, policy, parallelism);
        prop_assert_eq!(&plain, &collected);
        // And the collector actually observed the run: CU task spans
        // exist for every layer and respect the cumulative timeline.
        let mut layers_seen = 0u32;
        for e in rec.events() {
            if let Event::LayerBegin { layer, .. } = e {
                prop_assert_eq!(*layer, layers_seen);
                layers_seen += 1;
            }
        }
        prop_assert_eq!(layers_seen as usize, collected.layers().len());
    }

    /// Attaching a host-span sink to the inferencer never changes
    /// inference results, and the spans cover every accelerated layer
    /// of every image in the batch: one a convolution and image, and —
    /// a batch of two or more running its fully-connected tail once,
    /// its images the lanes of the sweep — one a tail layer and batch.
    #[test]
    fn host_spans_never_perturb_inference(
        seed in 0u64..500,
        threads in 1usize..5,
        batch in 1usize..4,
    ) {
        let model = tiny_model(0.6, 12, seed);
        let inputs: Vec<Tensor3<i16>> = (0..batch)
            .map(|i| {
                Tensor3::from_fn(model.network.input_shape(), |c, r, col| {
                    ((((c + i) * 131 + r * 29 + col * 17) % 255) as i16) - 127
                })
            })
            .collect();
        let parallelism = if threads == 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        };
        let plain = Inferencer::new(&model)
            .engine(Engine::Abm)
            .parallelism(parallelism)
            .run_batch(&inputs)
            .unwrap();
        let sink = TelemetrySink::new();
        let instrumented = Inferencer::new(&model)
            .engine(Engine::Abm)
            .parallelism(parallelism)
            .telemetry(sink.clone())
            .run_batch(&inputs)
            .unwrap();
        prop_assert_eq!(&plain, &instrumented);
        let events = sink.events();
        let accel_layers = model.network.conv_fc_layers().count();
        // tiny ends FC3 RELU3 FC4 SOFTMAX.
        let tail_layers = 2;
        let spans = events
            .iter()
            .filter(|e| matches!(e, Event::HostSpan { .. }))
            .count();
        let tail_runs = if batch > 1 { 1 } else { batch };
        prop_assert_eq!(
            spans,
            (accel_layers - tail_layers) * batch + tail_layers * tail_runs
        );
        let claimed_total: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::WorkerClaims { tasks, .. } => Some(*tasks),
                _ => None,
            })
            .sum();
        prop_assert_eq!(claimed_total as usize, batch);
    }
}

/// The golden AlexNet pins (see `tests/regression.rs`) hold with a
/// recording collector attached: telemetry on or off, the simulated
/// numbers are the same numbers.
#[test]
fn golden_pins_hold_with_collection_on() {
    let model = synthesize_model(
        &zoo::alexnet(),
        &PruneProfile::alexnet_deep_compression(),
        2019,
    );
    let cfg = AcceleratorConfig::paper_alexnet();
    let (sim, rec) = collected(
        &model,
        &cfg,
        SchedulingPolicy::SemiSynchronous,
        Parallelism::Auto,
    );
    let gops = sim.gops();
    let rel = (gops - 707.78).abs() / 707.78;
    assert!(
        rel < 2e-3,
        "AlexNet GOP/s drifted with telemetry on: {gops}"
    );
    let ms = sim.total_seconds() * 1e3;
    let rel = (ms - 2.047).abs() / 2.047;
    assert!(
        rel < 2e-3,
        "AlexNet ms/image drifted with telemetry on: {ms}"
    );

    // The exporters round-trip what was recorded.
    let profile = PruneProfile::alexnet_deep_compression();
    let est = estimate_network(&zoo::alexnet(), &profile, &cfg);
    let report = SimReport {
        network: "AlexNet",
        freq_mhz: sim.freq_mhz(),
        layers: sim.layers(),
        est: &est,
        recording: &rec,
    };
    let doc = abm_spconv_repro::telemetry::json::parse(&report.to_json()).unwrap();
    let layers = doc.get("layers").and_then(|l| l.as_arr()).unwrap();
    assert_eq!(layers.len(), sim.layers().len());
    let trace = ChromeTrace::from_events(rec.events());
    assert!(!trace.spans().is_empty());
    abm_spconv_repro::telemetry::json::validate(&trace.to_json()).unwrap();
}

/// Same workload, collector on vs off, across both scheduling engines:
/// the full `NetworkSim` structures (not just headline numbers) are
/// equal, and repeated collected runs are deterministic event-for-event.
#[test]
fn collected_runs_are_deterministic() {
    let model = tiny_model(0.5, 16, 77);
    let cfg = AcceleratorConfig::paper();
    for policy in [
        SchedulingPolicy::SemiSynchronous,
        SchedulingPolicy::LockStep,
    ] {
        let (a, rec_a) = collected(&model, &cfg, policy, Parallelism::Serial);
        let (b, rec_b) = collected(&model, &cfg, policy, Parallelism::Auto);
        assert_eq!(a, b, "{policy:?}");
        assert_eq!(rec_a.events(), rec_b.events(), "{policy:?} event streams");
    }
}
