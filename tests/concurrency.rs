//! Determinism under parallel execution — the invariant of the
//! claim-counter host pool (`abm-pool`).
//!
//! The paper's accelerator is deterministic by construction: the
//! semi-synchronous scheduler changes *when* a CU runs a task, never
//! *what* the task computes, and accumulation order inside a kernel
//! lane is fixed by the encoded value-run structure. The host pool must
//! preserve exactly that property: any `Parallelism` setting must give
//! results bit-identical to `Serial`, for every engine and every
//! scheduling policy.

use abm_conv::{Engine, InferenceResult, Inferencer, Parallelism, ResiliencePolicy};
use abm_fault::{AbmError, FaultPlan, Injector, PlanInjector};
use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile, SparseModel};
use abm_sim::task::Workload;
use abm_sim::{
    plan_pipeline, simulate_network, simulate_pipeline, AcceleratorConfig, NetworkSim,
    PipelineOptions, PipelineSim, PipelinedSchedule, SchedulingPolicy, SimContext,
};
use abm_telemetry::{Collector, Event, RecordingCollector, TelemetrySink};
use abm_tensor::Tensor3;
use proptest::prelude::*;

fn model(seed: u64) -> SparseModel {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
    synthesize_model(&net, &profile, seed)
}

fn batch(model: &SparseModel, images: usize) -> Vec<Tensor3<i16>> {
    (0..images)
        .map(|i| {
            Tensor3::from_fn(model.network.input_shape(), |c, r, col| {
                ((((c + i) * 131 + r * 29 + col * 17) % 255) as i16) - 127
            })
        })
        .collect()
}

const POOLS: [Parallelism; 3] = [
    Parallelism::Threads(2),
    Parallelism::Threads(16),
    Parallelism::Auto,
];

/// Parallel `run_batch` must be bit-identical to serial for both
/// engines, across synthesis seeds (different weight streams)
/// and pool sizes (different interleavings).
#[test]
fn parallel_batch_is_bit_identical_for_every_engine() {
    for seed in [7, 2019, 777_216] {
        let model = model(seed);
        let inputs = batch(&model, 6);
        for engine in [Engine::Dense, Engine::Abm] {
            let serial = Inferencer::new(&model)
                .engine(engine)
                .parallelism(Parallelism::Serial)
                .run_batch(&inputs)
                .unwrap();
            for pool in POOLS {
                let parallel = Inferencer::new(&model)
                    .engine(engine)
                    .parallelism(pool)
                    .run_batch(&inputs)
                    .unwrap();
                assert_eq!(
                    serial, parallel,
                    "seed {seed}, engine {engine:?}, pool {pool} drifted from serial"
                );
            }
        }
    }
}

/// Workers share one `PreparedWeights`; repeated batches through the
/// same preparation must not accumulate or leak any state.
#[test]
fn shared_prepared_weights_are_reusable_and_stateless() {
    let model = model(42);
    let inputs = batch(&model, 5);
    let inf = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Auto);
    let prepared = inf.prepare().unwrap();
    let first = inf.run_batch_prepared(&prepared, &inputs).unwrap();
    let second = inf.run_batch_prepared(&prepared, &inputs).unwrap();
    assert_eq!(first, second);
    // And the prepared path equals the self-preparing path.
    assert_eq!(first, inf.run_batch(&inputs).unwrap());
}

/// The simulated cycle counts are pure functions of the model and
/// configuration: fanning the simulation across host threads must not
/// change a single cycle, under either scheduling policy and on both
/// fan-out axes (across layers when layers >= workers, within-layer
/// when workers > layers).
#[test]
fn simulated_cycles_identical_serial_vs_parallel() {
    let model = model(2019);
    let cfg = AcceleratorConfig::paper();
    let simulate = |policy, parallelism| {
        SimContext {
            policy,
            parallelism,
            ..SimContext::default()
        }
        .simulate_network(&model, &cfg)
        .unwrap()
    };
    for policy in [
        SchedulingPolicy::SemiSynchronous,
        SchedulingPolicy::LockStep,
    ] {
        let serial = simulate(policy, Parallelism::Serial);
        for pool in POOLS {
            let parallel = simulate(policy, pool);
            assert_eq!(
                serial, parallel,
                "{policy:?} with pool {pool} changed simulated cycles"
            );
        }
    }
}

/// A batch with wildly uneven per-image cost (claim order varies run
/// to run) still reassembles in input order with stable results.
#[test]
fn uneven_batches_stay_ordered() {
    let model = model(3);
    // Same image repeated except one different outlier in the middle:
    // result equality would catch any index mix-up.
    let mut inputs = batch(&model, 7);
    inputs[3] = Tensor3::from_fn(model.network.input_shape(), |c, r, col| {
        (((c * 7 + r * 3 + col) % 200) as i16) - 100
    });
    let inf = Inferencer::new(&model).engine(Engine::Abm);
    let serial = inf
        .clone()
        .parallelism(Parallelism::Serial)
        .run_batch(&inputs)
        .unwrap();
    let parallel = inf
        .parallelism(Parallelism::Threads(4))
        .run_batch(&inputs)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_ne!(serial[3], serial[2], "outlier image must differ");
}

fn alexnet() -> SparseModel {
    synthesize_model(
        &zoo::alexnet(),
        &PruneProfile::alexnet_deep_compression(),
        2019,
    )
}

const WIDTHS: [Parallelism; 4] = [
    Parallelism::Threads(2),
    Parallelism::Threads(3),
    Parallelism::Threads(4),
    Parallelism::Auto,
];

/// A lone image — `run_prepared`, or a batch of one — splits each large
/// layer's kernels and checksum across the pool; a batch of
/// two or three keeps its images parallel and its layers whole. Either
/// way every width gives the serial bits — logits, traces, work
/// counters, saturation, every field — plain and hardened, on tiny
/// (whose layers are too small to split) and on AlexNet (whose layers
/// all split).
#[test]
fn every_width_gives_the_serial_bits_for_lone_images_and_small_batches() {
    for model in [model(2019), alexnet()] {
        let inputs = batch(&model, 3);
        for policy in [ResiliencePolicy::default(), ResiliencePolicy::hardened()] {
            let serial = Inferencer::new(&model)
                .parallelism(Parallelism::Serial)
                .resilience(policy);
            let prepared = serial.prepare().unwrap();
            let singles: Vec<InferenceResult> = inputs
                .iter()
                .map(|input| serial.run_prepared(&prepared, input).unwrap())
                .collect();
            for width in WIDTHS {
                let wide = serial.clone().parallelism(width);
                let name = model.network.name();
                for (input, want) in inputs.iter().zip(&singles) {
                    let got = wide.run_prepared(&prepared, input).unwrap();
                    assert_eq!(&got, want, "{name} {policy:?} {width}");
                }
                for n in 1..=inputs.len() {
                    let got = wide.run_batch_prepared(&prepared, &inputs[..n]).unwrap();
                    assert_eq!(got, singles[..n], "{name} {policy:?} {width} batch {n}");
                }
            }
        }
    }
}

/// The fault events a sink recorded, with their wall-clock stamps zeroed.
fn faults(sink: &TelemetrySink) -> Vec<Event> {
    let mut events = sink.drain();
    events.retain_mut(|event| match event {
        Event::Fault { at, .. } => {
            *at = 0;
            true
        }
        _ => false,
    });
    events
}

/// A flipped offset word in a chosen kernel of a split layer — a
/// convolution's, the first fully-connected layer's — fails the split
/// checksum with the error the serial check gives, at every width: the
/// same layer, the same stored and computed digests. Under the hardened
/// policy every width recovers the golden result through the same
/// recorded fault events.
#[test]
fn a_corrupted_kernel_fails_the_same_way_at_every_width() {
    let model = alexnet();
    let input = &batch(&model, 1)[0];
    let strict = Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .resilience(ResiliencePolicy::detect_only());
    let clean = strict.prepare().unwrap();
    let golden = strict.run_prepared(&clean, input).unwrap();
    for (layer, kernel) in [(1, 200), (5, 3000)] {
        let mut upset = clean.clone();
        let flat = upset.abm_layer_mut(layer).unwrap().flat_mut();
        let (_, _, offsets) = flat.kernels_mut()[kernel].streams_mut();
        offsets[0] ^= 1 << 4;
        let serial = strict.run_prepared(&upset, input).unwrap_err();
        assert!(
            matches!(&serial, AbmError::Layer { layer: l, .. } if *l == layer)
                && matches!(serial.root_cause(), AbmError::ChecksumMismatch { .. }),
            "{serial}"
        );
        let sink = TelemetrySink::new();
        let hardened = Inferencer::new(&model)
            .parallelism(Parallelism::Serial)
            .resilience(ResiliencePolicy::hardened())
            .telemetry(sink.clone());
        assert_eq!(hardened.run_prepared(&upset, input).unwrap(), golden);
        let recorded = faults(&sink);
        assert!(!recorded.is_empty());
        for width in WIDTHS {
            let wide = strict.clone().parallelism(width);
            assert_eq!(
                wide.run_prepared(&upset, input).unwrap_err(),
                serial,
                "{width}"
            );
            let wide = hardened.clone().parallelism(width);
            assert_eq!(wide.run_prepared(&upset, input).unwrap(), golden, "{width}");
            assert_eq!(faults(&sink), recorded, "{width}");
        }
    }
}

/// Both multi-layer cores under one context.
fn network_and_pipeline<C: Collector, I: Injector>(
    mut ctx: SimContext<C, I>,
    (model, cfg, workloads, schedule): (
        &SparseModel,
        &AcceleratorConfig,
        &[Workload],
        &PipelinedSchedule,
    ),
) -> (NetworkSim, PipelineSim) {
    (
        ctx.simulate_network(model, cfg).unwrap(),
        ctx.simulate_pipeline(workloads, cfg, schedule, 2).unwrap(),
    )
}

/// Every context field is an observer, never a participant: over
/// policy × host parallelism × collector {null, recording} × injector
/// {null, enabled with nothing to deliver}, the network and pipeline
/// cores return what the paper-default front doors return (per
/// policy), and every recording run sees the same event stream.
/// Includes what no entry point could express before the context: a
/// collector and an injector together, an injector at network level.
fn context_fields_never_change_a_result(
    model: &SparseModel,
    cfg: &AcceleratorConfig,
    policies: &[SchedulingPolicy],
) {
    let workloads: Vec<Workload> = model
        .layers
        .iter()
        .map(|l| Workload::from_layer(l).unwrap())
        .collect();
    let schedule = plan_pipeline(&workloads, cfg, &PipelineOptions::for_config(cfg), 2).unwrap();
    let front_pipe = simulate_pipeline(&workloads, cfg, &schedule, 2);
    for &policy in policies {
        let front_net = match policy {
            SchedulingPolicy::SemiSynchronous => simulate_network(model, cfg),
            SchedulingPolicy::LockStep => SimContext {
                policy,
                ..SimContext::default()
            }
            .simulate_network(model, cfg)
            .unwrap(),
        };
        let mut first_events = None;
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Auto,
        ] {
            for (record, inject) in [(false, false), (true, false), (false, true), (true, true)] {
                let ctx = SimContext {
                    policy,
                    parallelism,
                    ..SimContext::default()
                };
                let mut rec = RecordingCollector::new();
                let mut idle = PlanInjector::new(FaultPlan::default());
                let subject = (model, cfg, &workloads[..], &schedule);
                let (net, pipe) = match (record, inject) {
                    (false, false) => network_and_pipeline(ctx, subject),
                    (true, false) => network_and_pipeline(ctx.collector(&mut rec), subject),
                    (false, true) => network_and_pipeline(ctx.injector(&mut idle), subject),
                    (true, true) => {
                        network_and_pipeline(ctx.collector(&mut rec).injector(&mut idle), subject)
                    }
                };
                let combo =
                    format!("{policy:?} / {parallelism} / record {record} / inject {inject}");
                assert_eq!(net, front_net, "{combo}");
                assert_eq!(pipe, front_pipe, "{combo}");
                assert!(idle.delivered().is_empty(), "{combo}");
                if record {
                    let events = rec.into_events();
                    assert!(!events.is_empty(), "{combo}");
                    let first = first_events.get_or_insert_with(|| events.clone());
                    assert_eq!(&events, first, "{combo}: event stream drifted");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn context_is_an_observer_on_tiny(
        density in 0.2f64..0.9,
        levels in 4usize..32,
        seed in 0u64..1_000,
    ) {
        let profile = PruneProfile::uniform(LayerProfile::new(density, levels));
        let model = synthesize_model(&zoo::tiny(), &profile, seed);
        context_fields_never_change_a_result(
            &model,
            &AcceleratorConfig::paper(),
            &[SchedulingPolicy::SemiSynchronous, SchedulingPolicy::LockStep],
        );
    }
}

#[test]
fn context_is_an_observer_on_alexnet() {
    let model = synthesize_model(
        &zoo::alexnet(),
        &PruneProfile::alexnet_deep_compression(),
        2019,
    );
    context_fields_never_change_a_result(
        &model,
        &AcceleratorConfig::paper_alexnet(),
        &[SchedulingPolicy::SemiSynchronous],
    );
}
