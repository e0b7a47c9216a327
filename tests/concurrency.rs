//! Determinism under parallel execution — the invariant of the
//! work-stealing host pool (`abm_conv::parallel`).
//!
//! The paper's accelerator is deterministic by construction: the
//! semi-synchronous scheduler changes *when* a CU runs a task, never
//! *what* the task computes, and accumulation order inside a kernel
//! lane is fixed by the encoded value-run structure. The host pool must
//! preserve exactly that property: any `Parallelism` setting must give
//! results bit-identical to `Serial`, for every engine and every
//! scheduling policy.

use abm_conv::{Engine, Inferencer, Parallelism};
use abm_fault::{FaultPlan, Injector, PlanInjector};
use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile, SparseModel};
use abm_sim::task::Workload;
use abm_sim::{
    plan_pipeline, simulate_network, simulate_pipeline, AcceleratorConfig, NetworkSim,
    PipelineOptions, PipelineSim, PipelinedSchedule, SchedulingPolicy, SimBudget, SimContext,
};
use abm_telemetry::{Collector, RecordingCollector};
use abm_tensor::Tensor3;
use proptest::prelude::*;
use std::time::Duration;

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

/// Parallel `run_batch` must be bit-identical to serial for every
/// integer engine, across synthesis seeds (different weight streams)
/// and pool sizes (different interleavings).
#[test]
fn parallel_batch_is_bit_identical_for_every_engine() {
    for seed in [7, 2019, 777_216] {
        let model = model(seed);
        let inputs = batch(&model, 6);
        for engine in [Engine::Dense, Engine::Sparse, Engine::Abm] {
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

/// A batch with wildly uneven per-image cost (stealing order varies run
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

/// Every context field is an observer or a limit, never a participant:
/// over policy × host parallelism × collector {null, recording} ×
/// injector {null, enabled with nothing to deliver} × budget
/// {unlimited, far-future wall, exact-fit cycles}, the network and
/// pipeline cores return what the paper-default front doors return
/// (per policy), and every recording run sees the same event stream.
/// Includes what no entry point could express before the context: a
/// wall budget *with* a collector, an injector at network level.
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
            for budget in [
                SimBudget::unlimited(),
                SimBudget::wall(Duration::from_secs(3600)),
                SimBudget::cycles(front_net.summary().compute_cycles),
            ] {
                for (record, inject) in [(false, false), (true, false), (false, true), (true, true)]
                {
                    let ctx = SimContext {
                        policy,
                        parallelism,
                        budget,
                        ..SimContext::default()
                    };
                    let mut rec = RecordingCollector::new();
                    let mut idle = PlanInjector::new(FaultPlan::default());
                    let subject = (model, cfg, &workloads[..], &schedule);
                    let (net, pipe) = match (record, inject) {
                        (false, false) => network_and_pipeline(ctx, subject),
                        (true, false) => network_and_pipeline(ctx.collector(&mut rec), subject),
                        (false, true) => network_and_pipeline(ctx.injector(&mut idle), subject),
                        (true, true) => network_and_pipeline(
                            ctx.collector(&mut rec).injector(&mut idle),
                            subject,
                        ),
                    };
                    let combo = format!(
                        "{policy:?} / {parallelism} / {budget:?} / record {record} / inject {inject}"
                    );
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
