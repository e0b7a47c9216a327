//! Layer-pipelined batches, on both rails.
//!
//! * **host** — [`Inferencer::run_batch_pipelined`] is the batch
//!   executor under its pipelined name: whole [`InferenceResult`]s
//!   (logits, probabilities, per-layer traces, work counters) equal the
//!   batch executor's and each image's own single run for every stage
//!   count, 0 included, and errors surface identically;
//! * **simulator** — a planned [`PipelinedSchedule`] must conserve the
//!   sequential run's lane work exactly, stream every image to a
//!   monotone finish, and verify clean under `abm-verify`'s pipeline
//!   pass.
//!
//! The host proptest sweeps strides, padding, grouped convolutions,
//! sparsity, batch sizes and stage counts: a batch runs its
//! fully-connected tail with its images as vector lanes, and every
//! geometry must come out of that tail as it comes out of a lone image.

use abm_spconv_repro::conv::{Engine, Inferencer};
use abm_spconv_repro::model::{
    synthesize_model, zoo, ConvSpec, FcSpec, Layer, LayerKind, LayerProfile, Network, PruneProfile,
};
use abm_spconv_repro::sim::task::Workload;
use abm_spconv_repro::sim::verify::verify_pipelined_schedule;
use abm_spconv_repro::sim::{
    plan_pipeline, simulate_pipeline, simulate_sequential_batch, AcceleratorConfig, PipelineOptions,
};
use abm_spconv_repro::tensor::{Shape3, Tensor3};
use proptest::prelude::*;

fn image(shape: Shape3, salt: usize) -> Tensor3<i16> {
    Tensor3::from_fn(shape, |c, r, col| {
        ((((c + salt) * 131 + r * 31 + col * 7) % 255) as i16) - 127
    })
}

fn batch(shape: Shape3, n: usize) -> Vec<Tensor3<i16>> {
    (0..n).map(|i| image(shape, i * 17 + 3)).collect()
}

/// A small two-conv network exercising the requested stride, padding
/// and group count, closed by an FC head and a softmax.
fn custom_net(k: usize, stride: usize, pad: usize, groups: usize) -> Network {
    let mut net = Network::new("pipetest", Shape3::new(2 * groups, 8, 8));
    net.push(Layer::new(
        "CONV1",
        LayerKind::Conv(ConvSpec::new(2 * groups, 4 * groups, k, stride, pad).with_groups(groups)),
    ));
    net.push(Layer::new("RELU1", LayerKind::Relu));
    net.push(Layer::new(
        "CONV2",
        LayerKind::Conv(ConvSpec::new(4 * groups, 6, k, 1, pad.min(k - 1))),
    ));
    net.push(Layer::new("RELU2", LayerKind::Relu));
    let flat = net.output_shape().len();
    net.push(Layer::new(
        "FC3",
        LayerKind::FullyConnected(FcSpec::new(flat, 10)),
    ));
    net.push(Layer::new("SOFTMAX", LayerKind::Softmax));
    net
}

// ---------------------------------------------------------------------
// Host: the pipelined name is the batch executor
// ---------------------------------------------------------------------

#[test]
fn pipelined_matches_sequential_for_every_stage_count_on_tiny() {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
    let model = synthesize_model(&net, &profile, 21);
    let inf = Inferencer::new(&model).engine(Engine::Abm);
    let prepared = inf.prepare().unwrap();
    let inputs = batch(net.input_shape(), 3);
    let sequential = inf.run_batch_prepared(&prepared, &inputs).unwrap();
    // The stage count is ignored, so 0 and one past tiny's four
    // accelerated layers are as safe as the rest.
    for n_stages in [0usize, 1, 2, 3, 4, 50] {
        let pipelined = inf
            .run_batch_pipelined(&prepared, &inputs, n_stages)
            .unwrap();
        assert_eq!(sequential, pipelined, "n_stages = {n_stages}");
    }
}

#[test]
fn pipelined_surfaces_the_same_error_as_sequential() {
    // Weights prepared for the dense engine have no ABM forms, so an
    // ABM inferencer must fail with NotPrepared at layer 0 — the first
    // failing item's error, in input order, under either name.
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
    let model = synthesize_model(&net, &profile, 21);
    let prepared = Inferencer::new(&model)
        .engine(Engine::Dense)
        .prepare()
        .unwrap();
    let abm = Inferencer::new(&model).engine(Engine::Abm);
    let inputs = batch(net.input_shape(), 3);
    let sequential = abm.run_batch_prepared(&prepared, &inputs).unwrap_err();
    let pipelined = abm.run_batch_pipelined(&prepared, &inputs, 2).unwrap_err();
    assert_eq!(sequential.to_string(), pipelined.to_string());
}

#[test]
fn pipelined_rejects_bad_shapes_before_any_stage_runs() {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
    let model = synthesize_model(&net, &profile, 21);
    let inf = Inferencer::new(&model).engine(Engine::Abm);
    let prepared = inf.prepare().unwrap();
    let bad = vec![image(Shape3::new(1, 4, 4), 0)];
    assert!(inf.run_batch_pipelined(&prepared, &bad, 2).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random geometries (kernel size, stride, padding, groups),
    /// sparsity levels, batch sizes and stage counts, the pipelined
    /// name's results — logits, probabilities, traces, work counters —
    /// equal each image run alone with `run_prepared`.
    #[test]
    fn pipelined_is_bit_identical_across_geometry_and_sparsity(
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        groups in 1usize..3,
        density_pct in 30u32..90,
        seed in 0u64..1000,
        batch_n in 1usize..4,
        n_stages in 0usize..5,
    ) {
        let net = custom_net(k, stride, pad.min(k - 1), groups);
        let profile =
            PruneProfile::uniform(LayerProfile::new(density_pct as f64 / 100.0, 12));
        let model = synthesize_model(&net, &profile, seed);
        let inf = Inferencer::new(&model).engine(Engine::Abm);
        let prepared = inf.prepare().unwrap();
        let inputs = batch(net.input_shape(), batch_n);
        let singles: Vec<_> = inputs
            .iter()
            .map(|input| inf.run_prepared(&prepared, input).unwrap())
            .collect();
        let pipelined = inf.run_batch_pipelined(&prepared, &inputs, n_stages).unwrap();
        prop_assert_eq!(singles, pipelined);
    }

    /// Simulator half: for random sparsity and batch sizes, the planned
    /// pipeline streams deterministically, every stage's timing is
    /// internally consistent (busy time fits its active window, images
    /// finish in stream order, the makespan is the last retirement),
    /// and the schedule verifies clean — FIFO sizing included.
    #[test]
    fn planned_pipeline_is_consistent_and_verifies_clean(
        density_pct in 30u32..90,
        seed in 0u64..1000,
        batch_n in 1usize..5,
    ) {
        let net = zoo::tiny();
        let profile =
            PruneProfile::uniform(LayerProfile::new(density_pct as f64 / 100.0, 12));
        let model = synthesize_model(&net, &profile, seed);
        let workloads: Vec<Workload> = model
            .layers
            .iter()
            .map(|l| Workload::from_layer(l).unwrap())
            .collect();
        let cfg = AcceleratorConfig::paper();
        let schedule =
            plan_pipeline(&workloads, &cfg, &PipelineOptions::for_config(&cfg), batch_n)
                .unwrap();
        let pipe = simulate_pipeline(&workloads, &cfg, &schedule, batch_n);

        // Determinism: the DES has no hidden state.
        prop_assert_eq!(&pipe, &simulate_pipeline(&workloads, &cfg, &schedule, batch_n));

        // Per-stage consistency: a stage's busy cycles fit inside its
        // active window, and the makespan covers every stage.
        for s in &pipe.stages {
            prop_assert!(s.finish >= s.first_start);
            prop_assert!(s.busy_cycles <= s.finish - s.first_start);
            prop_assert!(s.occupancy > 0.0 && s.occupancy <= 1.0);
            prop_assert!(pipe.makespan_cycles >= s.finish);
        }

        // Streaming order: image n never finishes after image n+1, and
        // the batch completes when the last image retires.
        for pair in pipe.image_finish.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
        prop_assert_eq!(pipe.makespan_cycles, *pipe.image_finish.last().unwrap());

        // The sequential baseline over the same cost primitives is
        // well-formed too (the speedup itself is pinned in
        // tests/regression.rs and benchmarked in BENCH_pipeline.json).
        let seq = simulate_sequential_batch(&workloads, &cfg, batch_n);
        prop_assert_eq!(seq.total_cycles, seq.cycles_per_image * batch_n as u64);

        let report = verify_pipelined_schedule(&workloads, &cfg, &schedule, batch_n);
        prop_assert!(report.is_clean(), "{}", report);
    }
}
