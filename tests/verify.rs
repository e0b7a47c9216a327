//! Integration tests for the `abm-verify` static passes.
//!
//! Two directions:
//!
//! * **negative** — a valid lowering is corrupted in targeted ways
//!   (offset off by one, a dropped offset, an inflated output plane) and
//!   the lowering verifier must name the *exact* defect class, not just
//!   fail;
//! * **positive (soundness)** — any lowering the verifier accepts must
//!   execute bit-identically to the reference ABM interpreter, checked
//!   over randomly generated layers with proptest.

use abm_spconv_repro::conv::{abm, Geometry};
use abm_spconv_repro::model::{synthesize_model, zoo, LayerProfile, PruneProfile};
use abm_spconv_repro::sim::task::Workload;
use abm_spconv_repro::sim::verify::{verify_pipelined_schedule, workload_geometry};
use abm_spconv_repro::sparse::{FlatCode, LayerCode};
use abm_spconv_repro::tensor::{Shape3, Shape4, Tensor3, Tensor4};
use abm_spconv_repro::verify::{verify_lowering, AccumulatorModel, ConvGeometry, VerifyReport};
use proptest::prelude::*;

/// A real conv workload from the tiny zoo network — the corruption
/// targets below mutate its first kernel's flat streams.
fn sample_workload() -> Workload {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.5, 8));
    let model = synthesize_model(&net, &profile, 9);
    Workload::from_layer(&model.layers[0]).expect("tiny conv layer encodes")
}

/// The workload's code lowered against its layout — the flat code the
/// functional engine would execute.
fn lower(w: &Workload) -> FlatCode {
    FlatCode::lower(&w.code, w.layout).expect("layer lowers")
}

/// Lowers the workload, passes kernel 0's raw streams through `mutate`,
/// then runs the lowering verifier with an optionally-mutated geometry.
fn verify_mutated(
    w: &Workload,
    mutate_streams: impl FnOnce(&mut Vec<i8>, &mut Vec<u32>, &mut Vec<u32>),
    mutate_geometry: impl FnOnce(&mut ConvGeometry),
) -> VerifyReport {
    let mut corrupt = lower(w);
    let (values, bounds, offsets) = corrupt.kernels_mut()[0].streams_mut();
    mutate_streams(values, bounds, offsets);
    let mut geometry = workload_geometry(w);
    mutate_geometry(&mut geometry);
    verify_lowering(
        &w.name,
        &w.code,
        &corrupt,
        &geometry,
        &AccumulatorModel::host(),
    )
}

#[test]
fn valid_lowering_is_clean() {
    let w = sample_workload();
    let r = verify_mutated(&w, |_, _, _| {}, |_| {});
    assert!(r.is_clean(), "{r}");
    assert!(r.facts > 0);
}

#[test]
fn corrupted_offset_is_caught_as_offset_mismatch() {
    // A single-bit address-generator fault: one precomputed offset
    // points one pixel to the right of its tap.
    let w = sample_workload();
    let r = verify_mutated(&w, |_, _, offsets| offsets[0] += 1, |_| {});
    assert!(r.has_class("offset_mismatch"), "{r}");
    assert!(!r.has_class("group_count_mismatch"), "{r}");
}

#[test]
fn dropped_tap_is_caught_as_group_count_mismatch() {
    // A lost WT-Buffer entry: the last offset of the last value group
    // vanishes, so the group no longer covers its source indices.
    let w = sample_workload();
    let r = verify_mutated(
        &w,
        |_, bounds, offsets| {
            offsets.pop();
            *bounds.last_mut().unwrap() -= 1;
        },
        |_| {},
    );
    assert!(r.has_class("group_count_mismatch"), "{r}");
}

#[test]
fn offset_past_relaid_buffer_is_caught() {
    // The declared output plane claims rows the padded input cannot
    // feed — the flat sweep, which checks nothing per tap, would read
    // past the re-laid-out buffer there.
    let w = sample_workload();
    let r = verify_mutated(&w, |_, _, _| {}, |g| g.out_rows += 3);
    assert!(r.has_class("offset_out_of_bounds"), "{r}");
}

#[test]
fn offset_equal_to_in_features_is_caught_for_the_lane_sweep() {
    // tiny's FC3 sweeps one position, so a batch sweeps it across its
    // lanes: an offset one past the last input feature would read the
    // first element past the lane buffer, whatever its pitch. The clean
    // layer is proven for every kernel.
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.5, 8));
    let model = synthesize_model(&net, &profile, 9);
    let w = Workload::from_layer(&model.layers[2]).expect("tiny FC layer encodes");
    assert!(w.is_fc);
    let clean = verify_mutated(&w, |_, _, _| {}, |_| {});
    assert!(clean.is_clean(), "{clean}");
    assert_eq!(clean.lane_kernels as usize, w.code.kernels().len());
    let features = w.code.shape().in_channels as u32;
    let r = verify_mutated(
        &w,
        |_, _, offsets| *offsets.last_mut().unwrap() = features,
        |_| {},
    );
    assert!(r.has_class("lane_sweep_out_of_bounds"), "{r}");
    assert_eq!(r.lane_kernels as usize, w.code.kernels().len() - 1);
    // A convolution sweeps a plane: there is no lane sweep to prove.
    let conv = verify_mutated(&sample_workload(), |_, _, _| {}, |_| {});
    assert_eq!(conv.lane_kernels, 0);
}

/// A planned pipelined schedule over the tiny zoo plus its workloads —
/// the corruption targets below break it in the four structural ways
/// the pipeline pass must name exactly.
fn sample_pipeline() -> (
    Vec<Workload>,
    abm_spconv_repro::sim::AcceleratorConfig,
    abm_spconv_repro::sim::PipelinedSchedule,
) {
    use abm_spconv_repro::sim::{plan_pipeline, AcceleratorConfig, PipelineOptions};
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.5, 8));
    let model = synthesize_model(&net, &profile, 9);
    let workloads: Vec<Workload> = model
        .layers
        .iter()
        .map(|l| Workload::from_layer(l).unwrap())
        .collect();
    let cfg = AcceleratorConfig::paper();
    let schedule = plan_pipeline(&workloads, &cfg, &PipelineOptions::for_config(&cfg), 4)
        .expect("tiny pipeline plans");
    (workloads, cfg, schedule)
}

#[test]
fn planned_pipeline_verifies_clean() {
    let (w, cfg, schedule) = sample_pipeline();
    let r = verify_pipelined_schedule(&w, &cfg, &schedule, 4);
    assert!(r.is_clean(), "{r}");
    assert!(r.facts > 0);
}

#[test]
fn undersized_inter_stage_fifo_is_caught() {
    // A synthesis-time FIFO depth below the dataflow's measured row
    // high water: the stream would backpressure (or drop rows) there.
    let (w, cfg, mut schedule) = sample_pipeline();
    schedule.stages[1].fifo_rows = 0;
    let r = verify_pipelined_schedule(&w, &cfg, &schedule, 4);
    assert!(r.has_class("stage_fifo_undersized"), "{r}");
    assert!(!r.has_class("stage_coverage_gap"), "{r}");
    assert!(!r.has_class("stage_cu_overlap"), "{r}");
}

#[test]
fn double_booked_cu_across_stages_is_caught() {
    // Two stages claiming the same CU: pipelined stages own their CUs
    // for the whole run, so this schedule cannot be realized.
    let (w, cfg, mut schedule) = sample_pipeline();
    schedule.stages[1].cu_start = schedule.stages[0].cu_start;
    let r = verify_pipelined_schedule(&w, &cfg, &schedule, 4);
    assert!(r.has_class("stage_cu_overlap"), "{r}");
    assert!(!r.has_class("stage_coverage_gap"), "{r}");
}

#[test]
fn stage_coverage_gap_is_caught() {
    // The last stage forgets the final layer: the streamed image would
    // leave the pipeline without ever executing it.
    let (w, cfg, mut schedule) = sample_pipeline();
    let last = schedule.stages.len() - 1;
    schedule.stages[last].layer_end -= 1;
    let r = verify_pipelined_schedule(&w, &cfg, &schedule, 4);
    assert!(r.has_class("stage_coverage_gap"), "{r}");
    assert!(!r.has_class("stage_cu_overlap"), "{r}");
}

#[test]
fn stage_without_lanes_is_caught() {
    // A stage that owns its CU but no kernel lane on it: no row it is
    // given can ever retire. The structural pass names it before the
    // dataflow run would try to schedule onto zero lanes.
    let (w, cfg, mut schedule) = sample_pipeline();
    schedule.stages[1].n_knl = 0;
    let r = verify_pipelined_schedule(&w, &cfg, &schedule, 4);
    assert!(r.has_class("stage_without_lanes"), "{r}");
    assert!(!r.has_class("stage_coverage_gap"), "{r}");
    assert!(!r.has_class("stage_cu_overlap"), "{r}");
}

/// Sparse i8 weights with a bias toward zeros (so value groups exist)
/// over a small 4-D shape, plus a stride and padding. The input side is
/// fixed at 6, which every generated kernel fits.
fn weights_strategy() -> impl Strategy<Value = (Tensor4<i8>, usize, usize)> {
    // Largest generated kernel is 3 x 2 x 3 x 3 = 54 weights; sample a
    // full-size pool and truncate to the drawn shape.
    let dims = (1usize..4, 1usize..3, 1usize..4, 1usize..3, 0usize..2);
    let pool = prop::collection::vec(prop_oneof![2 => Just(0i8), 1 => any::<i8>()], 54..55);
    (dims, pool).prop_map(|((m, n, k, stride, pad), mut vals)| {
        vals.truncate(m * n * k * k);
        if vals.iter().all(|&x| x == 0) {
            vals[0] = 1; // encoding needs at least one nonzero weight
        }
        (
            Tensor4::from_vec(Shape4::new(m, n, k, k), vals),
            stride,
            pad,
        )
    })
}

/// Seeded negative test for the model-consistency gate's layer
/// attribution: corrupt exactly one layer's measured compute cycles and
/// the resulting `model_divergence` defect must name *that* layer, not
/// just the metric.
#[test]
fn model_divergence_names_the_corrupted_layer() {
    use abm_spconv_repro::dse::{annotate_report, check_consistency, estimate_network, Tolerances};
    use abm_spconv_repro::sim::telemetry::network_report;
    use abm_spconv_repro::sim::{AcceleratorConfig, SimContext};
    use abm_spconv_repro::telemetry::RecordingCollector;

    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
    let model = synthesize_model(&net, &profile, 11);
    let cfg = AcceleratorConfig::paper();
    let mut rec = RecordingCollector::new();
    let sim = SimContext::default()
        .collector(&mut rec)
        .simulate_network(&model, &cfg)
        .unwrap();
    let mut report = network_report("TinyNet", &sim, &rec);
    let est = estimate_network(&net, &profile, &cfg);
    annotate_report(&mut report, &est);

    // Tolerances wide enough to absorb every natural model-vs-sim gap
    // (lane efficiencies live in [0, 1], so 1.0 can never fire; TinyNet's
    // window-sync-dominated FC stays well under 10x on cycles) but far
    // below the seeded 10000x corruption.
    let tol = Tolerances {
        lane_efficiency: 1.0,
        cycles: 10.0,
        traffic: 1e9,
    };
    let clean = check_consistency(&report, &est, &net, &profile, &cfg, &tol);
    assert!(clean.is_clean(), "{clean}");

    let victim = report.layers[1].name.clone();
    report.layers[1].compute_cycles *= 10_000;
    let verdict = check_consistency(&report, &est, &net, &profile, &cfg, &tol);
    assert!(verdict.has_class("model_divergence"), "{verdict}");
    assert_eq!(verdict.defects.len(), 1, "{verdict}");
    let text = verdict.to_string();
    assert!(
        text.contains(victim.as_str()),
        "defect must name the corrupted layer {victim}: {text}"
    );
    for l in &report.layers {
        if l.name != victim {
            assert!(!text.contains(l.name.as_str()), "{text}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of the lowering pass: whatever the verifier accepts,
    /// the prepared hot path computes exactly what the reference
    /// interpreter computes. (If the verifier ever accepted a bad
    /// lowering, this is the test that would expose the gap.)
    #[test]
    fn verifier_accepted_codes_execute_bit_identically(
        (weights, stride, pad) in weights_strategy(),
        salt in 0usize..1000,
    ) {
        let shape = weights.shape();
        let side = 6usize;
        let geom = Geometry::new(stride, pad);
        let in_shape = Shape3::new(shape.in_channels, side, side);
        let code = LayerCode::encode(&weights).expect("small kernels encode");

        let prepared = abm::PreparedConv::try_new(code.clone(), in_shape, geom, None).unwrap();
        let report = prepared.verify_lowering();
        prop_assert!(report.is_clean(), "{}", report);

        let input = Tensor3::from_fn(in_shape, |c, r, col| {
            ((((c + salt) * 131 + r * 37 + col * 11) % 255) as i16) - 127
        });
        let fast = prepared.execute(&input);
        let oracle = abm::reference::conv2d(&input, &code, geom).unwrap();
        prop_assert_eq!(fast.as_slice(), oracle.as_slice());
    }
}
