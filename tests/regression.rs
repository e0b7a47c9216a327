//! Golden-value regression pins: exact deterministic outputs of the
//! seeded experiments. These protect the reproduction against silent
//! model drift — any change to the synthesis, encoding, timing or
//! scheduling logic that shifts a headline number must consciously
//! update the pins (and EXPERIMENTS.md with them).

use abm_spconv_repro::conv::ops::NetworkOps;
use abm_spconv_repro::conv::{Engine, Inferencer, Parallelism};
use abm_spconv_repro::model::{synthesize_model, zoo, LayerProfile, PruneProfile};
use abm_spconv_repro::sim::{simulate_network, AcceleratorConfig};
use abm_spconv_repro::sparse::SizeModel;
use abm_spconv_repro::tensor::Tensor3;

fn vgg16() -> abm_spconv_repro::model::SparseModel {
    synthesize_model(&zoo::vgg16(), &PruneProfile::vgg16_deep_compression(), 2019)
}

fn alexnet() -> abm_spconv_repro::model::SparseModel {
    synthesize_model(
        &zoo::alexnet(),
        &PruneProfile::alexnet_deep_compression(),
        2019,
    )
}

/// Asserts `value` lies within ±0.2% of the pinned value — tight enough
/// to catch any real model change, loose enough to survive float
/// reassociation across compiler versions.
fn pin(value: f64, pinned: f64, what: &str) {
    let rel = (value - pinned).abs() / pinned.abs().max(1e-12);
    assert!(
        rel < 2e-3,
        "{what}: measured {value}, pinned {pinned} (rel {rel:.2e})"
    );
}

#[test]
fn pinned_vgg16_statistics() {
    let model = vgg16();
    // Model statistics (exact integers, pinned exactly). Pinned against
    // the vendored offline RNG (see EXPERIMENTS.md).
    assert_eq!(model.total_nnz(), 10_533_149);
    let ops = NetworkOps::analyze(&model);
    let t = ops.totals();
    assert_eq!(t.sdconv, 30_940_528_640);
    assert_eq!(t.abm_acc, 5_044_848_329);
    pin(t.abm_mult as f64, 336_286_176.0, "VGG16 Mult total");
    // Encoded size.
    let enc = SizeModel::paper().model_bytes(&model).unwrap();
    pin(enc.total() as f64, 21_743_782.0, "VGG16 encoded bytes");
}

#[test]
fn pinned_vgg16_simulation() {
    let sim = simulate_network(&vgg16(), &AcceleratorConfig::paper());
    pin(sim.gops(), 912.52, "VGG16 simulated GOP/s");
    pin(sim.total_seconds() * 1e3, 33.907, "VGG16 ms/image");
    pin(sim.lane_efficiency(), 0.8683, "VGG16 lane efficiency");
}

#[test]
fn pinned_alexnet_simulation() {
    let sim = simulate_network(&alexnet(), &AcceleratorConfig::paper_alexnet());
    pin(sim.gops(), 707.78, "AlexNet simulated GOP/s");
    pin(sim.total_seconds() * 1e3, 2.047, "AlexNet ms/image");
}

/// The shared-`PreparedWeights` batch path (prepare once, infer the
/// whole batch across the work-stealing pool): pinned against the
/// serial single-image golden values. The parallel path is bit-exact,
/// so the 0.2% pin tolerance only absorbs float-summation differences
/// across compilers, never scheduling effects.
#[test]
fn pinned_prepared_batch_inference() {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 16));
    let model = synthesize_model(&net, &profile, 2019);
    let inputs: Vec<Tensor3<i16>> = (0..4)
        .map(|i| {
            Tensor3::from_fn(net.input_shape(), |c, r, col| {
                ((((c + i) * 613 + r * 41 + col * 13) % 255) as i16) - 127
            })
        })
        .collect();
    let inf = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Auto);
    let prepared = inf.prepare().unwrap();
    let results = inf.run_batch_prepared(&prepared, &inputs).unwrap();

    // Golden values measured on the serial path (seed 2019, vendored
    // offline RNG — see EXPERIMENTS.md).
    let pinned_sums = [14.625, 25.375, 5.875, 19.0];
    let pinned_tops = [15.5, 15.75, 12.75, 16.25];
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.argmax(), Some(9), "image {i} predicted class");
        let sum: f32 = r.logits.iter().sum();
        pin(sum as f64, pinned_sums[i], &format!("image {i} logit sum"));
        pin(
            r.logits[9] as f64,
            pinned_tops[i],
            &format!("image {i} top logit"),
        );
    }
    // Work counters are exact integers: the two-stage op counts must
    // not depend on batching or thread count at all.
    let acc: u64 = results.iter().map(|r| r.work.accumulations).sum();
    let mult: u64 = results.iter().map(|r| r.work.multiplications).sum();
    assert_eq!(acc, 2_884_964);
    assert_eq!(mult, 1_064_444);

    // And the batch path must agree with per-image serial runs exactly.
    for (input, batched) in inputs.iter().zip(&results) {
        assert_eq!(batched, &inf.run(input).unwrap());
    }
}

/// Prepared-path AlexNet conv outputs, pinned as exact integers: the
/// flat-offset hot path is integer arithmetic end to end, so any drift
/// at all (offset lowering, input relayout, tiling) is a bug, not
/// noise.
#[test]
fn pinned_prepared_alexnet_conv_outputs() {
    use abm_spconv_repro::conv::{Geometry, PreparedConv};
    use abm_spconv_repro::model::LayerKind;
    use abm_spconv_repro::sparse::LayerCode;

    let model = alexnet();
    let mut measured = Vec::new();
    for layer in &model.layers {
        let LayerKind::Conv(spec) = &layer.layer.layer.kind else {
            continue;
        };
        let mut state = 0x2019_u64;
        let input = Tensor3::from_fn(layer.layer.input_shape, |_, _, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 33) % 255) as i16 - 127
        });
        let code = LayerCode::encode(&layer.weights).unwrap();
        let geom = Geometry::new(spec.stride, spec.pad).with_groups(spec.groups);
        let out = PreparedConv::try_new(code.clone(), input.shape(), geom, None)
            .unwrap()
            .execute(&input);
        let sum: i64 = out.as_slice().iter().sum();
        let max: i64 = out.as_slice().iter().copied().max().unwrap();
        measured.push((layer.name().to_string(), sum, max));
    }
    // Golden values (seed 2019, vendored offline RNG, input LCG seed
    // 0x2019 — see EXPERIMENTS.md).
    let pinned: [(&str, i64, i64); 5] = [
        ("CONV1", 14_108_336, 182_013),
        ("CONV2", -30_136_170, 263_761),
        ("CONV3", 27_389_742, 287_358),
        ("CONV4", 3_104_689, 284_147),
        ("CONV5", 1_292_724, 189_106),
    ];
    assert_eq!(measured.len(), pinned.len());
    for ((name, sum, max), (pname, psum, pmax)) in measured.iter().zip(pinned) {
        assert_eq!(name, pname);
        assert_eq!((*sum, *max), (psum, pmax), "{name} output drifted");
    }
}

#[test]
fn pinned_alexnet_statistics() {
    let model = alexnet();
    pin(model.total_nnz() as f64, 6_792_511.0, "AlexNet nnz");
    let enc = SizeModel::paper().model_bytes(&model).unwrap();
    pin(enc.total() as f64, 14_051_766.0, "AlexNet encoded bytes");
}

/// Pipelined AlexNet batch-4: the planner's partition and the dataflow
/// simulation are fully deterministic, so every cycle count is pinned
/// as an exact integer, and the planned schedule must pass the static
/// pipeline checker (`verify_pipelined_schedule`) clean. (AlexNet
/// pipelines *below* parity at the paper clock — CONV1 saturates a
/// single stage — which is exactly why the DSE keeps the
/// time-multiplexed design for it; the pin documents that honestly
/// rather than hiding it.)
#[test]
fn pinned_pipelined_alexnet_batch4_cycles() {
    use abm_spconv_repro::sim::task::Workload;
    use abm_spconv_repro::sim::{
        plan_pipeline, simulate_pipeline, simulate_sequential_batch, verify_pipelined_schedule,
        PipelineOptions,
    };
    let model = alexnet();
    let workloads: Vec<Workload> = model
        .layers
        .iter()
        .map(|l| Workload::from_layer(l).unwrap())
        .collect();
    let cfg = AcceleratorConfig::paper_alexnet();
    let batch = 4;
    let schedule = plan_pipeline(&workloads, &cfg, &PipelineOptions::for_config(&cfg), batch)
        .expect("AlexNet pipeline plans");
    let report = verify_pipelined_schedule(&workloads, &cfg, &schedule, batch);
    assert!(report.is_clean(), "{report}");

    let cuts: Vec<(usize, usize, usize)> = schedule
        .stages
        .iter()
        .map(|s| (s.layer_start, s.layer_end, s.fifo_rows))
        .collect();
    assert_eq!(cuts, vec![(0, 1, 0), (1, 7, 18), (7, 8, 3)]);

    let pipe = simulate_pipeline(&workloads, &cfg, &schedule, batch);
    assert_eq!(pipe.makespan_cycles, 2_764_369);
    assert_eq!(
        pipe.image_finish,
        vec![875_119, 1_504_869, 2_134_619, 2_764_369]
    );
    let busy: Vec<u64> = pipe.stages.iter().map(|s| s.busy_cycles).collect();
    assert_eq!(busy, vec![2_519_000, 2_341_032, 343_856]);
    let high_water: Vec<usize> = pipe.boundaries.iter().map(|b| b.high_water_rows).collect();
    assert_eq!(high_water, vec![16, 1]);

    let seq = simulate_sequential_batch(&workloads, &cfg, batch);
    assert_eq!(seq.cycles_per_image, 615_780);
    assert_eq!(seq.total_cycles, 2_463_120);
}
