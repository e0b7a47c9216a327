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
/// whole batch across the claim-counter pool): pinned against the
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

/// Every synthesized weight, pinned through one FNV-1a digest of each
/// layer's weights (`i8` as bytes, row-major). The simulation and
/// output pins above see a drifted draw only where it moves a sum or a
/// cycle; these see every one, so a faster synthesis loop must give the
/// same weights, not merely the same statistics.
#[test]
fn pinned_synthesized_weight_digests() {
    use abm_spconv_repro::fault::fnv1a_bytes;
    use abm_spconv_repro::model::SparseModel;

    fn digests(model: &SparseModel) -> Vec<(&str, u64)> {
        model
            .layers
            .iter()
            .map(|l| {
                let bytes = l.weights.as_slice().iter().map(|&w| w as u8);
                (l.name(), fnv1a_bytes(bytes))
            })
            .collect()
    }
    let tiny = |seed| {
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 16));
        synthesize_model(&zoo::tiny(), &profile, seed)
    };
    let alexnet_at = |seed| {
        synthesize_model(
            &zoo::alexnet(),
            &PruneProfile::alexnet_deep_compression(),
            seed,
        )
    };

    assert_eq!(
        digests(&tiny(2019)),
        [
            ("CONV1", 0xf7f4_15e5_1ec6_ea3e),
            ("CONV2", 0x2702_9198_ed90_03db),
            ("FC3", 0xa591_f3d8_a6e1_d542),
            ("FC4", 0x804e_2c1e_12de_2d47),
        ]
    );
    assert_eq!(
        digests(&tiny(7)),
        [
            ("CONV1", 0x0cc0_de68_0539_9047),
            ("CONV2", 0x9f5b_66a3_fc11_c655),
            ("FC3", 0xa02a_1037_9a37_fdbb),
            ("FC4", 0x172c_570a_03e0_cecd),
        ]
    );
    assert_eq!(
        digests(&alexnet()),
        [
            ("CONV1", 0xf05a_a00b_2816_02ec),
            ("CONV2", 0x4f57_fcb3_e743_e787),
            ("CONV3", 0x0d4f_d0b3_c946_5dea),
            ("CONV4", 0x4119_e7ba_1055_476f),
            ("CONV5", 0x03d9_9055_bfac_7b21),
            ("FC6", 0x1930_d38a_439f_b923),
            ("FC7", 0xfdf2_18da_e556_3758),
            ("FC8", 0x7cf0_b6ef_9695_a4ee),
        ]
    );
    assert_eq!(
        digests(&alexnet_at(7)),
        [
            ("CONV1", 0xbcae_d08f_1f51_c2f4),
            ("CONV2", 0xc4fa_7ddc_5411_79a8),
            ("CONV3", 0xbd8e_7a83_4bca_51b0),
            ("CONV4", 0x8f15_fde2_44c1_cc65),
            ("CONV5", 0xdad4_7d9c_8321_f5cf),
            ("FC6", 0xa1d8_cf4f_d2f9_8a73),
            ("FC7", 0xa041_e379_3d7a_e46c),
            ("FC8", 0x2900_95bd_7edc_714f),
        ]
    );
    assert_eq!(
        digests(&vgg16()),
        [
            ("CONV1_1", 0x192e_a5b6_6367_7ee7),
            ("CONV1_2", 0x163d_869e_6e1a_6ce3),
            ("CONV2_1", 0x2dbd_541e_c159_3543),
            ("CONV2_2", 0xfd7c_c82c_2957_8c6b),
            ("CONV3_1", 0xd664_a904_571d_abd9),
            ("CONV3_2", 0x150e_b433_3fab_eca1),
            ("CONV3_3", 0xc92a_6abb_20aa_ea1e),
            ("CONV4_1", 0x2280_63f5_a015_788c),
            ("CONV4_2", 0xc7dd_d204_5716_9773),
            ("CONV4_3", 0xd121_6090_2154_5a0e),
            ("CONV5_1", 0xd5b3_2870_cfac_1d41),
            ("CONV5_2", 0xe439_cb44_ec11_6424),
            ("CONV5_3", 0x3fd4_7160_7aae_1387),
            ("FC6", 0x307a_7c80_36cb_b326),
            ("FC7", 0x978d_257b_c828_aa42),
            ("FC8", 0xe5de_e68a_3857_3766),
        ]
    );
}
