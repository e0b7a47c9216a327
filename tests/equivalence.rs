//! Cross-crate equivalence: the paper's Equation (2) holds exactly —
//! ABM-SpConv and dense SDConv agree bit-for-bit on whole networks,
//! through both model-preparation paths — and Table 1's comparator
//! columns are the counts their executors run up.

use abm_spconv_repro::conv::{dense, freq, ops, winograd, Engine, Geometry, Inferencer};
use abm_spconv_repro::model::{
    synthesize_from_float, synthesize_model, zoo, ConvSpec, LayerKind, LayerProfile, PruneProfile,
};
use abm_spconv_repro::tensor::{Shape3, Tensor3, Tensor4};

fn image(shape: Shape3, salt: usize) -> Tensor3<i16> {
    Tensor3::from_fn(shape, |c, r, col| {
        ((((c + salt) * 131 + r * 31 + col * 7) % 255) as i16) - 127
    })
}

#[test]
fn tiny_net_all_engines_agree_synthetic_path() {
    let net = zoo::tiny();
    for seed in [1u64, 2, 3] {
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
        let model = synthesize_model(&net, &profile, seed);
        let input = image(net.input_shape(), seed as usize);
        let dense = Inferencer::new(&model)
            .engine(Engine::Dense)
            .run(&input)
            .unwrap();
        let abm = Inferencer::new(&model)
            .engine(Engine::Abm)
            .run(&input)
            .unwrap();
        assert_eq!(dense.logits, abm.logits, "seed {seed}");
    }
}

#[test]
fn tiny_net_all_engines_agree_float_pipeline_path() {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.75, 24));
    let model = synthesize_from_float(&net, &profile, 99);
    let input = image(net.input_shape(), 5);
    let dense = Inferencer::new(&model)
        .engine(Engine::Dense)
        .run(&input)
        .unwrap();
    let abm = Inferencer::new(&model)
        .engine(Engine::Abm)
        .run(&input)
        .unwrap();
    assert_eq!(dense.logits, abm.logits);
    assert_eq!(dense.formats, abm.formats);
}

#[test]
fn alexnet_engines_agree_including_grouped_and_lrn() {
    // Grouped convolutions, 11x11 stride-4 kernels, LRN and overlapped
    // pooling all sit in this path.
    let net = zoo::alexnet();
    let profile = PruneProfile::alexnet_deep_compression();
    let model = synthesize_model(&net, &profile, 4);
    let input = image(net.input_shape(), 9);
    let dense = Inferencer::new(&model)
        .engine(Engine::Dense)
        .run(&input)
        .unwrap();
    let abm = Inferencer::new(&model)
        .engine(Engine::Abm)
        .run(&input)
        .unwrap();
    assert_eq!(dense.logits, abm.logits);
    assert_eq!(dense.probabilities, abm.probabilities);
}

#[test]
fn compressed_encoding_round_trips_whole_model() {
    use abm_spconv_repro::sparse::compress::{compress_layer, decompress_indices};
    use abm_spconv_repro::sparse::LayerCode;
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.7, 20));
    let model = synthesize_model(&net, &profile, 44);
    for layer in &model.layers {
        let code = LayerCode::encode(&layer.weights).unwrap();
        let compressed = compress_layer(&code);
        let decoded = decompress_indices(&compressed);
        for (kernel, groups) in code.kernels().iter().zip(&decoded) {
            let expect: Vec<Vec<u16>> = kernel.groups().map(|(_, idxs)| idxs.to_vec()).collect();
            assert_eq!(groups, &expect, "layer {}", layer.name());
        }
        // Entropy coding must not grow the stream on realistic layers.
        let raw = code.total_nnz() * 2;
        assert!(
            compressed.total_bytes() < raw + 4096,
            "layer {}: {} vs raw {raw}",
            layer.name(),
            compressed.total_bytes()
        );
    }
}

#[test]
fn work_counters_match_static_analysis() {
    use abm_spconv_repro::conv::ops::NetworkOps;
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.7, 8));
    let model = synthesize_model(&net, &profile, 31);
    let input = image(net.input_shape(), 0);
    let abm = Inferencer::new(&model)
        .engine(Engine::Abm)
        .run(&input)
        .unwrap();
    let ops = NetworkOps::analyze(&model);
    let t = ops.totals();
    // The dynamic counters must equal the static op analysis exactly.
    assert_eq!(abm.work.accumulations, t.abm_acc);
    assert_eq!(abm.work.multiplications, t.abm_mult);
    assert_eq!(abm.work.final_accumulations, t.abm_final);
    // SpConv does one multiply and one add per surviving MAC, ABM's
    // stage 1 one add: Table 1's SpConv column is twice what ABM ran.
    assert_eq!(t.spconv, 2 * abm.work.accumulations);
}

/// Every conv layer of `net` with its input shape and spec.
fn conv_layers(net: &abm_spconv_repro::model::Network) -> Vec<(String, Shape3, ConvSpec)> {
    net.conv_fc_layers()
        .filter_map(|l| match l.layer.kind {
            LayerKind::Conv(c) => Some((l.layer.name.clone(), l.input_shape, c)),
            _ => None,
        })
        .collect()
}

/// Table 1's FDConv and Winograd columns are `ops::oaa_cost` and
/// `ops::winograd_mults`; each must equal the count its executor runs
/// up, on every VGG16 conv-layer geometry and every AlexNet one: the
/// stride-4 CONV1 (OaA computes the stride-1 extent and subsamples it),
/// the grouped layers (`ops` counts one group, the executor all of
/// them) and the odd 13×13 extents (a partial Winograd tile). Full
/// channel counts are too slow here, so `M` and `N` are scaled down.
/// Both counts are linear in `M` and in `N` (per tile, `N` forward and
/// `M` inverse transforms, and `M·N` Hadamard or Winograd products), so
/// two `(M, N)` pairs per group check every coefficient the layer's
/// spatial geometry sets.
#[test]
fn comparator_columns_count_what_their_executors_run() {
    let vgg = conv_layers(&zoo::vgg16());
    let alexnet = conv_layers(&zoo::alexnet());
    assert_eq!((vgg.len(), alexnet.len()), (13, 5));
    assert_eq!(alexnet[0].2.stride, 4);
    for (m, n) in [(1usize, 2usize), (3, 1)] {
        for (name, input, c) in vgg.iter().chain(&alexnet) {
            let g = c.groups;
            let spec = ConvSpec {
                in_channels: n * g,
                out_channels: m * g,
                ..*c
            };
            let input = image(Shape3::new(n * g, input.rows, input.cols), m);
            let mut state = (m * 7 + n) as u32;
            let weights = Tensor4::from_fn(spec.weight_shape(), |_, _, _, _| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as i8 / 8
            });
            let geom = Geometry::new(c.stride, c.pad).with_groups(g);
            let reference = dense::conv2d(&input, &weights, geom);

            let l = ops::fft_size_for_kernel(c.kernel);
            let (fd, cost) = freq::conv2d_oaa(&input, &weights, geom, l);
            let per_group = ops::oaa_cost(&spec, input.shape());
            let g = g as u64;
            assert_eq!(
                (
                    cost.input_fft_mults,
                    cost.hadamard_mults,
                    cost.inverse_fft_mults
                ),
                (
                    per_group.input_fft_mults * g,
                    per_group.hadamard_mults * g,
                    per_group.inverse_fft_mults * g
                ),
                "{name} ({m}, {n})"
            );
            for (a, b) in reference.as_slice().iter().zip(fd.as_slice()) {
                assert!(
                    (*a as f64 - b).abs() < 1e-6,
                    "{name}: dense {a} vs fdconv {b}"
                );
            }

            if c.kernel == 3 && c.stride == 1 {
                let (wino, products) = winograd::conv2d(&input, &weights, geom);
                let out = reference.shape();
                assert_eq!(
                    products,
                    ops::winograd_mults(&spec, out),
                    "{name} ({m}, {n})"
                );
                assert_eq!(wino, reference, "{name}");
            }
        }
    }
}
