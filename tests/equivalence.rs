//! Cross-crate equivalence: the paper's Equation (2) holds exactly —
//! ABM-SpConv and dense SDConv agree bit-for-bit on whole networks,
//! through both model-preparation paths. (GEMM and CSR SpConv are held
//! to dense one layer at a time, in `tests/properties.rs`.)

use abm_spconv_repro::conv::{Engine, Inferencer};
use abm_spconv_repro::model::{
    synthesize_from_float, synthesize_model, zoo, LayerProfile, PruneProfile,
};
use abm_spconv_repro::tensor::{Shape3, Tensor3};

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
    assert_eq!(dense.trace, abm.trace);
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
}
