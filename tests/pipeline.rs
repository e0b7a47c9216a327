//! End-to-end pipeline integration: float weights → prune → quantize →
//! encode → infer → simulate, plus failure-injection edge cases
//! (fully-pruned layers, degenerate shapes, starved memory).

use abm_spconv_repro::conv::{Engine, Inferencer};
use abm_spconv_repro::model::{
    prune_magnitude, synthesize_from_float, synthesize_model, zoo, ConvSpec, Layer, LayerKind,
    LayerProfile, Network, PruneProfile,
};
use abm_spconv_repro::sim::{simulate_network, AcceleratorConfig, MemorySystem, SimContext};
use abm_spconv_repro::sparse::{LayerCode, SizeModel};
use abm_spconv_repro::tensor::quantize::quantize_tensor;
use abm_spconv_repro::tensor::{Shape3, Shape4, Tensor3, Tensor4};

#[test]
fn float_to_simulation_pipeline() {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.8, 32));
    let model = synthesize_from_float(&net, &profile, 17);

    // Encoded model smaller than the original 8-bit weights.
    let size = SizeModel::paper();
    let enc = size.model_bytes(&model).unwrap();
    assert!(enc.total() < size.original_bytes(net.total_weights()));

    // Inference agrees across engines.
    let input = Tensor3::from_fn(Shape3::new(3, 32, 32), |c, r, col| {
        (((c * 7 + r * 3 + col) % 200) as i16) - 100
    });
    let a = Inferencer::new(&model)
        .engine(Engine::Abm)
        .run(&input)
        .unwrap();
    let d = Inferencer::new(&model)
        .engine(Engine::Dense)
        .run(&input)
        .unwrap();
    assert_eq!(a.logits, d.logits);

    // Simulation produces sane throughput.
    let sim = simulate_network(&model, &AcceleratorConfig::paper());
    assert!(sim.gops() > 10.0);
    assert!(sim.total_seconds() < 1.0);
}

#[test]
fn manual_prune_quantize_encode_chain() {
    // Hand-driven version of what synthesize_from_float does, verifying
    // each stage's contract.
    let shape = Shape4::new(8, 4, 3, 3);
    let float = Tensor4::from_fn(shape, |m, n, k, kp| {
        ((m * 36 + n * 9 + k * 3 + kp) as f32).sin() * 0.3
    });
    let pruned = prune_magnitude(&float, 0.7);
    let zeros = pruned.as_slice().iter().filter(|&&x| x == 0.0).count();
    assert_eq!(zeros, (shape.len() as f64 * 0.7).round() as usize);

    let q = quantize_tensor(&pruned, 8);
    assert!(q.nnz() <= shape.len() - zeros);
    let as_i8 = q.weights.map(|&w| w as i8);
    let code = LayerCode::encode(&as_i8).unwrap();
    assert_eq!(code.decode(), as_i8);
    assert_eq!(code.total_nnz() as usize, q.nnz());
}

#[test]
fn fully_pruned_layer_is_handled() {
    // A network whose middle conv layer lost every weight still runs:
    // outputs are zero (then bias-free ReLU keeps them zero), and the
    // simulator charges (almost) nothing for it.
    let mut net = Network::new("degenerate", Shape3::new(1, 8, 8));
    net.push(Layer::new(
        "CONV1",
        LayerKind::Conv(ConvSpec::new(1, 4, 3, 1, 1)),
    ));
    net.push(Layer::new(
        "CONV2",
        LayerKind::Conv(ConvSpec::new(4, 4, 3, 1, 1)),
    ));
    let profile = PruneProfile::new(
        [
            ("CONV1".to_string(), LayerProfile::new(0.5, 8)),
            ("CONV2".to_string(), LayerProfile::new(1.0, 8)), // everything pruned
        ],
        LayerProfile::new(0.5, 8),
    );
    let model = synthesize_model(&net, &profile, 3);
    assert_eq!(model.layer("CONV2").unwrap().nnz(), 0);

    let input = Tensor3::from_fn(Shape3::new(1, 8, 8), |_, r, c| (r * 8 + c) as i16);
    let out = Inferencer::new(&model).run(&input).unwrap();
    assert!(out.logits.iter().all(|&x| x == 0.0));

    let sim = simulate_network(&model, &AcceleratorConfig::paper());
    let l2 = sim.layer("CONV2").unwrap();
    assert_eq!(l2.acc_ops, 0);
}

#[test]
fn one_by_one_input_fc_only_network() {
    let mut net = Network::new("fc-only", Shape3::new(16, 1, 1));
    net.push(Layer::new(
        "FC1",
        LayerKind::FullyConnected(abm_spconv_repro::model::FcSpec::new(16, 4)),
    ));
    let model = synthesize_model(&net, &PruneProfile::uniform(LayerProfile::new(0.25, 6)), 8);
    let input = Tensor3::from_fn(Shape3::new(16, 1, 1), |c, _, _| c as i16 - 8);
    let a = Inferencer::new(&model)
        .engine(Engine::Abm)
        .run(&input)
        .unwrap();
    let d = Inferencer::new(&model)
        .engine(Engine::Dense)
        .run(&input)
        .unwrap();
    assert_eq!(a.logits, d.logits);
    let sim = simulate_network(&model, &AcceleratorConfig::paper());
    assert!(sim.total_seconds() > 0.0);
}

#[test]
fn starved_memory_flips_bound_and_slows_inference() {
    let net = zoo::tiny();
    let model = synthesize_model(&net, &PruneProfile::uniform(LayerProfile::new(0.5, 8)), 5);
    let cfg = AcceleratorConfig::paper();
    let fast = simulate_network(&model, &cfg);
    let slow = SimContext {
        mem: MemorySystem::with_bandwidth_gbps(0.005),
        ..SimContext::default()
    }
    .simulate_network(&model, &cfg)
    .unwrap();
    assert!(slow.total_seconds() > 5.0 * fast.total_seconds());
    assert!(slow.layers().iter().any(|l| l.memory_bound));
}

#[test]
fn kernel_too_large_for_16bit_index_is_an_error() {
    // FC with 70,000 inputs: the WT-Buffer's 16-bit index cannot encode
    // it; the error must surface cleanly, not panic.
    let big = Tensor4::<i8>::from_fn(Shape4::new(1, 70_000, 1, 1), |_, n, _, _| (n % 3) as i8);
    let err = LayerCode::encode(&big).unwrap_err();
    assert!(err.to_string().contains("16-bit"));
}
