//! The activation arena is invisible in results and stops allocating.
//!
//! Every image now flows through buffers that the images before it —
//! and layers of other shapes — have already used: the accumulator
//! plane, the ping-pong feature buffers, the host-layer scratch. Two
//! things must hold whatever the network looks like:
//!
//! * **bit-identity** — a buffer's previous contents never reach a
//!   result. Random small networks (strides, padding, groups, optional
//!   ReLU, max / overlapped max / average pools, LRN, FC tails; shapes
//!   that grow and shrink, so a shared buffer's halo is dirty when the
//!   next layer stores into it) run two *different* images back to back
//!   through one [`PreparedWeights`]: each result equals the dense
//!   engine's on a fresh inferencer, and serial, batch, pipelined,
//!   hardened and calibrated-format runs of the ABM engine agree;
//! * **no steady-state allocation** — the pool's growth counter (what
//!   stands in for a counting allocator: `unsafe impl GlobalAlloc` is
//!   forbidden in every compilation root) stays flat from the second
//!   image on, and the pool never holds more arenas than threads
//!   executed at once.

use abm_spconv_repro::conv::{
    ArenaStats, Calibration, Engine, InferenceResult, Inferencer, Parallelism, PreparedWeights,
    ResiliencePolicy,
};
use abm_spconv_repro::model::{
    synthesize_model, ConvSpec, FcSpec, Layer, LayerKind, LayerProfile, LrnSpec, Network, PoolKind,
    PoolSpec, PruneProfile, SparseModel,
};
use abm_spconv_repro::tensor::{Shape3, Tensor3};
use proptest::prelude::*;

/// SplitMix64: the network's structure is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A random but valid CNN: `blocks` of conv → optional ReLU → up to two
/// host layers in any order, then an FC tail. A 1×1 kernel under
/// padding 2 grows the plane by four pixels, a stride or a pool shrinks
/// it, and channel counts go up and down.
fn random_net(seed: u64, blocks: usize) -> Network {
    let mut rng = Rng(seed);
    let input = Shape3::new(2 * (1 + rng.below(2)), 7 + rng.below(6), 7 + rng.below(6));
    let mut net = Network::new("random", input);
    for b in 0..blocks {
        let cur = net.output_shape();
        let groups = if cur.channels.is_multiple_of(2) {
            1 + rng.below(2)
        } else {
            1
        };
        let (stride, pad) = (1 + rng.below(3), rng.below(3));
        let kernel = 1 + rng.below(3.min(cur.rows.min(cur.cols) + 2 * pad));
        let out = groups * (1 + rng.below(4));
        let spec = ConvSpec::new(cur.channels, out, kernel, stride, pad).with_groups(groups);
        net.push(Layer::new(format!("CONV{b}"), LayerKind::Conv(spec)));
        if rng.below(4) > 0 {
            net.push(Layer::new(format!("RELU{b}"), LayerKind::Relu));
        }
        for h in 0..rng.below(3) {
            let cur = net.output_shape();
            let fits = |window: usize| cur.rows.min(cur.cols) >= window;
            let pool = |kind, window, stride| {
                LayerKind::Pool(PoolSpec {
                    kind,
                    window,
                    stride,
                })
            };
            let kind = match rng.below(5) {
                0 if fits(2) => pool(PoolKind::Max, 2, 2),
                1 if fits(3) => pool(PoolKind::Max, 3, 2),
                2 if fits(2) => pool(PoolKind::Avg, 2, 1),
                3 => LayerKind::Lrn(LrnSpec {
                    size: 3,
                    ..LrnSpec::alexnet()
                }),
                _ => LayerKind::Relu,
            };
            net.push(Layer::new(format!("HOST{b}_{h}"), kind));
        }
    }
    let hidden = 3 + rng.below(6);
    let flat = net.output_shape().len();
    net.push(Layer::new(
        "FC1",
        LayerKind::FullyConnected(FcSpec::new(flat, hidden)),
    ));
    if rng.below(2) == 0 {
        net.push(Layer::new("RELU_FC", LayerKind::Relu));
        net.push(Layer::new(
            "FC2",
            LayerKind::FullyConnected(FcSpec::new(hidden, 4)),
        ));
    }
    if rng.below(2) == 0 {
        net.push(Layer::new("SOFTMAX", LayerKind::Softmax));
    }
    net
}

fn image(shape: Shape3, salt: usize) -> Tensor3<i16> {
    Tensor3::from_fn(shape, |c, r, col| {
        ((((c + salt) * 131 + r * 31 + col * 7 + salt * salt) % 255) as i16) - 127
    })
}

/// Everything a result carries except the ABM work counters, which the
/// dense engine does not count.
fn numerics(r: &InferenceResult) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &r.logits,
        &r.probabilities,
        &r.trace,
        &r.layer_max_activation,
        r.saturated_features,
        r.total_features,
    )
}

/// The formats a dynamic run chose for the accelerated layers, as the
/// calibration that must reproduce it exactly.
fn formats_of(model: &SparseModel, result: &InferenceResult) -> Calibration {
    let layers = model.network.layers();
    let accelerated = result.trace.iter().zip(layers);
    Calibration::from_formats(
        accelerated
            .filter(|(_, layer)| layer.is_accelerated())
            .map(|(entry, _)| entry.format)
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_networks_flow_through_one_arena_bit_identically(
        seed in any::<u64>(),
        blocks in 1usize..4,
        density_pct in 30u32..90,
    ) {
        let net = random_net(seed, blocks);
        let profile = PruneProfile::uniform(LayerProfile::new(density_pct as f64 / 100.0, 9));
        let model = synthesize_model(&net, &profile, seed ^ 0x5eed);
        let images = [image(net.input_shape(), 1), image(net.input_shape(), 8)];
        let abm = Inferencer::new(&model).parallelism(Parallelism::Serial);
        let prepared = abm.prepare().unwrap();
        let work = (0..model.layers.len())
            .map(|i| prepared.abm_layer(i).unwrap().work())
            .fold((0, 0), |(a, m), w| (a + w.accumulations, m + w.multiplications));

        // Two different images back to back through the same buffers.
        let serial: Vec<InferenceResult> = images
            .iter()
            .map(|image| abm.run_prepared(&prepared, image).unwrap())
            .collect();
        for (image, result) in images.iter().zip(&serial) {
            let dense = Inferencer::new(&model).engine(Engine::Dense).run(image).unwrap();
            prop_assert_eq!(numerics(result), numerics(&dense), "{:?}", net.layers());
            prop_assert_eq!((result.work.accumulations, result.work.multiplications), work);
            // The dense engine reads the same stored features back out
            // of whatever layout the plan chose for the ABM engine.
            let mixed = Inferencer::new(&model).engine(Engine::Dense);
            prop_assert_eq!(numerics(&mixed.run_prepared(&prepared, image).unwrap()), numerics(&dense));
        }

        let batch = abm.clone().parallelism(Parallelism::Threads(2));
        prop_assert_eq!(&batch.run_batch_prepared(&prepared, &images).unwrap(), &serial);
        prop_assert_eq!(&abm.run_batch_pipelined(&prepared, &images, 2).unwrap(), &serial);
        let hardened = abm.clone().resilience(ResiliencePolicy::hardened());
        prop_assert_eq!(&hardened.run_batch_prepared(&prepared, &images).unwrap(), &serial);
        for (image, result) in images.iter().zip(&serial) {
            let calibrated = abm.clone().calibration(formats_of(&model, result));
            prop_assert_eq!(&calibrated.run_prepared(&prepared, image).unwrap(), result);
        }
    }
}

/// An AlexNet in miniature: a strided first layer, LRN between a ReLU
/// and an overlapped pool (so the pool runs on its own and writes the
/// next layer's padding), a grouped conv whose ReLU and pool ride in its
/// epilogue, an FC tail.
fn mini_alexnet() -> Network {
    let mut net = Network::new("mini", Shape3::new(3, 19, 19));
    let mut push = |name: &str, kind| net.push(Layer::new(name, kind));
    push("CONV1", LayerKind::Conv(ConvSpec::new(3, 8, 5, 2, 0)));
    push("RELU1", LayerKind::Relu);
    push(
        "LRN1",
        LayerKind::Lrn(LrnSpec {
            size: 3,
            ..LrnSpec::alexnet()
        }),
    );
    push("POOL1", LayerKind::Pool(PoolSpec::max(3, 2)));
    push(
        "CONV2",
        LayerKind::Conv(ConvSpec::new(8, 12, 3, 1, 1).with_groups(2)),
    );
    push("RELU2", LayerKind::Relu);
    push("POOL2", LayerKind::Pool(PoolSpec::max(2, 1)));
    push("FC3", LayerKind::FullyConnected(FcSpec::new(12 * 2 * 2, 6)));
    push("SOFTMAX", LayerKind::Softmax);
    net
}

#[test]
fn the_arena_stops_growing_after_the_first_image() {
    let net = mini_alexnet();
    let profile = PruneProfile::uniform(LayerProfile::new(0.5, 9));
    let model = synthesize_model(&net, &profile, 18);
    let images: Vec<_> = (0..8).map(|i| image(net.input_shape(), i)).collect();
    let serial = Inferencer::new(&model).parallelism(Parallelism::Serial);
    let prepared: PreparedWeights = serial.prepare().unwrap();
    // Nothing is allocated at `prepare`.
    assert_eq!(prepared.arena_stats(), ArenaStats::default());

    // Serial: one arena and one feature buffer, both created by image 1.
    let golden: Vec<_> = images
        .iter()
        .map(|image| serial.run_prepared(&prepared, image).unwrap())
        .collect();
    let first = prepared.arena_stats();
    assert_eq!(
        first,
        ArenaStats {
            grown: 2,
            arenas: 1,
            feature_buffers: 1
        }
    );
    for image in &images {
        serial.run_prepared(&prepared, image).unwrap();
        assert_eq!(prepared.arena_stats(), first);
    }

    // Hardened: the ABFT tables grow on first hardened use, once.
    let hardened = serial.clone().resilience(ResiliencePolicy::hardened());
    for (image, want) in images.iter().zip(&golden) {
        assert_eq!(&hardened.run_prepared(&prepared, image).unwrap(), want);
        assert_eq!(
            prepared.arena_stats(),
            ArenaStats {
                grown: first.grown + 1,
                ..first
            }
        );
    }

    // Pipelined, two stages, from nothing: two arenas (one a stage,
    // each stage the one it grew) and one feature buffer an image in
    // flight — never more than the channels and the stages can hold,
    // 3 · stages + 4. Whatever was created is idle in the pool again
    // and was counted once: nothing is regrown, batch after batch.
    let fresh = serial.prepare().unwrap();
    for _ in 0..4 {
        assert_eq!(
            serial.run_batch_pipelined(&fresh, &images, 2).unwrap(),
            golden
        );
        let stats = fresh.arena_stats();
        assert!(
            stats.arenas == 2 && stats.feature_buffers <= 10,
            "{stats:?}"
        );
        assert_eq!(stats.grown as usize, stats.arenas + stats.feature_buffers);
    }

    // Batch on two threads, from nothing: however the work-stealing
    // falls, never more arenas (or image buffers) than threads
    // executing, each counted once — an arena that has run one whole
    // image has grown all it will.
    let batch = serial.clone().parallelism(Parallelism::Threads(2));
    let fresh = batch.prepare().unwrap();
    for _ in 0..3 {
        assert_eq!(batch.run_batch_prepared(&fresh, &images).unwrap(), golden);
        let stats = fresh.arena_stats();
        assert!(stats.arenas <= 2 && stats.feature_buffers <= 2, "{stats:?}");
        assert_eq!(stats.grown as usize, stats.arenas + stats.feature_buffers);
    }
}
