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
//!   engine's on a fresh inferencer, and serial, batch (under either
//!   name), hardened and calibrated-format runs of the ABM engine
//!   agree. A batch runs its fully-connected tail once, its images the
//!   vector lanes of the sweep, on buffers of its own: batches of every
//!   shape a lane buffer takes (a lone image, a part-filled vector, a
//!   full one, several, more than a register block) equal their images
//!   run singly in every field of the result, on one thread and on two,
//!   under the default, the hardened and a calibrated policy;
//! * **no steady-state allocation** — the pool's growth counter (what
//!   stands in for a counting allocator: `unsafe impl GlobalAlloc` is
//!   forbidden in every compilation root) stays flat from the second
//!   image on (from the second batch on, lane buffers included; and for
//!   a lone image whose layers split across two threads, one sweep
//!   scratch a share), and the pool never holds more arenas than
//!   threads executed at once.
//!
//! And the weights those buffers hang off are one model however many
//! handles there are: `PreparedWeights::clone` shares every layer, a
//! write through `abm_layer_mut` copies the one layer it touches, and
//! no handle ever sees another's corruption — on one thread or while a
//! sibling is executing. That one model holds two encodings of every
//! non-zero weight, 6 B, and nothing else per weight; and on every zoo
//! layer an image's accumulators take 4 B each, in a plane half the
//! size an `i64` one would be.

use abm_spconv_repro::conv::{
    ArenaStats, Calibration, Engine, InferenceResult, Inferencer, Parallelism, PreparedWeights,
    ResiliencePolicy,
};
use abm_spconv_repro::fault::AbmError;
use abm_spconv_repro::model::{
    synthesize_model, zoo, ConvSpec, FcSpec, Layer, LayerKind, LayerProfile, LrnSpec, Network,
    PoolKind, PoolSpec, PruneProfile, SparseModel,
};
use abm_spconv_repro::sparse::{FlatKernel, FlatLayout};
use abm_spconv_repro::telemetry::{Event, FaultAction, TelemetrySink};
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
        &r.formats,
        &r.layer_max_activation,
        r.saturated_features,
        r.total_features,
    )
}

/// The formats a dynamic run chose for the accelerated layers, as the
/// calibration that must reproduce it exactly.
fn formats_of(model: &SparseModel, result: &InferenceResult) -> Calibration {
    let layers = model.network.layers();
    let accelerated = result.formats.iter().zip(layers);
    Calibration::from_formats(
        accelerated
            .filter(|(_, layer)| layer.is_accelerated())
            .map(|(&format, _)| format)
            .collect(),
    )
}

/// The accelerated-layer index of the network's first fully-connected
/// layer: where a batch's lanes begin.
fn first_fc(net: &Network) -> usize {
    let accelerated = net.layers().iter().filter(|l| l.is_accelerated());
    let fc = |l: &&Layer| matches!(l.kind, LayerKind::FullyConnected(_));
    accelerated.take_while(|l| !fc(l)).count()
}

/// Passes the offsets of `layer`'s first kernel with a tap through
/// `edit`, keeping the golden checksum: a post-load upset in the weights.
fn corrupt_layer(prepared: &mut PreparedWeights, layer: usize, edit: impl FnOnce(&mut [u32])) {
    let kernels = prepared.abm_layer(layer).unwrap().flat().kernels();
    let Some(victim) = kernels.iter().position(|k| k.total() > 0) else {
        return;
    };
    let flat = prepared.abm_layer_mut(layer).unwrap().flat_mut();
    let (_, _, offsets) = flat.kernels_mut()[victim].streams_mut();
    edit(offsets);
}

/// The fault events a run recorded, with their wall-clock stamps zeroed.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_networks_flow_through_one_arena_bit_identically(
        seed in any::<u64>(),
        blocks in 1usize..4,
        density_pct in 30u32..90,
        size in prop_oneof![
            Just(1usize), Just(2), Just(3), Just(8), Just(9), Just(17), Just(65),
        ],
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

        // A batch's images are the lanes of its fully-connected tail:
        // whatever its size, on one thread or two, under every policy
        // (one image's formats make the others saturate), each result
        // is the image's own — every field of it.
        let images: Vec<_> = (0..size).map(|i| image(net.input_shape(), i)).collect();
        let calibrated = abm.clone().calibration(formats_of(&model, &serial[0]));
        for inferencer in [&abm, &hardened, &calibrated] {
            let singles: Vec<InferenceResult> = images
                .iter()
                .map(|image| inferencer.run_prepared(&prepared, image).unwrap())
                .collect();
            for threads in [Parallelism::Serial, Parallelism::Threads(2)] {
                let pooled = inferencer.clone().parallelism(threads);
                prop_assert_eq!(&pooled.run_batch_prepared(&prepared, &images).unwrap(), &singles);
            }
        }

        // One image of the wrong shape fails alone, wherever it sits;
        // the rest still equal their singles.
        let singles = batch.run_batch_prepared(&prepared, &images).unwrap();
        let odd = seed as usize % images.len();
        let shape = net.input_shape();
        let mut mixed = images.clone();
        mixed[odd] = image(Shape3::new(shape.channels + 1, shape.rows, shape.cols), 0);
        let salvaged = batch.run_batch_salvage(&prepared, &mixed, None);
        for (i, outcome) in salvaged.iter().enumerate() {
            match outcome {
                Err(AbmError::ShapeMismatch { .. }) => prop_assert_eq!(i, odd),
                other => prop_assert_eq!(other.as_ref().ok(), Some(&singles[i]), "item {}", i),
            }
        }

        // A fully-connected kernel upset after load: the tail's one
        // ABFT check a batch catches it, and every image recovers alone,
        // recording the fault events it records when run singly. Each
        // run is a fresh handle's first call, so each scrubs the same
        // layer.
        let mut upset = prepared.clone();
        corrupt_layer(&mut upset, first_fc(&net), |offsets| offsets[0] ^= 1);
        let sink = TelemetrySink::new();
        let watched = hardened.clone().telemetry(sink.clone());
        let singles: Vec<InferenceResult> = images
            .iter()
            .map(|image| watched.run_prepared(&upset.clone(), image).unwrap())
            .collect();
        let recorded = faults(&sink);
        prop_assert_eq!(&singles, &batch.run_batch_prepared(&prepared, &images).unwrap());
        for threads in [Parallelism::Serial, Parallelism::Threads(2)] {
            let pooled = watched.clone().parallelism(threads);
            prop_assert_eq!(&pooled.run_batch_prepared(&upset.clone(), &images).unwrap(), &singles);
            prop_assert_eq!(&faults(&sink), &recorded);
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

/// The sweep guard of the shared tail. An offset one past the last
/// input feature makes the lane sweep's window check panic; the guard
/// turns the panic into a detection, and the chunk goes on alone, as on
/// any detection. No image sees a `WorkerPanic`: unchecked, each image
/// the tail carried completes or fails with its own typed
/// `CodeCorrupt`, tagged with the layer (alone, an image's feature
/// buffer is longer than its map, so the wild offset may read slack),
/// and hardened, each recovers the golden logits; the wrong-shape image
/// fails alone either way, and the pool's buffers survive it: the next,
/// clean batch is served.
#[test]
fn a_panicking_tail_is_a_detection_and_its_images_go_on_alone() {
    let net = mini_alexnet();
    let profile = PruneProfile::uniform(LayerProfile::new(0.5, 9));
    let model = synthesize_model(&net, &profile, 18);
    let images: Vec<_> = (0..5).map(|i| image(net.input_shape(), i)).collect();
    let batch = Inferencer::new(&model).parallelism(Parallelism::Threads(2));
    let clean = batch.prepare().unwrap();
    let golden = batch.run_batch_prepared(&clean, &images).unwrap();

    let layer = first_fc(&net);
    let features = clean.abm_layer(layer).unwrap().input_shape().len() as u32;
    let mut wild = clean.clone();
    corrupt_layer(&mut wild, layer, |offsets| offsets.fill(features));

    let mut mixed = images.clone();
    mixed[1] = image(Shape3::new(4, 19, 19), 0);
    let hardened = batch.clone().resilience(ResiliencePolicy::hardened());
    let unchecked = batch.run_batch_salvage(&wild, &mixed, None);
    let recovered = hardened.run_batch_salvage(&wild, &mixed, None);
    for (i, outcomes) in unchecked.iter().zip(&recovered).enumerate() {
        match outcomes {
            (Err(AbmError::ShapeMismatch { .. }), Err(AbmError::ShapeMismatch { .. })) => {
                assert_eq!(i, 1);
            }
            (unchecked, Ok(recovered)) if i != 1 => {
                assert_eq!(recovered.logits, golden[i].logits, "item {i}");
                if let Err(e) = unchecked {
                    assert!(
                        matches!(e, AbmError::Layer { layer: at, .. } if *at == layer)
                            && matches!(e.root_cause(), AbmError::CodeCorrupt { .. }),
                        "item {i}: {e}"
                    );
                }
            }
            other => panic!("item {i}: {other:?}"),
        }
    }
    // The same pool, the layer put right again.
    wild.share_layer(layer, &clean);
    assert_eq!(batch.run_batch_prepared(&wild, &images).unwrap(), golden);
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
            feature_buffers: 1,
            lane_arenas: 0
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

    // Batch on two threads, from nothing: however the claims
    // fall, never more arenas (or image buffers) than threads
    // executing, each counted once — an arena that has run one image's
    // prefix has grown all it will — and the one lane arena the tail
    // runs on, which the first batch grows and no later one does.
    let batch = serial.clone().parallelism(Parallelism::Threads(2));
    let fresh = batch.prepare().unwrap();
    for _ in 0..3 {
        assert_eq!(batch.run_batch_prepared(&fresh, &images).unwrap(), golden);
        let stats = fresh.arena_stats();
        assert!(stats.arenas <= 2 && stats.feature_buffers <= 2, "{stats:?}");
        assert_eq!(stats.lane_arenas, 1);
        assert_eq!(
            stats.grown as usize,
            stats.arenas + stats.feature_buffers + stats.lane_arenas
        );
    }
    // Hardened, on one thread so it is the same arena every time: its
    // ABFT tables grow in the first hardened batch, and nothing after.
    // The lane check keeps no buffer: it folds the lane rows straight
    // into its dot product.
    let before = fresh.arena_stats();
    for _ in 0..3 {
        assert_eq!(
            hardened.run_batch_prepared(&fresh, &images).unwrap(),
            golden
        );
        assert_eq!(
            fresh.arena_stats(),
            ArenaStats {
                grown: before.grown + 1,
                ..before
            }
        );
    }
}

/// A network whose accelerated layers are each worth two threads to a
/// lone image: a 32→64 convolution on a 32×32 map, then a 16384→96
/// fully-connected row.
fn wide_net() -> Network {
    let mut net = Network::new("wide", Shape3::new(32, 32, 32));
    let conv = ConvSpec::new(32, 64, 3, 1, 1);
    net.push(Layer::new("CONV", LayerKind::Conv(conv)));
    net.push(Layer::new("RELU", LayerKind::Relu));
    net.push(Layer::new("POOL", LayerKind::Pool(PoolSpec::max(2, 2))));
    let fc = FcSpec::new(64 * 16 * 16, 96);
    net.push(Layer::new("FC", LayerKind::FullyConnected(fc)));
    net
}

/// At width two a lone image splits every layer, each share sweeping
/// through a scratch of its own: the arena grows with the first image,
/// and with the first hardened one (its ABFT tables), and never again
/// — every result the serial one, a batch of one's too.
#[test]
fn the_arena_stops_growing_at_width_two() {
    let net = wide_net();
    let model = synthesize_model(&net, &PruneProfile::uniform(LayerProfile::new(0.5, 9)), 21);
    let images: Vec<_> = (0..4).map(|i| image(net.input_shape(), i)).collect();
    let serial = Inferencer::new(&model).parallelism(Parallelism::Serial);
    let golden: Vec<_> = {
        let prepared = serial.prepare().unwrap();
        let run = |image| serial.run_prepared(&prepared, image).unwrap();
        images.iter().map(run).collect()
    };
    let wide = serial.clone().parallelism(Parallelism::Threads(2));
    let prepared = wide.prepare().unwrap();
    let first = ArenaStats {
        grown: 2,
        arenas: 1,
        feature_buffers: 1,
        lane_arenas: 0,
    };
    for (image, want) in images.iter().zip(&golden) {
        assert_eq!(&wide.run_prepared(&prepared, image).unwrap(), want);
        assert_eq!(prepared.arena_stats(), first);
    }
    let hardened = wide.clone().resilience(ResiliencePolicy::hardened());
    let grown = ArenaStats { grown: 3, ..first };
    for (image, want) in images.iter().zip(&golden) {
        assert_eq!(&hardened.run_prepared(&prepared, image).unwrap(), want);
        assert_eq!(prepared.arena_stats(), grown);
        let alone = std::slice::from_ref(image);
        assert_eq!(
            &hardened.run_batch_prepared(&prepared, alone).unwrap()[0],
            want
        );
        assert_eq!(prepared.arena_stats(), grown);
    }
}

/// Whether two handles read accelerated layer `layer` from the same
/// memory.
fn shares(a: &PreparedWeights, b: &PreparedWeights, layer: usize) -> bool {
    std::ptr::eq(a.abm_layer(layer).unwrap(), b.abm_layer(layer).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A handle's write is its own. Corrupting layer `i` through a
    /// clone copies that layer and no other; the handle it was cloned
    /// from still passes every checksum and still computes golden
    /// logits with no fault recorded (the hardened policy records every
    /// corruption it sees, so a leak would show); the clone is caught
    /// by its own detectors, in that layer, within one call per layer
    /// (the scrub's round); and re-pointing its slot at the clean
    /// layer shares everything again.
    #[test]
    fn a_clone_shares_every_layer_until_it_writes_one(
        seed in 0u64..1_000,
        victim in 0usize..4,
        bit in 0u32..32,
    ) {
        let net = zoo::tiny();
        let model = synthesize_model(&net, &PruneProfile::uniform(LayerProfile::new(0.6, 12)), seed);
        let layers = model.layers.len();
        let sink = TelemetrySink::new();
        let strict = Inferencer::new(&model)
            .parallelism(Parallelism::Serial)
            .resilience(ResiliencePolicy::hardened())
            .telemetry(sink.clone());
        let input = image(net.input_shape(), 3);
        let original = strict.prepare().unwrap();
        let golden = strict.run_prepared(&original, &input).unwrap();

        let mut clone = original.clone();
        for layer in 0..layers {
            prop_assert!(shares(&original, &clone, layer));
        }
        corrupt_layer(&mut clone, victim, |offsets| offsets[0] ^= 1 << bit);
        for layer in 0..layers {
            prop_assert_eq!(shares(&original, &clone, layer), layer != victim);
            prop_assert!(original.abm_layer(layer).unwrap().verify_checksum().is_ok());
        }
        prop_assert!(clone.abm_layer(victim).unwrap().verify_checksum().is_err());
        prop_assert_eq!(&strict.run_prepared(&original, &input).unwrap(), &golden);
        prop_assert_eq!(faults(&sink), Vec::<Event>::new());
        for _ in 0..layers {
            strict.run_prepared(&clone, &input).unwrap();
        }
        let caught = faults(&sink);
        let detected = caught.iter().filter(|e| matches!(
            e,
            Event::Fault { action: FaultAction::Detected, .. }
        ));
        prop_assert!(detected.count() > 0, "{:?}", caught);
        for event in &caught {
            prop_assert!(
                matches!(event, Event::Fault { layer, .. } if *layer as usize == victim),
                "{:?}", event
            );
        }

        clone.share_layer(victim, &original);
        prop_assert!(shares(&original, &clone, victim));
        prop_assert_eq!(&strict.run_prepared(&clone, &input).unwrap(), &golden);
        prop_assert_eq!(faults(&sink), Vec::<Event>::new());
    }
}

/// The same isolation while the sibling is executing: one thread
/// corrupts a layer of its handle, recovers an image through it and
/// repairs it, round after round, while another serves images through
/// a sibling handle under a policy that records any corruption it can
/// see, and records none. A barrier starts each round on both threads
/// together.
#[test]
fn a_sibling_handle_serves_golden_while_another_is_corrupted_and_repaired() {
    const ROUNDS: usize = 24;
    let net = zoo::tiny();
    let model = synthesize_model(&net, &PruneProfile::uniform(LayerProfile::new(0.6, 12)), 5);
    let hardened = Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .resilience(ResiliencePolicy::hardened());
    let sink = TelemetrySink::new();
    let strict = hardened.clone().telemetry(sink.clone());
    let images: Vec<_> = (0..4).map(|i| image(net.input_shape(), i)).collect();
    let clean = strict.prepare().unwrap();
    let golden: Vec<_> = images
        .iter()
        .map(|image| strict.run_prepared(&clean, image).unwrap())
        .collect();

    let round = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut mine = clean.clone();
            for r in 0..ROUNDS {
                round.wait();
                let layer = r % model.layers.len();
                corrupt_layer(&mut mine, layer, |offsets| offsets[0] ^= 1 << (r % 32));
                let recovered = hardened.run_prepared(&mine, &images[r % images.len()]);
                assert_eq!(recovered.unwrap().logits, golden[r % images.len()].logits);
                mine.share_layer(layer, &clean);
            }
        });
        let sibling = clean.clone();
        for r in 0..ROUNDS {
            round.wait();
            for (image, want) in images.iter().zip(&golden) {
                assert_eq!(
                    &strict.run_prepared(&sibling, image).unwrap(),
                    want,
                    "round {r}"
                );
            }
        }
    });
    assert_eq!(faults(&sink), []);
    for layer in 0..model.layers.len() {
        assert!(clean.abm_layer(layer).unwrap().verify_checksum().is_ok());
    }
}

/// What a prepared AlexNet keeps resident per non-zero weight: its
/// flat offset, 4 B, what the sweep reads — and nothing else, since the
/// encoded code a layer is lowered from is dropped once it is prepared
/// (a corrupted layer is rebuilt from the model's raw weights) — plus
/// the Q-Tables (values and group bounds). A flat kernel is three
/// vectors and a layout, and the streams the accessors expose are all
/// it stores, so a second copy of every non-zero cannot come back
/// without failing here.
#[test]
fn a_prepared_alexnet_keeps_four_bytes_a_non_zero() {
    use std::mem::{size_of, size_of_val};
    assert_eq!(
        size_of::<FlatKernel>(),
        3 * size_of::<Vec<u32>>() + size_of::<FlatLayout>()
    );

    let profile = PruneProfile::alexnet_deep_compression();
    let model = synthesize_model(&zoo::alexnet(), &profile, 2019);
    let prepared = Inferencer::new(&model).prepare().unwrap();
    let (mut nnz, mut per_weight, mut q_tables) = (0, 0, 0);
    for (layer, sl) in model.layers.iter().enumerate() {
        let prep = prepared.abm_layer(layer).unwrap();
        nnz += sl.weights.as_slice().iter().filter(|&&w| w != 0).count();
        for flat in prep.flat().kernels() {
            per_weight += size_of_val(flat.offsets());
            q_tables += size_of_val(flat.values()) + size_of_val(flat.group_bounds());
        }
    }
    let mb = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    println!(
        "AlexNet: {nnz} non-zeros, {:.1} MB of offsets, {:.2} MB of Q-Tables",
        mb(per_weight),
        mb(q_tables)
    );
    assert_eq!(per_weight, 4 * nnz);
    // The Q-Tables are the small part: under a tenth of the streams.
    assert!(10 * q_tables < per_weight, "{q_tables} B of Q-Tables");
}

/// Every accelerated layer of AlexNet and VGG16 proves its stage-2
/// worst case — `2¹⁵ · Σ |v|·count` of its heaviest kernel — fits 32
/// signed bits, so an image sweeps into 4-byte accumulators: after one
/// VGG16 image the arena holds CONV1_1's 64×224×224 of them at 4 B
/// (12.8 MB, half of what an `i64` plane took) and no `i64` plane at
/// all. A plane re-widened, or a layer that stops proving, fails here.
#[test]
fn zoo_layers_sweep_into_a_four_byte_plane() {
    use abm_spconv_repro::kernel::AccWidth;
    for (net, profile) in [
        (zoo::alexnet(), PruneProfile::alexnet_deep_compression()),
        (zoo::vgg16(), PruneProfile::vgg16_deep_compression()),
    ] {
        let model = synthesize_model(&net, &profile, 2019);
        let serial = Inferencer::new(&model).parallelism(Parallelism::Serial);
        let prepared = serial.prepare().unwrap();
        let (mut tightest, mut at) = (0.0, "");
        for (layer, sl) in model.layers.iter().enumerate() {
            let prep = prepared.abm_layer(layer).unwrap();
            assert_eq!(prep.plane_width(), AccWidth::I32, "{}", sl.name());
            let kernels = prep.flat().kernels().iter().map(|k| {
                let groups = k.values().iter().zip(k.group_counts());
                groups
                    .map(|(v, c)| u64::from(v.unsigned_abs()) * c)
                    .sum::<u64>()
            });
            let share = (kernels.max().unwrap() << 15) as f64 / f64::from(i32::MAX);
            if share > tightest {
                (tightest, at) = (share, sl.name());
            }
        }
        println!(
            "{}: tightest stage-2 bound {at} at {tightest:.2} of i32::MAX",
            net.name()
        );
        if net.name() == "VGG16" {
            serial
                .run_prepared(&prepared, &image(net.input_shape(), 0))
                .unwrap();
            assert_eq!(prepared.arena_plane_bytes(), (4 * 64 * 224 * 224, 0));
        }
    }
}
