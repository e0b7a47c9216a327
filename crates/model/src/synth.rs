//! Synthetic sparse quantized models.
//!
//! Real pruned/quantized AlexNet and VGG16 checkpoints are not
//! redistributable, so this module synthesizes weight tensors whose
//! *statistics* match the published ones (see DESIGN.md §2): per-layer
//! pruning ratio, and concentration of the surviving weights onto a small
//! per-layer codebook of quantized values. Every quantity the paper's
//! evaluation depends on — op counts, encoded weight size, Q-Table sizes,
//! per-kernel load imbalance — is a function of exactly these statistics.
//!
//! Two generators are provided:
//!
//! * [`synthesize_model`] — draws weights directly in quantized form from
//!   a per-layer codebook (fast; used for the paper-scale experiments);
//! * [`synthesize_from_float`] — runs the full float → prune → quantize
//!   pipeline on freshly sampled Gaussian weights (slower; exercises the
//!   production path end to end).

use crate::layer::LayerKind;
use crate::network::{Network, ResolvedLayer};
use crate::prune::{prune_magnitude, PruneProfile};
use abm_tensor::quantize::quantize_tensor;
use abm_tensor::{QFormat, Shape4, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A convolution/FC layer with quantized sparse weights attached.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseLayer {
    /// The layer descriptor with resolved input/output shapes.
    pub layer: ResolvedLayer,
    /// Quantized weights; zero means pruned.
    pub weights: Tensor4<i8>,
    /// Fixed-point format of the weights.
    pub format: QFormat,
}

impl SparseLayer {
    /// Convolution stride (1 for FC layers).
    pub fn stride(&self) -> usize {
        match &self.layer.layer.kind {
            LayerKind::Conv(c) => c.stride,
            _ => 1,
        }
    }

    /// Zero padding (0 for FC layers).
    pub fn pad(&self) -> usize {
        match &self.layer.layer.kind {
            LayerKind::Conv(c) => c.pad,
            _ => 0,
        }
    }

    /// Channel groups (1 for FC layers).
    pub fn groups(&self) -> usize {
        match &self.layer.layer.kind {
            LayerKind::Conv(c) => c.groups,
            _ => 1,
        }
    }

    /// Number of non-zero weights.
    pub fn nnz(&self) -> usize {
        self.weights.as_slice().iter().filter(|&&w| w != 0).count()
    }

    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.layer.layer.name
    }
}

/// A network together with sparse quantized weights for every accelerated
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseModel {
    /// The architecture.
    pub network: Network,
    /// One entry per conv/FC layer, in execution order.
    pub layers: Vec<SparseLayer>,
}

impl SparseModel {
    /// Finds a layer by name.
    pub fn layer(&self, name: &str) -> Option<&SparseLayer> {
        self.layers.iter().find(|l| l.name() == name)
    }

    /// Total non-zero weights across all layers.
    pub fn total_nnz(&self) -> usize {
        self.layers.iter().map(|l| l.nnz()).sum()
    }

    /// Indices into [`layers`](Self::layers) of the convolutions — the
    /// accelerated layers the functional fault classes (the campaign's
    /// and serving-path chaos alike) target.
    pub fn conv_indices(&self) -> Vec<usize> {
        let is_conv = |&i: &usize| matches!(self.layers[i].layer.layer.kind, LayerKind::Conv(_));
        (0..self.layers.len()).filter(is_conv).collect()
    }
}

/// Builds a per-layer codebook of `levels` distinct non-zero signed 8-bit
/// values, concentrated near zero like trained quantized CNN weights
/// (alternating ±1, ∓2, ±3, … then stretched to cover the full range).
fn codebook(levels: usize, rng: &mut StdRng) -> Vec<i8> {
    assert!((1..=254).contains(&levels), "levels must be 1..=254");
    // Half the codebook sits at small magnitudes (m = 1..), the rest is
    // spread geometrically toward 127, mimicking the heavy-tailed
    // magnitude distribution left after pruning small weights away.
    let mut values: Vec<i8> = Vec::with_capacity(levels);
    let mut mag = 1i32;
    let mut step = 1f64;
    while values.len() < levels {
        let v = mag.min(127) as i8;
        if !values.contains(&v) {
            values.push(v);
        }
        if values.len() < levels {
            let neg = -(mag.min(127)) as i8;
            if !values.contains(&neg) {
                values.push(neg);
            }
        }
        step *= 1.0 + rng.gen_range(0.05..0.45);
        mag += step.max(1.0) as i32;
        if mag > 127 {
            // Wrapped: fill any remaining slots with unused magnitudes.
            let mut m = 1i32;
            while values.len() < levels && m <= 127 {
                if !values.contains(&(m as i8)) {
                    values.push(m as i8);
                }
                if values.len() < levels && !values.contains(&(-m as i8)) {
                    values.push(-m as i8);
                }
                m += 1;
            }
            break;
        }
    }
    values
}

fn weight_shape(layer: &ResolvedLayer) -> Shape4 {
    match &layer.layer.kind {
        LayerKind::Conv(c) => c.weight_shape(),
        LayerKind::FullyConnected(fc) => fc.weight_shape(),
        _ => unreachable!("only accelerated layers carry weights"),
    }
}

/// `2⁵³`: the number of distinct values a 53-bit unit draw takes.
const UNIT: u64 = 1 << 53;

/// The integer form of [`Rng::gen_bool`]`(p)`: a 64-bit draw `x` is a
/// hit exactly when [`survives`]`(x, survival_threshold(p))`.
///
/// `gen_bool` compares `(x >> 11) · 2⁻⁵³` with `p`. Both scalings by a
/// power of two are exact in `f64`, so the test holds exactly when
/// `x >> 11 < p · 2⁵³`, and, `x >> 11` being an integer, exactly when
/// `x >> 11 < ⌈p · 2⁵³⌉`. With `p ≤ 1` the threshold is at most `2⁵³`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`, as `gen_bool` does.
fn survival_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p={p} out of range");
    (p * UNIT as f64).ceil() as u64
}

/// Whether the draw `x` keeps a weight under `threshold`.
fn survives(x: u64, threshold: u64) -> bool {
    (x >> 11) < threshold
}

/// One layer's weights, written in place: each kept with probability
/// `density` and, if kept, drawn uniformly from `book`. Weight by
/// weight in row-major order it consumes what `gen_bool(density)` and,
/// for a survivor, `gen_range(0..book.len())` would, so every survivor
/// shifts the stream under every later weight and the loop is serial.
fn draw_weights(shape: Shape4, density: f64, book: &[i8], rng: &mut StdRng) -> Tensor4<i8> {
    let threshold = survival_threshold(density);
    let mut data = vec![0; shape.len()];
    for w in &mut data {
        if survives(rng.next_u64(), threshold) {
            *w = book[rng.gen_range(0..book.len())];
        }
    }
    Tensor4::from_vec(shape, data)
}

/// Synthesizes a sparse quantized model for `net` matching `profile`'s
/// per-layer statistics, deterministically from `seed`.
///
/// Each weight is kept independently with probability `density` (giving
/// the natural per-kernel nnz variance of global-threshold pruning) and
/// surviving weights draw uniformly from the layer codebook.
///
/// # Examples
///
/// ```
/// use abm_model::{synthesize_model, PruneProfile, zoo};
/// let net = zoo::tiny();
/// let profile = PruneProfile::uniform(abm_model::prune::LayerProfile::new(0.6, 16));
/// let model = synthesize_model(&net, &profile, 42);
/// assert_eq!(model.layers.len(), 4);
/// // Reproducible: same seed, same weights.
/// let again = synthesize_model(&net, &profile, 42);
/// assert_eq!(model, again);
/// ```
pub fn synthesize_model(net: &Network, profile: &PruneProfile, seed: u64) -> SparseModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = net
        .conv_fc_layers()
        .map(|layer| {
            let p = profile.for_layer(&layer.layer.name);
            let shape = weight_shape(&layer);
            let book = codebook(p.value_levels, &mut rng);
            let weights = draw_weights(shape, p.density(), &book, &mut rng);
            // Dynamic fixed point: pick a plausible per-layer fractional
            // length (weights in roughly [-1, 1] ⇒ frac near 7).
            let format = QFormat::new(8, 7);
            SparseLayer {
                layer,
                weights,
                format,
            }
        })
        .collect();
    SparseModel {
        network: net.clone(),
        layers,
    }
}

/// Runs the full float → magnitude-prune → 8-bit-quantize pipeline on
/// freshly sampled Gaussian weights (He-style scale), deterministically
/// from `seed`.
///
/// Unlike [`synthesize_model`], the distinct-value statistics emerge from
/// quantization instead of being dialled in; this path exists to exercise
/// the production pipeline end to end.
pub fn synthesize_from_float(net: &Network, profile: &PruneProfile, seed: u64) -> SparseModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = net
        .conv_fc_layers()
        .map(|layer| {
            let p = profile.for_layer(&layer.layer.name);
            let shape = weight_shape(&layer);
            let fan_in = shape.kernel_len().max(1) as f64;
            let sigma = (2.0 / fan_in).sqrt();
            let float = Tensor4::from_fn(shape, |_, _, _, _| {
                // Box–Muller from two uniforms keeps us on rand's stable
                // API surface.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (z * sigma) as f32
            });
            let pruned = prune_magnitude(&float, p.prune_ratio);
            let q = quantize_tensor(&pruned, 8);
            let weights = q.weights.map(|&w| {
                debug_assert!((-128..=127).contains(&w));
                w as i8
            });
            SparseLayer {
                layer,
                weights,
                format: q.format,
            }
        })
        .collect();
    SparseModel {
        network: net.clone(),
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::LayerProfile;
    use crate::zoo;
    use proptest::prelude::*;

    /// `synthesize_model` as it was before the integer threshold:
    /// `Tensor4::from_fn`'s closure calling `gen_bool`. Kept as the
    /// oracle the in-place loop must reproduce draw for draw.
    fn synthesize_model_oracle(net: &Network, profile: &PruneProfile, seed: u64) -> SparseModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = net
            .conv_fc_layers()
            .map(|layer| {
                let p = profile.for_layer(&layer.layer.name);
                let shape = weight_shape(&layer);
                let book = codebook(p.value_levels, &mut rng);
                let density = p.density();
                let weights = Tensor4::from_fn(shape, |_, _, _, _| {
                    if rng.gen_bool(density) {
                        book[rng.gen_range(0..book.len())]
                    } else {
                        0
                    }
                });
                let format = QFormat::new(8, 7);
                SparseLayer {
                    layer,
                    weights,
                    format,
                }
            })
            .collect();
        SparseModel {
            network: net.clone(),
            layers,
        }
    }

    #[test]
    fn in_place_loop_draws_what_the_closure_loop_drew() {
        let tiny = |prune| PruneProfile::uniform(LayerProfile::new(prune, 16));
        let alexnet = PruneProfile::alexnet_deep_compression();
        let vgg16 = PruneProfile::vgg16_deep_compression();
        let cases = [
            (zoo::tiny(), tiny(0.6), 2019),
            (zoo::tiny(), tiny(0.6), 7),
            (zoo::tiny(), tiny(0.0), 7),
            (zoo::tiny(), tiny(1.0), 7),
            (zoo::alexnet(), alexnet.clone(), 2019),
            (zoo::alexnet(), alexnet, 7),
            (zoo::vgg16(), vgg16, 2019),
        ];
        for (net, profile, seed) in cases {
            let model = synthesize_model(&net, &profile, seed);
            let oracle = synthesize_model_oracle(&net, &profile, seed);
            assert_eq!(model.network, oracle.network);
            assert_eq!(model.layers.len(), oracle.layers.len());
            for (a, b) in model.layers.iter().zip(&oracle.layers) {
                // Not `assert_eq!`: a failure would print every weight.
                assert!(a == b, "{} {} at seed {seed}", net.name(), a.name());
            }
        }
    }

    /// A generator that repeats one word, so `gen_bool` on it is a pure
    /// function of that word and `p`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Any `p` in `[0, 1]`, with the edges weighted in: `p · 2⁵³`
    /// integral (the threshold is then `p · 2⁵³` itself, not the next
    /// integer up), 0, 1 and the subnormals.
    fn probability() -> impl Strategy<Value = f64> {
        prop_oneof![
            4 => 0.0f64..1.0,
            4 => (0..UNIT + 1).prop_map(|k| k as f64 / UNIT as f64),
            2 => (1u64..1 << 52).prop_map(f64::from_bits),
            1 => Just(0.0),
            1 => Just(1.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn the_threshold_test_is_gen_bool(
            p in probability(),
            x in any::<u64>(),
            step in 0u64..3,
            low in 0u64..1 << 11,
        ) {
            let t = survival_threshold(p);
            prop_assert_eq!(Fixed(x).gen_bool(p), survives(x, t), "p={} x={}", p, x);
            // A draw whose top 53 bits are t − 1, t or t + 1, with random
            // low bits (which neither test may read).
            let k = (t + step).saturating_sub(1).min(UNIT - 1);
            let x = (k << 11) | low;
            prop_assert_eq!(Fixed(x).gen_bool(p), survives(x, t), "p={} k={}", p, k);
        }
    }

    #[test]
    fn threshold_edges() {
        assert_eq!(survival_threshold(0.0), 0);
        assert_eq!(survival_threshold(-0.0), 0);
        assert_eq!(survival_threshold(1.0), UNIT);
        assert_eq!(survival_threshold(0.5), UNIT / 2);
        assert_eq!(survival_threshold(f64::from_bits(1)), 1);
        assert!(!survives(u64::MAX, UNIT - 1) && survives(u64::MAX, UNIT));
        assert!(survives(0, 1) && !survives(0, 0));
    }

    #[test]
    fn a_probability_outside_the_unit_interval_panics() {
        let outside = [
            -f64::from_bits(1),
            -0.25,
            1.0 + f64::EPSILON,
            2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for p in outside {
            let threshold = std::panic::catch_unwind(|| survival_threshold(p));
            let gen_bool = std::panic::catch_unwind(|| Fixed(0).gen_bool(p));
            assert!(threshold.is_err() && gen_bool.is_err(), "p={p}");
        }
    }

    #[test]
    fn codebook_has_exact_levels_and_no_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for levels in [1, 2, 4, 9, 38, 80, 200, 254] {
            let book = codebook(levels, &mut rng);
            assert_eq!(book.len(), levels, "levels {levels}");
            assert!(!book.contains(&0));
            let mut dedup = book.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), levels, "codebook values must be distinct");
        }
    }

    #[test]
    fn synthesized_density_matches_profile() {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.7, 16));
        let model = synthesize_model(&net, &profile, 7);
        for layer in &model.layers {
            let d = layer.nnz() as f64 / layer.weights.len() as f64;
            assert!((d - 0.3).abs() < 0.05, "{}: density {d}", layer.name());
        }
    }

    #[test]
    fn synthesized_values_come_from_small_codebook() {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.5, 8));
        let model = synthesize_model(&net, &profile, 3);
        for layer in &model.layers {
            let mut distinct: Vec<i8> = layer
                .weights
                .as_slice()
                .iter()
                .copied()
                .filter(|&w| w != 0)
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() <= 8,
                "{}: {} distinct",
                layer.name(),
                distinct.len()
            );
        }
    }

    #[test]
    fn float_pipeline_prunes_and_quantizes() {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.8, 16));
        let model = synthesize_from_float(&net, &profile, 11);
        for layer in &model.layers {
            let d = layer.nnz() as f64 / layer.weights.len() as f64;
            // Magnitude pruning is exact-count; quantization can only zero
            // a few more borderline weights.
            assert!(d <= 0.21 && d > 0.10, "{}: density {d}", layer.name());
            assert_eq!(layer.format.bits(), 8);
        }
    }

    #[test]
    fn seeds_differ() {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.5, 16));
        let a = synthesize_model(&net, &profile, 1);
        let b = synthesize_model(&net, &profile, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn sparse_layer_accessors() {
        let net = zoo::alexnet();
        let profile = PruneProfile::alexnet_deep_compression();
        let model = synthesize_model(&net, &profile, 5);
        let conv2 = model.layer("CONV2").unwrap();
        assert_eq!(conv2.stride(), 1);
        assert_eq!(conv2.pad(), 2);
        assert_eq!(conv2.groups(), 2);
        let fc6 = model.layer("FC6").unwrap();
        assert_eq!(fc6.stride(), 1);
        assert_eq!(fc6.groups(), 1);
        assert!(model.layer("MISSING").is_none());
        assert!(model.total_nnz() > 0);
        // CONV1–5 come first; FC6–8 are accelerated but not convolutions.
        assert_eq!(model.conv_indices(), [0, 1, 2, 3, 4]);
    }
}
