//! Magnitude pruning (Han et al.'s Deep Compression scheme) and the
//! published per-layer sparsity profiles of the paper's two benchmarks.
//!
//! A [`PruneProfile`] records, per accelerated layer, the fraction of
//! weights pruned away and the *value concentration* of the surviving
//! quantized weights (how many distinct fixed-point values a kernel
//! typically contains). Both statistics come straight from the paper:
//! pruning ratios from Table 1 / Deep Compression, distinct-value counts
//! back-derived from Table 1's `Mult.` column (see DESIGN.md §2).

use crate::network::Network;
use abm_tensor::Tensor4;

/// Per-layer sparsity statistics driving pruning and synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerProfile {
    /// Fraction of weights pruned to zero (Table 1 "Pruning Ratio").
    pub prune_ratio: f64,
    /// Number of distinct non-zero quantized values the layer's weights
    /// concentrate on (the effective codebook size after trained
    /// quantization).
    pub value_levels: usize,
}

impl LayerProfile {
    /// Creates a profile entry.
    ///
    /// # Panics
    ///
    /// Panics if `prune_ratio` is outside `[0, 1]` or `value_levels` is 0
    /// or exceeds 255 (the non-zero values representable in 8 bits).
    pub fn new(prune_ratio: f64, value_levels: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&prune_ratio),
            "prune_ratio must be within [0,1], got {prune_ratio}"
        );
        assert!(
            (1..=254).contains(&value_levels),
            "value_levels must be within 1..=254 (distinct non-zero signed \
             8-bit values), got {value_levels}"
        );
        Self {
            prune_ratio,
            value_levels,
        }
    }

    /// Fraction of weights kept.
    pub fn density(&self) -> f64 {
        1.0 - self.prune_ratio
    }
}

/// A named map from layer name to [`LayerProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct PruneProfile {
    entries: Vec<(String, LayerProfile)>,
    default: LayerProfile,
}

impl PruneProfile {
    /// Creates a profile from `(layer name, profile)` pairs with a
    /// fallback used for layers not listed.
    pub fn new(
        entries: impl IntoIterator<Item = (String, LayerProfile)>,
        default: LayerProfile,
    ) -> Self {
        Self {
            entries: entries.into_iter().collect(),
            default,
        }
    }

    /// A uniform profile applying the same statistics to every layer.
    pub fn uniform(profile: LayerProfile) -> Self {
        Self {
            entries: Vec::new(),
            default: profile,
        }
    }

    /// Looks up the profile for a layer name (falling back to the
    /// default).
    pub fn for_layer(&self, name: &str) -> LayerProfile {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
            .unwrap_or(self.default)
    }

    /// The listed entries.
    pub fn entries(&self) -> &[(String, LayerProfile)] {
        &self.entries
    }

    /// Deep Compression's published VGG16 profile. Pruning ratios are the
    /// "Pruning Ratio" column of Table 1 (which matches Han et al.);
    /// value levels are calibrated to Table 1's `Mult.` column for the
    /// listed layers and interpolated for the rest.
    pub fn vgg16_deep_compression() -> Self {
        let rows: &[(&str, f64, usize)] = &[
            ("CONV1_1", 0.42, 4),
            ("CONV1_2", 0.78, 38),
            ("CONV2_1", 0.66, 34),
            ("CONV2_2", 0.64, 33),
            ("CONV3_1", 0.47, 30),
            ("CONV3_2", 0.76, 28),
            ("CONV3_3", 0.58, 27),
            ("CONV4_1", 0.68, 24),
            ("CONV4_2", 0.73, 20),
            ("CONV4_3", 0.66, 20),
            ("CONV5_1", 0.65, 18),
            ("CONV5_2", 0.71, 18),
            ("CONV5_3", 0.64, 18),
            ("FC6", 0.96, 9),
            ("FC7", 0.96, 5),
            ("FC8", 0.77, 12),
        ];
        Self::from_rows(rows)
    }

    /// Deep Compression's published AlexNet profile. The large CONV1
    /// codebook reflects the wide dynamic range of first-layer filters
    /// (and yields the minimum Acc/Mult ratio ≈ 4 that makes the paper's
    /// `N = 4` the right setting for AlexNet too).
    pub fn alexnet_deep_compression() -> Self {
        let rows: &[(&str, f64, usize)] = &[
            ("CONV1", 0.16, 80),
            ("CONV2", 0.62, 30),
            ("CONV3", 0.65, 28),
            ("CONV4", 0.63, 26),
            ("CONV5", 0.63, 24),
            ("FC6", 0.91, 9),
            ("FC7", 0.91, 5),
            ("FC8", 0.75, 12),
        ];
        Self::from_rows(rows)
    }

    fn from_rows(rows: &[(&str, f64, usize)]) -> Self {
        Self::new(
            rows.iter()
                .map(|&(n, p, v)| (n.to_string(), LayerProfile::new(p, v))),
            LayerProfile::new(0.5, 32),
        )
    }

    /// The overall MAC reduction factor this profile achieves on `net`
    /// (the `R_mac` of Figure 1; ~3.06 for VGG16, ~2.3–2.4 for AlexNet).
    pub fn mac_reduction(&self, net: &Network) -> f64 {
        let mut dense = 0f64;
        let mut kept = 0f64;
        for l in net.conv_fc_layers() {
            let macs = l.dense_macs() as f64;
            dense += macs;
            kept += macs * self.for_layer(&l.layer.name).density();
        }
        if kept == 0.0 {
            f64::INFINITY
        } else {
            dense / kept
        }
    }
}

/// Prunes the smallest-magnitude fraction `ratio` of `weights` to zero,
/// returning the pruned tensor (Han-style one-shot magnitude pruning with
/// a per-layer global threshold).
///
/// Ties at the threshold magnitude are broken by index order so that the
/// requested count is pruned exactly.
///
/// # Panics
///
/// Panics if `ratio` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use abm_tensor::{Tensor4, Shape4};
/// use abm_model::prune_magnitude;
/// let w = Tensor4::from_fn(Shape4::new(1, 1, 2, 2), |_, _, k, kp| {
///     1.0 + (k * 2 + kp) as f32
/// });
/// let p = prune_magnitude(&w, 0.5);
/// assert_eq!(p.as_slice(), &[0.0, 0.0, 3.0, 4.0]);
/// ```
pub fn prune_magnitude(weights: &Tensor4<f32>, ratio: f64) -> Tensor4<f32> {
    assert!(
        (0.0..=1.0).contains(&ratio),
        "ratio must be within [0,1], got {ratio}"
    );
    let n = weights.len();
    let prune_count = (n as f64 * ratio).round() as usize;
    if prune_count == 0 {
        return weights.clone();
    }
    let mut order: Vec<usize> = (0..n).collect();
    let data = weights.as_slice();
    order.sort_by(|&a, &b| {
        data[a]
            .abs()
            .partial_cmp(&data[b].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut pruned = weights.clone();
    let out = pruned.as_mut_slice();
    for &i in order.iter().take(prune_count.min(n)) {
        out[i] = 0.0;
    }
    pruned
}

/// Measured density (fraction of non-zero weights) of a tensor.
pub fn density<T: PartialEq + Default>(weights: &Tensor4<T>) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    let zero = T::default();
    let nnz = weights.as_slice().iter().filter(|w| **w != zero).count();
    nnz as f64 / weights.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use abm_tensor::Shape4;

    #[test]
    fn prune_exact_count() {
        let w = Tensor4::from_fn(Shape4::new(2, 2, 3, 3), |m, n, k, kp| {
            ((m * 18 + n * 9 + k * 3 + kp) as f32) - 17.5
        });
        for &ratio in &[0.0, 0.25, 0.5, 0.9, 1.0] {
            let p = prune_magnitude(&w, ratio);
            let zeros = p.as_slice().iter().filter(|&&x| x == 0.0).count();
            assert_eq!(zeros, (36.0 * ratio).round() as usize, "ratio {ratio}");
        }
    }

    #[test]
    fn prune_removes_smallest() {
        let w = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![0.1, -5.0, 0.01, 2.0]);
        let p = prune_magnitude(&w, 0.5);
        assert_eq!(p.as_slice(), &[0.0, -5.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ratio must be within")]
    fn prune_rejects_bad_ratio() {
        let w = Tensor4::<f32>::zeros(Shape4::new(1, 1, 1, 1));
        let _ = prune_magnitude(&w, 1.5);
    }

    #[test]
    fn density_measures() {
        let w = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(density(&w), 0.5);
        let z = Tensor4::<f32>::zeros(Shape4::new(1, 1, 0, 2));
        assert_eq!(density(&z), 0.0);
    }

    #[test]
    fn vgg16_profile_matches_table1() {
        let p = PruneProfile::vgg16_deep_compression();
        assert_eq!(p.for_layer("CONV1_1").prune_ratio, 0.42);
        assert_eq!(p.for_layer("CONV4_2").prune_ratio, 0.73);
        assert_eq!(p.for_layer("FC6").prune_ratio, 0.96);
        // Unknown layer falls back to the default.
        assert_eq!(p.for_layer("NOPE").prune_ratio, 0.5);
    }

    #[test]
    fn vgg16_mac_reduction_matches_paper() {
        // Section 6.2: "the model pruning scheme adopted in our design
        // maintains a similar reduction rate of 3.06x" for VGG16.
        let net = zoo::vgg16();
        let r = PruneProfile::vgg16_deep_compression().mac_reduction(&net);
        assert!((r - 3.06).abs() < 0.1, "VGG16 MAC reduction {r}");
    }

    #[test]
    fn alexnet_mac_reduction_matches_paper() {
        // Section 6.2: AlexNet pruning "only reduces the total MAC
        // operations by 2.3x".
        let net = zoo::alexnet();
        let r = PruneProfile::alexnet_deep_compression().mac_reduction(&net);
        assert!((r - 2.3).abs() < 0.2, "AlexNet MAC reduction {r}");
    }

    #[test]
    #[should_panic(expected = "value_levels")]
    fn layer_profile_rejects_zero_levels() {
        let _ = LayerProfile::new(0.5, 0);
    }
}
