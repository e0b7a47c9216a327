//! The networks under test and the seeded inputs the program receives.
//!
//! The pruned model is the deployed artefact, so it is synthesized from
//! one fixed seed; `--seed` is the traffic: which images of a fixed pool
//! a run sends, in which order, and the arrival jitter. Every pool image
//! has a dense-engine golden result in `golden.json`, so every seed the
//! driver passes is checked against an oracle (a dense VGG16 image costs
//! ~40 s here, far too slow to compute inside a run).

use crate::stats::{fnv1a, Rng};
use abm_model::{synthesize_model, zoo, LayerProfile, Network, PruneProfile, SparseModel};
use abm_tensor::Tensor3;

/// Seed of every synthesized model (the year of the paper, as
/// elsewhere in this repo).
pub const MODEL_SEED: u64 = 2019;

/// Images in each network's pool.
pub const POOL: usize = 12;

/// Distinct images one run cycles through.
pub const RUN_IMAGES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    Tiny,
    Alexnet,
    Vgg16,
}

impl Net {
    pub const ALL: [Net; 3] = [Net::Tiny, Net::Alexnet, Net::Vgg16];

    pub fn name(self) -> &'static str {
        match self {
            Net::Tiny => "tiny",
            Net::Alexnet => "alexnet",
            Net::Vgg16 => "vgg16",
        }
    }

    pub fn network(self) -> Network {
        match self {
            Net::Tiny => zoo::tiny(),
            Net::Alexnet => zoo::alexnet(),
            Net::Vgg16 => zoo::vgg16(),
        }
    }

    pub fn profile(self) -> PruneProfile {
        match self {
            Net::Tiny => PruneProfile::uniform(LayerProfile::new(0.6, 16)),
            Net::Alexnet => PruneProfile::alexnet_deep_compression(),
            Net::Vgg16 => PruneProfile::vgg16_deep_compression(),
        }
    }

    pub fn synthesize(self) -> SparseModel {
        synthesize_model(&self.network(), &self.profile(), MODEL_SEED)
    }

    /// Pool image `id`: 8-bit pixels, the range the first layer's
    /// certified kernel selection assumes.
    pub fn pool_image(self, id: usize) -> Tensor3<i16> {
        let mut rng = Rng::new(fnv1a(self.name().bytes().chain((id as u64).to_le_bytes())));
        feature_map(self.network().input_shape(), &mut rng)
    }
}

/// A feature map of 8-bit values (`-128..=127` held in `i16`).
pub fn feature_map(shape: abm_tensor::Shape3, rng: &mut Rng) -> Tensor3<i16> {
    Tensor3::from_fn(shape, |_, _, _| (rng.next_u64() >> 56) as i16 - 128)
}

/// One pool image with its id, so a result can be looked up in the
/// golden file.
#[derive(Debug, Clone)]
pub struct Image {
    pub id: usize,
    pub pixels: Tensor3<i16>,
}

/// The `RUN_IMAGES` pool images a seed selects, in the seed's order
/// (a partial Fisher-Yates shuffle of the pool).
pub fn run_images(net: Net, rng: &mut Rng) -> Vec<Image> {
    let mut ids: Vec<usize> = (0..POOL).collect();
    for i in 0..RUN_IMAGES {
        let j = i + rng.below(POOL - i);
        ids.swap(i, j);
    }
    ids[..RUN_IMAGES]
        .iter()
        .map(|&id| Image {
            id,
            pixels: net.pool_image(id),
        })
        .collect()
}
