//! Shared models for the benchmark harness. One binary, `paper`,
//! regenerates every artifact of the paper's evaluation and the studies
//! beyond it into `REPRO_paper.json`, one section each:
//!
//! | section      | artifact |
//! |--------------|----------|
//! | `table1`     | #OP comparison across convolution schemes (VGG16) |
//! | `table2`     | comparison with state-of-the-art accelerators, and the simulated VGG16 run layer by layer |
//! | `table3`     | design parameters and encoded weight sizes |
//! | `figure1`    | roofline of the design spaces on the GXA7 |
//! | `figure4`    | the encoding's worked example |
//! | `figure6`    | exploration of the optimal `N_knl` |
//! | `figure7`    | attainable throughput in the `S_ec × N_cu` plane |
//! | `ablation`   | design-choice ablations (N, FIFO depth, scheduler…) |
//! | `precision`  | the 16-bit accumulator study |
//! | `sweep`      | sparsity × codebook plane |
//! | `projection` | the Figure-5 flow on Arria-10 and VGG19, each candidate simulated |
//! | `energy`     | first-order energy per inference |
//!
//! It also writes the simulated pipelined batch throughput to
//! `BENCH_pipeline.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abm_model::{synthesize_model, zoo, PruneProfile, SparseModel};

/// The fixed seed used by every experiment (results are deterministic
/// and reproducible).
pub const SEED: u64 = 2019;

/// The synthetic pruned+quantized VGG16 used throughout the evaluation.
pub fn vgg16_model() -> SparseModel {
    synthesize_model(&zoo::vgg16(), &PruneProfile::vgg16_deep_compression(), SEED)
}

/// The synthetic pruned+quantized AlexNet.
pub fn alexnet_model() -> SparseModel {
    synthesize_model(
        &zoo::alexnet(),
        &PruneProfile::alexnet_deep_compression(),
        SEED,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_build() {
        assert_eq!(vgg16_model().layers.len(), 16);
        assert_eq!(alexnet_model().layers.len(), 8);
    }
}
