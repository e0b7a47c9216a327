//! Shared helpers for the benchmark harness: model construction and
//! table formatting used by the per-table/per-figure binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation or
//! one study beyond it:
//!
//! | binary       | artifact |
//! |--------------|----------|
//! | `table1`     | #OP comparison across convolution schemes (VGG16) |
//! | `table2`     | comparison with state-of-the-art accelerators |
//! | `table3`     | design parameters and encoded weight sizes |
//! | `figure1`    | roofline of the design spaces on the GXA7 |
//! | `figure4`    | the encoding's worked example |
//! | `figure6`    | exploration of the optimal `N_knl` |
//! | `figure7`    | attainable throughput in the `S_ec × N_cu` plane |
//! | `ablation`   | design-choice ablations (N, FIFO depth, scheduler…) |
//! | `precision`  | the 16-bit accumulator study |
//! | `sweep`      | sparsity × codebook plane |
//! | `projection` | the Figure-5 flow on Arria-10 and VGG19 |
//! | `energy`     | first-order energy per inference |
//! | `pipeline`   | simulated pipelined batch throughput, `BENCH_pipeline.json` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abm_model::{synthesize_model, zoo, PruneProfile, SparseModel};

/// The fixed seed used by every experiment binary (results are
/// deterministic and reproducible).
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

/// Formats an op count in MOP with the precision Table 1 uses.
pub fn mop(ops: u64) -> String {
    let m = ops as f64 / 1e6;
    if m >= 100.0 {
        format!("{m:.0}")
    } else if m >= 10.0 {
        format!("{m:.1}")
    } else {
        format!("{m:.2}")
    }
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a ratio like `3.4` / `62.7` the way Table 1 does.
pub fn ratio(r: f64) -> String {
    if r.is_infinite() {
        "inf".to_string()
    } else {
        format!("{r:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_build() {
        assert_eq!(vgg16_model().layers.len(), 16);
        assert_eq!(alexnet_model().layers.len(), 8);
    }

    #[test]
    fn formatting() {
        assert_eq!(mop(173_408_256), "173");
        assert_eq!(mop(12_100_000), "12.1");
        assert_eq!(mop(3_699_376_128), "3699");
        assert_eq!(mop(37_000), "0.04");
        assert_eq!(ratio(62.71), "62.7");
        assert_eq!(ratio(f64::INFINITY), "inf");
    }
}
