//! Operation accounting for the four convolution schemes — the machinery
//! behind Table 1.
//!
//! Counting conventions (identical to the paper's):
//!
//! * **SDConv** — `2·M·N·K·K'·R'·C'` ops (every MAC is one multiply and
//!   one add);
//! * **SpConv** — `2·nnz·R'·C'` (MACs only for surviving weights);
//! * **ABM Acc.** — `nnz·R'·C'` (stage 1 is additions only);
//! * **ABM Mult.** — `Σ_m Q(m)·R'·C'` (one multiply per distinct value);
//!   the stage-2 final additions are reported separately and, as in the
//!   paper, excluded from the headline columns;
//! * **FDConv** — two variants: the real multiplications overlap-and-add
//!   executes ([`oaa_cost`], 2 ops each) and the uniform `dense / 3.3`
//!   rate that the paper quotes from \[3\].
//!
//! The Winograd and OaA columns are closed forms of what
//! [`crate::winograd::conv2d`] and [`crate::freq::conv2d_oaa`] count as
//! they run; a tier-1 test holds them equal on every VGG16 conv layer.

use crate::freq::OaaCost;
use abm_model::{ConvSpec, LayerKind, LayerStats, SparseModel};
use abm_tensor::Shape3;

/// The uniform FDConv MAC-reduction rate reported by \[3\] and used in the
/// paper's Table 1 / Figure 1.
pub const FDCONV_PAPER_REDUCTION: f64 = 3.3;

/// Per-layer operation counts for all schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOps {
    /// Layer name.
    pub name: String,
    /// Output pixels per kernel (`R'·C'`).
    pub out_pixels: u64,
    /// Dense spatial-convolution ops (2 per MAC).
    pub sdconv: u64,
    /// FDConv ops: 2 per real multiplication overlap-and-add executes
    /// ([`oaa_cost`]).
    pub fdconv_modeled: u64,
    /// FDConv ops at the paper's uniform 3.3× rate (FC layers gain
    /// nothing from FFT and stay at the dense count, exactly as in
    /// Table 1).
    pub fdconv_paper: u64,
    /// SpConv ops (2 per surviving MAC).
    pub spconv: u64,
    /// Winograd `F(2×2,3×3)` multiply-side ops for 3×3 stride-1 layers
    /// (dense count elsewhere) — our extension column, not in Table 1.
    pub winograd: u64,
    /// ABM stage-1 accumulations.
    pub abm_acc: u64,
    /// ABM stage-2 multiplications.
    pub abm_mult: u64,
    /// ABM stage-2 final accumulations (reported, not in the headline
    /// total).
    pub abm_final: u64,
}

impl LayerOps {
    /// The layer's accumulate-to-multiply arithmetic-intensity ratio
    /// (Table 1's last column).
    pub fn acc_mult_ratio(&self) -> f64 {
        if self.abm_mult == 0 {
            f64::INFINITY
        } else {
            self.abm_acc as f64 / self.abm_mult as f64
        }
    }

    /// Headline ABM total (`Acc. + Mult.`, the paper's convention).
    pub fn abm_total(&self) -> u64 {
        self.abm_acc + self.abm_mult
    }
}

/// Whole-network operation analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkOps {
    layers: Vec<LayerOps>,
}

impl NetworkOps {
    /// Analyzes a sparse quantized model.
    pub fn analyze(model: &SparseModel) -> Self {
        let layers = model
            .layers
            .iter()
            .map(|sl| {
                let out = sl.layer.output_shape;
                let out_pixels = (out.rows * out.cols) as u64;
                let stats = LayerStats::from_weights(&sl.weights);
                let dense_macs = sl.layer.dense_macs();
                let sdconv = 2 * dense_macs;
                let nnz = stats.total_nnz();
                let spconv = 2 * nnz * out_pixels;
                let abm_acc = nnz * out_pixels;
                let abm_mult = stats.total_distinct() * out_pixels;
                let winograd = match &sl.layer.layer.kind {
                    LayerKind::Conv(c) if c.kernel == 3 && c.stride == 1 => {
                        2 * winograd_mults(c, out)
                    }
                    _ => sdconv,
                };
                let (fdconv_modeled, fdconv_paper) = match &sl.layer.layer.kind {
                    LayerKind::Conv(c) => {
                        // Ops = 2 per multiplication; grouped layers run
                        // `groups` independent instances.
                        let cost = oaa_cost(c, sl.layer.input_shape);
                        let modeled = 2 * cost.total_mults() * c.groups as u64;
                        let paper = (sdconv as f64 / FDCONV_PAPER_REDUCTION) as u64;
                        (modeled, paper)
                    }
                    // FFT gains nothing on 1x1 kernels: FDConv == dense,
                    // exactly as in Table 1's FC6/FC7 rows.
                    _ => (sdconv, sdconv),
                };
                LayerOps {
                    name: sl.name().to_string(),
                    out_pixels,
                    sdconv,
                    fdconv_modeled,
                    fdconv_paper,
                    spconv,
                    winograd,
                    abm_acc,
                    abm_mult,
                    abm_final: abm_mult,
                }
            })
            .collect();
        Self { layers }
    }

    /// Per-layer rows.
    pub fn layers(&self) -> &[LayerOps] {
        &self.layers
    }

    /// Finds a layer row by name.
    pub fn layer(&self, name: &str) -> Option<&LayerOps> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Column totals (entire CNN row of Table 1).
    pub fn totals(&self) -> LayerOps {
        let mut t = LayerOps {
            name: "Entire CNN".to_string(),
            out_pixels: 0,
            sdconv: 0,
            fdconv_modeled: 0,
            fdconv_paper: 0,
            spconv: 0,
            winograd: 0,
            abm_acc: 0,
            abm_mult: 0,
            abm_final: 0,
        };
        for l in &self.layers {
            t.sdconv += l.sdconv;
            t.fdconv_modeled += l.fdconv_modeled;
            t.fdconv_paper += l.fdconv_paper;
            t.spconv += l.spconv;
            t.winograd += l.winograd;
            t.abm_acc += l.abm_acc;
            t.abm_mult += l.abm_mult;
            t.abm_final += l.abm_final;
        }
        t
    }

    /// Fraction of SDConv ops saved by ABM (`#OP Saved` row; ~83.6% for
    /// VGG16).
    pub fn abm_saving(&self) -> f64 {
        let t = self.totals();
        1.0 - t.abm_total() as f64 / t.sdconv as f64
    }

    /// The minimum per-layer Acc/Mult ratio — the statistic that sizes
    /// `N` in the exploration flow (Section 5.2).
    pub fn min_acc_mult_ratio(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.acc_mult_ratio())
            .fold(f64::INFINITY, f64::min)
    }
}

/// The FDConv cost of one group of conv layer `c` over `input`, at
/// [`fft_size_for_kernel`]'s FFT size: what [`crate::freq::conv2d_oaa`]
/// executes on it. OaA computes the stride-1 result, so a strided layer
/// pays for the extent it subsamples.
pub fn oaa_cost(c: &ConvSpec, input: Shape3) -> OaaCost {
    let stride1 = |d: usize| d + 2 * c.pad + 1 - c.kernel;
    OaaCost::estimate(
        c.out_channels / c.groups,
        c.in_channels / c.groups,
        c.kernel,
        stride1(input.rows),
        stride1(input.cols),
        fft_size_for_kernel(c.kernel),
    )
}

/// Winograd `F(2×2, 3×3)` multiplications of a 3×3 stride-1 conv layer
/// `c` with output `out`: what [`crate::winograd::conv2d`] executes, 16
/// per 2×2 output tile per `(m, n)` pair.
pub fn winograd_mults(c: &ConvSpec, out: Shape3) -> u64 {
    let tiles = (out.rows.div_ceil(2) * out.cols.div_ceil(2)) as u64;
    16 * tiles * (c.out_channels * (c.in_channels / c.groups)) as u64
}

/// FFT size used by the FDConv model for a given kernel size (the
/// operating points of \[3\]: 16-point tiles for 3×3/5×5, 32 for 11×11).
pub fn fft_size_for_kernel(k: usize) -> usize {
    if k <= 5 {
        16
    } else {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};

    fn vgg_ops() -> NetworkOps {
        let net = zoo::vgg16();
        let profile = PruneProfile::vgg16_deep_compression();
        let model = synthesize_model(&net, &profile, 2019);
        NetworkOps::analyze(&model)
    }

    #[test]
    fn table1_conv1_1_row() {
        let ops = vgg_ops();
        let row = ops.layer("CONV1_1").unwrap();
        let mop = |x: u64| x as f64 / 1e6;
        assert!(
            (mop(row.sdconv) - 173.0).abs() < 1.0,
            "SDConv {}",
            mop(row.sdconv)
        );
        // Pruning 42% ⇒ SpConv ≈ 100 MOP, Acc ≈ 50.3.
        assert!(
            (mop(row.spconv) - 100.0).abs() < 4.0,
            "SpConv {}",
            mop(row.spconv)
        );
        assert!(
            (mop(row.abm_acc) - 50.3).abs() < 2.0,
            "Acc {}",
            mop(row.abm_acc)
        );
        // Mult ≈ 12.1 MOP; the synthetic codebook is calibrated for this.
        assert!(
            (mop(row.abm_mult) - 12.1).abs() < 1.5,
            "Mult {}",
            mop(row.abm_mult)
        );
        let ratio = row.acc_mult_ratio();
        assert!((ratio - 4.1).abs() < 0.6, "ratio {ratio}");
    }

    #[test]
    fn table1_conv4_2_row() {
        let ops = vgg_ops();
        let row = ops.layer("CONV4_2").unwrap();
        let mop = |x: u64| x as f64 / 1e6;
        assert!((mop(row.sdconv) - 3699.0).abs() < 10.0);
        assert!(
            (mop(row.spconv) - 998.0).abs() / 998.0 < 0.03,
            "SpConv {}",
            mop(row.spconv)
        );
        assert!((mop(row.abm_acc) - 499.0).abs() / 499.0 < 0.03);
        assert!(
            (mop(row.abm_mult) - 7.95).abs() < 1.0,
            "Mult {}",
            mop(row.abm_mult)
        );
        let ratio = row.acc_mult_ratio();
        assert!((ratio - 62.7).abs() < 8.0, "ratio {ratio}");
    }

    #[test]
    fn table1_fc_rows() {
        let ops = vgg_ops();
        let fc6 = ops.layer("FC6").unwrap();
        let mop = |x: u64| x as f64 / 1e6;
        assert!((mop(fc6.sdconv) - 205.0).abs() < 1.0);
        // FDConv gets no FFT benefit on FC layers.
        assert_eq!(fc6.fdconv_paper, fc6.sdconv);
        assert!(
            (mop(fc6.spconv) - 8.23).abs() < 0.5,
            "SpConv {}",
            mop(fc6.spconv)
        );
        assert!((mop(fc6.abm_acc) - 4.11).abs() < 0.25);
        assert!(
            (mop(fc6.abm_mult) - 0.037).abs() < 0.005,
            "Mult {}",
            mop(fc6.abm_mult)
        );
        // Table 1: FC6 ratio 111, FC7 ratio 31.9.
        assert!(
            (fc6.acc_mult_ratio() - 111.0).abs() < 25.0,
            "FC6 ratio {}",
            fc6.acc_mult_ratio()
        );
        let fc7 = ops.layer("FC7").unwrap();
        assert!(
            (fc7.acc_mult_ratio() - 31.9).abs() < 8.0,
            "FC7 ratio {}",
            fc7.acc_mult_ratio()
        );
    }

    #[test]
    fn table1_totals() {
        let ops = vgg_ops();
        let t = ops.totals();
        let gop = |x: u64| x as f64 / 1e9;
        assert!(
            (gop(t.sdconv) - 30.94).abs() < 0.1,
            "SDConv {}",
            gop(t.sdconv)
        );
        assert!(
            (gop(t.spconv) - 10.08).abs() / 10.08 < 0.03,
            "SpConv {}",
            gop(t.spconv)
        );
        assert!(
            (gop(t.abm_acc) - 5.04).abs() / 5.04 < 0.03,
            "Acc {}",
            gop(t.abm_acc)
        );
        // #OP saved vs SDConv: ~83.6% (we count Acc+Mult).
        let saving = ops.abm_saving();
        assert!((saving - 0.83).abs() < 0.02, "saving {saving}");
    }

    #[test]
    fn fdconv_modeled_reduction_in_range() {
        let ops = vgg_ops();
        let t = ops.totals();
        let conv_sdconv: u64 = ops
            .layers()
            .iter()
            .filter(|l| l.name.starts_with("CONV"))
            .map(|l| l.sdconv)
            .sum();
        let conv_fd: u64 = ops
            .layers()
            .iter()
            .filter(|l| l.name.starts_with("CONV"))
            .map(|l| l.fdconv_modeled)
            .sum();
        let r = conv_sdconv as f64 / conv_fd as f64;
        assert!((2.5..=4.2).contains(&r), "modeled FDConv reduction {r}");
        // Paper-rate column reproduces Table 1's 9,531 MOP total.
        let fd_paper_gop = t.fdconv_paper as f64 / 1e9;
        assert!(
            (fd_paper_gop - 9.53).abs() < 0.1,
            "FDConv paper {fd_paper_gop}"
        );
    }

    #[test]
    fn min_ratio_supports_n_of_4() {
        let ops = vgg_ops();
        let min = ops.min_acc_mult_ratio();
        // Table 1's minimum ratio is CONV1_2's 3.4; N = 4 is chosen to
        // fit it.
        assert!((3.0..=4.6).contains(&min), "min ratio {min}");
    }

    #[test]
    fn winograd_column_reduces_3x3_layers_only() {
        let ops = vgg_ops();
        // All VGG16 conv layers are 3x3 stride 1: ~2.25x multiply
        // reduction everywhere.
        let c42 = ops.layer("CONV4_2").unwrap();
        let r = c42.sdconv as f64 / c42.winograd as f64;
        assert!((r - 2.25).abs() < 0.01, "winograd reduction {r}");
        // FC layers get nothing.
        let fc6 = ops.layer("FC6").unwrap();
        assert_eq!(fc6.winograd, fc6.sdconv);
        // ABM still beats Winograd on total ops for a pruned model.
        let t = ops.totals();
        assert!(t.abm_total() < t.winograd);
    }

    #[test]
    fn uniform_profile_sanity() {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.5, 8));
        let model = synthesize_model(&net, &profile, 1);
        let ops = NetworkOps::analyze(&model);
        let t = ops.totals();
        assert!(t.abm_acc * 2 == t.spconv);
        assert!(t.abm_mult < t.abm_acc);
        assert!(t.spconv < t.sdconv);
        assert_eq!(t.abm_final, t.abm_mult);
    }
}
