//! Workload preparation and computation-task generation (Figure 3).
//!
//! A **computation task** is "a group of convolution operations performed
//! on a prefetch window of the input feature map": one batch of up to
//! `N_knl` kernels applied to one window. Windows are row-strips of the
//! output feature map sized so their input footprint fits the feature
//! buffer (`D_f` words of `8·S_ec` bits).

use crate::config::AcceleratorConfig;
use crate::lane;
use abm_model::SparseLayer;
use abm_pool::{parallel_map, Parallelism};
use abm_sparse::{EncodeError, FlatLayout, LayerCode};

/// One accelerated layer prepared for simulation: its Q-Table and
/// WT-Buffer code plus the geometry the accelerator runs it at. A CU
/// lane's timing depends only on the Q-Table — `NUM` accumulations per
/// `VAL`, then a deposit the multiplier drains (Section 4, Figure 2) —
/// so every timing reader walks `code`; the WT-Buffer indexes only
/// address features, and their flat lowering is built by the code that
/// verifies it ([`crate::verify`]), not here.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Layer name.
    pub name: String,
    /// Encoded weights: the Q-Tables the lane timing walks and the
    /// WT-Buffer streams the memory/footprint model sizes.
    pub code: LayerCode,
    /// The input geometry the functional engine lowers this layer
    /// against (FC layers run as 1×1 convolutions over the flattened
    /// input): what the pipelined row dependencies read, and what
    /// `FlatCode::lower(&code, layout)` takes to rebuild the lowering.
    pub layout: FlatLayout,
    /// Output channels `M`.
    pub out_channels: usize,
    /// Output rows `R'`.
    pub out_rows: usize,
    /// Output cols `C'`.
    pub out_cols: usize,
    /// Input channels (all groups).
    pub in_channels: usize,
    /// Input cols `C` (pre-padding).
    pub in_cols: usize,
    /// Kernel size `K`.
    pub kernel: usize,
    /// Stride `S`.
    pub stride: usize,
    /// Whether this is a fully-connected layer (vectorized over an
    /// `S_ec`-image batch instead of output pixels).
    pub is_fc: bool,
    /// Dense op count (the Table 2 throughput numerator).
    pub dense_ops: u64,
}

impl Workload {
    /// Prepares a sparse layer for simulation: one encode plus the
    /// layer's geometry.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the weights cannot be encoded.
    pub fn from_layer(layer: &SparseLayer) -> Result<Self, EncodeError> {
        let code = LayerCode::encode(&layer.weights)?;
        let out = layer.layer.output_shape;
        let input = layer.layer.input_shape;
        let is_fc = matches!(
            layer.layer.layer.kind,
            abm_model::LayerKind::FullyConnected(_)
        );
        let layout = if is_fc {
            FlatLayout {
                in_rows: 1,
                in_cols: 1,
                stride: 1,
                pad: 0,
            }
        } else {
            FlatLayout {
                in_rows: input.rows,
                in_cols: input.cols,
                stride: layer.stride(),
                pad: layer.pad(),
            }
        };
        Ok(Self {
            name: layer.name().to_string(),
            code,
            layout,
            out_channels: out.channels,
            out_rows: out.rows,
            out_cols: out.cols,
            in_channels: input.channels,
            in_cols: input.cols,
            kernel: layer.weights.shape().kernel_rows,
            stride: layer.stride(),
            is_fc,
            dense_ops: layer.layer.dense_ops(),
        })
    }

    /// Vector sweeps needed to cover `rows` output rows: the address
    /// generator packs the `S_ec`-wide vector across the whole window in
    /// row-major order (`ceil(rows·C'/S_ec)`), so narrow layers do not
    /// strand vector lanes. FC layers always run one sweep (the vector
    /// dimension is the `S_ec`-image batch).
    pub fn vectors_per_window(&self, cfg: &AcceleratorConfig, rows: usize) -> u64 {
        if self.is_fc {
            1
        } else {
            ((rows * self.out_cols) as u64).div_ceil(cfg.s_ec as u64)
        }
    }

    /// Number of prefetch windows: output rows are grouped so the input
    /// rows they need fit the feature buffer (at least one row per
    /// window; FC layers use a single window).
    ///
    /// Two refinements over the naive buffer division:
    ///
    /// * windows never shrink below ~8 vector sweeps of output pixels,
    ///   so vector packing stays efficient on narrow deep layers (when
    ///   the window's input footprint then exceeds `D_f`, the fetch unit
    ///   streams it as channel slices — accumulation is channel-serial,
    ///   so timing is unaffected);
    /// * windows never exceed the layer's row count.
    pub fn rows_per_window(&self, cfg: &AcceleratorConfig) -> usize {
        if self.is_fc {
            return 1;
        }
        let buffer_pixels = (cfg.d_f * cfg.s_ec) as u64;
        let row_pixels = (self.in_channels * self.in_cols) as u64;
        if row_pixels == 0 {
            return self.out_rows.max(1);
        }
        let in_rows = (buffer_pixels / row_pixels) as usize;
        let overlap = self.kernel.saturating_sub(self.stride);
        let rows = in_rows.saturating_sub(overlap) / self.stride.max(1);
        let min_rows = (8 * cfg.s_ec).div_ceil(self.out_cols.max(1));
        rows.max(min_rows).clamp(1, self.out_rows.max(1))
    }

    /// Number of prefetch windows for this layer.
    pub fn window_count(&self, cfg: &AcceleratorConfig) -> usize {
        if self.is_fc {
            1
        } else {
            self.out_rows.div_ceil(self.rows_per_window(cfg)).max(1)
        }
    }

    /// Kernel batches per window (`ceil(M / N_knl)`).
    pub fn batches(&self, cfg: &AcceleratorConfig) -> usize {
        self.out_channels.div_ceil(cfg.n_knl)
    }

    /// Per-kernel lane cost (cycles) for a window of `rows` output rows,
    /// computed from the encoded stream (index `m` = kernel id).
    ///
    /// Each simulated CU lane's cost is an independent function of its
    /// encoded kernel, so the recurrences fan out across host threads
    /// as a pure map: the result is bit-identical for every
    /// `parallelism` setting.
    pub fn kernel_window_cycles(
        &self,
        cfg: &AcceleratorConfig,
        rows: usize,
        parallelism: Parallelism,
    ) -> Vec<u64> {
        let vectors = self.vectors_per_window(cfg, rows);
        parallel_map(parallelism, self.code.kernels(), |_, k| {
            lane::lane_cycles(k, vectors, cfg.n as u64, cfg.fifo_depth)
        })
    }

    /// Task cycle costs for one window: one entry per kernel batch; the
    /// batch cost is the slowest lane (a CU finishes a task when all its
    /// lanes have), plus the task overhead. Per-kernel timing runs under
    /// `parallelism` (see [`kernel_window_cycles`](Self::kernel_window_cycles)).
    ///
    /// With [`AcceleratorConfig::sort_kernels_by_load`] the encoder
    /// orders kernels by workload first, so batch mates have similar
    /// costs and the per-batch maximum stays close to the mean.
    pub fn window_task_cycles(
        &self,
        cfg: &AcceleratorConfig,
        rows: usize,
        parallelism: Parallelism,
    ) -> Vec<u64> {
        let mut per_kernel = self.kernel_window_cycles(cfg, rows, parallelism);
        if cfg.sort_kernels_by_load {
            per_kernel.sort_unstable_by(|a, b| b.cmp(a));
        }
        per_kernel
            .chunks(cfg.n_knl)
            .map(|batch| batch.iter().copied().max().unwrap_or(0) + cfg.task_overhead)
            .collect()
    }

    /// Bottleneck profile of the layer's kernels under `cfg`: per-vector
    /// FIFO-stall cycles summed over kernels, and the number of kernels
    /// whose steady state is multiplier-bound (`Q·N > nnz + stalls`) —
    /// the population that makes `N` larger than the Acc/Mult ratio
    /// expensive.
    pub fn bottleneck_profile(&self, cfg: &AcceleratorConfig) -> BottleneckProfile {
        let mut profile = BottleneckProfile::default();
        for kernel in self.code.kernels() {
            if kernel.total() == 0 {
                continue;
            }
            let v = lane::vector_cycles(kernel, cfg.n as u64, cfg.fifo_depth);
            profile.stall_cycles_per_vector += v.acc_stall;
            let mult_occupancy = kernel.distinct() as u64 * cfg.n as u64;
            if mult_occupancy > v.acc_total() {
                profile.mult_bound_kernels += 1;
            }
            profile.kernels += 1;
        }
        profile
    }
}

/// Aggregated per-layer bottleneck statistics (see
/// [`Workload::bottleneck_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BottleneckProfile {
    /// FIFO-stall cycles per vector sweep, summed over kernels.
    pub stall_cycles_per_vector: u64,
    /// Kernels whose lane is multiplier-bound in steady state.
    pub mult_bound_kernels: usize,
    /// Non-empty kernels inspected.
    pub kernels: usize,
}

impl BottleneckProfile {
    /// Fraction of kernels that are multiplier-bound.
    pub fn mult_bound_fraction(&self) -> f64 {
        if self.kernels == 0 {
            0.0
        } else {
            self.mult_bound_kernels as f64 / self.kernels as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};

    fn workload(name: &str) -> Workload {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.5, 8));
        let model = synthesize_model(&net, &profile, 42);
        Workload::from_layer(model.layer(name).unwrap()).unwrap()
    }

    #[test]
    fn conv_workload_geometry() {
        let cfg = AcceleratorConfig::paper();
        let w = workload("CONV1");
        assert_eq!(w.out_rows, 32);
        assert_eq!(w.out_cols, 32);
        assert_eq!(w.out_channels, 16);
        assert!(!w.is_fc);
        // Vectors pack across the window: 32 rows x 32 cols / 20 lanes.
        let rows = w.rows_per_window(&cfg);
        assert_eq!(
            w.vectors_per_window(&cfg, rows),
            ((rows * 32) as u64).div_ceil(20)
        );
        assert_eq!(w.batches(&cfg), 2); // ceil(16/14)
                                        // Tiny input: everything fits one window.
        assert_eq!(w.window_count(&cfg), 1);
    }

    #[test]
    fn fc_workload_geometry() {
        let cfg = AcceleratorConfig::paper();
        let w = workload("FC3");
        assert!(w.is_fc);
        assert_eq!(w.vectors_per_window(&cfg, 1), 1);
        assert_eq!(w.window_count(&cfg), 1);
        assert_eq!(w.batches(&cfg), 5); // ceil(64/14)
    }

    #[test]
    fn windows_shrink_with_small_buffers() {
        let mut cfg = AcceleratorConfig::paper();
        let w = workload("CONV2"); // input 16x16x16, output 16x16
        let one_window = w.window_count(&cfg);
        assert_eq!(one_window, 1);
        cfg.d_f = 16; // 16*20 = 320 pixels: ~1 input row of 16*16
        let many = w.window_count(&cfg);
        assert!(
            many > one_window,
            "tiny buffer must force more windows: {many}"
        );
        // The packing floor keeps windows at >= 8 vector sweeps even
        // when the buffer would allow less.
        let rows = w.rows_per_window(&cfg);
        assert_eq!(rows, (8 * cfg.s_ec).div_ceil(16));
    }

    #[test]
    fn task_costs_cover_all_kernels() {
        let cfg = AcceleratorConfig::paper();
        let w = workload("CONV1");
        let tasks = w.window_task_cycles(&cfg, w.rows_per_window(&cfg), Parallelism::Serial);
        assert_eq!(tasks.len(), w.batches(&cfg));
        assert!(tasks.iter().all(|&t| t > 0));
        // Batch cost (max lane * rows) >= per-lane useful share.
        let useful: u64 = w
            .kernel_window_cycles(&cfg, w.rows_per_window(&cfg), Parallelism::Serial)
            .iter()
            .sum();
        let paid: u64 = tasks
            .iter()
            .map(|t| (t - cfg.task_overhead) * cfg.n_knl as u64)
            .sum();
        assert!(paid >= useful);
    }
}
