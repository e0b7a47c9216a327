//! Accelerator design parameters (Section 4.2 "Design Parameters" and
//! Table 3).

use std::error::Error;
use std::fmt;

/// An unbuildable parameter combination, returned by
/// [`AcceleratorConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A structural size (`n_cu`, `n_knl`, `n`, `s_ec`, `fifo_depth`)
    /// is zero.
    ZeroParameter(&'static str),
    /// `N` does not divide `S_ec`, so accumulator groups would be
    /// non-uniform.
    GroupMismatch {
        /// Accumulators per multiplier.
        n: usize,
        /// Vector width.
        s_ec: usize,
    },
    /// The clock frequency is not a positive, finite number.
    NonPositiveFrequency(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroParameter(name) => {
                write!(f, "design parameter {name} must be positive")
            }
            ConfigError::GroupMismatch { n, s_ec } => write!(
                f,
                "N (={n}) must divide S_ec (={s_ec}) so accumulator groups are uniform"
            ),
            ConfigError::NonPositiveFrequency(mhz) => {
                write!(
                    f,
                    "operating frequency must be positive and finite, got {mhz} MHz"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// The configurable parameters of the ABM-SpConv accelerator.
///
/// # Examples
///
/// ```
/// use abm_sim::AcceleratorConfig;
/// let cfg = AcceleratorConfig::paper();
/// assert_eq!(cfg.n_knl, 14);
/// assert_eq!(cfg.accumulator_lanes(), 3 * 14 * 20);
/// assert_eq!(cfg.multipliers(), 3 * 14 * 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Number of parallel convolution units (`N_cu`).
    pub n_cu: usize,
    /// Convolution kernels processed in parallel per CU (`N_knl`).
    pub n_knl: usize,
    /// Accumulators sharing one multiplier (`N`).
    pub n: usize,
    /// Width of the vectorized input data (`S_ec`): output pixels (or
    /// batch images for FC layers) processed in lock-step per lane.
    pub s_ec: usize,
    /// Feature-buffer depth in `8·S_ec`-bit words (`D_f`).
    pub d_f: usize,
    /// Weight-buffer depth in 16-bit words (`D_w`).
    pub d_w: usize,
    /// Q-Table depth in 16-bit words (`D_q`).
    pub d_q: usize,
    /// Depth of the partial-sum FIFOs between accumulators and
    /// multipliers (in partial-sum sets).
    pub fifo_depth: usize,
    /// Signed accumulator width in bits. The Stratix-V DSP blocks chain
    /// into 48-bit accumulators (the Intel variable-precision DSP's
    /// native accumulation width); the static overflow check proves
    /// every layer's worst-case partial sum fits.
    pub acc_bits: u32,
    /// Operating frequency in MHz.
    pub freq_mhz: f64,
    /// Pipeline fill / address-generator setup cycles charged per task.
    pub task_overhead: u64,
    /// Cycles charged per prefetch-window synchronization (feature
    /// buffer swap).
    pub window_sync_overhead: u64,
    /// Reorder kernels by encoded workload before batching so that the
    /// `N_knl` lanes of a task carry similar loads (a free offline
    /// optimization of the weight encoder; the ablation bench measures
    /// its effect).
    pub sort_kernels_by_load: bool,
}

impl AcceleratorConfig {
    /// The configuration the paper implements on the Stratix-V GXA7
    /// (Table 3): `N_knl=14, N_cu=3, N=4, S_ec=20`, VGG16 buffer depths,
    /// ~204 MHz.
    pub fn paper() -> Self {
        Self {
            n_cu: 3,
            n_knl: 14,
            n: 4,
            s_ec: 20,
            d_f: 1568,
            d_w: 2048,
            d_q: 128,
            fifo_depth: 8,
            acc_bits: 48,
            freq_mhz: 204.0,
            task_overhead: 12,
            window_sync_overhead: 64,
            sort_kernels_by_load: true,
        }
    }

    /// The paper's AlexNet configuration (identical compute fabric,
    /// smaller feature buffer, 202 MHz).
    pub fn paper_alexnet() -> Self {
        Self {
            d_f: 1152,
            d_w: 1024,
            freq_mhz: 202.0,
            ..Self::paper()
        }
    }

    /// The paper's configuration for a zoo network by its lowercase name
    /// (Table 3): `"alexnet"` runs [`paper_alexnet`](Self::paper_alexnet),
    /// every other network [`paper`](Self::paper).
    pub fn paper_for(net: &str) -> Self {
        if net == "alexnet" {
            Self::paper_alexnet()
        } else {
            Self::paper()
        }
    }

    /// Total pixel-accumulator lanes (`N_cu · N_knl · S_ec`) — the
    /// `N_acc` of the Figure 1 roofline.
    pub fn accumulator_lanes(&self) -> usize {
        self.n_cu * self.n_knl * self.s_ec
    }

    /// Total multipliers (`N_cu · N_knl · S_ec / N`) — the DSP demand of
    /// the compute fabric.
    pub fn multipliers(&self) -> usize {
        self.n_cu * self.n_knl * self.s_ec / self.n
    }

    /// Clock period in seconds.
    pub fn clock_period(&self) -> f64 {
        1e-6 / self.freq_mhz
    }

    /// Peak accumulation throughput in accumulations per second
    /// (`N_cu·N_knl·S_ec · Freq`).
    ///
    /// The Figure 1 roof quotes *dense-equivalent* GOP/s, i.e. this rate
    /// multiplied by the scheme's op-reduction factor; that conversion
    /// lives in `abm-dse`'s roofline model where the network statistics
    /// are known.
    pub fn peak_acc_per_second(&self) -> f64 {
        self.accumulator_lanes() as f64 * self.freq_mhz * 1e6
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a parameter combination is
    /// unbuildable (zero sizes, `N` not dividing `S_ec`, empty FIFOs,
    /// non-positive or non-finite frequency).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, value) in [
            ("n_cu", self.n_cu),
            ("n_knl", self.n_knl),
            ("n", self.n),
            ("s_ec", self.s_ec),
            ("fifo_depth", self.fifo_depth),
            ("acc_bits", self.acc_bits as usize),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroParameter(name));
            }
        }
        if !self.s_ec.is_multiple_of(self.n) {
            return Err(ConfigError::GroupMismatch {
                n: self.n,
                s_ec: self.s_ec,
            });
        }
        // Written so that NaN fails too (`NaN <= 0.0` is false).
        if !(self.freq_mhz > 0.0 && self.freq_mhz.is_finite()) {
            return Err(ConfigError::NonPositiveFrequency(self.freq_mhz));
        }
        Ok(())
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table3() {
        let cfg = AcceleratorConfig::paper();
        assert_eq!(cfg.n_cu, 3);
        assert_eq!(cfg.n_knl, 14);
        assert_eq!(cfg.n, 4);
        assert_eq!(cfg.s_ec, 20);
        assert_eq!(cfg.d_f, 1568);
        assert!(cfg.validate().is_ok());
        // 840 accumulator lanes; at ~204 MHz that is 171 G accumulations
        // per second, which the VGG16 op-reduction factor (~6.1x) turns
        // into the ~1050 GOP/s dense-equivalent roof of Figure 1.
        assert_eq!(cfg.accumulator_lanes(), 840);
        assert!((cfg.peak_acc_per_second() / 1e9 - 171.36).abs() < 0.1);
    }

    #[test]
    fn multiplier_count_feeds_dsp_budget() {
        // 210 multipliers + control logic lands at the paper's 240-243
        // DSP with overhead; the raw fabric number is 210.
        assert_eq!(AcceleratorConfig::paper().multipliers(), 210);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = AcceleratorConfig::paper();
        cfg.s_ec = 19; // not divisible by N=4
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::GroupMismatch { n: 4, s_ec: 19 })
        );
        cfg = AcceleratorConfig::paper();
        cfg.n_cu = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter("n_cu")));
        cfg = AcceleratorConfig::paper();
        cfg.fifo_depth = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter("fifo_depth"))
        );
        cfg = AcceleratorConfig::paper();
        cfg.freq_mhz = 0.0;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveFrequency(0.0)));
        // A clock that is not a number is not a clock: `NaN` and `inf`
        // used to slip past the `<= 0.0` test.
        for mhz in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            cfg.freq_mhz = mhz;
            assert!(
                matches!(cfg.validate(), Err(ConfigError::NonPositiveFrequency(_))),
                "{mhz} MHz accepted"
            );
        }
        // Errors render as readable messages.
        let msg = AcceleratorConfig {
            s_ec: 19,
            ..AcceleratorConfig::paper()
        }
        .validate()
        .unwrap_err()
        .to_string();
        assert!(msg.contains("divide"));
    }

    #[test]
    fn alexnet_variant() {
        let cfg = AcceleratorConfig::paper_alexnet();
        assert_eq!(cfg.d_f, 1152);
        assert_eq!(cfg.freq_mhz, 202.0);
        assert_eq!(cfg.n_knl, 14);
    }
}
