//! Seeded fault plans: what to break, where, and by how much.

use std::fmt;

/// The fault classes the campaign sweeps, each modelling one hardware
/// failure mode of the paper's accelerator (see DESIGN.md §11 for the
/// full mapping and the detector that owns each class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Bit flip in a WT-Buffer offset word after load — an M20K SEU in
    /// the weight-index RAM.
    WtWordFlip,
    /// Bit flip in a Q-Table value word after load — an M20K SEU in
    /// the quantized-value RAM.
    QTableWordFlip,
    /// Bit flip in one accumulator word of the plane a layer sweeps,
    /// before write-back — a transient upset in the Sum/Round data path.
    AccumulatorFlip,
    /// The same accumulator bit flipped on every sweep of its layer — a
    /// persistent upset (a configuration-memory SEU, or a stuck-at bit
    /// in the Sum/Round write-back) that stays until the device is
    /// reconfigured, so a rebuilt layer fails the same way.
    AccumulatorStuck,
    /// Transient back-pressure burst on one lane's partial-sum FIFO.
    FifoStall,
    /// A partial-sum FIFO deposit silently dropped.
    FifoDrop,
    /// A CU hangs mid-window (task overruns its nominal cost).
    CuHang,
    /// DDR bandwidth throttled for the span of a layer.
    BandwidthThrottle,
}

impl FaultClass {
    /// Every class, in campaign sweep order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::WtWordFlip,
        FaultClass::QTableWordFlip,
        FaultClass::AccumulatorFlip,
        FaultClass::AccumulatorStuck,
        FaultClass::FifoStall,
        FaultClass::FifoDrop,
        FaultClass::CuHang,
        FaultClass::BandwidthThrottle,
    ];

    /// Whether this class perturbs timing (simulator domain) rather
    /// than data (functional domain).
    #[must_use]
    pub fn is_timing(self) -> bool {
        matches!(
            self,
            FaultClass::FifoStall
                | FaultClass::FifoDrop
                | FaultClass::CuHang
                | FaultClass::BandwidthThrottle
        )
    }

    /// Stable kebab-case name (used in reports and CLI output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::WtWordFlip => "wt-word-flip",
            FaultClass::QTableWordFlip => "qtable-word-flip",
            FaultClass::AccumulatorFlip => "accumulator-flip",
            FaultClass::AccumulatorStuck => "accumulator-stuck",
            FaultClass::FifoStall => "fifo-stall",
            FaultClass::FifoDrop => "fifo-drop",
            FaultClass::CuHang => "cu-hang",
            FaultClass::BandwidthThrottle => "bandwidth-throttle",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One concrete fault: a class plus the coordinates and magnitude the
/// injector needs. Fields are interpreted per class; irrelevant fields
/// are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fault {
    /// Layer the fault lands on (execution order).
    pub layer: usize,
    /// Kernel / lane / task / accumulator word the fault targets
    /// (class-dependent).
    pub unit: usize,
    /// The bit an [`FaultClass::AccumulatorFlip`] or
    /// [`FaultClass::AccumulatorStuck`] flips in its word.
    pub bit: u32,
    /// Injected stall / hang cycles for the timing classes.
    pub cycles: u64,
    /// Bandwidth derate in thousandths (1000 = nominal, 2000 = half
    /// bandwidth) for [`FaultClass::BandwidthThrottle`].
    pub derate_milli: u32,
}

/// A deterministic set of faults to inject in one run. The plan is
/// plain data: the *campaign* decides coordinates by drawing from
/// [`SplitMix64`], the [`PlanInjector`](crate::PlanInjector) just
/// delivers them. [`FaultPlan::default`] is the empty plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults to deliver, each tagged with its class.
    pub faults: Vec<(FaultClass, Fault)>,
}

impl FaultPlan {
    /// A plan carrying exactly one fault.
    #[must_use]
    pub fn single(class: FaultClass, fault: Fault) -> Self {
        Self {
            faults: vec![(class, fault)],
        }
    }

    /// Adds a fault to the plan.
    pub fn push(&mut self, class: FaultClass, fault: Fault) {
        self.faults.push((class, fault));
    }
}

/// The SplitMix64 generator — tiny, seedable, and with no dependency on
/// the vendored `rand`: every campaign draw must be reproducible from
/// the seed alone, forever, so the generator is pinned here rather than
/// borrowed from a library that may evolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`0` when `n == 0`, keeping the generator
    /// panic-free).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// A draw in `lo..hi` (`lo` when the range is empty).
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.below(hi - lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(2019);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(2019);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "collisions in 8 draws are a bug");
        let c = SplitMix64::new(2020).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn bounded_draws_stay_bounded() {
        let mut r = SplitMix64::new(7);
        for _ in 0..100 {
            assert!(r.below(13) < 13);
            let v = r.in_range(5, 9);
            assert!((5..9).contains(&v));
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.in_range(4, 4), 4);
    }

    #[test]
    fn class_inventory() {
        assert_eq!(FaultClass::ALL.len(), 8);
        let timing = FaultClass::ALL.iter().filter(|c| c.is_timing()).count();
        assert_eq!(timing, 4);
        let mut names: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "class names must be unique");
    }

    #[test]
    fn plan_accumulates() {
        let mut plan = FaultPlan::default();
        plan.push(FaultClass::CuHang, Fault::default());
        let single = FaultPlan::single(FaultClass::CuHang, Fault::default());
        assert_eq!(plan, single);
    }
}
