//! The [`Injector`] trait and its two canonical implementations,
//! mirroring `abm-telemetry`'s `Collector` / `NullCollector` /
//! recording pattern: instrumented code is generic over `I: Injector`
//! and gates every injection site on the associated const
//! [`Injector::ENABLED`]:
//!
//! ```ignore
//! if I::ENABLED {
//!     word = injector.corrupt_code_word(layer, kernel, i, word);
//! }
//! ```
//!
//! With [`NullInjector`] the branch is a compile-time constant `false`,
//! so the instrumented function monomorphizes to exactly the
//! uninjected code — zero cost when disabled, which is what keeps the
//! golden pins and `BENCH_pipeline.json` byte-identical.

use crate::plan::{Fault, FaultClass, FaultPlan};

/// A source of deterministic faults, polled by the instrumented hot
/// paths at their injection sites.
///
/// Every hook defaults to the identity (no fault), so implementations
/// override only the sites they target. Hooks take `&mut self` so an
/// injector can log what it actually delivered.
pub trait Injector {
    /// Whether this injector delivers anything. Instrumented code must
    /// skip injection-only work when this is `false`.
    const ENABLED: bool;

    /// Maybe corrupt one FI (input feature) word crossing the DDR
    /// window boundary.
    #[inline(always)]
    fn corrupt_feature_word(&mut self, layer: usize, index: usize, word: i16) -> i16 {
        let _ = (layer, index);
        word
    }

    /// Maybe corrupt one WT-Buffer offset word of `kernel`'s stream.
    #[inline(always)]
    fn corrupt_offset_word(&mut self, layer: usize, kernel: usize, index: usize, word: u32) -> u32 {
        let _ = (layer, kernel, index);
        word
    }

    /// Maybe corrupt one Q-Table value word of `kernel`'s stream.
    #[inline(always)]
    fn corrupt_value_word(&mut self, layer: usize, kernel: usize, index: usize, word: i8) -> i8 {
        let _ = (layer, kernel, index);
        word
    }

    /// Maybe corrupt one output accumulator word before write-back.
    #[inline(always)]
    fn corrupt_output_word(&mut self, layer: usize, index: usize, word: i64) -> i64 {
        let _ = (layer, index);
        word
    }

    /// Extra cycles task `task` of `layer` runs beyond its nominal
    /// cost (a hung or stalled CU). `0` = healthy.
    #[inline(always)]
    fn task_delay(&mut self, layer: usize, task: usize) -> u64 {
        let _ = (layer, task);
        0
    }

    /// Back-pressure burst, in cycles, injected into `kernel`'s
    /// partial-sum FIFO during `layer`. `0` = healthy.
    #[inline(always)]
    fn lane_stall(&mut self, layer: usize, kernel: usize) -> u64 {
        let _ = (layer, kernel);
        0
    }

    /// Whether `kernel`'s lane silently loses one partial-sum deposit
    /// during `layer`.
    #[inline(always)]
    fn drops_deposit(&mut self, layer: usize, kernel: usize) -> bool {
        let _ = (layer, kernel);
        false
    }

    /// Bandwidth derate for `layer`'s DDR transfers, in thousandths
    /// (1000 = nominal, 2000 = half bandwidth).
    #[inline(always)]
    fn bandwidth_derate_milli(&mut self, layer: usize) -> u32 {
        let _ = layer;
        1000
    }
}

/// A borrowed injector injects: lend `&mut i` to instrumented code that
/// takes its injector by value and keep the delivery log.
impl<I: Injector> Injector for &mut I {
    const ENABLED: bool = I::ENABLED;

    fn corrupt_feature_word(&mut self, layer: usize, index: usize, word: i16) -> i16 {
        (**self).corrupt_feature_word(layer, index, word)
    }
    fn corrupt_offset_word(&mut self, layer: usize, kernel: usize, index: usize, word: u32) -> u32 {
        (**self).corrupt_offset_word(layer, kernel, index, word)
    }
    fn corrupt_value_word(&mut self, layer: usize, kernel: usize, index: usize, word: i8) -> i8 {
        (**self).corrupt_value_word(layer, kernel, index, word)
    }
    fn corrupt_output_word(&mut self, layer: usize, index: usize, word: i64) -> i64 {
        (**self).corrupt_output_word(layer, index, word)
    }
    fn task_delay(&mut self, layer: usize, task: usize) -> u64 {
        (**self).task_delay(layer, task)
    }
    fn lane_stall(&mut self, layer: usize, kernel: usize) -> u64 {
        (**self).lane_stall(layer, kernel)
    }
    fn drops_deposit(&mut self, layer: usize, kernel: usize) -> bool {
        (**self).drops_deposit(layer, kernel)
    }
    fn bandwidth_derate_milli(&mut self, layer: usize) -> u32 {
        (**self).bandwidth_derate_milli(layer)
    }
}

/// The default injector: delivers nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullInjector;

impl Injector for NullInjector {
    const ENABLED: bool = false;
}

/// Delivers the faults of a [`FaultPlan`] and logs every fault it
/// actually delivered (an injection site may never be reached — e.g. a
/// fault aimed at a kernel index the layer does not have — and the
/// campaign's *injected* count must reflect delivery, not intent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInjector {
    plan: FaultPlan,
    delivered: Vec<(FaultClass, Fault)>,
}

impl PlanInjector {
    /// Wraps a plan for delivery.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            delivered: Vec::new(),
        }
    }

    /// The faults delivered so far, in delivery order.
    #[must_use]
    pub fn delivered(&self) -> &[(FaultClass, Fault)] {
        &self.delivered
    }

    fn find(
        &mut self,
        class: FaultClass,
        layer: usize,
        unit: usize,
        index: usize,
    ) -> Option<Fault> {
        let hit = self
            .plan
            .faults
            .iter()
            .find(|(c, f)| *c == class && f.layer == layer && f.unit == unit && f.index == index)
            .map(|&(_, f)| f);
        if let Some(f) = hit {
            self.delivered.push((class, f));
        }
        hit
    }

    fn find_unit(&mut self, class: FaultClass, layer: usize, unit: usize) -> Option<Fault> {
        let hit = self
            .plan
            .faults
            .iter()
            .find(|(c, f)| *c == class && f.layer == layer && f.unit == unit)
            .map(|&(_, f)| f);
        if let Some(f) = hit {
            self.delivered.push((class, f));
        }
        hit
    }
}

impl Injector for PlanInjector {
    const ENABLED: bool = true;

    fn corrupt_feature_word(&mut self, layer: usize, index: usize, word: i16) -> i16 {
        match self.find(FaultClass::FiWordFlip, layer, 0, index) {
            Some(f) => word ^ (1i16 << (f.bit % 16)),
            None => word,
        }
    }

    fn corrupt_offset_word(&mut self, layer: usize, kernel: usize, index: usize, word: u32) -> u32 {
        match self.find(FaultClass::WtWordFlip, layer, kernel, index) {
            Some(f) => word ^ (1u32 << (f.bit % 32)),
            None => word,
        }
    }

    fn corrupt_value_word(&mut self, layer: usize, kernel: usize, index: usize, word: i8) -> i8 {
        match self.find(FaultClass::QTableWordFlip, layer, kernel, index) {
            Some(f) => word ^ (1i8 << (f.bit % 8)),
            None => word,
        }
    }

    fn corrupt_output_word(&mut self, layer: usize, index: usize, word: i64) -> i64 {
        match self.find(FaultClass::AccumulatorFlip, layer, 0, index) {
            Some(f) => word ^ (1i64 << (f.bit % 63)),
            None => word,
        }
    }

    fn task_delay(&mut self, layer: usize, task: usize) -> u64 {
        self.find_unit(FaultClass::CuHang, layer, task)
            .map_or(0, |f| f.cycles)
    }

    fn lane_stall(&mut self, layer: usize, kernel: usize) -> u64 {
        self.find_unit(FaultClass::FifoStall, layer, kernel)
            .map_or(0, |f| f.cycles)
    }

    fn drops_deposit(&mut self, layer: usize, kernel: usize) -> bool {
        self.find_unit(FaultClass::FifoDrop, layer, kernel)
            .is_some()
    }

    fn bandwidth_derate_milli(&mut self, layer: usize) -> u32 {
        match self
            .plan
            .faults
            .iter()
            .find(|(c, f)| *c == FaultClass::BandwidthThrottle && f.layer == layer)
            .map(|&(_, f)| f)
        {
            Some(f) if f.derate_milli > 1000 => {
                self.delivered.push((FaultClass::BandwidthThrottle, f));
                f.derate_milli
            }
            _ => 1000,
        }
    }
}

/// FNV-1a over a little-endian byte view of `words` — the checksum the
/// runtime integrity guards use for feature streams and the campaign
/// for seeding (the code streams have their own word-parallel
/// [`flat_checksum`](crate::flat_checksum)). One multiply per byte,
/// deterministic across platforms, and any single bit flip changes the
/// digest.
#[must_use]
pub fn fnv1a_bytes(words: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = FNV_OFFSET;
    for b in words {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a 64-bit offset basis and prime. The prime is odd, so
/// `h ↦ h · FNV_PRIME (mod 2⁶⁴)` is a bijection.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// [`fnv1a_bytes`] over an `i16` stream (the FI feature words).
#[must_use]
pub fn stream_checksum_i16(words: &[i16]) -> u64 {
    fnv1a_bytes(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// [`fnv1a_bytes`] over a `u32` stream (the WT-Buffer offset words).
#[must_use]
pub fn stream_checksum_u32(words: &[u32]) -> u64 {
    fnv1a_bytes(words.iter().flat_map(|w| w.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_injector_is_disabled_and_identity() {
        const { assert!(!NullInjector::ENABLED) };
        let mut i = NullInjector;
        assert_eq!(i.corrupt_feature_word(0, 0, -5), -5);
        assert_eq!(i.corrupt_offset_word(0, 0, 0, 17), 17);
        assert_eq!(i.corrupt_value_word(0, 0, 0, -2), -2);
        assert_eq!(i.corrupt_output_word(0, 0, 1 << 40), 1 << 40);
        assert_eq!(i.task_delay(0, 0), 0);
        assert_eq!(i.lane_stall(0, 0), 0);
        assert!(!i.drops_deposit(0, 0));
        assert_eq!(i.bandwidth_derate_milli(0), 1000);
    }

    #[test]
    fn plan_injector_delivers_only_its_coordinates() {
        let fault = Fault {
            layer: 1,
            unit: 2,
            index: 3,
            bit: 4,
            ..Fault::default()
        };
        let mut i = PlanInjector::new(FaultPlan::single(0, FaultClass::WtWordFlip, fault));
        // Wrong coordinates: untouched, nothing logged.
        assert_eq!(i.corrupt_offset_word(1, 2, 0, 100), 100);
        assert_eq!(i.corrupt_offset_word(0, 2, 3, 100), 100);
        assert!(i.delivered().is_empty());
        // Exact coordinates: bit 4 flips, delivery logged.
        assert_eq!(i.corrupt_offset_word(1, 2, 3, 100), 100 ^ 16);
        assert_eq!(i.delivered().len(), 1);
        // A feature-word hook never matches a WT fault.
        assert_eq!(i.corrupt_feature_word(1, 3, 9), 9);
    }

    #[test]
    fn plan_injector_timing_hooks() {
        let mut plan = FaultPlan::new(0);
        plan.push(
            FaultClass::CuHang,
            Fault {
                layer: 0,
                unit: 5,
                cycles: 999,
                ..Fault::default()
            },
        );
        plan.push(
            FaultClass::BandwidthThrottle,
            Fault {
                layer: 2,
                derate_milli: 3000,
                ..Fault::default()
            },
        );
        let mut i = PlanInjector::new(plan);
        assert_eq!(i.task_delay(0, 5), 999);
        assert_eq!(i.task_delay(0, 4), 0);
        assert_eq!(i.bandwidth_derate_milli(2), 3000);
        assert_eq!(i.bandwidth_derate_milli(1), 1000);
        assert!(!i.drops_deposit(0, 5));
        assert_eq!(i.delivered().len(), 2);
    }

    #[test]
    fn checksums_see_every_bit() {
        let base = vec![0i16, 1, -1, 127, -128, 1000];
        let digest = stream_checksum_i16(&base);
        for word in 0..base.len() {
            for bit in 0..16 {
                let mut flipped = base.clone();
                flipped[word] ^= 1 << bit;
                assert_ne!(
                    stream_checksum_i16(&flipped),
                    digest,
                    "flip of word {word} bit {bit} must change the digest"
                );
            }
        }
        assert_eq!(stream_checksum_i16(&base), digest, "digest is pure");
        assert_ne!(stream_checksum_u32(&[1, 2]), stream_checksum_u32(&[2, 1]));
    }
}
