//! The [`Injector`] trait and its two canonical implementations,
//! mirroring `abm-telemetry`'s `Collector` / `NullCollector` /
//! recording pattern: instrumented code is generic over `I: Injector`
//! and gates every injection site on the associated const
//! [`Injector::ENABLED`]:
//!
//! ```ignore
//! if I::ENABLED {
//!     cycles += injector.task_delay(layer, task);
//! }
//! ```
//!
//! With [`NullInjector`] the branch is a compile-time constant `false`,
//! so the instrumented function monomorphizes to exactly the
//! uninjected code — zero cost when disabled, which is what keeps the
//! golden pins and `BENCH_pipeline.json` byte-identical.
//!
//! The hooks are the simulator's four timing sites and one site in the
//! host's checked ABM layer, between the sweep and the ABFT check
//! ([`Injector::accumulator_flip`]): an upset that exists only while a
//! layer runs has to be delivered there. An upset in state the runtime
//! keeps after load needs no hook: `PreparedConv::upset` edits a
//! clone's streams in place and the guards find the damage.

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

    /// The accumulator word and bit to flip in accelerated layer
    /// `layer`'s plane of `words` words, each `bits` wide, after the
    /// sweep filled it and before ABFT reads it — polled once a sweep,
    /// a recovery's included. `None` = healthy.
    #[inline(always)]
    fn accumulator_flip(&mut self, layer: usize, words: usize, bits: u32) -> Option<(usize, u32)> {
        let _ = (layer, words, bits);
        None
    }
}

/// A borrowed injector injects: lend `&mut i` to instrumented code that
/// takes its injector by value and keep the delivery log.
impl<I: Injector> Injector for &mut I {
    const ENABLED: bool = I::ENABLED;

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
    fn accumulator_flip(&mut self, layer: usize, words: usize, bits: u32) -> Option<(usize, u32)> {
        (**self).accumulator_flip(layer, words, bits)
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

    /// An [`FaultClass::AccumulatorFlip`] lands once: the upset is
    /// transient, so a re-run of the layer (a recovery's) sweeps clean.
    /// An [`FaultClass::AccumulatorStuck`] lands on every poll of its
    /// layer, and is logged once.
    fn accumulator_flip(&mut self, layer: usize, words: usize, bits: u32) -> Option<(usize, u32)> {
        let hit = self.plan.faults.iter().find(|&&(c, f)| {
            matches!(
                c,
                FaultClass::AccumulatorFlip | FaultClass::AccumulatorStuck
            ) && f.layer == layer
                && f.unit < words
                && f.bit < bits
        });
        let &(class, f) = hit?;
        let logged = self.delivered.contains(&(class, f));
        if !logged {
            self.delivered.push((class, f));
        }
        (!logged || class == FaultClass::AccumulatorStuck).then_some((f.unit, f.bit))
    }
}

/// FNV-1a over `bytes` — what the campaign derives its trial seeds
/// with (the code streams have their own word-parallel
/// [`flat_checksum`](crate::flat_checksum), on the same constants).
/// One multiply per byte, deterministic across platforms.
#[must_use]
pub fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = FNV_OFFSET;
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a 64-bit offset basis and prime. The prime is odd, so
/// `h ↦ h · FNV_PRIME (mod 2⁶⁴)` is a bijection.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_injector_is_disabled_and_identity() {
        const { assert!(!NullInjector::ENABLED) };
        let mut i = NullInjector;
        assert_eq!(i.task_delay(0, 0), 0);
        assert_eq!(i.lane_stall(0, 0), 0);
        assert!(!i.drops_deposit(0, 0));
        assert_eq!(i.bandwidth_derate_milli(0), 1000);
        assert_eq!(i.accumulator_flip(0, 1, 64), None);
    }

    #[test]
    fn plan_injector_delivers_only_its_coordinates() {
        let fault = Fault {
            layer: 1,
            unit: 2,
            cycles: 40,
            ..Fault::default()
        };
        let mut i = PlanInjector::new(FaultPlan::single(FaultClass::FifoStall, fault));
        // Wrong coordinates: no stall, nothing logged.
        assert_eq!(i.lane_stall(1, 3), 0);
        assert_eq!(i.lane_stall(0, 2), 0);
        assert!(i.delivered().is_empty());
        // Exact coordinates: the stall lands, delivery logged.
        assert_eq!(i.lane_stall(1, 2), 40);
        assert_eq!(i.delivered(), [(FaultClass::FifoStall, fault)]);
        // Another class's hook never matches a FIFO-stall fault.
        assert_eq!(i.task_delay(1, 2), 0);
        assert!(!i.drops_deposit(1, 2));
        assert_eq!(i.delivered().len(), 1);
    }

    #[test]
    fn plan_injector_timing_hooks() {
        let mut plan = FaultPlan::default();
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
    fn an_accumulator_flip_lands_once_and_only_in_range() {
        let fault = Fault {
            layer: 2,
            unit: 9,
            bit: 31,
            ..Fault::default()
        };
        let mut i = PlanInjector::new(FaultPlan::single(FaultClass::AccumulatorFlip, fault));
        // Another layer, a plane too short, a word too narrow: nothing.
        assert_eq!(i.accumulator_flip(1, 100, 32), None);
        assert_eq!(i.accumulator_flip(2, 9, 32), None);
        assert_eq!(i.accumulator_flip(2, 100, 31), None);
        assert!(i.delivered().is_empty());
        assert_eq!(i.accumulator_flip(2, 100, 32), Some((9, 31)));
        // Transient: the layer's next sweep runs clean.
        assert_eq!(i.accumulator_flip(2, 100, 32), None);
        assert_eq!(i.delivered(), [(FaultClass::AccumulatorFlip, fault)]);
    }

    #[test]
    fn a_stuck_accumulator_lands_every_sweep_and_is_logged_once() {
        let fault = Fault {
            layer: 2,
            unit: 9,
            bit: 31,
            ..Fault::default()
        };
        let mut i = PlanInjector::new(FaultPlan::single(FaultClass::AccumulatorStuck, fault));
        assert_eq!(i.accumulator_flip(1, 100, 32), None);
        assert_eq!(i.accumulator_flip(2, 100, 31), None);
        for _ in 0..3 {
            assert_eq!(i.accumulator_flip(2, 100, 32), Some((9, 31)));
        }
        assert_eq!(i.delivered(), [(FaultClass::AccumulatorStuck, fault)]);
    }
}
