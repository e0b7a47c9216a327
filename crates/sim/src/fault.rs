//! Fail-stop fault guards for the simulator: watchdogs that turn
//! injected timing faults into typed [`AbmError`]s, and the
//! [`SimBudget`] under which a network simulation cannot run away.
//!
//! The hardware being modelled is *fail-stop by construction*: a lane
//! whose partial-sum FIFO overflows corrupts no data — the deposit has
//! nowhere to go and the CU-progress watchdog fires; a hung CU never
//! reports window completion, so the layer deadline fires. The guarded
//! simulation mirrors that contract analytically. With an enabled
//! [`Injector`] in its [`SimContext`](crate::SimContext),
//! [`simulate_workload`](crate::SimContext::simulate_workload) polls
//! every timing-fault site the cycle model exposes and decides, from
//! the same analytic quantities the simulation itself uses, whether
//! each injected perturbation is *absorbed* by real slack (FIFO
//! headroom, watchdog tolerance, memory/compute overlap) or *detected*
//! as a typed error:
//!
//! * a lane stall is absorbed iff it fits the FIFO's remaining
//!   headroom `(fifo_depth − high_water) × N` — otherwise
//!   [`AbmError::FifoOverflow`];
//! * a CU task delay is absorbed iff it stays within the
//!   [`Watchdog`]'s slack — otherwise [`AbmError::CuDeadline`];
//! * a lost partial-sum deposit is never absorbable: the sweep cannot
//!   complete, so [`AbmError::LostDeposit`] fires unconditionally;
//! * a bandwidth derate is absorbed iff the slower transfer still
//!   hides under compute (double buffering) — otherwise
//!   [`AbmError::BandwidthCollapse`].
//!
//! On the `Ok` path the returned [`LayerSim`] is **bit-identical** to
//! the unguarded simulation: an absorbed fault is one the real machine
//! masks, so it must not perturb the model either. With
//! [`NullInjector`](abm_fault::NullInjector) every check compiles away
//! (`I::ENABLED` is `const false`), preserving the golden pins.

use std::time::Duration;

use crate::config::AcceleratorConfig;
use crate::lane;
use crate::run::LayerSim;
use crate::task::Workload;
use abm_fault::{AbmError, Injector};

/// The CU-progress watchdog's tolerance: how many cycles a task may
/// run past its nominal cost before the guard declares the CU hung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Cycles of per-task overrun tolerated before firing.
    pub slack_cycles: u64,
}

impl Watchdog {
    /// Default tolerance: a few window-sync periods' worth of jitter —
    /// generous against scheduling noise, tiny against a hung kernel
    /// (layers run millions of cycles).
    pub const DEFAULT_SLACK_CYCLES: u64 = 4096;

    /// A watchdog with an explicit slack.
    #[must_use]
    pub fn with_slack(slack_cycles: u64) -> Self {
        Self { slack_cycles }
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Self {
            slack_cycles: Self::DEFAULT_SLACK_CYCLES,
        }
    }
}

/// Hard resource limits for
/// [`simulate_network`](crate::SimContext::simulate_network): wall-clock time
/// spent simulating, and simulated cycles produced. `None` means
/// unlimited; the default is unlimited on both axes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimBudget {
    /// Host wall-clock budget for the whole network simulation.
    pub max_wall: Option<Duration>,
    /// Cumulative simulated-cycle budget across all layers.
    pub max_cycles: Option<u64>,
}

impl SimBudget {
    /// No limits.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limits host wall-clock time.
    #[must_use]
    pub fn wall(limit: Duration) -> Self {
        Self {
            max_wall: Some(limit),
            ..Self::default()
        }
    }

    /// Limits cumulative simulated cycles.
    #[must_use]
    pub fn cycles(limit: u64) -> Self {
        Self {
            max_cycles: Some(limit),
            ..Self::default()
        }
    }
}

/// Per-lane guards: FIFO high-water absorption and deposit loss.
pub(crate) fn check_lanes<I: Injector>(
    w: &Workload,
    cfg: &AcceleratorConfig,
    layer: usize,
    injector: &mut I,
) -> Result<(), AbmError> {
    for (k, kernel) in w.code.kernels().iter().enumerate() {
        if kernel.total() == 0 {
            continue;
        }
        let stall = injector.lane_stall(layer, k);
        if stall > 0 {
            // The probe reports the deepest the FIFO actually gets on
            // this kernel's run structure; the remaining headroom,
            // drained at N deposits per sweep, bounds the burst the
            // lane can ride out without overflowing.
            let high_water = lane::vector_cycles_probed(kernel, cfg.n as u64, cfg.fifo_depth)
                .fifo_high_water as u64;
            let headroom = (cfg.fifo_depth as u64).saturating_sub(high_water);
            let slack = headroom * cfg.n as u64;
            if stall > slack {
                return Err(AbmError::FifoOverflow {
                    layer,
                    kernel: k,
                    stall,
                    slack,
                });
            }
        }
        if injector.drops_deposit(layer, k) {
            return Err(AbmError::LostDeposit { layer, kernel: k });
        }
    }
    Ok(())
}

/// CU-progress guard: every task in the window-ordered stream is
/// polled for an injected overrun and held to the watchdog's slack.
pub(crate) fn check_tasks<I: Injector>(
    w: &Workload,
    cfg: &AcceleratorConfig,
    layer: usize,
    injector: &mut I,
    watchdog: Watchdog,
) -> Result<(), AbmError> {
    let tasks = w.window_count(cfg) * w.batches(cfg);
    for task in 0..tasks {
        let delay = injector.task_delay(layer, task);
        if delay > watchdog.slack_cycles {
            return Err(AbmError::CuDeadline {
                layer,
                task,
                delay,
                slack: watchdog.slack_cycles,
            });
        }
    }
    Ok(())
}

/// Layer-latency guard: a derated transfer must still hide under the
/// layer's nominal latency (double buffering), else the layer misses
/// its deadline.
pub(crate) fn check_bandwidth<I: Injector>(
    layer: usize,
    injector: &mut I,
    sim: &LayerSim,
) -> Result<(), AbmError> {
    let derate = injector.bandwidth_derate_milli(layer);
    if derate > 1000 {
        let derated = sim.memory_seconds * derate as f64 / 1000.0;
        if derated > sim.seconds {
            return Err(AbmError::BandwidthCollapse {
                layer,
                seconds: derated,
                deadline: sim.seconds,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{simulate_network, NetworkSim, SimContext};
    use abm_conv::parallel::Parallelism;
    use abm_fault::{Fault, FaultClass, FaultPlan, NullInjector, PlanInjector};
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile, SparseModel};

    fn tiny_model() -> SparseModel {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
        synthesize_model(&net, &profile, 11)
    }

    fn workload() -> (Workload, AcceleratorConfig) {
        let model = tiny_model();
        let w = Workload::from_layer(&model.layers[0]).unwrap();
        (w, AcceleratorConfig::paper())
    }

    fn guarded<I: Injector>(
        w: &Workload,
        cfg: &AcceleratorConfig,
        injector: &mut I,
        watchdog: Watchdog,
    ) -> Result<LayerSim, AbmError> {
        let serial = SimContext {
            parallelism: Parallelism::Serial,
            watchdog,
            ..SimContext::default()
        };
        serial.injector(injector).simulate_workload(w, cfg, 0, 0)
    }

    fn budgeted(
        model: &SparseModel,
        parallelism: Parallelism,
        budget: SimBudget,
    ) -> Result<NetworkSim, AbmError> {
        SimContext {
            parallelism,
            budget,
            ..SimContext::default()
        }
        .simulate_network(model, &AcceleratorConfig::paper())
    }

    #[test]
    fn null_injector_is_bit_identical() {
        let (w, cfg) = workload();
        let plain = SimContext::default()
            .simulate_workload(&w, &cfg, 0, 0)
            .unwrap();
        let sim = guarded(&w, &cfg, &mut NullInjector, Watchdog::default()).unwrap();
        assert_eq!(sim.compute_cycles, plain.compute_cycles);
        assert_eq!(sim.busy_cycles, plain.busy_cycles);
        assert_eq!(sim.seconds.to_bits(), plain.seconds.to_bits());
    }

    #[test]
    fn small_stall_is_absorbed_large_overflows() {
        let (w, cfg) = workload();
        let kernel = 0;
        let high_water =
            lane::vector_cycles_probed(&w.code.kernels()[kernel], cfg.n as u64, cfg.fifo_depth)
                .fifo_high_water as u64;
        let slack = (cfg.fifo_depth as u64 - high_water) * cfg.n as u64;
        assert!(slack > 0, "paper config must leave FIFO headroom");

        let stall = |cycles| {
            PlanInjector::new(FaultPlan::single(
                0,
                FaultClass::FifoStall,
                Fault {
                    layer: 0,
                    unit: kernel,
                    cycles,
                    ..Fault::default()
                },
            ))
        };
        // Within headroom: absorbed, result identical to the clean run.
        let clean = guarded(&w, &cfg, &mut NullInjector, Watchdog::default()).unwrap();
        let mut inj = stall(slack);
        let sim = guarded(&w, &cfg, &mut inj, Watchdog::default()).unwrap();
        assert_eq!(inj.delivered().len(), 1, "fault must have been delivered");
        assert_eq!(sim.compute_cycles, clean.compute_cycles);
        // One past headroom: the high-water watchdog fires.
        let err = guarded(&w, &cfg, &mut stall(slack + 1), Watchdog::default()).unwrap_err();
        assert!(
            matches!(err, AbmError::FifoOverflow { kernel: k, stall: s, slack: sl, .. }
                if k == kernel && s == slack + 1 && sl == slack),
            "{err}"
        );
    }

    #[test]
    fn hang_is_held_to_watchdog_slack() {
        let (w, cfg) = workload();
        let hang = |cycles| {
            PlanInjector::new(FaultPlan::single(
                0,
                FaultClass::CuHang,
                Fault {
                    layer: 0,
                    unit: 1,
                    cycles,
                    ..Fault::default()
                },
            ))
        };
        let dog = Watchdog::with_slack(100);
        guarded(&w, &cfg, &mut hang(100), dog).unwrap();
        let err = guarded(&w, &cfg, &mut hang(101), dog).unwrap_err();
        assert!(
            matches!(
                err,
                AbmError::CuDeadline {
                    task: 1,
                    delay: 101,
                    slack: 100,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.is_watchdog());
    }

    #[test]
    fn lost_deposit_always_fires() {
        let (w, cfg) = workload();
        let mut inj = PlanInjector::new(FaultPlan::single(
            0,
            FaultClass::FifoDrop,
            Fault {
                layer: 0,
                unit: 2,
                ..Fault::default()
            },
        ));
        let err = guarded(&w, &cfg, &mut inj, Watchdog::default()).unwrap_err();
        assert!(
            matches!(err, AbmError::LostDeposit { kernel: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn bandwidth_derate_masked_under_compute_detected_past_it() {
        let (w, cfg) = workload();
        let clean = guarded(&w, &cfg, &mut NullInjector, Watchdog::default()).unwrap();
        assert!(
            !clean.memory_bound,
            "test needs a compute-bound layer to have overlap slack"
        );
        // Largest derate the compute overlap still hides.
        let hidden = (clean.seconds / clean.memory_seconds * 1000.0).floor() as u32;
        let throttle = |derate_milli| {
            PlanInjector::new(FaultPlan::single(
                0,
                FaultClass::BandwidthThrottle,
                Fault {
                    layer: 0,
                    derate_milli,
                    ..Fault::default()
                },
            ))
        };
        let sim = guarded(&w, &cfg, &mut throttle(hidden), Watchdog::default()).unwrap();
        assert_eq!(sim.seconds.to_bits(), clean.seconds.to_bits());
        let err = guarded(&w, &cfg, &mut throttle(hidden + 10), Watchdog::default()).unwrap_err();
        assert!(matches!(err, AbmError::BandwidthCollapse { .. }), "{err}");
    }

    #[test]
    fn unlimited_budget_matches_plain_network_sim() {
        let model = tiny_model();
        let plain = simulate_network(&model, &AcceleratorConfig::paper());
        let budgeted = budgeted(&model, Parallelism::Serial, SimBudget::unlimited()).unwrap();
        assert_eq!(budgeted, plain);
    }

    #[test]
    fn generous_wall_budget_succeeds_zero_budget_fails() {
        let model = tiny_model();
        // Threads(2) claims layers on the pool, Serial walks them in
        // order: the deadline cuts both the same way.
        for parallelism in [Parallelism::Threads(2), Parallelism::Serial] {
            let run = |budget| budgeted(&model, parallelism, budget);
            run(SimBudget::wall(Duration::from_secs(600))).unwrap();
            let err = run(SimBudget::wall(Duration::ZERO)).unwrap_err();
            assert!(
                matches!(err, AbmError::WallBudgetExceeded { layers_done: 0, .. }),
                "{parallelism}: {err}"
            );
        }
    }

    #[test]
    fn cycle_budget_stops_early_with_progress() {
        let model = tiny_model();
        let full = budgeted(&model, Parallelism::Serial, SimBudget::unlimited()).unwrap();
        let total: u64 = full.layers().iter().map(|l| l.compute_cycles).sum();
        let first = full.layers()[0].compute_cycles;
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let err = budgeted(&model, parallelism, SimBudget::cycles(first)).unwrap_err();
            assert!(
                matches!(err, AbmError::CycleBudgetExceeded { layers_done: 2, cycles, budget }
                    if cycles > budget && cycles <= total),
                "{parallelism}: {err}"
            );
            // A budget covering the whole network changes nothing.
            budgeted(&model, parallelism, SimBudget::cycles(total)).unwrap();
        }
    }
}
