//! The cycle-accurate simulator as an SLO cost predictor.
//!
//! Admission control needs to answer one question before a request is
//! allowed into the queue: *if we accept this request now, will it
//! still be worth anything when it comes out the other end?* The
//! answer has two halves:
//!
//! * a **service estimate** `S` — how long one image takes end to end.
//!   The shape comes from the cycle-accurate simulator (the network's
//!   per-image compute cycles under the paper configuration, a pure
//!   function of the model), and the scale from a one-time host
//!   calibration at server start-up: `S = cycles_sim × κ`, where
//!   `κ = measured_ns / cycles_sim` is the host's observed
//!   nanoseconds-per-simulated-cycle on a warm-up batch;
//! * a **wait estimate** `W` — how long the work already admitted will
//!   take to drain ahead of this request. With `q` items queued, `m`
//!   items in flight and `w` workers draining them:
//!   `W = (q + m) × S / w` (first-order M/D/c approximation: items
//!   drain at an aggregate rate of `w / S`).
//!
//! A request with deadline budget `D` is admitted iff `W + S ≤ D`;
//! otherwise it is shed **before** consuming queue space, with the
//! typed [`AbmError::Overloaded`] rejection carrying the predicted
//! time so clients can make informed retry decisions.

use abm_fault::AbmError;
use abm_model::SparseModel;
use abm_sim::{AcceleratorConfig, Parallelism, SimContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Predicts request cost from the simulator's cycle estimate plus a
/// measured host calibration. Thread-safe: `calibrate` may race with
/// `admit` (the estimate is a single atomic word).
#[derive(Debug)]
pub struct CostModel {
    /// Simulated compute cycles for one image (paper configuration).
    cycles_per_image: u64,
    /// Calibrated host nanoseconds for one image.
    ns_per_image: AtomicU64,
}

impl CostModel {
    /// Builds the predictor by running the cycle-accurate simulator
    /// once for the model under `accel`. Until [`calibrate`] is
    /// called, the service estimate assumes the accelerator's own
    /// cycle time (cycles at `accel.freq_mhz`) — a lower bound the
    /// warm-up measurement then replaces with host reality.
    ///
    /// [`calibrate`]: CostModel::calibrate
    #[must_use]
    pub fn from_simulation(model: &SparseModel, accel: &AcceleratorConfig) -> Self {
        let sim = SimContext {
            parallelism: Parallelism::Serial,
            ..SimContext::default()
        }
        .simulate_network(model, accel)
        // INVARIANT: the server only loads models whose layers already
        // encoded (`PreparedWeights`), and the default context has no
        // budget or injector to fail on.
        .expect("served models encode");
        let cycles = sim.summary().compute_cycles.max(1);
        let ns = (sim.total_seconds() * 1e9).max(1.0);
        Self {
            cycles_per_image: cycles,
            // INVARIANT: ns is clamped to >= 1.0 above and finite
            // (simulated seconds of a finite network), so the cast is
            // lossless enough for an estimate.
            ns_per_image: AtomicU64::new(ns as u64),
        }
    }

    /// A predictor with an explicit cycle count and initial estimate —
    /// for tests that need deterministic admission behaviour.
    #[must_use]
    pub fn fixed(cycles_per_image: u64, ns_per_image: u64) -> Self {
        Self {
            cycles_per_image: cycles_per_image.max(1),
            ns_per_image: AtomicU64::new(ns_per_image.max(1)),
        }
    }

    /// Replaces the host-time scale with a measured value (warm-up or
    /// online re-calibration). `measured` is wall time for `images`
    /// images run back to back on one worker.
    pub fn calibrate(&self, measured: Duration, images: u64) {
        let per_image =
            u64::try_from(measured.as_nanos() / u128::from(images.max(1))).unwrap_or(u64::MAX);
        self.ns_per_image.store(per_image.max(1), Ordering::Relaxed);
    }

    /// The simulator's per-image compute-cycle estimate.
    #[must_use]
    pub fn cycles_per_image(&self) -> u64 {
        self.cycles_per_image
    }

    /// The calibrated host nanoseconds-per-simulated-cycle `κ`.
    #[must_use]
    pub fn ns_per_cycle(&self) -> f64 {
        self.ns_per_image.load(Ordering::Relaxed) as f64 / self.cycles_per_image as f64
    }

    /// The current end-to-end service estimate `S` for one image.
    #[must_use]
    pub fn service_estimate(&self) -> Duration {
        Duration::from_nanos(self.ns_per_image.load(Ordering::Relaxed))
    }

    /// Predicted time until a request admitted *now* completes:
    /// `W + S = (queued + in_flight) × S / workers + S`.
    #[must_use]
    pub fn predicted_completion(
        &self,
        queued: usize,
        in_flight: usize,
        workers: usize,
    ) -> Duration {
        let s = u128::from(self.ns_per_image.load(Ordering::Relaxed));
        let backlog = (queued + in_flight) as u128;
        let wait = backlog * s / workers.max(1) as u128;
        Duration::from_nanos(u64::try_from(wait + s).unwrap_or(u64::MAX))
    }

    /// The admission predicate: `Ok(())` if the request's deadline
    /// budget covers the predicted completion time.
    ///
    /// # Errors
    ///
    /// Returns the typed [`AbmError::Overloaded`] rejection carrying
    /// the backlog and both sides of the inequality when the predicted
    /// drain time exceeds the deadline.
    pub fn admit(
        &self,
        queued: usize,
        in_flight: usize,
        workers: usize,
        deadline_budget: Duration,
    ) -> Result<(), AbmError> {
        let predicted = self.predicted_completion(queued, in_flight, workers);
        if predicted <= deadline_budget {
            Ok(())
        } else {
            Err(AbmError::Overloaded {
                queue_depth: queued + in_flight,
                predicted_us: u64::try_from(predicted.as_micros()).unwrap_or(u64::MAX),
                deadline_us: u64::try_from(deadline_budget.as_micros()).unwrap_or(u64::MAX),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_rescales_the_estimate() {
        let cost = CostModel::fixed(1000, 10_000);
        assert_eq!(cost.service_estimate(), Duration::from_nanos(10_000));
        cost.calibrate(Duration::from_micros(100), 4);
        assert_eq!(cost.service_estimate(), Duration::from_micros(25));
        assert!((cost.ns_per_cycle() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_system_admits_when_deadline_covers_service() {
        let cost = CostModel::fixed(1, 1_000_000); // 1 ms service
        assert!(cost.admit(0, 0, 2, Duration::from_millis(2)).is_ok());
        let shed = cost.admit(0, 0, 2, Duration::from_micros(500)).unwrap_err();
        assert!(shed.is_rejection(), "{shed}");
    }

    #[test]
    fn backlog_scales_the_wait_with_worker_count() {
        let cost = CostModel::fixed(1, 1_000_000);
        // 8 items ahead, 1 worker: ~9 ms predicted.
        assert_eq!(cost.predicted_completion(6, 2, 1), Duration::from_millis(9));
        // Same backlog, 4 workers: 2 ms wait + 1 ms service.
        assert_eq!(cost.predicted_completion(6, 2, 4), Duration::from_millis(3));
        match cost.admit(6, 2, 1, Duration::from_millis(5)) {
            Err(AbmError::Overloaded {
                queue_depth,
                predicted_us,
                deadline_us,
            }) => {
                assert_eq!(queue_depth, 8);
                assert_eq!(predicted_us, 9000);
                assert_eq!(deadline_us, 5000);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(cost.admit(6, 2, 4, Duration::from_millis(5)).is_ok());
    }

    #[test]
    fn simulation_backed_model_has_positive_scales() {
        let (network, profile) = (
            abm_model::zoo::tiny(),
            abm_model::PruneProfile::uniform(abm_model::LayerProfile::new(0.6, 16)),
        );
        let model = abm_model::synthesize_model(&network, &profile, 7);
        let cost = CostModel::from_simulation(&model, &AcceleratorConfig::paper());
        assert!(cost.cycles_per_image() > 0);
        assert!(cost.service_estimate() > Duration::ZERO);
        assert!(cost.ns_per_cycle() > 0.0);
    }
}
