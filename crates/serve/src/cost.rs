//! The admission predictor: a measured per-image service time.
//!
//! Admission control needs to answer one question before a request is
//! allowed into the queue: *if we accept this request now, will it
//! still be worth anything when it comes out the other end?* The
//! answer has two halves:
//!
//! * a **service estimate** `S` — how long one image takes end to end:
//!   the warm-up's measured per-image time. [`Server::start`] runs the
//!   served model on a warm-up batch, on one thread, before the first
//!   request can be admitted, and [`CostModel::calibrate`] stores the
//!   wall time per image;
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
//!
//! [`Server::start`]: crate::Server::start

use abm_fault::AbmError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Predicts request cost from one measured per-image service time.
/// Thread-safe: `calibrate` may race with `admit` (the estimate is a
/// single atomic word).
#[derive(Debug)]
pub struct CostModel {
    /// Measured host nanoseconds for one image.
    ns_per_image: AtomicU64,
}

impl CostModel {
    /// A predictor with an explicit per-image estimate — for tests that
    /// need deterministic admission behaviour, and as the server's
    /// starting point until its warm-up measures one.
    #[must_use]
    pub fn fixed(ns_per_image: u64) -> Self {
        Self {
            ns_per_image: AtomicU64::new(ns_per_image.max(1)),
        }
    }

    /// Replaces the estimate with a measured value (warm-up or online
    /// re-calibration). `measured` is wall time for `images`
    /// images run back to back on one worker.
    pub fn calibrate(&self, measured: Duration, images: u64) {
        let per_image =
            u64::try_from(measured.as_nanos() / u128::from(images.max(1))).unwrap_or(u64::MAX);
        self.ns_per_image.store(per_image.max(1), Ordering::Relaxed);
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
        let cost = CostModel::fixed(10_000);
        assert_eq!(cost.service_estimate(), Duration::from_nanos(10_000));
        cost.calibrate(Duration::from_micros(100), 4);
        assert_eq!(cost.service_estimate(), Duration::from_micros(25));
    }

    #[test]
    fn empty_system_admits_when_deadline_covers_service() {
        let cost = CostModel::fixed(1_000_000); // 1 ms service
        assert!(cost.admit(0, 0, 2, Duration::from_millis(2)).is_ok());
        let shed = cost.admit(0, 0, 2, Duration::from_micros(500)).unwrap_err();
        assert!(shed.is_rejection(), "{shed}");
    }

    #[test]
    fn backlog_scales_the_wait_with_worker_count() {
        let cost = CostModel::fixed(1_000_000);
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
}
