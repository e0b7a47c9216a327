//! Thread-safe event sink for the host-side inference path.
//!
//! The simulator owns a single `&mut` collector (its event order is
//! deterministic), but host spans come from the pool's worker
//! threads. [`TelemetrySink`] is the shared-ownership variant: cheap to
//! clone, recorded into from any thread, drained once at the end. Span
//! *timestamps* are wall-clock and therefore run-dependent; the
//! *computation* they observe is not — attaching a sink never changes
//! inference results (asserted by `tests/telemetry.rs`).

use crate::collector::{Event, FaultAction};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The observer type a sink can tee every event into (e.g. a served
/// worker's heartbeat, which each finished layer re-arms): called
/// after the event is stored, outside the lock.
pub type EventTee = Arc<dyn Fn(&Event) + Send + Sync>;

/// A cloneable, thread-safe telemetry sink with a per-run epoch.
#[derive(Clone)]
pub struct TelemetrySink {
    events: Arc<Mutex<Vec<Event>>>,
    epoch: Instant,
    tee: Option<EventTee>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("events", &self.events)
            .field("epoch", &self.epoch)
            .field("tee", &self.tee.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl TelemetrySink {
    /// An empty sink; the epoch for [`now_ns`](Self::now_ns) starts
    /// here.
    #[must_use]
    pub fn new() -> Self {
        Self {
            events: Arc::new(Mutex::new(Vec::new())),
            epoch: Instant::now(),
            tee: None,
        }
    }

    /// Attaches an observer that sees every subsequently recorded
    /// event (clones made *before* this call keep the old tee). The
    /// tee runs after the event is stored and outside the event lock,
    /// so it may itself take locks freely.
    #[must_use]
    pub fn with_tee(mut self, tee: EventTee) -> Self {
        self.tee = Some(tee);
        self
    }

    /// Nanoseconds elapsed since the sink was created — the timestamp
    /// base for [`Event::HostSpan`].
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one event (any thread).
    pub fn record(&self, event: Event) {
        match &self.tee {
            Some(tee) => {
                self.events
                    .lock()
                    .expect("telemetry sink poisoned")
                    .push(event.clone());
                tee(&event);
            }
            None => self
                .events
                .lock()
                .expect("telemetry sink poisoned")
                .push(event),
        }
    }

    /// Records a host span measured against this sink's epoch.
    pub fn record_span(&self, track: u32, name: &str, start_ns: u64, ops: u64) {
        let end = self.now_ns();
        self.record(Event::HostSpan {
            track,
            name: name.to_string(),
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            ops,
        });
    }

    /// Records a resilience event stamped with the sink's current time.
    pub fn record_fault(&self, layer: u32, action: FaultAction, class: &str, detail: &str) {
        let at = self.now_ns();
        self.record(Event::Fault {
            layer,
            action,
            class: class.to_string(),
            detail: detail.to_string(),
            at,
        });
    }

    /// Records which host kernel variant a prepared layer dispatched
    /// to (ISA + proven stage-1 accumulator width + lane count).
    pub fn record_dispatch(&self, layer: u32, isa: &str, acc: &str, lanes: u32) {
        self.record(Event::KernelDispatch {
            layer,
            isa: isa.to_string(),
            acc: acc.to_string(),
            lanes,
        });
    }

    /// Takes a snapshot of the events recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("telemetry sink poisoned").clone()
    }

    /// Drains and returns all recorded events.
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("telemetry sink poisoned"))
    }
}

impl Default for TelemetrySink {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_from_multiple_threads() {
        let sink = TelemetrySink::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let sink = sink.clone();
                scope.spawn(move || {
                    let start = sink.now_ns();
                    sink.record_span(t, "work", start, 100);
                });
            }
        });
        let events = sink.events();
        assert_eq!(events.len(), 4);
        for e in &events {
            match e {
                Event::HostSpan { name, ops, .. } => {
                    assert_eq!(name, "work");
                    assert_eq!(*ops, 100);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(sink.drain().len(), 4);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn epoch_is_monotonic() {
        let sink = TelemetrySink::new();
        let a = sink.now_ns();
        let b = sink.now_ns();
        assert!(b >= a);
    }
}
