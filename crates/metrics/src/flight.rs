//! The flight recorder: a fixed-capacity ring of the most recent
//! telemetry events, frozen into a post-mortem dump the moment an
//! `AbmError` surfaces.
//!
//! The ring is wait-free for writers — a `fetch_add` claims a slot,
//! then the event is moved into that slot behind a per-slot mutex
//! (never contended unless the ring has wrapped onto an in-flight
//! writer). Readers reconstruct oldest→newest order from the global
//! sequence counter. Feeding is by construction: wrap a
//! [`abm_telemetry::TelemetrySink`] with [`crate::flight_tee`] and
//! every event the sink sees is mirrored here.
//!
//! Dumps render through [`stable_line`], which deliberately omits the
//! wall-clock fields (`HostSpan` start/duration, `Fault` timestamps,
//! `WorkerSteals` busy time) so a seeded campaign trial produces a
//! **byte-stable** dump across runs — the property
//! `tests/metrics.rs` pins.

use abm_telemetry::json::Node;
use abm_telemetry::Event;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default ring capacity for the process-wide recorder: enough to
/// hold every event of a full VGG16 collected inference tail while
/// staying a few hundred KiB.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Renders one event as a deterministic single line: every
/// cycle-domain and count field, none of the wall-clock ones.
#[must_use]
pub fn stable_line(event: &Event) -> String {
    match event {
        Event::LayerBegin { layer, name, cycle } => {
            format!("layer-begin layer={layer} name={name} cycle={cycle}")
        }
        Event::LayerEnd { layer, cycle } => format!("layer-end layer={layer} cycle={cycle}"),
        Event::CuTask {
            layer,
            cu,
            start,
            end,
        } => format!("cu-task layer={layer} cu={cu} start={start} end={end}"),
        Event::QueueDepth {
            layer,
            window,
            depth,
        } => format!("queue-depth layer={layer} window={window} depth={depth}"),
        Event::LaneStats {
            layer,
            kernel,
            acc_busy,
            acc_stall,
            mult_busy,
            fifo_high_water,
        } => format!(
            "lane-stats layer={layer} kernel={kernel} acc_busy={acc_busy} \
             acc_stall={acc_stall} mult_busy={mult_busy} fifo_high_water={fifo_high_water}"
        ),
        Event::DdrWindow {
            layer,
            window,
            read_bytes,
            write_bytes,
        } => format!(
            "ddr-window layer={layer} window={window} read_bytes={read_bytes} \
             write_bytes={write_bytes}"
        ),
        Event::HostSpan {
            track, name, ops, ..
        } => format!("host-span track={track} name={name} ops={ops}"),
        Event::WorkerSteals { worker, tasks, .. } => {
            format!("worker-steals worker={worker} tasks={tasks}")
        }
        Event::StageSpan {
            stage,
            img,
            layer,
            start,
            end,
        } => format!("stage-span stage={stage} img={img} layer={layer} start={start} end={end}"),
        Event::StageFifo {
            boundary,
            high_water,
            depth,
        } => format!("stage-fifo boundary={boundary} high_water={high_water} depth={depth}"),
        Event::KernelDispatch {
            layer,
            isa,
            acc,
            lanes,
        } => format!("kernel-dispatch layer={layer} isa={isa} acc={acc} lanes={lanes}"),
        Event::Fault {
            layer,
            action,
            class,
            detail,
            ..
        } => format!("fault layer={layer} action={action} class={class} detail={detail}"),
    }
}

/// A frozen copy of the recorder taken when an error surfaced.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Metric-name-safe label for where the error surfaced.
    pub context: String,
    /// Free-text detail (usually the `AbmError` display).
    pub detail: String,
    /// Events ever recorded at dump time (`>= events.len()`; the
    /// difference is what the ring had already evicted).
    pub total_recorded: u64,
    /// The retained tail, oldest first.
    pub events: Vec<Event>,
}

impl FlightDump {
    /// Deterministic text rendering: header plus one
    /// [`stable_line`] per retained event.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "flight recorder dump [{}]: {}\n{} event(s) recorded, last {} retained\n",
            self.context,
            self.detail,
            self.total_recorded,
            self.events.len()
        ));
        for e in &self.events {
            out.push_str(&stable_line(e));
            out.push('\n');
        }
        out
    }

    /// JSON rendering (validated by `abm_telemetry::json::validate` in
    /// tests and the smoke gate).
    #[must_use]
    pub fn to_json(&self) -> String {
        Node::object(|o| {
            o.field("context", &self.context);
            o.field("detail", &self.detail);
            o.field("total_recorded", self.total_recorded);
            o.array("events", |a| {
                self.events.iter().for_each(|e| a.item(stable_line(e)))
            });
        })
        .render()
    }
}

/// The ring itself. See the module docs for the concurrency story.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Mutex<Option<Event>>]>,
    /// Total events ever recorded; `seq % capacity` is the slot the
    /// next event claims.
    seq: AtomicU64,
    last_dump: Mutex<Option<FlightDump>>,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || Mutex::new(None));
        Self {
            slots: slots.into_boxed_slice(),
            seq: AtomicU64::new(0),
            last_dump: Mutex::new(None),
            dumps: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (retained or evicted).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn record(&self, event: Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(event);
    }

    /// The retained tail, oldest first. With writers quiescent this is
    /// exactly the last `min(recorded, capacity)` events in record
    /// order; concurrent with writers it is a best-effort snapshot.
    #[must_use]
    pub fn tail(&self) -> Vec<Event> {
        let seq = self.seq.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let len = seq.min(cap);
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len {
            // Oldest retained event sits at slot (seq - len + i) % cap.
            let slot = ((seq - len + i) % cap) as usize;
            if let Some(e) = self.slots[slot]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
            {
                out.push(e);
            }
        }
        out
    }

    /// Freezes the current tail as the post-mortem dump for an error.
    pub fn note_error(&self, context: &str, detail: &str) {
        let dump = FlightDump {
            context: context.to_string(),
            detail: detail.to_string(),
            total_recorded: self.recorded(),
            events: self.tail(),
        };
        self.dumps.fetch_add(1, Ordering::Relaxed);
        *self
            .last_dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(dump);
    }

    /// The most recent dump, if any error has surfaced.
    #[must_use]
    pub fn last_dump(&self) -> Option<FlightDump> {
        self.last_dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// How many dumps have been taken.
    #[must_use]
    pub fn dump_count(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Empties the ring and forgets any dump.
    pub fn clear(&self) {
        for s in self.slots.iter() {
            *s.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        self.seq.store(0, Ordering::Relaxed);
        *self
            .last_dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        self.dumps.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(layer: u32) -> Event {
        Event::LayerEnd {
            layer,
            cycle: u64::from(layer) * 10,
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(ev(i));
        }
        assert_eq!(r.recorded(), 10);
        let tail = r.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail, vec![ev(6), ev(7), ev(8), ev(9)]);
    }

    #[test]
    fn partial_fill_returns_everything() {
        let r = FlightRecorder::new(8);
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.tail(), vec![ev(1), ev(2)]);
    }

    #[test]
    fn note_error_freezes_tail() {
        let r = FlightRecorder::new(4);
        r.record(ev(3));
        r.note_error("test", "synthetic");
        r.record(ev(4));
        let dump = r.last_dump().expect("dump present");
        assert_eq!(dump.context, "test");
        assert_eq!(dump.total_recorded, 1);
        assert_eq!(dump.events, vec![ev(3)]);
        assert_eq!(r.dump_count(), 1);
        assert!(dump.to_text().contains("layer-end layer=3 cycle=30"));
        abm_telemetry::json::validate(&dump.to_json()).expect("dump json validates");
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let r = FlightRecorder::new(1024);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..100 {
                        r.record(ev(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 800);
        let tail = r.tail();
        assert_eq!(tail.len(), 800);
        // Per-thread order is preserved even under interleaving.
        for t in 0..8u32 {
            let mine: Vec<u32> = tail
                .iter()
                .filter_map(|e| match e {
                    Event::LayerEnd { layer, .. } if layer / 1000 == t => Some(layer % 1000),
                    _ => None,
                })
                .collect();
            assert_eq!(mine, (0..100).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn stable_line_skips_wall_clock_fields() {
        let a = stable_line(&Event::HostSpan {
            track: 1,
            name: "CONV1".into(),
            start_ns: 12345,
            dur_ns: 678,
            ops: 99,
        });
        let b = stable_line(&Event::HostSpan {
            track: 1,
            name: "CONV1".into(),
            start_ns: 99999,
            dur_ns: 1,
            ops: 99,
        });
        assert_eq!(a, b);
    }
}
