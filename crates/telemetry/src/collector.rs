//! The [`Collector`] trait and its two canonical implementations.
//!
//! Instrumented code is generic over `C: Collector` and gates every
//! derivation that exists only to feed telemetry on the associated
//! const [`Collector::ENABLED`]:
//!
//! ```ignore
//! if C::ENABLED {
//!     collector.record(Event::CuTask { .. });
//! }
//! ```
//!
//! With [`NullCollector`] the branch is a compile-time constant `false`,
//! so the instrumented function monomorphizes to exactly the
//! uninstrumented code — zero cost when disabled, which is what lets the
//! golden timing pins stay byte-identical with telemetry on or off.

/// One telemetry event. Cycle-domain events carry simulated clock
/// cycles; host-domain events carry wall-clock nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A simulated layer starts at `cycle` on the accelerator timeline
    /// (cycles accumulate across layers so CU tracks lay out end to
    /// end).
    LayerBegin {
        /// Index of the layer in execution order.
        layer: u32,
        /// Layer name.
        name: String,
        /// Timeline cycle at which the layer's first task may issue.
        cycle: u64,
    },
    /// A simulated layer retires at `cycle` (its makespan boundary,
    /// including window syncs).
    LayerEnd {
        /// Index of the layer in execution order.
        layer: u32,
        /// Timeline cycle at which the layer completes.
        cycle: u64,
    },
    /// One CU executed one computation task (half-open cycle interval
    /// on that CU's track).
    CuTask {
        /// Layer index the task belongs to.
        layer: u32,
        /// Convolution unit that ran the task.
        cu: u32,
        /// Timeline cycle the task issued.
        start: u64,
        /// Timeline cycle the task retired.
        end: u64,
    },
    /// Scheduler queue length when a prefetch window's task batch was
    /// enqueued.
    QueueDepth {
        /// Layer index.
        layer: u32,
        /// Prefetch-window index within the layer.
        window: u32,
        /// Tasks waiting in the dispatch queue.
        depth: u32,
    },
    /// Per-kernel lane statistics for one vector sweep: accumulator
    /// busy/stall occupancy, multiplier occupancy and the partial-sum
    /// FIFO's high-water mark.
    LaneStats {
        /// Layer index.
        layer: u32,
        /// Kernel (lane) index within the layer.
        kernel: u32,
        /// Accumulator-busy cycles per vector sweep.
        acc_busy: u64,
        /// Accumulator cycles stalled on a full FIFO per vector sweep.
        acc_stall: u64,
        /// Multiplier occupancy per vector sweep (`Q·N` cycles).
        mult_busy: u64,
        /// Deepest simultaneous partial-sum FIFO occupancy observed.
        fifo_high_water: u32,
    },
    /// DDR traffic attributed to one prefetch window.
    DdrWindow {
        /// Layer index.
        layer: u32,
        /// Prefetch-window index within the layer.
        window: u32,
        /// Bytes read from external memory (features + weights).
        read_bytes: u64,
        /// Bytes written back to external memory.
        write_bytes: u64,
    },
    /// A host-side wall-clock span (layer execution, batch item, …).
    HostSpan {
        /// Worker/track id the span ran on.
        track: u32,
        /// Span name (layer or phase).
        name: String,
        /// Span start, nanoseconds from an arbitrary per-run epoch.
        start_ns: u64,
        /// Span duration in nanoseconds.
        dur_ns: u64,
        /// Arithmetic operations the span performed (AbmWork total for
        /// accelerated layers; 0 where not applicable).
        ops: u64,
    },
    /// One worker's contribution to a work-stealing `parallel_map`.
    WorkerSteals {
        /// Worker index within the pool.
        worker: u32,
        /// Tasks the worker stole and completed.
        tasks: u64,
        /// Wall-clock nanoseconds the worker spent executing tasks.
        busy_ns: u64,
    },
    /// One pipeline stage executed a contiguous run of row units of
    /// one image's layer (cycle-domain; rendered on a per-stage track
    /// in the Chrome trace).
    StageSpan {
        /// Pipeline stage index.
        stage: u32,
        /// Image index within the streamed batch.
        img: u32,
        /// Workload (layer) index the rows belong to.
        layer: u32,
        /// Timeline cycle the first merged row unit issued.
        start: u64,
        /// Timeline cycle the last merged row unit retired.
        end: u64,
    },
    /// Inter-stage FIFO occupancy summary for one pipeline boundary:
    /// the deepest simultaneous row occupancy observed against the
    /// provisioned depth.
    StageFifo {
        /// Boundary index (between stage `b` and `b+1`).
        boundary: u32,
        /// Deepest observed occupancy, in rows.
        high_water: u32,
        /// Provisioned depth, in rows.
        depth: u32,
    },
    /// The host kernel variant a prepared ABM layer dispatched to:
    /// which ISA will execute its gather loops and the stage-1
    /// accumulator width the lowering verifier proved safe. Recorded
    /// once per layer at preparation time, never on the execution path.
    KernelDispatch {
        /// Layer index in execution order.
        layer: u32,
        /// ISA name (`scalar` / `avx2` / `avx512`).
        isa: String,
        /// Stage-1 accumulator width name (`i32` / `i64`).
        acc: String,
        /// Pixel lanes the variant processes per call.
        lanes: u32,
    },
    /// A resilience event: a fault was injected, detected, masked or
    /// recovered from. Rendered on a dedicated "faults" track in the
    /// Chrome trace so campaigns line up against the layer timeline.
    Fault {
        /// Layer index the event is attributed to.
        layer: u32,
        /// Which resilience stage fired.
        action: FaultAction,
        /// Fault class (kebab-case, e.g. `wt-word-flip`) or detector
        /// name for detections.
        class: String,
        /// Human-readable detail (error display, recovery action, …).
        detail: String,
        /// Host-domain timestamp, nanoseconds from the sink epoch.
        at: u64,
    },
}

/// Which stage of the resilience pipeline an [`Event::Fault`] records.
///
/// Defined here (not in `abm-fault`) because `abm-telemetry` sits at the
/// bottom of the dependency graph and must stay dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// An injector perturbed state.
    Injected,
    /// A detector (checksum, ABFT, watchdog) caught a corruption.
    Detected,
    /// The perturbation was provably absorbed by slack; output unchanged.
    Masked,
    /// A recovery path (re-lowering, fallback engine, replay) restored a
    /// correct result.
    Recovered,
}

impl FaultAction {
    /// Stable lowercase name used in traces and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Injected => "injected",
            FaultAction::Detected => "detected",
            FaultAction::Masked => "masked",
            FaultAction::Recovered => "recovered",
        }
    }
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A sink for instrumentation events.
///
/// See the module docs for the `ENABLED` gating idiom that makes the
/// null implementation free.
pub trait Collector {
    /// Whether this collector records anything. Instrumented code must
    /// skip telemetry-only derivations when this is `false`.
    const ENABLED: bool;

    /// Records one event. Implementations must not reorder events: the
    /// stream arrives in deterministic simulation order.
    fn record(&mut self, event: Event);
}

/// The default collector: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullCollector;

impl Collector for NullCollector {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// A borrowed collector collects: lend `&mut c` to instrumented code
/// that takes its collector by value and keep the recording.
impl<C: Collector> Collector for &mut C {
    const ENABLED: bool = C::ENABLED;

    #[inline(always)]
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }
}

/// Captures the full event stream for export and aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingCollector {
    events: Vec<Event>,
}

impl RecordingCollector {
    /// An empty recording collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in arrival order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the collector, returning the event stream.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Total busy cycles recorded for one CU across all layers.
    #[must_use]
    pub fn cu_busy_cycles(&self, cu: u32) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::CuTask {
                    cu: c, start, end, ..
                } if *c == cu => Some(end - start),
                _ => None,
            })
            .sum()
    }

    /// Deepest FIFO occupancy recorded across all lanes of a layer.
    #[must_use]
    pub fn fifo_high_water(&self, layer: u32) -> u32 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::LaneStats {
                    layer: l,
                    fifo_high_water,
                    ..
                } if *l == layer => Some(*fifo_high_water),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Sum of DDR read + write bytes recorded for a layer.
    #[must_use]
    pub fn ddr_bytes(&self, layer: u32) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::DdrWindow {
                    layer: l,
                    read_bytes,
                    write_bytes,
                    ..
                } if *l == layer => Some(read_bytes + write_bytes),
                _ => None,
            })
            .sum()
    }
}

impl Collector for RecordingCollector {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_collector_is_disabled() {
        const { assert!(!NullCollector::ENABLED) };
        let mut c = NullCollector;
        c.record(Event::LayerEnd { layer: 0, cycle: 1 });
    }

    #[test]
    fn recording_collector_keeps_order_and_aggregates() {
        let mut c = RecordingCollector::new();
        c.record(Event::CuTask {
            layer: 0,
            cu: 0,
            start: 0,
            end: 10,
        });
        c.record(Event::CuTask {
            layer: 0,
            cu: 1,
            start: 0,
            end: 4,
        });
        c.record(Event::CuTask {
            layer: 1,
            cu: 0,
            start: 10,
            end: 25,
        });
        c.record(Event::LaneStats {
            layer: 0,
            kernel: 2,
            acc_busy: 8,
            acc_stall: 1,
            mult_busy: 12,
            fifo_high_water: 3,
        });
        c.record(Event::DdrWindow {
            layer: 0,
            window: 0,
            read_bytes: 100,
            write_bytes: 40,
        });
        assert_eq!(c.events().len(), 5);
        assert_eq!(c.cu_busy_cycles(0), 25);
        assert_eq!(c.cu_busy_cycles(1), 4);
        assert_eq!(c.fifo_high_water(0), 3);
        assert_eq!(c.fifo_high_water(1), 0);
        assert_eq!(c.ddr_bytes(0), 140);
    }
}
