//! Harness-side spans. Every call into a layer's public function is
//! wrapped by [`Tracer::span`] (or `begin`/`end`), which always times
//! the call and, on the `--trace 1` run only, also records
//! `{name, start_ns, end_ns, parent, request}` in memory. The spans are
//! written as Chrome-trace JSON when the run ends.

use abm_telemetry::chrome::{ChromeTrace, Span, PID_HOST};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Rec {
    name: String,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// A started span; hand it back to [`Tracer::end`].
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Rec>>,
    /// End time of the last span on each track of [`Tracer::record`]ed
    /// spans, which overlap one another.
    lanes: Mutex<Vec<u64>>,
}

/// First track id of the recorded (request) spans, clear of the
/// per-thread tracks.
const FIRST_LANE: u32 = 1000;

static NEXT_TID: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
}

/// A small stable id for the calling thread (one trace track each).
fn tid() -> u32 {
    TID.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            lanes: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, rec: Rec) -> usize {
        let mut spans = self.spans.lock().expect("no span recorder panics");
        spans.push(rec);
        spans.len() - 1
    }

    /// Starts a span caused by `parent`, on behalf of `request`.
    pub fn begin(&self, name: &str, parent: Option<&Open>, request: u64) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.push(Rec {
                name: name.to_owned(),
                tid: tid(),
                start_ns: self.ns(start),
                end_ns: 0,
                parent: parent.and_then(|p| p.slot),
                request,
            })
        });
        Open { start, slot }
    }

    /// Ends a span; returns its duration in milliseconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            let end_ns = self.ns(end);
            self.spans.lock().expect("no span recorder panics")[slot].end_ns = end_ns;
        }
        end.duration_since(open.start).as_secs_f64() * 1e3
    }

    /// Times `f` inside a span; returns its result and milliseconds.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<&Open>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.begin(name, parent, request);
        let r = f();
        (r, self.end(open))
    }

    /// Records a span whose ends were observed elsewhere (a request's
    /// due time and the moment its reply arrived). Requests in flight
    /// together overlap, so each goes on the first track that is free
    /// at its start; call in order of `start`.
    pub fn record(&self, name: &str, start: Instant, end: Instant, request: u64) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let lane = {
            let mut lanes = self.lanes.lock().expect("no span recorder panics");
            let lane = lanes
                .iter()
                .position(|&busy_until| busy_until <= start_ns)
                .unwrap_or(lanes.len());
            if lane == lanes.len() {
                lanes.push(0);
            }
            lanes[lane] = end_ns;
            lane
        };
        self.push(Rec {
            name: name.to_owned(),
            tid: FIRST_LANE + lane as u32,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    /// Writes the spans to `out/trace-<workload>.json` in the package
    /// directory; returns the path and the span count.
    pub fn write(&self, workload: &str) -> Result<Option<(String, usize)>, String> {
        if !self.on {
            return Ok(None);
        }
        let spans = self.spans.lock().expect("no span recorder panics");
        let mut doc = ChromeTrace::new();
        for rec in spans.iter() {
            let mut args = vec![
                ("start_ns".to_owned(), rec.start_ns.to_string()),
                ("end_ns".to_owned(), rec.end_ns.to_string()),
                ("request".to_owned(), rec.request.to_string()),
            ];
            if let Some(p) = rec.parent {
                args.push(("parent".to_owned(), format!("{p}:{}", spans[p].name)));
            }
            doc.span(Span {
                pid: PID_HOST,
                tid: rec.tid,
                name: rec.name.clone(),
                ts: rec.start_ns / 1000,
                dur: rec.end_ns.saturating_sub(rec.start_ns) / 1000,
                args,
            });
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/trace-{workload}.json");
        std::fs::write(&path, doc.to_json()).map_err(|e| format!("{path}: {e}"))?;
        Ok(Some((path, spans.len())))
    }
}
