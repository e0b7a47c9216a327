//! Chrome `trace_event` JSON export.
//!
//! Produces the JSON Array/Object format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` list of duration events, emitted as matched `B`/`E`
//! pairs, one track per `(pid, tid)`.
//!
//! Two processes are used by convention: `pid 0` is the simulated
//! accelerator (one `tid` per CU, timestamps in **clock cycles** — the
//! viewer's microsecond is our cycle, so at 200 MHz one on-screen
//! millisecond is 5 real microseconds) and `pid 1` is the host (one
//! `tid` per worker thread, timestamps in microseconds of wall time).
//!
//! Spans on one track must not nest or overlap — each CU runs one task
//! at a time and each host worker one item at a time, so the builder
//! enforces nothing but the writer keeps same-timestamp adjacency
//! correct by closing a span before opening the next (`E` sorts before
//! `B` at equal `ts`).

use crate::collector::Event;
use crate::json::Node;

/// One complete span on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Process id (0 = accelerator, 1 = host by convention).
    pub pid: u32,
    /// Thread id — the CU or worker index.
    pub tid: u32,
    /// Span name.
    pub name: String,
    /// Start timestamp (cycles for pid 0, microseconds for pid 1).
    pub ts: u64,
    /// Duration in the same unit as `ts`.
    pub dur: u64,
    /// Optional `args` key/value pairs shown in the viewer.
    pub args: Vec<(String, String)>,
}

/// Builder for a Chrome trace document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    spans: Vec<Span>,
    /// `(pid, tid, label)` thread-name metadata.
    track_names: Vec<(u32, u32, String)>,
}

/// The accelerator process id.
pub const PID_ACCELERATOR: u32 = 0;
/// The host process id.
pub const PID_HOST: u32 = 1;
/// The pipelined-accelerator process id (one track per pipeline
/// stage, timestamps in clock cycles like [`PID_ACCELERATOR`]).
pub const PID_PIPELINE: u32 = 2;
/// The host-process track id fault events render on — far above any
/// plausible worker index so it never collides with a worker track.
pub const TID_FAULTS: u32 = 999;
/// The host-process track id kernel-dispatch events render on (one
/// instant per prepared ABM layer, at the trace epoch).
pub const TID_DISPATCH: u32 = 998;

impl ChromeTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a span.
    pub fn span(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Names a track (rendered as the thread name in the viewer).
    pub fn name_track(&mut self, pid: u32, tid: u32, label: impl Into<String>) {
        self.track_names.push((pid, tid, label.into()));
    }

    /// The spans added so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Builds a trace from a recorded event stream: CU tasks become
    /// spans on per-CU accelerator tracks (named after the layer they
    /// belong to), host spans become spans on per-worker host tracks.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut layer_names: Vec<(u32, String)> = Vec::new();
        for e in events {
            if let Event::LayerBegin { layer, name, .. } = e {
                layer_names.push((*layer, name.clone()));
            }
        }
        let name_of = |layer: u32| {
            layer_names
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or_else(|| format!("layer{layer}"), |(_, n)| n.clone())
        };

        let mut trace = Self::new();
        let mut cus_seen: Vec<u32> = Vec::new();
        let mut workers_seen: Vec<u32> = Vec::new();
        let mut stages_seen: Vec<u32> = Vec::new();
        let mut faults_seen = false;
        let mut dispatch_seen = false;
        for e in events {
            match e {
                Event::CuTask {
                    layer,
                    cu,
                    start,
                    end,
                } => {
                    if !cus_seen.contains(cu) {
                        cus_seen.push(*cu);
                    }
                    trace.span(Span {
                        pid: PID_ACCELERATOR,
                        tid: *cu,
                        name: name_of(*layer),
                        ts: *start,
                        dur: end - start,
                        args: vec![("layer".to_string(), layer.to_string())],
                    });
                }
                Event::HostSpan {
                    track,
                    name,
                    start_ns,
                    dur_ns,
                    ops,
                } => {
                    if !workers_seen.contains(track) {
                        workers_seen.push(*track);
                    }
                    // Host timestamps are nanoseconds; the viewer wants
                    // microseconds.
                    trace.span(Span {
                        pid: PID_HOST,
                        tid: *track,
                        name: name.clone(),
                        ts: start_ns / 1000,
                        dur: (dur_ns / 1000).max(1),
                        args: vec![("ops".to_string(), ops.to_string())],
                    });
                }
                Event::StageSpan {
                    stage,
                    img,
                    layer,
                    start,
                    end,
                } => {
                    if !stages_seen.contains(stage) {
                        stages_seen.push(*stage);
                    }
                    trace.span(Span {
                        pid: PID_PIPELINE,
                        tid: *stage,
                        name: format!("img{img}·{}", name_of(*layer)),
                        ts: *start,
                        dur: end - start,
                        args: vec![
                            ("img".to_string(), img.to_string()),
                            ("layer".to_string(), layer.to_string()),
                        ],
                    });
                }
                Event::KernelDispatch {
                    layer,
                    isa,
                    acc,
                    lanes,
                } => {
                    dispatch_seen = true;
                    trace.span(Span {
                        pid: PID_HOST,
                        tid: TID_DISPATCH,
                        name: format!("{}:{isa}/{acc}", name_of(*layer)),
                        ts: u64::from(*layer),
                        dur: 1,
                        args: vec![
                            ("layer".to_string(), layer.to_string()),
                            ("lanes".to_string(), lanes.to_string()),
                        ],
                    });
                }
                Event::Fault {
                    layer,
                    action,
                    class,
                    detail,
                    at,
                } => {
                    faults_seen = true;
                    trace.span(Span {
                        pid: PID_HOST,
                        tid: TID_FAULTS,
                        name: format!("{action}:{class}"),
                        ts: at / 1000,
                        dur: 1,
                        args: vec![
                            ("layer".to_string(), layer.to_string()),
                            ("detail".to_string(), detail.clone()),
                        ],
                    });
                }
                _ => {}
            }
        }
        for cu in cus_seen {
            trace.name_track(PID_ACCELERATOR, cu, format!("CU{cu}"));
        }
        for w in workers_seen {
            trace.name_track(PID_HOST, w, format!("worker{w}"));
        }
        for s in stages_seen {
            trace.name_track(PID_PIPELINE, s, format!("stage{s}"));
        }
        if faults_seen {
            trace.name_track(PID_HOST, TID_FAULTS, "faults");
        }
        if dispatch_seen {
            trace.name_track(PID_HOST, TID_DISPATCH, "kernel-dispatch");
        }
        trace
    }

    /// Serializes the trace to Chrome's JSON Object Format with matched
    /// `B`/`E` duration events, each track's events in non-decreasing
    /// `ts` order (`E` before `B` at equal timestamps, so back-to-back
    /// spans close before the next opens).
    #[must_use]
    pub fn to_json(&self) -> String {
        // (pid, tid, ts, rank, span): rank 0 = E, 1 = B so sorting closes
        // a span before its same-timestamp successor opens.
        let mut rows = Vec::new();
        for s in &self.spans {
            rows.push((s.pid, s.tid, s.ts, 1, s));
            rows.push((s.pid, s.tid, s.ts + s.dur, 0, s));
        }
        rows.sort_by_key(|&(pid, tid, ts, rank, _)| (pid, tid, ts, rank));

        Node::object(|o| {
            o.array("traceEvents", |a| {
                for (pid, tid, label) in &self.track_names {
                    a.object(|o| {
                        o.field("name", "thread_name");
                        o.field("ph", "M");
                        o.field("pid", *pid);
                        o.field("tid", *tid);
                        o.object("args", |args| args.field("name", label));
                    });
                }
                for (pid, tid, ts, rank, span) in rows {
                    a.object(|o| {
                        o.field("name", &span.name);
                        o.field("ph", if rank == 1 { "B" } else { "E" });
                        o.field("pid", pid);
                        o.field("tid", tid);
                        o.field("ts", ts);
                        if rank == 1 && !span.args.is_empty() {
                            o.object("args", |o| {
                                span.args.iter().for_each(|(k, v)| o.field(k, v))
                            });
                        }
                    });
                }
            });
            o.field("displayTimeUnit", "ms");
        })
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, validate, Value};

    fn sample_trace() -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.name_track(PID_ACCELERATOR, 0, "CU0");
        t.span(Span {
            pid: PID_ACCELERATOR,
            tid: 0,
            name: "CONV1".into(),
            ts: 0,
            dur: 10,
            args: vec![("layer".into(), "0".into())],
        });
        // Back-to-back span starting exactly where the first ends.
        t.span(Span {
            pid: PID_ACCELERATOR,
            tid: 0,
            name: "CONV1".into(),
            ts: 10,
            dur: 5,
            args: Vec::new(),
        });
        t.span(Span {
            pid: PID_HOST,
            tid: 3,
            name: "image \"7\"".into(),
            ts: 2,
            dur: 8,
            args: Vec::new(),
        });
        t
    }

    /// The trace's events, read back through the parser.
    fn trace_events(json: &str) -> Vec<Value> {
        let doc = parse(json).unwrap();
        doc.get("traceEvents")
            .and_then(Value::as_arr)
            .unwrap()
            .to_vec()
    }

    /// The (pid, tid, ts, ph) of every `B`/`E` event, in document order.
    fn parse_rows(json: &str) -> Vec<(u32, u32, u64, char)> {
        let num = |e: &Value, key: &str| e.get(key).and_then(Value::as_f64).unwrap();
        trace_events(json)
            .iter()
            .filter_map(|e| {
                let ph = match e.get("ph").and_then(Value::as_str) {
                    Some("B") => 'B',
                    Some("E") => 'E',
                    _ => return None,
                };
                Some((
                    num(e, "pid") as u32,
                    num(e, "tid") as u32,
                    num(e, "ts") as u64,
                    ph,
                ))
            })
            .collect()
    }

    #[test]
    fn output_is_valid_json() {
        validate(&sample_trace().to_json()).unwrap();
        validate(&ChromeTrace::new().to_json()).unwrap();
    }

    #[test]
    fn timestamps_are_monotone_per_track() {
        let rows = parse_rows(&sample_trace().to_json());
        let mut tracks: Vec<(u32, u32)> = rows.iter().map(|&(p, t, ..)| (p, t)).collect();
        tracks.dedup();
        for (pid, tid) in tracks {
            let ts: Vec<u64> = rows
                .iter()
                .filter(|&&(p, t, ..)| (p, t) == (pid, tid))
                .map(|&(.., ts, _)| ts)
                .collect();
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "track ({pid},{tid}) not monotone: {ts:?}"
            );
        }
    }

    #[test]
    fn begin_end_pairs_match_per_track() {
        let rows = parse_rows(&sample_trace().to_json());
        let mut tracks: Vec<(u32, u32)> = rows.iter().map(|&(p, t, ..)| (p, t)).collect();
        tracks.dedup();
        for (pid, tid) in tracks {
            // Spans never nest on a track, so depth must alternate
            // 0 -> 1 -> 0 and finish at zero.
            let mut depth = 0i32;
            for &(p, t, _, ph) in &rows {
                if (p, t) != (pid, tid) {
                    continue;
                }
                depth += if ph == 'B' { 1 } else { -1 };
                assert!(
                    (0..=1).contains(&depth),
                    "track ({pid},{tid}) nested or unbalanced"
                );
            }
            assert_eq!(depth, 0, "track ({pid},{tid}) has unmatched B/E");
        }
    }

    #[test]
    fn adjacent_spans_close_before_opening() {
        // The two CU0 spans share ts=10: the E row must precede the B
        // row so the viewer doesn't see a nested span.
        let rows = parse_rows(&sample_trace().to_json());
        let at10: Vec<char> = rows
            .iter()
            .filter(|&&(p, t, ts, _)| p == PID_ACCELERATOR && t == 0 && ts == 10)
            .map(|&(.., ph)| ph)
            .collect();
        assert_eq!(at10, vec!['E', 'B']);
    }

    #[test]
    fn from_events_builds_cu_and_worker_tracks() {
        let events = vec![
            Event::LayerBegin {
                layer: 0,
                name: "CONV1".into(),
                cycle: 0,
            },
            Event::CuTask {
                layer: 0,
                cu: 0,
                start: 0,
                end: 7,
            },
            Event::CuTask {
                layer: 0,
                cu: 1,
                start: 0,
                end: 5,
            },
            Event::LayerEnd { layer: 0, cycle: 7 },
            Event::HostSpan {
                track: 2,
                name: "CONV1".into(),
                start_ns: 1500,
                dur_ns: 2500,
                ops: 42,
            },
        ];
        let trace = ChromeTrace::from_events(&events);
        assert_eq!(trace.spans().len(), 3);
        assert!(trace
            .spans()
            .iter()
            .any(|s| s.name == "CONV1" && s.pid == PID_ACCELERATOR && s.tid == 1 && s.dur == 5));
        // Host ns convert to µs.
        let host = trace
            .spans()
            .iter()
            .find(|s| s.pid == PID_HOST)
            .expect("host span");
        assert_eq!((host.ts, host.dur), (1, 2));
        let track_names: Vec<String> = trace_events(&trace.to_json())
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str().map(String::from))
            .collect();
        assert_eq!(track_names, ["CU0", "CU1", "worker2"]);
    }
}
