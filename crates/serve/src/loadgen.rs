//! Synthetic open-loop load generation and the serving benchmark
//! report (`BENCH_serve.json`).
//!
//! *Open loop* means arrivals follow a schedule independent of
//! completions — the generator does not slow down when the server
//! does, which is exactly what makes overload real: at 2× the
//! sustainable rate the queue must grow, and the only question is
//! whether the server sheds with typed rejections or collapses.
//!
//! Inputs are seeds into [`synth_input`](crate::synth_input), so a
//! chaos run can compare every completed response against golden
//! logits computed injector-off — the **zero-silent-corruption** gate:
//! every completion is bit-identical to the pristine run or it counts
//! as a silent corruption (and the soak gate fails the build).

use crate::server::{Server, Ticket};
use abm_fault::{AbmError, SplitMix64};
use abm_telemetry::json::Node;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Open-loop traffic description.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total requests offered.
    pub requests: usize,
    /// Arrival rate, requests per second (the *offered* rate).
    pub rate_rps: f64,
    /// Deadline budget each request carries.
    pub deadline: Duration,
    /// Distinct input seeds cycled through (small, so golden logits
    /// stay cheap to precompute).
    pub distinct_seeds: u64,
    /// Seed for arrival-time jitter (deterministic schedule).
    pub jitter_seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            requests: 64,
            rate_rps: 50.0,
            deadline: Duration::from_millis(250),
            distinct_seeds: 4,
            jitter_seed: 0x10AD,
        }
    }
}

/// The measured outcome of one load leg.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Leg label (e.g. `nominal_1x`, `chaos_2x`).
    pub name: String,
    /// Requests offered (admitted + shed).
    pub offered: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests shed with typed [`AbmError::Overloaded`].
    pub shed: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests failed with a typed non-rejection error.
    pub failed: u64,
    /// Requests cut with typed [`AbmError::DeadlineExceeded`].
    pub deadline_cut: u64,
    /// Completions that arrived past their deadline.
    pub deadline_missed: u64,
    /// Completions served by a batch that masked a detected fault.
    pub degraded: u64,
    /// Rejections whose error was *not* typed as a rejection — must
    /// stay zero (every shed/cut is `Overloaded`/`DeadlineExceeded`).
    pub untyped_rejections: u64,
    /// Completions whose logits differ from the golden injector-off
    /// run — must stay zero (the headline robustness gate).
    pub silent_corruptions: u64,
    /// End-to-end latencies (µs) of completed requests, sorted.
    pub latencies_us: Vec<u64>,
    /// Completed requests per second of wall time.
    pub goodput_rps: f64,
    /// Wall time the leg took, seconds.
    pub wall_seconds: f64,
}

impl LoadReport {
    /// Exact percentile (nearest-rank) over the completed latencies;
    /// 0 when nothing completed.
    #[must_use]
    pub fn percentile_us(&self, p: f64) -> u64 {
        percentile(&self.latencies_us, p)
    }

    /// Renders the leg as one JSON object, with `slo_us` threaded in so
    /// the report is self-gating.
    #[must_use]
    pub fn to_json(&self, slo: Duration) -> String {
        self.node(slo).render()
    }

    fn node(&self, slo: Duration) -> Node {
        let slo_us = u64::try_from(slo.as_micros()).unwrap_or(u64::MAX);
        let p50 = self.percentile_us(50.0);
        let p99 = self.percentile_us(99.0);
        Node::object(|o| {
            o.field("name", &self.name);
            o.field("offered", self.offered);
            o.field("admitted", self.admitted);
            o.field("shed", self.shed);
            o.field("completed", self.completed);
            o.field("failed", self.failed);
            o.field("deadline_cut", self.deadline_cut);
            o.field("deadline_missed", self.deadline_missed);
            o.field("degraded", self.degraded);
            o.field("untyped_rejections", self.untyped_rejections);
            o.field("silent_corruptions", self.silent_corruptions);
            o.field("p50_us", p50);
            o.field("p90_us", self.percentile_us(90.0));
            o.field("p99_us", p99);
            o.field("slo_us", slo_us);
            o.field("p99_within_slo", p50 <= slo_us && p99 <= slo_us);
            o.field("goodput_rps", Node::fixed(self.goodput_rps, 3));
            o.field("wall_seconds", Node::fixed(self.wall_seconds, 3));
        })
    }
}

/// Exact nearest-rank percentile of a **sorted** slice (0 if empty).
#[must_use]
pub fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// The open-loop generator.
pub struct LoadGen;

impl LoadGen {
    /// Drives `cfg` traffic at the in-process server and collects the
    /// report. `golden` maps input seed → pristine logits; when
    /// provided, every completion is checked bit-identical against it
    /// (the silent-corruption detector).
    #[must_use]
    pub fn run(
        server: &Server,
        name: &str,
        cfg: &LoadConfig,
        golden: Option<&HashMap<u64, Vec<f32>>>,
    ) -> LoadReport {
        let mut report = LoadReport {
            name: name.to_string(),
            ..LoadReport::default()
        };
        let shape = server.input_shape();
        let period = Duration::from_secs_f64(1.0 / cfg.rate_rps.max(1e-6));
        let mut rng = SplitMix64::new(cfg.jitter_seed);
        let start = Instant::now();
        let mut pending: Vec<(u64, Ticket)> = Vec::with_capacity(cfg.requests);
        for i in 0..cfg.requests {
            // Open loop: pace to the schedule regardless of completions.
            // Jitter (±25 % of the period) de-synchronizes arrivals from
            // the batch window without changing the offered rate.
            let jitter_ns = rng.below(u64::try_from(period.as_nanos() / 2).unwrap_or(1).max(1));
            let due = start
                + period
                    .checked_mul(u32::try_from(i).unwrap_or(u32::MAX))
                    .unwrap_or(Duration::ZERO)
                + Duration::from_nanos(jitter_ns)
                - Duration::from_nanos(jitter_ns / 2);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let seed = rng.below(cfg.distinct_seeds.max(1));
            report.offered += 1;
            match server.submit(crate::synth_input(shape, seed), cfg.deadline) {
                Ok(ticket) => {
                    report.admitted += 1;
                    pending.push((seed, ticket));
                }
                Err(e) => {
                    report.shed += 1;
                    if !e.is_rejection() {
                        report.untyped_rejections += 1;
                    }
                }
            }
        }
        // Collect: responses are buffered in each ticket's channel, so
        // waiting in submission order measures nothing — latency is the
        // server-side total_us.
        for (seed, ticket) in pending {
            let r = ticket.wait();
            match r.outcome {
                Ok(out) => {
                    report.completed += 1;
                    report.latencies_us.push(r.total_us);
                    if r.degraded {
                        report.degraded += 1;
                    }
                    if r.deadline_missed {
                        report.deadline_missed += 1;
                    }
                    if let Some(golden) = golden {
                        let clean = golden.get(&seed).is_some_and(|g| g[..] == out.logits[..]);
                        if !clean {
                            report.silent_corruptions += 1;
                        }
                    }
                }
                Err(e) => {
                    // A typed error is *detected*, never silent — it
                    // does not count against the corruption gate.
                    if matches!(e.root_cause(), AbmError::DeadlineExceeded { .. }) {
                        report.deadline_cut += 1;
                    } else {
                        report.failed += 1;
                    }
                }
            }
        }
        report.latencies_us.sort_unstable();
        report.wall_seconds = start.elapsed().as_secs_f64();
        report.goodput_rps = if report.wall_seconds > 0.0 {
            report.completed as f64 / report.wall_seconds
        } else {
            0.0
        };
        report
    }
}

/// Renders legs into the `BENCH_serve.json` document: the network and
/// one `runs` entry per leg.
#[must_use]
pub fn render_bench(legs: &[LoadReport], slo: Duration, net: &str) -> String {
    Node::object(|o| {
        o.field("network", net);
        o.array("runs", |runs| {
            legs.iter().for_each(|leg| runs.item(leg.node(slo)))
        });
    })
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_telemetry::json::{self, Value};

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn report_json_has_the_gate_fields() {
        let report = LoadReport {
            name: "nominal_1x".into(),
            offered: 10,
            admitted: 9,
            shed: 1,
            completed: 9,
            latencies_us: vec![100, 200, 300],
            goodput_rps: 42.0,
            ..LoadReport::default()
        };
        let leg = json::parse(&report.to_json(Duration::from_millis(100))).unwrap();
        for (key, value) in [
            ("name", Value::Str("nominal_1x".into())),
            ("silent_corruptions", Value::Num(0.0)),
            ("untyped_rejections", Value::Num(0.0)),
            ("p99_us", Value::Num(300.0)),
            ("slo_us", Value::Num(100_000.0)),
            ("p99_within_slo", Value::Bool(true)),
            ("goodput_rps", Value::Num(42.0)),
        ] {
            assert_eq!(leg.get(key), Some(&value), "{key}");
        }
        let doc = render_bench(
            std::slice::from_ref(&report),
            Duration::from_millis(100),
            "tiny",
        );
        let doc = json::parse(&doc).unwrap();
        assert_eq!(doc.get("network").and_then(Value::as_str), Some("tiny"));
        assert_eq!(doc.get("runs").and_then(Value::as_arr), Some(&[leg][..]));
    }

    /// Quotes and control characters in a leg name are escaped.
    #[test]
    fn leg_names_are_escaped() {
        let name = "a\"b\n".to_string();
        let report = LoadReport {
            name,
            ..LoadReport::default()
        };
        let doc = json::parse(&render_bench(&[report], Duration::ZERO, "tiny")).unwrap();
        let leg = &doc.get("runs").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(leg.get("name").and_then(Value::as_str), Some("a\"b\n"));
    }
}
