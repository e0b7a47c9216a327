//! Exposition: Prometheus-style text, JSON (through
//! `abm_telemetry::json`, like every exported document), and a sorted
//! human table with percentiles.

use crate::registry::HistogramSnapshot;
use abm_telemetry::json::Node;
use std::collections::BTreeMap;

/// A point-in-time copy of a registry, sorted by metric name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter name → summed value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → last/high-water value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → bucket snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Replaces every character Prometheus forbids in a metric name with
/// `_`. Registry names are already safe by construction; this keeps
/// the exposition well-formed even for adversarial names.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The summary quantiles every exposition path reports.
pub const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

impl MetricsSnapshot {
    /// True when no metric has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Prometheus text exposition: counters and gauges as singles,
    /// histograms as summaries (`{quantile="…"}` series plus `_sum`,
    /// `_count` and a `_max` gauge).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, label) in QUANTILES {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("# TYPE {name}_max gauge\n{name}_max {}\n", h.max));
        }
        out
    }

    /// JSON document:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,max,p50,p90,p99}}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        Node::object(|o| {
            for (key, levels) in [("counters", &self.counters), ("gauges", &self.gauges)] {
                o.object(key, |o| {
                    levels.iter().for_each(|(name, v)| o.field(name, *v))
                });
            }
            o.object("histograms", |hs| {
                for (name, h) in &self.histograms {
                    hs.object(name, |o| {
                        o.field("count", h.count);
                        o.field("sum", h.sum);
                        o.field("max", h.max);
                        o.field("p50", h.quantile(0.5));
                        o.field("p90", h.quantile(0.9));
                        o.field("p99", h.quantile(0.99));
                    });
                }
            });
        })
        .render()
    }

    /// A sorted fixed-width table for terminals: counters and gauges
    /// as name/value rows, histograms with count, mean and the
    /// p50/p90/p99/max columns.
    #[must_use]
    pub fn render_table(&self) -> String {
        let name_w = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str(&format!("{:<name_w$}  {:>14}\n", "metric", "value"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<name_w$}  {v:>14}\n"));
            }
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<name_w$}  {v:>14} (gauge)\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<name_w$}  {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{name:<name_w$}  {:>8} {:>12.1} {:>12} {:>12} {:>12} {:>12}\n",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99),
                    h.max
                ));
            }
        }
        out
    }

    /// Interval difference against an earlier snapshot: counters and
    /// histogram buckets subtract, gauges keep the later value (they
    /// are levels, not totals).
    #[must_use]
    pub fn delta(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(before.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let d = match before.histograms.get(k) {
                        Some(b) => h.delta(b),
                        None => h.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use abm_telemetry::json::{self, Value};

    fn sample() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.add("requests_total", 7);
        r.gauge_set("queue_depth", 3);
        for v in [5u64, 10, 100, 100, 5000] {
            r.observe("latency_ns", v);
        }
        r.snapshot()
    }

    #[test]
    fn json_validates_and_contains_quantiles() {
        let doc = json::parse(&sample().to_json()).expect("snapshot json parses");
        let counter = doc.get("counters").unwrap().get("requests_total");
        assert_eq!(counter, Some(&Value::Num(7.0)));
        let latency = doc.get("histograms").unwrap().get("latency_ns").unwrap();
        assert!(latency.get("p50").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 7"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("latency_ns_count 5"));
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().expect("value");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn sanitize_replaces_forbidden_chars() {
        assert_eq!(sanitize("layer_ns_CONV1-1"), "layer_ns_CONV1_1");
    }

    #[test]
    fn table_lists_every_metric() {
        let t = sample().render_table();
        assert!(t.contains("requests_total"));
        assert!(t.contains("queue_depth"));
        assert!(t.contains("latency_ns"));
    }

    #[test]
    fn delta_subtracts_counters_and_buckets() {
        let r = MetricsRegistry::new();
        r.add("c", 5);
        r.observe("h", 10);
        let before = r.snapshot();
        r.add("c", 3);
        r.observe("h", 20);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counters["c"], 3);
        assert_eq!(d.histograms["h"].count, 1);
        assert_eq!(d.histograms["h"].sum, 20);
    }
}
