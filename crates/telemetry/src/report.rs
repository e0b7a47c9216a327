//! Machine-readable and human-readable per-layer telemetry reports.
//!
//! A [`TelemetryReport`] aggregates what the simulator *measured* —
//! cycles, stalls, CU busy time, DDR bytes — into one record per layer.
//! The `abm-dse` crate annotates each layer with the analytic
//! performance model's *prediction* ([`LayerReport::model_efficiency`]);
//! [`LayerReport::divergence`] and [`TelemetryReport::max_divergence`]
//! then quantify how far the simulator and the paper's model disagree,
//! which CI gates on.

use crate::json::Node;

/// Aggregated telemetry for one simulated layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Cycles from the layer's first task issue to its retirement,
    /// including window synchronization overhead.
    pub compute_cycles: u64,
    /// CU-cycles spent executing tasks, summed over all CUs.
    pub busy_cycles: u64,
    /// Accumulator cycles lost to partial-sum FIFO back-pressure,
    /// summed over all lanes and vector sweeps.
    pub stall_cycles: u64,
    /// Mean fraction of CU capacity doing useful work
    /// (`busy / (compute_cycles · n_cu)`).
    pub cu_utilization: f64,
    /// Measured accumulator-lane efficiency (useful accumulations over
    /// occupied lane cycles).
    pub lane_efficiency: f64,
    /// Deepest partial-sum FIFO occupancy observed in the layer.
    pub fifo_high_water: u32,
    /// Bytes read from DDR (features + weights).
    pub read_bytes: u64,
    /// Bytes written back to DDR.
    pub write_bytes: u64,
    /// Seconds the compute pipeline needs for the layer.
    pub compute_seconds: f64,
    /// Seconds the memory system needs for the layer's traffic.
    pub memory_seconds: f64,
    /// Whether the layer sits under the bandwidth roof
    /// (`memory_seconds > compute_seconds`).
    pub memory_bound: bool,
    /// Analytic-model lane efficiency, filled in by `abm-dse`.
    pub model_efficiency: Option<f64>,
    /// Absolute measured-vs-model efficiency gap, when annotated.
    pub divergence: Option<f64>,
}

impl LayerReport {
    /// Annotates the layer with the analytic model's predicted lane
    /// efficiency and computes the divergence.
    pub fn annotate_model(&mut self, model_efficiency: f64) {
        self.model_efficiency = Some(model_efficiency);
        self.divergence = Some((self.lane_efficiency - model_efficiency).abs());
    }

    /// Roofline classification string for the table.
    #[must_use]
    pub fn bound_label(&self) -> &'static str {
        if self.memory_bound {
            "bandwidth"
        } else {
            "compute"
        }
    }
}

/// Per-layer telemetry for one simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Network name.
    pub network: String,
    /// Accelerator clock, MHz (converts cycle counts to seconds).
    pub freq_mhz: f64,
    /// One entry per simulated layer, in execution order.
    pub layers: Vec<LayerReport>,
}

impl TelemetryReport {
    /// Largest measured-vs-model divergence across annotated layers, or
    /// `None` if no layer has been annotated.
    #[must_use]
    pub fn max_divergence(&self) -> Option<f64> {
        self.layers
            .iter()
            .filter_map(|l| l.divergence)
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.max(d))))
    }

    /// Total DDR traffic (read + write) across all layers.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.read_bytes + l.write_bytes)
            .sum()
    }

    /// Total compute cycles across all layers.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.compute_cycles).sum()
    }

    /// Serializes the report as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        Node::object(|o| {
            o.field("network", &self.network);
            o.field("freq_mhz", self.freq_mhz);
            o.array("layers", |a| {
                for l in &self.layers {
                    a.object(|o| {
                        o.field("name", &l.name);
                        o.field("compute_cycles", l.compute_cycles);
                        o.field("busy_cycles", l.busy_cycles);
                        o.field("stall_cycles", l.stall_cycles);
                        o.field("cu_utilization", l.cu_utilization);
                        o.field("lane_efficiency", l.lane_efficiency);
                        o.field("fifo_high_water", l.fifo_high_water);
                        o.field("read_bytes", l.read_bytes);
                        o.field("write_bytes", l.write_bytes);
                        o.field("compute_seconds", l.compute_seconds);
                        o.field("memory_seconds", l.memory_seconds);
                        o.field("memory_bound", l.memory_bound);
                        if let Some(m) = l.model_efficiency {
                            o.field("model_efficiency", m);
                        }
                        if let Some(d) = l.divergence {
                            o.field("divergence", d);
                        }
                    });
                }
            });
        })
        .render()
    }

    /// Renders the human-readable per-layer table with roofline
    /// classification and (when annotated) model divergence.
    #[must_use]
    pub fn render_table(&self) -> String {
        let annotated = self.layers.iter().any(|l| l.model_efficiency.is_some());
        let mut out = format!(
            "telemetry report: {} @ {:.1} MHz\n",
            self.network, self.freq_mhz
        );
        out.push_str(&format!(
            "{:<8} {:>12} {:>12} {:>10} {:>7} {:>9} {:>5} {:>10} {:>10}",
            "layer", "cycles", "busy", "stall", "util", "lane_eff", "fifo", "DDR MiB", "bound"
        ));
        if annotated {
            out.push_str(&format!(" {:>9} {:>7}", "model", "diverge"));
        }
        out.push('\n');
        for l in &self.layers {
            let mib = (l.read_bytes + l.write_bytes) as f64 / (1024.0 * 1024.0);
            out.push_str(&format!(
                "{:<8} {:>12} {:>12} {:>10} {:>6.1}% {:>9.4} {:>5} {:>10.2} {:>10}",
                l.name,
                l.compute_cycles,
                l.busy_cycles,
                l.stall_cycles,
                l.cu_utilization * 100.0,
                l.lane_efficiency,
                l.fifo_high_water,
                mib,
                l.bound_label()
            ));
            if annotated {
                match (l.model_efficiency, l.divergence) {
                    (Some(m), Some(d)) => {
                        out.push_str(&format!(" {m:>9.4} {:>6.2}%", d * 100.0));
                    }
                    _ => out.push_str(&format!(" {:>9} {:>7}", "-", "-")),
                }
            }
            out.push('\n');
        }
        let total_cycles = self.total_cycles();
        let total_mib = self.total_bytes() as f64 / (1024.0 * 1024.0);
        out.push_str(&format!(
            "total: {} cycles ({:.3} ms), {:.2} MiB DDR traffic\n",
            total_cycles,
            total_cycles as f64 / (self.freq_mhz * 1e3),
            total_mib
        ));
        if let Some(d) = self.max_divergence() {
            out.push_str(&format!("max model divergence: {:.2}%\n", d * 100.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn sample() -> TelemetryReport {
        let mut l0 = LayerReport {
            name: "CONV1".into(),
            compute_cycles: 1000,
            busy_cycles: 2400,
            stall_cycles: 20,
            cu_utilization: 0.8,
            lane_efficiency: 0.87,
            fifo_high_water: 3,
            read_bytes: 1 << 20,
            write_bytes: 1 << 19,
            compute_seconds: 5e-6,
            memory_seconds: 1e-6,
            memory_bound: false,
            model_efficiency: None,
            divergence: None,
        };
        l0.annotate_model(0.90);
        let l1 = LayerReport {
            name: "FC1".into(),
            compute_cycles: 500,
            busy_cycles: 400,
            stall_cycles: 0,
            cu_utilization: 0.27,
            lane_efficiency: 0.95,
            fifo_high_water: 1,
            read_bytes: 8 << 20,
            write_bytes: 4096,
            compute_seconds: 2.5e-6,
            memory_seconds: 7e-6,
            memory_bound: true,
            model_efficiency: None,
            divergence: None,
        };
        TelemetryReport {
            network: "TestNet".into(),
            freq_mhz: 204.0,
            layers: vec![l0, l1],
        }
    }

    #[test]
    fn json_is_well_formed() {
        let doc = parse(&sample().to_json()).unwrap();
        let layers = doc.get("layers").and_then(Value::as_arr).unwrap();
        assert_eq!(layers[0].get("model_efficiency"), Some(&Value::Num(0.9)));
        assert_eq!(layers[1].get("memory_bound"), Some(&Value::Bool(true)));
        assert_eq!(layers[1].get("model_efficiency"), None);
    }

    #[test]
    fn divergence_math() {
        let r = sample();
        let d = r.max_divergence().unwrap();
        assert!((d - 0.03).abs() < 1e-12, "{d}");
        assert_eq!(r.total_cycles(), 1500);
        assert_eq!(r.total_bytes(), (1 << 20) + (1 << 19) + (8 << 20) + 4096);
    }

    #[test]
    fn table_renders_both_classifications() {
        let t = sample().render_table();
        assert!(t.contains("compute"));
        assert!(t.contains("bandwidth"));
        assert!(t.contains("max model divergence"));
        // Unannotated layer renders dashes in the model columns.
        assert!(t.lines().any(|l| l.starts_with("FC1") && l.contains(" - ")));
    }
}
