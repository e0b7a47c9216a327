//! Model-vs-measurement consistency: the simulated layers beside the
//! analytic performance model, gated on their divergence and rendered
//! as the per-layer roofline report.
//!
//! The paper validates its Section 5.1 performance model against
//! hardware measurements; this reproduction validates it against the
//! cycle simulator instead. [`check_consistency`] compares *three*
//! measured quantities of each [`LayerSim`] — compute cycles, lane
//! efficiency and DDR traffic — with the model row of the same name in
//! [`crate::perf::estimate_network`], each against its own tolerance,
//! reporting every failure as an [`abm_verify::Defect::ModelDivergence`]
//! that names the diverging metric. [`SimReport`] prints the same
//! layers, the model's lane efficiency and their divergence as the
//! `simulate --report` table and as JSON. The test
//! `simulated_alexnet_agrees_with_the_performance_model` in
//! `tests/paper_claims.rs` runs the gate on AlexNet.

use crate::bandwidth::estimate_layer_traffic;
use crate::perf::PerfEstimate;
use abm_model::{Network, PruneProfile};
use abm_sim::{AcceleratorConfig, LayerSim};
use abm_telemetry::json::Node;
use abm_telemetry::RecordingCollector;
use abm_verify::{Defect, Metric, VerifyReport};

/// Per-metric divergence tolerances for [`check_consistency`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Absolute lane-efficiency gap (efficiencies live in `[0, 1]`).
    pub lane_efficiency: f64,
    /// Relative compute-cycles gap.
    pub cycles: f64,
    /// Relative DDR-traffic gap (read + write bytes).
    pub traffic: f64,
}

impl Default for Tolerances {
    /// The CI gate: the γ-calibrated closed-form model tracks the
    /// simulator within ~7% lane efficiency and ~12% cycles on the
    /// paper networks (worst layer, when this was pinned); the traffic
    /// model's coupon-collector Q estimate adds a little more slack on
    /// the weight stream.
    fn default() -> Self {
        Self {
            lane_efficiency: 0.10,
            cycles: 0.20,
            traffic: 0.20,
        }
    }
}

/// Checks every simulated layer the model has a row for (matched by
/// name) against it, one [`Defect::ModelDivergence`] per failing
/// metric — so a failing gate names *which* invariant broke (cycles vs.
/// lane-efficiency vs. traffic) and by how much, instead of a single
/// boolean. Layers without a model row are skipped.
#[must_use]
pub fn check_consistency(
    layers: &[LayerSim],
    est: &PerfEstimate,
    net: &Network,
    profile: &PruneProfile,
    cfg: &AcceleratorConfig,
    tol: &Tolerances,
) -> VerifyReport {
    let mut out = VerifyReport::new(net.name());
    for l in layers {
        let Some(model) = est.layers().iter().find(|e| e.name == l.name) else {
            continue;
        };

        // Lane efficiency: absolute gap (both live in [0, 1]).
        let eff_gap = (l.lane_efficiency - model.lane_efficiency).abs();
        if eff_gap > tol.lane_efficiency {
            out.defect(Defect::ModelDivergence {
                layer: l.name.clone(),
                metric: Metric::LaneEfficiency,
                measured: l.lane_efficiency,
                model: model.lane_efficiency,
                tolerance: tol.lane_efficiency,
            });
        } else {
            out.facts += 1;
        }

        // Compute cycles: relative gap against the model's estimate.
        let measured_cycles = l.compute_cycles as f64;
        let cyc_gap = (measured_cycles - model.cycles).abs() / model.cycles.max(1.0);
        if cyc_gap > tol.cycles {
            out.defect(Defect::ModelDivergence {
                layer: l.name.clone(),
                metric: Metric::Cycles,
                measured: measured_cycles,
                model: model.cycles,
                tolerance: tol.cycles,
            });
        } else {
            out.facts += 1;
        }

        // DDR traffic: the simulator's per-layer bytes vs the bandwidth
        // model's expectation.
        if let Some(resolved) = net.conv_fc_layers().find(|r| r.layer.name == l.name) {
            let measured_bytes = l.traffic.total() as f64;
            let model_bytes = estimate_layer_traffic(&resolved, profile, cfg).total();
            let gap = (measured_bytes - model_bytes).abs() / model_bytes.max(1.0);
            if gap > tol.traffic {
                out.defect(Defect::ModelDivergence {
                    layer: l.name.clone(),
                    metric: Metric::Traffic,
                    measured: measured_bytes,
                    model: model_bytes,
                    tolerance: tol.traffic,
                });
            } else {
                out.facts += 1;
            }
        }
    }
    out
}

/// The per-layer roofline report of one simulated run: cycles, stalls,
/// utilization, lane efficiency, FIFO high water and DDR traffic of
/// each [`LayerSim`], beside the model's lane efficiency (matched by
/// name, as [`check_consistency`] matches) and their divergence. A
/// layer the model has no row for shows dashes in the model columns
/// and is left out of the divergence.
#[derive(Debug, Clone, Copy)]
pub struct SimReport<'a> {
    /// Network name.
    pub network: &'a str,
    /// Accelerator clock, MHz (converts cycle counts to seconds).
    pub freq_mhz: f64,
    /// The simulated layers, in execution order.
    pub layers: &'a [LayerSim],
    /// The analytic model the layers are set beside.
    pub est: &'a PerfEstimate,
    /// The run's event stream: layer `i`'s FIFO high water is the
    /// deepest its lanes recorded.
    pub recording: &'a RecordingCollector,
}

impl SimReport<'_> {
    /// The model's lane efficiency for a layer, if it has a row.
    fn model(&self, l: &LayerSim) -> Option<f64> {
        let row = self.est.layers().iter().find(|e| e.name == l.name)?;
        Some(row.lane_efficiency)
    }

    /// The report as a JSON document: one object per layer, with
    /// `model_efficiency` and `divergence` where the model has a row.
    #[must_use]
    pub fn to_json(&self) -> String {
        Node::object(|o| {
            o.field("network", self.network);
            o.field("freq_mhz", self.freq_mhz);
            o.array("layers", |a| {
                for (i, l) in self.layers.iter().enumerate() {
                    a.object(|o| {
                        o.field("name", &l.name);
                        o.field("compute_cycles", l.compute_cycles);
                        o.field("busy_cycles", l.busy_cycles);
                        o.field("stall_cycles", l.stall_cycles);
                        o.field("cu_utilization", l.utilization);
                        o.field("lane_efficiency", l.lane_efficiency);
                        o.field("fifo_high_water", self.recording.fifo_high_water(i as u32));
                        o.field(
                            "read_bytes",
                            l.traffic.feature_in_bytes + l.traffic.weight_bytes,
                        );
                        o.field("write_bytes", l.traffic.feature_out_bytes);
                        o.field("compute_seconds", l.compute_seconds);
                        o.field("memory_seconds", l.memory_seconds);
                        o.field("memory_bound", l.memory_bound);
                        if let Some(m) = self.model(l) {
                            o.field("model_efficiency", m);
                            o.field("divergence", (l.lane_efficiency - m).abs());
                        }
                    });
                }
            });
        })
        .render()
    }

    /// The human-readable table: one row per layer with its roofline
    /// classification, the model columns when any layer has a row, the
    /// totals and the largest divergence.
    #[must_use]
    pub fn render_table(&self) -> String {
        let annotated = self.layers.iter().any(|l| self.model(l).is_some());
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
        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let mut max_divergence: Option<f64> = None;
        for (i, l) in self.layers.iter().enumerate() {
            out.push_str(&format!(
                "{:<8} {:>12} {:>12} {:>10} {:>6.1}% {:>9.4} {:>5} {:>10.2} {:>10}",
                l.name,
                l.compute_cycles,
                l.busy_cycles,
                l.stall_cycles,
                l.utilization * 100.0,
                l.lane_efficiency,
                self.recording.fifo_high_water(i as u32),
                mib(l.traffic.total()),
                if l.memory_bound {
                    "bandwidth"
                } else {
                    "compute"
                }
            ));
            match self.model(l) {
                Some(m) => {
                    let d = (l.lane_efficiency - m).abs();
                    max_divergence = Some(max_divergence.map_or(d, |a| a.max(d)));
                    out.push_str(&format!(" {m:>9.4} {:>6.2}%", d * 100.0));
                }
                None if annotated => out.push_str(&format!(" {:>9} {:>7}", "-", "-")),
                None => {}
            }
            out.push('\n');
        }
        let total_cycles: u64 = self.layers.iter().map(|l| l.compute_cycles).sum();
        let total_bytes: u64 = self.layers.iter().map(|l| l.traffic.total()).sum();
        out.push_str(&format!(
            "total: {} cycles ({:.3} ms), {:.2} MiB DDR traffic\n",
            total_cycles,
            total_cycles as f64 / (self.freq_mhz * 1e3),
            mib(total_bytes)
        ));
        if let Some(d) = max_divergence {
            out.push_str(&format!("max model divergence: {:.2}%\n", d * 100.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::estimate_network;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};
    use abm_sim::memory::LayerTraffic;
    use abm_sim::{AcceleratorConfig, NetworkSim, Parallelism, SimContext};
    use abm_telemetry::json::{parse, Value};
    use abm_telemetry::{Collector, Event};

    fn measured_and_modeled() -> (
        NetworkSim,
        RecordingCollector,
        PerfEstimate,
        Network,
        PruneProfile,
    ) {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
        let model = synthesize_model(&net, &profile, 11);
        let cfg = AcceleratorConfig::paper();
        let mut rec = RecordingCollector::new();
        let serial = SimContext {
            parallelism: Parallelism::Serial,
            ..SimContext::default()
        };
        let sim = serial
            .collector(&mut rec)
            .simulate_network(&model, &cfg)
            .unwrap();
        let est = estimate_network(&net, &profile, &cfg);
        (sim, rec, est, net, profile)
    }

    /// A hand-made layer: what the renderer reads, nothing simulated.
    fn layer(name: &str, cycles: u64, lane_efficiency: f64, memory_bound: bool) -> LayerSim {
        LayerSim {
            name: name.into(),
            compute_cycles: cycles,
            busy_cycles: 2 * cycles,
            utilization: 0.8,
            traffic: LayerTraffic {
                feature_in_bytes: 1 << 20,
                feature_out_bytes: 1 << 19,
                weight_bytes: 4096,
            },
            compute_seconds: 5e-6,
            memory_seconds: if memory_bound { 7e-6 } else { 1e-6 },
            seconds: 7e-6,
            dense_ops: 0,
            acc_ops: 0,
            mult_ops: 0,
            memory_bound,
            stall_cycles: 20,
            lane_efficiency,
            bottleneck: Default::default(),
            host_seconds: 0.0,
        }
    }

    /// Two layers on TinyNet's model: `CONV1` 0.03 above its model
    /// row, and one the model has no row for. Layer 0's lanes recorded
    /// a FIFO three deep.
    fn sample() -> (Vec<LayerSim>, PerfEstimate, RecordingCollector, f64) {
        let (_, _, est, _, _) = measured_and_modeled();
        let model = est.layers()[0].lane_efficiency;
        let layers = vec![
            layer("CONV1", 1000, model + 0.03, false),
            layer("NOT_IN_MODEL", 500, 0.95, true),
        ];
        let mut rec = RecordingCollector::new();
        rec.record(Event::LaneStats {
            layer: 0,
            kernel: 2,
            acc_busy: 8,
            acc_stall: 1,
            mult_busy: 12,
            fifo_high_water: 3,
        });
        (layers, est, rec, model)
    }

    fn report<'a>(
        layers: &'a [LayerSim],
        est: &'a PerfEstimate,
        recording: &'a RecordingCollector,
    ) -> SimReport<'a> {
        SimReport {
            network: "TestNet",
            freq_mhz: 204.0,
            layers,
            est,
            recording,
        }
    }

    #[test]
    fn json_is_well_formed() {
        let (layers, est, rec, model) = sample();
        let doc = parse(&report(&layers, &est, &rec).to_json()).unwrap();
        let rows = doc.get("layers").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("model_efficiency"), Some(&Value::Num(model)));
        assert_eq!(rows[0].get("fifo_high_water"), Some(&Value::Num(3.0)));
        assert_eq!(rows[1].get("memory_bound"), Some(&Value::Bool(true)));
        assert_eq!(rows[1].get("model_efficiency"), None);
        assert_eq!(rows[1].get("divergence"), None);
    }

    #[test]
    fn divergence_math() {
        let (layers, est, rec, _) = sample();
        let r = report(&layers, &est, &rec);
        let doc = parse(&r.to_json()).unwrap();
        let rows = doc.get("layers").and_then(Value::as_arr).unwrap();
        let Some(Value::Num(d)) = rows[0].get("divergence") else {
            panic!("CONV1 has a model row");
        };
        assert!((d - 0.03).abs() < 1e-12, "{d}");
        let table = r.render_table();
        assert!(table.contains("max model divergence: 3.00%"), "{table}");
        // 1500 cycles at 204 MHz; two layers of 1.5 MiB + 4 KiB each.
        assert!(
            table.contains("total: 1500 cycles (0.007 ms), 3.01 MiB DDR traffic"),
            "{table}"
        );
    }

    #[test]
    fn table_renders_both_classifications() {
        let (layers, est, rec, _) = sample();
        let t = report(&layers, &est, &rec).render_table();
        assert!(t.contains("compute"));
        assert!(t.contains("bandwidth"));
        assert!(t.contains("max model divergence"));
        // A layer without a model row renders dashes in the model columns.
        assert!(t
            .lines()
            .any(|l| l.starts_with("NOT_IN_MODEL") && l.contains(" - ")));
    }

    #[test]
    fn every_simulated_layer_has_a_model_row() {
        let (sim, rec, est, _, _) = measured_and_modeled();
        let r = SimReport {
            network: "TinyNet",
            freq_mhz: sim.freq_mhz(),
            layers: sim.layers(),
            est: &est,
            recording: &rec,
        };
        let doc = parse(&r.to_json()).unwrap();
        let rows = doc.get("layers").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), sim.layers().len());
        for (row, l) in rows.iter().zip(sim.layers()) {
            let (Some(Value::Num(m)), Some(Value::Num(d)), Some(Value::Num(fifo))) = (
                row.get("model_efficiency"),
                row.get("divergence"),
                row.get("fifo_high_water"),
            ) else {
                panic!("{}: a field is missing", l.name);
            };
            assert!(
                (d - (l.lane_efficiency - m).abs()).abs() < 1e-12,
                "{}",
                l.name
            );
            assert!(*fifo > 0.0, "{}: no lane stats recorded", l.name);
        }
        assert!(r.render_table().contains("max model divergence"));
    }

    #[test]
    fn alexnet_model_and_simulator_agree() {
        // On a paper-scale workload the closed-form model and the cycle
        // simulator must tell the same story on all three metrics; the
        // gap is the γ calibration plus ceil-padding effects. TinyNet is
        // excluded on purpose: its 10-output FC is dominated by
        // window-sync overhead, which the closed-form model omits.
        let net = zoo::alexnet();
        let profile = PruneProfile::alexnet_deep_compression();
        let model = synthesize_model(&net, &profile, 7);
        let cfg = AcceleratorConfig::paper_alexnet();
        let sim = SimContext::default()
            .simulate_network(&model, &cfg)
            .unwrap();
        let est = estimate_network(&net, &profile, &cfg);
        let verdict = check_consistency(
            sim.layers(),
            &est,
            &net,
            &profile,
            &cfg,
            &Tolerances::default(),
        );
        assert!(verdict.is_clean(), "{verdict}");
        // Every simulated layer contributes all three metric checks.
        assert_eq!(verdict.facts, 3 * sim.layers().len() as u64);
    }

    #[test]
    fn tight_tolerances_name_the_failing_metric() {
        let (sim, _, est, net, profile) = measured_and_modeled();
        let cfg = AcceleratorConfig::paper();
        let strict = Tolerances {
            lane_efficiency: 0.0,
            cycles: 0.0,
            traffic: 0.0,
        };
        let verdict = check_consistency(sim.layers(), &est, &net, &profile, &cfg, &strict);
        // The model and simulator never agree exactly, and every defect
        // names its metric.
        assert!(verdict.has_class("model_divergence"), "{verdict}");
        let detail = verdict.to_string();
        assert!(
            detail.contains("cycles") || detail.contains("lane_efficiency"),
            "{detail}"
        );
    }

    #[test]
    fn unmatched_layers_are_skipped() {
        let (sim, rec, est, net, profile) = measured_and_modeled();
        let mut layers = sim.layers().to_vec();
        layers[0].name = "NOT_IN_MODEL".into();
        let cfg = AcceleratorConfig::paper();
        let loose = Tolerances {
            lane_efficiency: 1.0,
            cycles: 1e9,
            traffic: 1e9,
        };
        let verdict = check_consistency(&layers, &est, &net, &profile, &cfg, &loose);
        assert!(verdict.is_clean());
        // The renamed layer contributed no facts.
        assert_eq!(verdict.facts, 3 * (layers.len() as u64 - 1));
        let r = SimReport {
            network: net.name(),
            freq_mhz: sim.freq_mhz(),
            layers: &layers,
            est: &est,
            recording: &rec,
        };
        let doc = parse(&r.to_json()).unwrap();
        let rows = doc.get("layers").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("model_efficiency"), None);
        assert!(rows[1].get("model_efficiency").is_some());
    }
}
