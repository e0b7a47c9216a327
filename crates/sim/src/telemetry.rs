//! Bridges simulation results to the `abm-telemetry` exporters.
//!
//! The simulator produces two views of one run: the aggregate
//! [`NetworkSim`] and (when a [`RecordingCollector`] was attached) the
//! raw [`Event`](abm_telemetry::Event) stream. This module fuses them
//! into a [`TelemetryReport`] — per-layer cycles, stalls, utilization,
//! FIFO high-water marks and DDR traffic — ready for JSON export or the
//! CLI's `--report` table. The `abm-dse` crate layers analytic-model
//! predictions on top (see `abm_dse::roofline`).

use crate::run::NetworkSim;
use abm_telemetry::{LayerReport, RecordingCollector, TelemetryReport};

/// Builds a per-layer telemetry report from a simulated network and the
/// event stream its run recorded.
///
/// The collector is only consulted for what [`NetworkSim`] does not
/// carry (FIFO high-water marks); everything else comes straight from
/// the simulation result, so report and simulation cannot disagree.
#[must_use]
pub fn network_report(
    network: &str,
    sim: &NetworkSim,
    recording: &RecordingCollector,
) -> TelemetryReport {
    let layers = sim
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| LayerReport {
            name: l.name.clone(),
            compute_cycles: l.compute_cycles,
            busy_cycles: l.busy_cycles,
            stall_cycles: l.stall_cycles,
            cu_utilization: l.utilization,
            lane_efficiency: l.lane_efficiency,
            fifo_high_water: recording.fifo_high_water(i as u32),
            read_bytes: l.traffic.feature_in_bytes + l.traffic.weight_bytes,
            write_bytes: l.traffic.feature_out_bytes,
            compute_seconds: l.compute_seconds,
            memory_seconds: l.memory_seconds,
            memory_bound: l.memory_bound,
            model_efficiency: None,
            divergence: None,
        })
        .collect();
    TelemetryReport {
        network: network.to_string(),
        freq_mhz: sim.freq_mhz(),
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::run::{simulate_network, SimContext};
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};
    use abm_telemetry::json::validate;

    #[test]
    fn report_mirrors_simulation_and_serializes() {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
        let model = synthesize_model(&net, &profile, 11);
        let cfg = AcceleratorConfig::paper();
        let mut rec = RecordingCollector::new();
        let sim = SimContext::default()
            .collector(&mut rec)
            .simulate_network(&model, &cfg)
            .unwrap();
        assert_eq!(sim, simulate_network(&model, &cfg));

        let report = network_report("TinyNet", &sim, &rec);
        assert_eq!(report.layers.len(), sim.layers().len());
        for (r, l) in report.layers.iter().zip(sim.layers()) {
            assert_eq!(r.name, l.name);
            assert_eq!(r.compute_cycles, l.compute_cycles);
            assert_eq!(r.read_bytes + r.write_bytes, l.traffic.total());
            assert!(r.fifo_high_water > 0, "{}: no lane stats recorded", r.name);
        }
        validate(&report.to_json()).unwrap();
        assert!(report.render_table().contains("TinyNet"));
    }
}
