//! Cycle-level telemetry on simulated AlexNet: per-layer roofline
//! report cross-checked against the analytic DSE model, plus a Chrome
//! `trace_event` timeline of the three CUs (open it in
//! `chrome://tracing` or Perfetto).
//!
//! ```text
//! cargo run --release --example telemetry_report
//! ```
//!
//! The example exits non-zero if any layer's measured cycles, lane
//! efficiency or DDR traffic diverges from the Section 5.1 performance
//! model by more than [`abm_dse::Tolerances::default`]; each failure
//! names the metric that broke. The same condition is a test,
//! `simulated_alexnet_agrees_with_the_performance_model` in
//! `tests/paper_claims.rs`.

#![forbid(unsafe_code)]

use abm_dse::{check_consistency, estimate_network, SimReport, Tolerances};
use abm_model::{synthesize_model, zoo, PruneProfile};
use abm_sim::{AcceleratorConfig, SimContext};
use abm_telemetry::{ChromeTrace, RecordingCollector};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = zoo::alexnet();
    let profile = PruneProfile::alexnet_deep_compression();
    let model = synthesize_model(&net, &profile, 7);
    let cfg = AcceleratorConfig::paper_alexnet();

    let mut recording = RecordingCollector::new();
    let sim = SimContext::default()
        .collector(&mut recording)
        .simulate_network(&model, &cfg)?;

    let est = estimate_network(&net, &profile, &cfg);
    let report = SimReport {
        network: net.name(),
        freq_mhz: sim.freq_mhz(),
        layers: sim.layers(),
        est: &est,
        recording: &recording,
    };
    let modeled = |l: &abm_sim::LayerSim| est.layers().iter().any(|e| e.name == l.name);
    assert!(sim.layers().iter().all(modeled), "every layer modeled");

    print!("{}", report.render_table());
    println!(
        "simulated: {:.1} GOP/s, {:.1} images/s | model: {:.1} GOP/s",
        sim.gops(),
        sim.images_per_second(),
        est.gops()
    );

    let tol = Tolerances::default();
    let verdict = check_consistency(sim.layers(), &est, &net, &profile, &cfg, &tol);
    if verdict.is_clean() {
        println!(
            "consistency: all {} layers × 3 metrics within tolerance of the analytic model",
            sim.layers().len()
        );
    } else {
        eprint!("{verdict}");
        return Err(format!(
            "{} metric(s) diverge from the performance model",
            verdict.defects.len()
        )
        .into());
    }

    let trace = ChromeTrace::from_events(recording.events());
    let trace_json = trace.to_json();
    let report_json = report.to_json();
    abm_telemetry::json::validate(&trace_json).map_err(|e| format!("trace JSON: {e}"))?;
    abm_telemetry::json::validate(&report_json).map_err(|e| format!("report JSON: {e}"))?;
    let dir = std::env::temp_dir();
    let trace_path = dir.join("alexnet_trace.json");
    let report_path = dir.join("alexnet_telemetry.json");
    std::fs::write(&trace_path, trace_json)?;
    std::fs::write(&report_path, report_json)?;
    println!(
        "wrote {} and {} ({} trace spans)",
        trace_path.display(),
        report_path.display(),
        trace.spans().len()
    );
    Ok(())
}
