//! `abm-spconv metrics`: a metered workload against the metrics registry.

use super::flags::{flag, positive, text, uint, PARALLEL};
use super::{build, fields, synthetic_inputs, Command, Subcommand};
use abm_conv::{Inferencer, Parallelism};
use abm_sim::{AcceleratorConfig, SimContext};
use abm_telemetry::RecordingCollector;
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "metrics",
    flags: &[
        flag!("--seed" "S", Metrics.seed = uint),
        flag!("--batch" "N", Metrics.batch = positive),
        flag!("--parallel" PARALLEL, Metrics.parallelism = Parallelism::parse),
        flag!("--json" "PATH", Metrics.json = text),
        flag!("--prom" "PATH", Metrics.prom = text),
    ],
    default: |net| Command::Metrics {
        net,
        seed: 2019,
        batch: 4,
        parallelism: Parallelism::Auto,
        json: None,
        prom: None,
    },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Metrics { net, seed, batch, parallelism, json, prom });
    let (network, _, model) = build(net, *seed);
    let registry = abm_metrics::global();
    registry.set_enabled(true);
    registry.reset();
    // Batch inference through a flight-teed sink: every
    // telemetry event is mirrored into the flight recorder
    // while the hot paths feed the registry's histograms and
    // counters.
    let sink = abm_metrics::flight_tee(abm_telemetry::TelemetrySink::new());
    let inputs = synthetic_inputs(&network, *batch);
    let results = Inferencer::new(&model)
        .parallelism(*parallelism)
        .telemetry(sink)
        .run_batch(&inputs)?;
    // A collected simulation, whose recorded event stream the
    // registry folds into the sim_* aggregates.
    let cfg = AcceleratorConfig::paper_for(net);
    let mut recording = RecordingCollector::new();
    let ctx = SimContext {
        parallelism: *parallelism,
        ..SimContext::default()
    };
    let sim = ctx
        .collector(&mut recording)
        .simulate_network(&model, &cfg)?;
    registry.fold(recording.events());
    println!(
        "{} metrics (seed {seed}, batch {batch}, host threads: {parallelism}):",
        network.name()
    );
    println!(
        "  workload: {} image(s) inferred | {:.1} simulated images/s | flight recorder holds {} event(s)",
        results.len(),
        sim.images_per_second(),
        registry.flight().tail().len()
    );
    let snapshot = registry.snapshot();
    print!("{}", snapshot.render_table());
    if let Some(path) = json {
        let text = snapshot.to_json();
        abm_telemetry::json::validate(&text)?;
        std::fs::write(path, text)?;
        println!("  wrote metrics JSON to {path}");
    }
    if let Some(path) = prom {
        std::fs::write(path, snapshot.to_prometheus())?;
        println!("  wrote Prometheus exposition to {path}");
    }
    Ok(())
}
