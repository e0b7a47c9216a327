//! `cargo xtask metrics [--smoke]` — the metrics-registry CI gate.
//!
//! Proves, in-process and in seconds, the four properties DESIGN.md
//! §14 promises of the always-on registry:
//!
//! 1. **Observation never perturbs results**: a batch inference with
//!    the registry hard-disabled is bit-identical (logits, traces,
//!    work counters) to the same batch with the registry on and a
//!    flight-teed telemetry sink attached.
//! 2. **The exposition formats are well-formed**: the JSON snapshot
//!    passes the telemetry validator and names the headline metrics;
//!    the Prometheus text carries `# TYPE` lines.
//! 3. **The flight recorder works end-to-end**: teed telemetry events
//!    land in the ring, and a surfaced error freezes a non-empty dump.
//! 4. **The simulator's aggregates are a fold**: a collected simulation
//!    leaves every `sim_*` counter at 0, and folding its recorded
//!    stream yields the `NetworkSim`'s own compute cycles and layers.

use abm_spconv_repro::conv::{Inferencer, Parallelism};
use abm_spconv_repro::metrics;
use abm_spconv_repro::model::{synthesize_model, zoo, LayerProfile, PruneProfile};
use abm_spconv_repro::sim::{AcceleratorConfig, SimContext};
use abm_spconv_repro::telemetry::{json, RecordingCollector, TelemetrySink};
use abm_spconv_repro::tensor::Tensor3;
use std::path::Path;

/// Runs the smoke gate (the only mode today; `--smoke` is accepted for
/// CI-invocation symmetry with `faults`/`pipeline`).
///
/// # Errors
///
/// Returns a message when any of the four properties fails.
pub fn run(_root: &Path) -> Result<(), String> {
    let network = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 16));
    let model = synthesize_model(&network, &profile, 11);
    let inputs: Vec<_> = (0..2)
        .map(|i| {
            Tensor3::from_fn(network.input_shape(), |c, r, col| {
                ((((c + 2) * (r + 5) * (col + 11 + i)) % 255) as i16) - 127
            })
        })
        .collect();
    let registry = metrics::global();

    // Property 1: registry off vs on, bit-identical outputs.
    registry.set_enabled(false);
    let off = Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .run_batch(&inputs)
        .map_err(|e| format!("registry-off run failed: {e}"))?;
    registry.set_enabled(true);
    registry.reset();
    let sink = metrics::flight_tee(TelemetrySink::new());
    let on = Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .telemetry(sink.clone())
        .run_batch(&inputs)
        .map_err(|e| format!("registry-on run failed: {e}"))?;
    if off != on {
        return Err("metrics smoke FAILED: registry on/off runs diverge".into());
    }
    println!("metrics smoke: registry on == registry off (bit-identical results)");

    // Property 2: well-formed expositions naming the headline metrics.
    let snapshot = registry.snapshot();
    let text = snapshot.to_json();
    json::validate(&text).map_err(|e| format!("snapshot JSON invalid: {e}"))?;
    for required in [
        "infer_image_ns",
        "abm_execute_ns",
        "infer_images_total",
        "pool_items_total",
    ] {
        if !text.contains(required) {
            return Err(format!("snapshot JSON missing metric '{required}'"));
        }
    }
    let prom = snapshot.to_prometheus();
    if !prom.contains("# TYPE") {
        return Err("Prometheus exposition carries no # TYPE lines".into());
    }
    println!("metrics smoke: JSON snapshot validates, Prometheus exposition typed");

    // Property 3: the tee filled the ring, and an error freezes a dump.
    let teed = sink.drain();
    let tail = registry.flight().tail();
    if teed.is_empty() || tail.len() < teed.len() {
        return Err(format!(
            "flight recorder holds {} event(s) but the sink recorded {}",
            tail.len(),
            teed.len()
        ));
    }
    registry.note_error("smoke", "synthetic error for the dump path");
    let dump = registry
        .flight()
        .last_dump()
        .ok_or("note_error froze no flight dump")?;
    if dump.events.is_empty() {
        return Err("flight dump is empty despite recorded events".into());
    }
    json::validate(&dump.to_json()).map_err(|e| format!("flight dump JSON invalid: {e}"))?;
    println!(
        "metrics smoke: flight recorder mirrored {} event(s); dump holds {}",
        teed.len(),
        dump.events.len()
    );

    // Property 4: the simulator writes none of its aggregates; the
    // registry folds the stream it recorded.
    let mut recording = RecordingCollector::new();
    let sim = SimContext {
        parallelism: Parallelism::Serial,
        ..SimContext::default()
    }
    .collector(&mut recording)
    .simulate_network(&model, &AcceleratorConfig::paper())
    .map_err(|e| format!("collected simulation failed: {e}"))?;
    let written: u64 = registry
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(metrics::SIM_PREFIX))
        .map(|(_, v)| v)
        .sum();
    if written != 0 {
        return Err(format!(
            "a collected simulation wrote {written} into the simulator's counters"
        ));
    }
    registry.fold(recording.events());
    let folded = registry.snapshot();
    for (name, want) in [
        (metrics::SIM_COMPUTE_CYCLES, sim.summary().compute_cycles),
        (metrics::SIM_LAYERS, sim.layers().len() as u64),
    ] {
        let got = folded.counters.get(name).copied().unwrap_or(0);
        if got != want {
            return Err(format!("fold reads {name} = {got}, NetworkSim {want}"));
        }
    }
    println!(
        "metrics smoke: the simulator wrote none of its counters; the fold of {} event(s) equals NetworkSim",
        recording.events().len()
    );
    Ok(())
}
