//! `cargo xtask verify` and `cargo xtask mc`: the static verification
//! passes over the model zoo, and the concurrency model-checker suite.

use abm_model::{synthesize_model, zoo, LayerProfile, Network, PruneProfile};
use abm_sim::task::Workload;
use abm_sim::{verify_workload, AcceleratorConfig};
use std::time::Instant;

/// Synthesis seed for the zoo sweeps — arbitrary but pinned, so CI
/// verifies the same codebooks every run.
pub(crate) const SEED: u64 = 2019;

pub(crate) fn lookup(name: &str) -> Result<(Network, PruneProfile, AcceleratorConfig), String> {
    Ok(match name {
        "vgg16" => (
            zoo::vgg16(),
            PruneProfile::vgg16_deep_compression(),
            AcceleratorConfig::paper(),
        ),
        "vgg19" => (
            zoo::vgg19(),
            PruneProfile::vgg16_deep_compression(),
            AcceleratorConfig::paper(),
        ),
        "alexnet" => (
            zoo::alexnet(),
            PruneProfile::alexnet_deep_compression(),
            AcceleratorConfig::paper_alexnet(),
        ),
        "tiny" => (
            zoo::tiny(),
            PruneProfile::uniform(LayerProfile::new(0.6, 16)),
            AcceleratorConfig::paper(),
        ),
        other => return Err(format!("unknown network '{other}'")),
    })
}

/// Statically verifies every accelerated layer of each named network:
/// the full lowering pass (offset decode and bounds, value-group
/// partition, accumulator width) plus the schedule/legality pass
/// (dispatch, FIFO and buffer feasibility) under that network's paper
/// configuration. Errors with a defect dump if anything is dirty.
pub fn verify(nets: &[&str]) -> Result<(), String> {
    let mut defects = Vec::new();
    for name in nets {
        let (net, profile, cfg) = lookup(name)?;
        let model = synthesize_model(&net, &profile, SEED);
        println!(
            "{} (seed {SEED}) under N_cu={} N_knl={} N={} S_ec={}:",
            net.name(),
            cfg.n_cu,
            cfg.n_knl,
            cfg.n,
            cfg.s_ec
        );
        for layer in &model.layers {
            let started = Instant::now();
            let lowering_failed = |e| format!("{name}/{}: lowering failed: {e}", layer.name());
            let w = Workload::from_layer(layer).map_err(lowering_failed)?;
            let report = verify_workload(&w, &cfg).map_err(lowering_failed)?;
            println!(
                "  {:<10} {:>10} facts  {:>2} defects  ({:.2?}){}",
                w.name,
                report.facts,
                report.defects.len(),
                started.elapsed(),
                lane_note(&report)
            );
            if !report.is_clean() {
                defects.push(report.to_string());
            }
        }
    }
    if defects.is_empty() {
        println!("verify: all layers defect-free");
        Ok(())
    } else {
        Err(format!(
            "verify failed in {} layer(s):\n{}",
            defects.len(),
            defects.join("")
        ))
    }
}

/// What a layer's report says of the sweep across a batch's lanes: the
/// kernels proven in-bounds at any pitch, for the layers that have one
/// (fully-connected rows), nothing for the rest.
fn lane_note(report: &abm_verify::VerifyReport) -> String {
    match report.lane_kernels {
        0 => String::new(),
        n => format!("  lane sweep in-bounds at any pitch: {n} kernels"),
    }
}

/// Runs the exhaustive-interleaving suite over the shared claim-counter
/// and lane-FIFO models at the standard bounds, then each model with
/// its fault seeded. Errors with the first counterexample trace if any
/// faithful instance is violated, or if a seeded fault goes uncaught.
pub fn model_check() -> Result<(), String> {
    let started = Instant::now();
    let reports = abm_verify::standard_suite();
    let mut violations = Vec::new();
    for report in &reports {
        println!(
            "  {:<44} {:>9} states  {}",
            report.subject,
            report.facts,
            if report.is_clean() { "ok" } else { "VIOLATION" }
        );
        if !report.is_clean() {
            violations.push(report.to_string());
        }
    }
    for report in abm_verify::seeded_faults() {
        match report.defects.first() {
            Some(defect) => println!("  {:<44} caught: {defect}", report.subject),
            None => violations.push(format!("{}: seeded fault not caught\n", report.subject)),
        }
    }
    println!(
        "mc: {} instances, {} states explored in {:.2?}",
        reports.len(),
        reports.iter().map(|r| r.facts).sum::<u64>(),
        started.elapsed()
    );
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "model checker found {} violation(s):\n{}",
            violations.len(),
            violations.join("")
        ))
    }
}
