//! `abm-spconv faults`: the seeded fault-injection campaign.

use super::flags::{flag, positive, text, uint};
use super::{fields, Command, Subcommand};
use abm_telemetry::ChromeTrace;
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "faults",
    flags: &[
        flag!("--seed" "S", Faults.seed = uint),
        flag!("--trials" "N", Faults.trials = positive),
        flag!("--json" "PATH", Faults.json = text),
        flag!("--trace-out" "PATH", Faults.trace_out = text),
    ],
    default: |net| Command::Faults {
        net,
        seed: 2019,
        trials: 1,
        json: None,
        trace_out: None,
    },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Faults { net, seed, trials, json, trace_out });
    let config = crate::campaign::CampaignConfig {
        nets: vec![net.clone()],
        seed: *seed,
        trials_per_class: *trials,
    };
    let sink = abm_telemetry::TelemetrySink::new();
    let report = crate::campaign::run_campaign(&config, &sink)?;
    println!("fault campaign: {net} (seed {seed}, {trials} trial(s) per class)");
    print!("{}", report.summary_table());
    if let Some(path) = json {
        std::fs::write(path, report.to_json())?;
        println!("  wrote campaign report to {path}");
    }
    if let Some(path) = trace_out {
        let trace = ChromeTrace::from_events(&sink.drain());
        std::fs::write(path, trace.to_json())?;
        println!("  wrote Chrome trace to {path}");
    }
    if !report.is_clean() {
        return Err("campaign is DIRTY: silent or unrecovered faults".into());
    }
    Ok(())
}
