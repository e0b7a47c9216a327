//! The seeded fault-injection campaign over the model zoo: every fault
//! class, injected deterministically, gated on zero silent corruptions.
//!
//! ```text
//! cargo run --release --example fault_campaign            # alexnet + vgg16, 3 trials/class
//! cargo run --release --example fault_campaign -- --smoke # alexnet, 1 trial/class (CI gate)
//! ```
//!
//! Writes `FAULTS_campaign.json` (the report; the full run's is
//! committed, and CI re-runs it and fails on any differing byte) and
//! `FAULTS_campaign_trace.json` (fault telemetry on the Chrome-trace
//! fault track — open in `chrome://tracing` or Perfetto). Exits
//! non-zero if any injected fault was silent or detected but not
//! recovered.

#![forbid(unsafe_code)]

use abm_spconv_repro::campaign::{run_campaign, CampaignConfig};
use abm_spconv_repro::fault::FaultOutcome;
use abm_telemetry::{ChromeTrace, TelemetrySink};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        CampaignConfig::smoke()
    } else {
        CampaignConfig::full()
    };

    println!(
        "fault campaign: {} (seed {}, {} trial(s) per class)",
        config.nets.join(" + "),
        config.seed,
        config.trials_per_class
    );
    let sink = TelemetrySink::new();
    let report = run_campaign(&config, &sink)?;
    print!("{}", report.summary_table());

    std::fs::write("FAULTS_campaign.json", report.to_json())?;
    println!("wrote FAULTS_campaign.json");
    let trace = ChromeTrace::from_events(&sink.drain());
    std::fs::write("FAULTS_campaign_trace.json", trace.to_json())?;
    println!("wrote FAULTS_campaign_trace.json");

    if !report.is_clean() {
        return Err(format!(
            "campaign is DIRTY: {} silent, {} detected-unrecovered",
            report.count(FaultOutcome::Silent),
            report.count(FaultOutcome::DetectedUnrecovered),
        )
        .into());
    }
    println!("campaign CLEAN: every injected fault detected-and-recovered or masked");
    Ok(())
}
