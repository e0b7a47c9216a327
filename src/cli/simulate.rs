//! `abm-spconv simulate`: cycle simulation on a configuration.

use super::flags::{flag, positive_f64, switch, text, uint, PARALLEL};
use super::{build, fields, Command, Subcommand};
use abm_conv::Parallelism;
use abm_sim::{AcceleratorConfig, SimContext};
use abm_telemetry::{ChromeTrace, RecordingCollector};
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "simulate",
    flags: &[
        flag!("--n-cu" "N", Simulate.config.n_cu = uint),
        flag!("--n-knl" "N", Simulate.config.n_knl = uint),
        flag!("--n" "N", Simulate.config.n = uint),
        flag!("--s-ec" "N", Simulate.config.s_ec = uint),
        flag!("--freq" "MHZ", Simulate.config.freq_mhz = positive_f64),
        flag!("--parallel" PARALLEL, Simulate.parallelism = Parallelism::parse),
        flag!("--telemetry" "", Simulate.telemetry = switch),
        flag!("--report" "", Simulate.report = switch),
        flag!("--trace-out" "PATH", Simulate.trace_out = text),
    ],
    default: |net| Command::Simulate {
        config: AcceleratorConfig::paper_for(&net),
        net,
        parallelism: Parallelism::Auto,
        telemetry: false,
        report: false,
        trace_out: None,
    },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Simulate { net, config, parallelism, telemetry, report, trace_out });
    let (network, profile, model) = build(net, 2019);
    let collect = *telemetry || *report || trace_out.is_some();
    let mut recording = RecordingCollector::new();
    let mut ctx = SimContext {
        parallelism: *parallelism,
        ..SimContext::default()
    };
    let sim = if collect {
        // With a collector the network core walks layers in order
        // (deterministic event stream); the numbers are bit-identical.
        ctx.collector(&mut recording)
            .simulate_network(&model, config)?
    } else {
        ctx.simulate_network(&model, config)?
    };
    println!(
        "{} on N_cu={} N_knl={} N={} S_ec={} @ {} MHz (host threads: {}):",
        network.name(),
        config.n_cu,
        config.n_knl,
        config.n,
        config.s_ec,
        config.freq_mhz,
        parallelism
    );
    println!(
        "  {:.2} ms/image | {:.1} images/s | {:.1} GOP/s | lane efficiency {:.1}%",
        sim.total_seconds() * 1e3,
        sim.images_per_second(),
        sim.gops(),
        sim.lane_efficiency() * 100.0
    );
    if *telemetry {
        let s = sim.summary();
        println!(
            "  telemetry: {} compute cycles | {} stall cycles | {:.2} MiB DDR",
            s.compute_cycles,
            s.stall_cycles,
            s.bytes_moved as f64 / (1024.0 * 1024.0)
        );
    }
    if *report {
        let est = abm_dse::estimate_network(&network, &profile, config);
        let rep = abm_dse::SimReport {
            network: network.name(),
            freq_mhz: sim.freq_mhz(),
            layers: sim.layers(),
            est: &est,
            recording: &recording,
        };
        print!("{}", rep.render_table());
    }
    if let Some(path) = trace_out {
        let trace = ChromeTrace::from_events(recording.events());
        std::fs::write(path, trace.to_json())?;
        println!("  wrote Chrome trace to {path}");
    }
    Ok(())
}
