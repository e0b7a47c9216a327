//! `abm-spconv simulate`: cycle simulation on a configuration.

use super::flags::{flag, positive_f64, switch, text, uint, ISA, PARALLEL};
use super::{build, dispatch_groups, fields, render_dispatch, Command, Subcommand};
use abm_conv::Parallelism;
use abm_kernel::Isa;
use abm_sim::{network_report, AcceleratorConfig, SimContext};
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
        flag!("--isa" ISA, Simulate.isa = Isa::parse),
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
        isa: None,
    },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Simulate { net, config, parallelism, telemetry, report, trace_out, isa });
    // The simulator's workload preparation reads the same
    // `ABM_FORCE_ISA` pin the functional engine honors, so the
    // flag routes through the environment override after an
    // availability check (a pin the CPU cannot run must fail
    // loudly, not silently fall back).
    if let Some(isa) = isa {
        if !isa.available() {
            return Err(format!("ISA '{isa}' is not available on this CPU").into());
        }
        std::env::set_var(abm_kernel::FORCE_ISA_ENV, isa.name());
    }
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
        let mut rep = network_report(network.name(), &sim, &recording);
        let est = abm_dse::estimate_network(&network, &profile, config);
        abm_dse::annotate_report(&mut rep, &est);
        print!("{}", rep.render_table());
        let groups = dispatch_groups(recording.events());
        if !groups.is_empty() {
            println!("  host kernel dispatch: {}", render_dispatch(&groups));
        }
    }
    if let Some(path) = trace_out {
        let trace = ChromeTrace::from_events(recording.events());
        std::fs::write(path, trace.to_json())?;
        println!("  wrote Chrome trace to {path}");
    }
    Ok(())
}
