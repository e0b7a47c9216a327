//! `abm-spconv serve`: the fault-tolerant batching inference service.

use super::flags::{flag, positive, positive_f64, switch, text, uint};
use super::{build, fields, Command, Subcommand};
use abm_conv::{Inferencer, Parallelism};
use abm_sim::AcceleratorConfig;
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "serve",
    flags: &[
        flag!("--seed" "S", Serve.seed = uint),
        flag!("--requests" "N", Serve.requests = positive),
        flag!("--rate-x" "F", Serve.rate_x = positive_f64),
        flag!("--chaos" "", Serve.chaos = switch),
        flag!("--listen" "ADDR", Serve.listen = text),
        flag!("--for-secs" "T", Serve.for_secs = positive),
        flag!("--json" "PATH", Serve.json = text),
    ],
    default: |net| Command::Serve {
        net,
        seed: 2019,
        requests: 32,
        rate_x: 1.5,
        chaos: false,
        listen: None,
        for_secs: 5,
        json: None,
    },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Serve {
        net, seed, requests, rate_x, chaos, listen, for_secs, json
    });
    let (network, _, model) = build(net, *seed);
    let model = std::sync::Arc::new(model);
    let accel = AcceleratorConfig::paper_for(net);
    let cfg = abm_serve::ServeConfig {
        chaos: chaos.then(|| abm_serve::ChaosConfig::corrupt(seed ^ 0xC4A0_5EED, 3)),
        ..abm_serve::ServeConfig::default()
    };
    let workers = cfg.workers;
    let server = abm_serve::Server::start(std::sync::Arc::clone(&model), &accel, cfg)?;
    let service = server.service_estimate();
    println!(
        "{} serving: {} us/image calibrated, {} worker(s)",
        network.name(),
        service.as_micros(),
        workers
    );
    if let Some(addr) = listen {
        let front = abm_serve::NetServer::bind(
            std::sync::Arc::new(server),
            addr,
            abm_serve::NetConfig::default(),
        )?;
        println!(
            "listening on {} for {for_secs}s (protocol: `infer <seed> <deadline_ms>`, `stats`, `ping`)",
            front.local_addr()
        );
        std::thread::sleep(std::time::Duration::from_secs(*for_secs));
        let server = front.shutdown();
        let stats = match std::sync::Arc::try_unwrap(server) {
            Ok(s) => s.shutdown(),
            Err(arc) => arc.stats(), // a live connection still holds it; Drop drains
        };
        print_serve_stats(&stats);
        return Ok(());
    }
    // In-process open-loop burst with the bit-identity oracle, on the
    // server's own prepared model.
    let golden_src = Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .resilience(abm_conv::ResiliencePolicy::hardened());
    let prepared = server.prepared_weights();
    let mut golden = std::collections::HashMap::new();
    for s in 0..4u64 {
        let input = abm_serve::synth_input(network.input_shape(), s);
        golden.insert(s, golden_src.run_prepared(&prepared, &input)?.logits);
    }
    let sustainable = workers as f64 / service.as_secs_f64().max(1e-9);
    let load = abm_serve::LoadConfig {
        requests: *requests,
        rate_rps: sustainable * rate_x,
        deadline: service
            .mul_f64(10.0)
            .max(std::time::Duration::from_millis(5)),
        distinct_seeds: 4,
        jitter_seed: *seed,
    };
    let leg = format!("cli_{rate_x}x{}", if *chaos { "_chaos" } else { "" });
    let report = abm_serve::LoadGen::run(&server, &leg, &load, Some(&golden));
    let stats = server.shutdown();
    print_serve_stats(&stats);
    println!(
        "  burst: {} offered at {:.1} req/s ({rate_x}x sustainable) | p50 {} us | p99 {} us | goodput {:.1} req/s",
        report.offered,
        load.rate_rps,
        report.percentile_us(50.0),
        report.percentile_us(99.0),
        report.goodput_rps
    );
    if let Some(path) = json {
        let doc = abm_serve::loadgen::render_bench(
            std::slice::from_ref(&report),
            std::time::Duration::from_millis(100).max(service.mul_f64(40.0)),
            net,
        );
        abm_telemetry::json::validate(&doc)?;
        std::fs::write(path, doc)?;
        println!("  wrote serving report to {path}");
    }
    if report.silent_corruptions > 0 {
        return Err(format!(
            "{} silent corruption(s): completions diverged from golden logits",
            report.silent_corruptions
        )
        .into());
    }
    if stats.admitted != stats.answered() {
        return Err(format!(
            "drain lost requests: admitted {} answered {}",
            stats.admitted,
            stats.answered()
        )
        .into());
    }
    Ok(())
}

/// Prints the server's post-drain accounting in the CLI's table style.
fn print_serve_stats(stats: &abm_serve::ServeStats) {
    println!(
        "  admitted {} / {} offered | shed {} (typed Overloaded) | completed {} | deadline-cut {} | failed {}",
        stats.admitted,
        stats.submitted,
        stats.shed,
        stats.completed,
        stats.deadline_cut,
        stats.failed
    );
    println!(
        "  batches {} | degraded (fault masked) {} | chaos injected {} | watchdog failovers {}",
        stats.batches, stats.degraded_batches, stats.chaos_injected, stats.watchdog_failovers
    );
}
