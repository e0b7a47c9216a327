//! Open-loop load test for the serving stack, publishing
//! `BENCH_serve.json` (schema key: top-level `runs` array).
//!
//! Three legs, all against one in-process server per leg:
//!
//! * `nominal_1x` — ~60 % of the measured sustainable rate (queueing
//!   delay explodes near saturation, so "nominal" leaves real
//!   headroom); the p50 and p99 of admitted requests must sit inside
//!   the SLO.
//! * `overload_2x` — 2× the sustainable rate; admission control must
//!   shed (typed `Overloaded`) instead of letting latency collapse.
//! * `chaos_2x` — the same overload with seeded fault injection
//!   corrupting prepared weight streams; every completion must stay
//!   bit-identical to the golden injector-off logits
//!   (**zero silent corruptions**) and every rejection typed.
//!
//! The gates are asserted in-process: a violated gate fails the run
//! (non-zero exit), so CI can treat the benchmark as a soak test.
//!
//! Usage: `loadtest [tiny|alexnet|vgg16|vgg19] [--quick] [--out PATH]`

#![forbid(unsafe_code)]

use abm_conv::{Inferencer, Parallelism, ResiliencePolicy};
use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile, SparseModel};
use abm_serve::server::{ChaosConfig, ServeConfig, Server};
use abm_serve::{loadgen, synth_input, LoadConfig, LoadGen, LoadReport};
use abm_sim::AcceleratorConfig;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const MODEL_SEED: u64 = 7;

fn build_model(net: &str) -> Option<SparseModel> {
    let (network, profile) = match net {
        "vgg16" => (zoo::vgg16(), PruneProfile::vgg16_deep_compression()),
        "vgg19" => (zoo::vgg19(), PruneProfile::vgg16_deep_compression()),
        "alexnet" => (zoo::alexnet(), PruneProfile::alexnet_deep_compression()),
        "tiny" => (
            zoo::tiny(),
            PruneProfile::uniform(LayerProfile::new(0.6, 16)),
        ),
        _ => return None,
    };
    Some(synthesize_model(&network, &profile, MODEL_SEED))
}

/// The bit-identity oracle: golden logits per input seed, computed
/// injector-off with the same hardened policy the server runs, on the
/// server's own prepared model — and the SLO, scaled from the measured
/// per-image service time so the gates stay meaningful on hosts (or
/// build profiles) where the absolute numbers shift.
struct Oracle {
    golden: HashMap<u64, Vec<f32>>,
    slo: Duration,
}

impl Oracle {
    fn measure(server: &Server, model: &SparseModel, seeds: u64) -> Result<Self, String> {
        let inferencer = Inferencer::new(model)
            .parallelism(Parallelism::Serial)
            .resilience(ResiliencePolicy::hardened());
        let prepared = server.prepared_weights();
        let shape = model.network.input_shape();
        let mut golden = HashMap::new();
        let t0 = std::time::Instant::now();
        for seed in 0..seeds {
            let r = inferencer
                .run_prepared(&prepared, &synth_input(shape, seed))
                .map_err(|e| e.to_string())?;
            golden.insert(seed, r.logits);
        }
        let per_image = t0.elapsed() / u32::try_from(seeds.max(1)).unwrap_or(1);
        // 100 ms is the release-build SLO for `tiny`; on slower hosts or
        // unoptimized builds the objective scales with the measured
        // service time (~40 images of headroom) so the latency gate keeps
        // testing the serving stack rather than the build profile.
        let slo = Duration::from_millis(100).max(per_image * 40);
        eprintln!(
            "probe: {} us/image hardened, slo {} ms",
            per_image.as_micros(),
            slo.as_millis()
        );
        Ok(Self { golden, slo })
    }
}

struct Leg {
    name: &'static str,
    rate_factor: f64,
    /// `None` → the SLO is the deadline budget (nominal leg);
    /// `Some(f)` → `f × service estimate`, floored at 5 ms, so the
    /// overload legs exercise admission at a scale the cost model can
    /// actually predict against.
    deadline_factor: Option<f64>,
    chaos: Option<ChaosConfig>,
}

/// Runs one leg on a server of its own. The first leg measures the
/// oracle on its server's prepared model, so the process prepares no
/// model beside the servers'.
fn run_leg(
    model: &Arc<SparseModel>,
    accel: &AcceleratorConfig,
    leg: &Leg,
    requests: usize,
    oracle: &mut Option<Oracle>,
) -> Result<LoadReport, String> {
    let cfg = ServeConfig {
        chaos: leg.chaos.clone(),
        ..ServeConfig::default()
    };
    let workers = cfg.workers as f64;
    let server = Server::start(Arc::clone(model), accel, cfg).map_err(|e| format!("start: {e}"))?;
    let Oracle { golden, slo } = match oracle {
        Some(oracle) => &*oracle,
        None => oracle.insert(Oracle::measure(&server, model, 4)?),
    };
    // The sustainable rate falls out of the calibrated cost model:
    // workers drain one image per service time each.
    let service = server.service_estimate().max(Duration::from_micros(50));
    let sustainable_rps = workers / service.as_secs_f64();
    let deadline = leg
        .deadline_factor
        .map_or(*slo, |f| service.mul_f64(f).max(Duration::from_millis(5)));
    let load = LoadConfig {
        requests,
        rate_rps: sustainable_rps * leg.rate_factor,
        deadline,
        distinct_seeds: golden.len() as u64,
        jitter_seed: 0x10AD ^ leg.rate_factor.to_bits(),
    };
    let report = LoadGen::run(&server, leg.name, &load, Some(golden));
    let stats = server.shutdown();
    // Post-drain conservation: every admitted request was answered.
    if stats.admitted != stats.answered() {
        return Err(format!(
            "{}: drain lost requests: admitted {} answered {}",
            leg.name,
            stats.admitted,
            stats.answered()
        ));
    }
    eprintln!(
        "leg {:12} offered {:4} admitted {:4} shed {:4} completed {:4} cut {:3} degraded-batches {:2} \
         chaos {:2} failovers {:2} p99 {} us",
        leg.name,
        report.offered,
        report.admitted,
        report.shed,
        report.completed,
        report.deadline_cut,
        stats.degraded_batches,
        stats.chaos_injected,
        stats.watchdog_failovers,
        report.percentile_us(99.0)
    );
    Ok(report)
}

fn gate(reports: &[LoadReport], slo: Duration) -> Result<(), String> {
    let mut violations = Vec::new();
    let slo_us = u64::try_from(slo.as_micros()).unwrap_or(u64::MAX);
    for r in reports {
        if r.silent_corruptions > 0 {
            violations.push(format!(
                "{}: {} silent corruption(s) — completions diverged from golden logits",
                r.name, r.silent_corruptions
            ));
        }
        if r.untyped_rejections > 0 {
            violations.push(format!(
                "{}: {} rejection(s) lacked a typed Overloaded/DeadlineExceeded error",
                r.name, r.untyped_rejections
            ));
        }
        if r.name == "nominal_1x" && r.completed > 0 && r.percentile_us(99.0) > slo_us {
            violations.push(format!(
                "nominal_1x: p99 {} us exceeds the {} us SLO",
                r.percentile_us(99.0),
                slo_us
            ));
        }
        if r.name != "nominal_1x" && r.shed == 0 && r.deadline_cut == 0 {
            violations.push(format!(
                "{}: 2x overload produced no shedding and no deadline cuts — admission control inert",
                r.name
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut net = "tiny".to_string();
    let mut out = "BENCH_serve.json".to_string();
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = it
                    .next()
                    .ok_or_else(|| "--out needs a path".to_string())?
                    .clone();
            }
            other if !other.starts_with('-') => net = other.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let model = Arc::new(
        build_model(&net)
            .ok_or_else(|| format!("unknown network '{net}' (tiny|alexnet|vgg16|vgg19)"))?,
    );
    let accel = AcceleratorConfig::paper();
    let requests = if quick { 48 } else { 96 };

    let legs = [
        Leg {
            name: "nominal_1x",
            rate_factor: 0.6,
            deadline_factor: None,
            chaos: None,
        },
        Leg {
            name: "overload_2x",
            rate_factor: 2.0,
            deadline_factor: Some(10.0),
            chaos: None,
        },
        Leg {
            name: "chaos_2x",
            rate_factor: 2.0,
            deadline_factor: Some(10.0),
            chaos: Some(ChaosConfig::corrupt(0xC4A0_5EED, 3)),
        },
    ];
    let mut reports = Vec::new();
    let mut oracle = None;
    for leg in &legs {
        reports.push(run_leg(&model, &accel, leg, requests, &mut oracle)?);
    }
    let slo = oracle.ok_or("no leg ran")?.slo;
    gate(&reports, slo)?;
    let doc = loadgen::render_bench(&reports, slo, &net);
    std::fs::write(&out, &doc).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadtest failed:\n{e}");
            ExitCode::FAILURE
        }
    }
}
