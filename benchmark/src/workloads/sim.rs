//! `vgg16_sim`: the reproduction's own product. One operation is
//! `simulate_network` on VGG16 at the paper's configuration, then
//! `plan_pipeline` and `simulate_pipeline` at batch 8. Simulated
//! cycles, GOP/s and the pipelined makespan must repeat exactly (they
//! are pinned in `golden.json`); only host time may move.

use super::{put_end_to_end, setup, Ctx, Quiet, Window};
use crate::calibrate::Calibrator;
use crate::inputs::Net;
use crate::report::Outcome;
use crate::stats::{threads, Samples};
use crate::trace::Tracer;
use abm_dse::{flow::run_flow, perf::estimate_network, FpgaDevice};
use abm_model::SparseModel;
use abm_sim::task::Workload;
use abm_sim::{
    plan_pipeline, simulate_network, simulate_pipeline, AcceleratorConfig, NetworkSim,
    PipelineOptions,
};

const NET: Net = Net::Vgg16;

/// Images streamed through the pipelined schedule.
const PIPELINE_BATCH: usize = 8;

/// The paper's measured VGG16 throughput on the Stratix-V (GOP/s): the
/// reference the simulated figure's error is stated against.
const PAPER_GOPS: f64 = 1029.0;

/// Every accelerated layer lowered to the simulator's workload form.
fn lower(model: &SparseModel) -> Result<Vec<Workload>, String> {
    model
        .layers
        .iter()
        .map(|l| Workload::from_layer(l).map_err(|e| format!("lower {}: {e}", l.name())))
        .collect()
}

/// One operation's results and the host milliseconds of its three calls.
struct Iteration {
    network: NetworkSim,
    makespan: u64,
    ms: [f64; 3],
}

fn iterate(
    tracer: &Tracer,
    model: &SparseModel,
    workloads: &[Workload],
    request: u64,
) -> Result<Iteration, String> {
    let cfg = AcceleratorConfig::paper();
    let parent = tracer.begin("sim.iteration", None, request);
    let (network, network_ms) = tracer.span("sim.simulate_network", Some(&parent), request, || {
        simulate_network(model, &cfg)
    });
    let (schedule, plan_ms) = tracer.span("sim.plan_pipeline", Some(&parent), request, || {
        plan_pipeline(
            workloads,
            &cfg,
            &PipelineOptions::for_config(&cfg),
            PIPELINE_BATCH,
        )
    });
    let schedule = schedule.map_err(|e| format!("plan_pipeline: {e}"))?;
    let (pipeline, pipeline_ms) =
        tracer.span("sim.simulate_pipeline", Some(&parent), request, || {
            simulate_pipeline(workloads, &cfg, &schedule, PIPELINE_BATCH)
        });
    tracer.end(parent);
    Ok(Iteration {
        network,
        makespan: pipeline.makespan_cycles,
        ms: [network_ms, plan_ms, pipeline_ms],
    })
}

/// The simulated statistics that must repeat exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct SimPins {
    cycles: u64,
    gops_bits: u64,
    pipeline_makespan: u64,
}

impl SimPins {
    fn of(it: &Iteration) -> Self {
        Self {
            cycles: it.network.summary().compute_cycles,
            gops_bits: it.network.gops().to_bits(),
            pipeline_makespan: it.makespan,
        }
    }

    /// One simulation of `model`, for `regen-golden`.
    pub fn measure(model: &SparseModel) -> Result<Self, String> {
        let it = iterate(&Tracer::new(false), model, &lower(model)?, 0)?;
        Ok(Self::of(&it))
    }

    pub fn entries(&self) -> [(String, u64); 3] {
        [
            ("sim.vgg16.cycles".to_owned(), self.cycles),
            ("sim.vgg16.gops_bits".to_owned(), self.gops_bits),
            (
                "sim.vgg16.pipeline_makespan".to_owned(),
                self.pipeline_makespan,
            ),
        ]
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut lower_ms = 0.0;
    let ((model, workloads), setup_time) = setup(|| {
        let model = NET.synthesize();
        let (workloads, ms) = ctx.tracer.span("sim.lower", None, 0, || lower(&model));
        lower_ms = ms;
        Ok((model, workloads?))
    })?;

    let mut out = Outcome::default();
    let mut iteration_ms = Samples::default();
    let mut parts = [(); 3].map(|()| Samples::default());
    let mut calibrator = Calibrator::new();
    let mut good = 0u64;
    let mut last = None;
    let window = Window::start(ctx.seconds);
    while window.open() {
        let it = iterate(&ctx.tracer, &model, &workloads, out.attempted)?;
        out.attempted += 1;
        let wrong: Vec<String> = SimPins::of(&it)
            .entries()
            .into_iter()
            .filter(|(key, got)| ctx.golden.get(key) != Some(*got))
            .map(|(key, got)| format!("{key} = {got}, pinned {:?}", ctx.golden.get(&key)))
            .collect();
        if wrong.is_empty() {
            good += 1;
            iteration_ms.push(it.ms.iter().sum());
            for (samples, ms) in parts.iter_mut().zip(it.ms) {
                samples.push(ms);
            }
        } else {
            out.fail(wrong.join("; "));
        }
        // `simulate_network` fans out over the cores.
        calibrator.after_on(threads(), it.ms.iter().sum());
        last = Some(it);
    }
    let window_s = window.elapsed_s();
    put_end_to_end(
        &mut out,
        &setup_time,
        &iteration_ms,
        Quiet::Calibrated(&calibrator),
        good,
        window_s,
    );

    if let (true, Some(it)) = (ctx.traced(), last) {
        let n = iteration_ms.n();
        let [network_ms, plan_ms, pipeline_ms] = parts.map(|s| s.median());
        out.put("sim.lower_ms", lower_ms, 1);
        out.put("sim.network_ms", network_ms, n);
        out.put("sim.pipeline_plan_ms", plan_ms, n);
        out.put("sim.pipeline_sim_ms", pipeline_ms, n);
        let cycles = it.network.summary().compute_cycles;
        out.put(
            "sim.mcycles_per_host_s",
            cycles as f64 / (network_ms * 1e3),
            n,
        );
        out.put("sim.cycles", cycles as f64, 1);
        out.put("sim.lane_efficiency", it.network.lane_efficiency(), 1);
        let gops = it.network.gops();
        out.put("sim.gops", gops, 1);
        out.put_note(
            "sim.gops_vs_paper",
            gops / PAPER_GOPS,
            1,
            &format!(
                "simulated {gops:.1} GOP/s against the paper's measured {PAPER_GOPS} ({:+.1}%)",
                100.0 * (gops / PAPER_GOPS - 1.0)
            ),
        );

        let network = NET.network();
        let profile = NET.profile();
        let (flow, ms) = ctx.tracer.span("dse.run_flow", None, 0, || {
            run_flow(&network, &profile, &FpgaDevice::stratix_v_gxa7(), 5)
        });
        out.put("dse.run_flow_ms", ms, 1);
        if flow.best().is_none() {
            out.fail("dse::flow::run_flow found no feasible design point".to_owned());
        }
        let estimate = estimate_network(&network, &profile, &AcceleratorConfig::paper());
        let modelled: f64 = estimate.layers().iter().map(|l| l.cycles).sum();
        out.put(
            "dse.cycles_vs_sim_err",
            (modelled - cycles as f64).abs() / cycles as f64,
            1,
        );
    }
    Ok(out)
}
