//! The workloads. Each runs in a process of its own, sets up three
//! times (reporting the median), measures for `--seconds`, and checks
//! every result it produces against the golden file.

pub mod batch;
pub mod image;
pub mod serve;
pub mod sim;

use crate::calibrate::Calibrator;
use crate::golden::Golden;
use crate::inputs::{run_images, Image, Net};
use crate::report::Outcome;
use crate::stats::{peak_rss_mb, Rng, Samples};
use crate::trace::Tracer;
use std::time::Instant;

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What a workload needs to know about this run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    pub tracer: Tracer,
    pub golden: Golden,
}

impl Ctx {
    /// The generator for one purpose of this run (`salt` keeps the
    /// image choice and the arrival jitter independent).
    pub fn rng(&self, salt: u64) -> Rng {
        Rng::new(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn images(&self, net: Net) -> Vec<Image> {
        run_images(net, &mut self.rng(1))
    }

    pub fn traced(&self) -> bool {
        self.tracer.on()
    }
}

pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "alexnet_image" => image::run(ctx, Net::Alexnet),
        "vgg16_image" => image::run(ctx, Net::Vgg16),
        "alexnet_batch" => batch::run(ctx),
        "alexnet_serve" => serve::closed_loop(ctx),
        "tiny_serve" => serve::open_loop(ctx),
        "vgg16_sim" => sim::run(ctx),
        other => Err(format!("unknown workload \"{other}\"")),
    }
}

/// The median set-up time with the calibration bursts that ran between
/// the set-ups.
pub struct SetupTime {
    seconds: f64,
    calibrator: Calibrator,
}

/// Builds the workload's state [`SETUPS`] times from nothing, dropping
/// each before the next is built, and returns the last with the median
/// build time.
fn setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, SetupTime), String> {
    let mut times = Samples::default();
    let mut calibrator = Calibrator::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        let seconds = t.elapsed().as_secs_f64();
        times.push(seconds);
        calibrator.after(seconds * 1e3);
    }
    let time = SetupTime {
        seconds: times.median(),
        calibrator,
    };
    Ok((last.expect("SETUPS > 0"), time))
}

/// The measuring window of a closed-loop workload.
struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    fn start(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    fn open(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// How a workload estimates what an operation takes when the
/// neighbours leave the machine alone (README, "Steadiness").
pub enum Quiet<'a> {
    /// The harness thread executes the operations itself, back to back,
    /// so the machine is never idle and there is no quiet moment to
    /// catch: the median is divided by the slowdown that calibration
    /// bursts on the same thread, between the operations, measured.
    Calibrated(&'a Calibrator),
    /// The server's threads execute the operations while the harness
    /// thread sleeps in `Ticket::wait`, so bursts on the harness thread
    /// would say nothing of them (and the checksum-bound hardened path
    /// slows less than the bursts do): the lower decile of the raw times
    /// is taken, the requests the neighbours disturbed least.
    LowerDecile,
}

/// The end-to-end metrics every workload reports, and beside them the
/// raw figures they were made from.
fn put_end_to_end(
    out: &mut Outcome,
    setup: &SetupTime,
    latency_ms: &Samples,
    quiet: Quiet,
    good: u64,
    window_s: f64,
) {
    let n = latency_ms.n();
    out.put(
        "setup_s",
        setup.seconds / setup.calibrator.slowdown(),
        SETUPS,
    );
    let quiet_ms = match quiet {
        Quiet::Calibrated(calibrator) => {
            out.put("host.slowdown", calibrator.slowdown(), calibrator.bursts());
            latency_ms.median() / calibrator.slowdown()
        }
        Quiet::LowerDecile => latency_ms.quantile(0.1),
    };
    out.put("latency_quiet_ms", quiet_ms, n);
    out.put("peak_rss_mb", peak_rss_mb(), 1);
    out.put_note(
        "host.latency_ms_p50",
        latency_ms.median(),
        n,
        &format!(
            "min {:.3}, p10 {:.3}, p25 {:.3}",
            latency_ms.quantile(0.0),
            latency_ms.quantile(0.1),
            latency_ms.quantile(0.25)
        ),
    );
    out.put("host.goodput_per_s", good as f64 / window_s, good as usize);
    out.put(
        "host.setup_slowdown",
        setup.calibrator.slowdown(),
        setup.calibrator.bursts(),
    );
}

/// A synthesized model with its prepared ABM weights: the state the
/// host-inference workloads set up.
pub struct HostNet {
    pub net: Net,
    pub model: abm_model::SparseModel,
    pub weights: abm_conv::PreparedWeights,
}

impl HostNet {
    pub fn build(net: Net) -> Result<Self, String> {
        let model = net.synthesize();
        let weights = abm_conv::Inferencer::new(&model)
            .prepare()
            .map_err(|e| format!("prepare {}: {e}", net.name()))?;
        Ok(Self {
            net,
            model,
            weights,
        })
    }

    pub fn inferencer(&self, parallelism: abm_conv::Parallelism) -> abm_conv::Inferencer<'_> {
        abm_conv::Inferencer::new(&self.model).parallelism(parallelism)
    }
}

/// Checks one inference result against the dense engine's logits for
/// that image and the pinned analytic work; counts a failure if either
/// differs.
pub fn check_result(
    ctx: &Ctx,
    net: Net,
    image: &Image,
    result: Result<abm_conv::InferenceResult, abm_fault::AbmError>,
    out: &mut Outcome,
) -> bool {
    let name = net.name();
    match result {
        Err(e) => out.fail(format!("{name} image {}: {e}", image.id)),
        Ok(r) if !ctx.golden.logits_match(net, image.id, &r.logits) => out.fail(format!(
            "{name} image {}: logits differ from the dense engine's",
            image.id
        )),
        Ok(r) => {
            let pins = [
                ("accumulations", r.work.accumulations),
                ("multiplications", r.work.multiplications),
            ];
            for (what, got) in pins {
                let want = ctx.golden.get(&format!("work.{name}.{what}"));
                if want != Some(got) {
                    out.fail(format!("{name}: {got} {what}, pinned {want:?}"));
                    return false;
                }
            }
            return true;
        }
    }
    false
}
