//! The per-layer ladder of the host-inference path, measured on the
//! `--trace 1` run from outside the crates.
//!
//! `Inferencer::step_layer` is private, so a network is replayed layer
//! by layer through public functions only: `PreparedWeights::abm_layer`
//! then `PreparedConv::execute` for the accelerated layers and
//! `conv::host::{pool, relu, lrn}` for the rest, each on a seeded input
//! of the layer's own shape kept inside the 8-bit feature range (so the
//! certified kernel selection runs, as it does in situ). What whole
//! images cost beyond the sum of those calls — requantization,
//! write-back, flatten/softmax, dropping feature maps, metrics
//! book-keeping — is reported as `conv.unattributed_ms`, so the ladder
//! closes by construction.

use crate::inputs::{feature_map, Image, Net};
use crate::report::Outcome;
use crate::stats::{time_ms, Rng, Samples};
use crate::workloads::{check_result, Ctx, HostNet};
use abm_conv::{abft, host, Inferencer, Parallelism, PreparedConv, ResiliencePolicy};
use abm_model::LayerKind;
use abm_sparse::{LayerCode, SizeModel};
use abm_tensor::{QFormat, Tensor3};
use std::hint::black_box;
use std::time::Instant;

/// The traced run of an image workload: roofs, the set-up split, then
/// whole images and layer replays turn about (so both see the same
/// machine state), and last the hardened path.
pub fn image(ctx: &Ctx, net: Net) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let add_roof = roofs(ctx, &mut out)?;
    let host = split_setup(ctx, net, &mut out)?;
    let images = ctx.images(net);

    let mut whole = WholeImages::new(&host);
    let mut replay = Replay::new(&host, &mut ctx.rng(3));
    let start = Instant::now();
    // At least three rounds: one image for each variant of `WholeImages`.
    while whole.rounds < 3 || start.elapsed().as_secs_f64() < 0.65 * ctx.seconds {
        whole.round(ctx, &images, &mut out);
        replay.round(ctx);
    }
    let image_ms = whole.report(&mut out);
    let layers = replay.report(ctx, &mut out);

    let gacc_per_s = layers.accumulations as f64 / (layers.execute_ms * 1e6);
    out.put("conv.gacc_per_s", gacc_per_s, replay.rounds);
    out.put(
        "conv.pct_add_roof",
        100.0 * gacc_per_s / add_roof,
        replay.rounds,
    );
    let unattributed = image_ms - layers.execute_ms - layers.host_ms;
    out.put("conv.unattributed_ms", unattributed, replay.rounds);
    out.put(
        "conv.unattributed_share",
        unattributed / image_ms,
        replay.rounds,
    );

    hardened(ctx, &host, &images, 0.35 * ctx.seconds, &mut out);
    Ok(out)
}

/// Repetitions of each roof loop; the best counts: a roof is a maximum,
/// and a short repetition has a chance of running while the neighbours
/// are quiet.
const ROOF_REPS: usize = 20;

/// The best rate, in 1e9 units of `work` per second, over
/// [`ROOF_REPS`] timed calls of `rep`.
fn best_rate(ctx: &Ctx, span: &str, work: usize, mut rep: impl FnMut()) -> f64 {
    (0..ROOF_REPS)
        .map(|i| {
            let ((), ms) = ctx.tracer.span(span, None, i as u64, &mut rep);
            work as f64 / (ms * 1e6)
        })
        .fold(0.0, f64::max)
}

/// Calibration loops in safe Rust: the peak `i32` add rate on an
/// L1-resident buffer, the stream bandwidth over 64 MB, and
/// `AbmKernel::gather_unit` of the auto-selected ISA on L1-resident
/// data. Context for every timing; the add roof is the denominator of
/// `conv.pct_add_roof`, and is returned.
fn roofs(ctx: &Ctx, out: &mut Outcome) -> Result<f64, String> {
    let mut lanes = vec![1i32; 4096];
    let passes = 2_000;
    let add = best_rate(ctx, "kernel.add_roof", lanes.len() * passes, || {
        for _ in 0..passes {
            for x in lanes.iter_mut() {
                *x = x.wrapping_add(3);
            }
            black_box(&mut lanes);
        }
    });
    out.put("kernel.add_roof_gadd_s", add, ROOF_REPS);

    let big = vec![1u64; 8 << 20];
    let stream = best_rate(ctx, "kernel.stream_roof", big.len() * 8, || {
        black_box(big.iter().fold(0u64, |s, &x| s.wrapping_add(x)));
    });
    out.put("kernel.stream_roof_gb_s", stream, ROOF_REPS);
    drop(big);

    // Eight value groups of 32 offsets inside a 2048-element window of
    // an 8 KiB input: everything stays in L1.
    let selection = abm_kernel::select(None, 24)?;
    let kernel = abm_kernel::resolve(selection);
    let mut rng = ctx.rng(2);
    let values: Vec<i8> = vec![-4, -3, -2, -1, 1, 2, 3, 4];
    let starts: Vec<u32> = (0..=values.len() as u32).map(|g| g * 32).collect();
    let offsets: Vec<u32> = (0..256).map(|_| rng.below(2048) as u32).collect();
    let data = feature_map(abm_tensor::Shape3::new(1, 1, 4096), &mut rng);
    let mut sums = vec![0i64; abm_kernel::MAX_LANES];
    let calls = 4_000;
    let adds = kernel.lanes() * offsets.len() * calls;
    let gather = best_rate(ctx, "kernel.gather_unit", adds, || {
        for call in 0..calls {
            let base = (call * 7) % 2000;
            kernel.gather_unit(&values, &starts, &offsets, data.as_slice(), base, &mut sums);
            black_box(&mut sums);
        }
    });
    out.put_note(
        "kernel.gather_unit_gadd_s",
        gather,
        ROOF_REPS,
        &selection.name(),
    );
    Ok(add)
}

/// One set-up, timed part by part: synthesis, `LayerCode::encode` over
/// all layers (which `prepare` repeats inside), and `prepare`.
fn split_setup(ctx: &Ctx, net: Net, out: &mut Outcome) -> Result<HostNet, String> {
    let (model, ms) = ctx
        .tracer
        .span("model.synthesize", None, 0, || net.synthesize());
    out.put("model.synthesize_ms", ms, 1);

    let (codes, ms) = ctx.tracer.span("sparse.encode", None, 0, || {
        model
            .layers
            .iter()
            .map(|l| LayerCode::encode(&l.weights))
            .collect::<Result<Vec<_>, _>>()
    });
    let codes = codes.map_err(|e| format!("encode {}: {e}", net.name()))?;
    out.put("sparse.encode_ms", ms, 1);
    let size = SizeModel::paper();
    let bytes: u64 = codes.iter().map(|c| size.layer_bytes(c).total()).sum();
    out.put("sparse.encoded_mb", bytes as f64 / 1e6, 1);
    drop(codes);

    let (weights, ms) = ctx.tracer.span("conv.prepare", None, 0, || {
        Inferencer::new(&model).prepare()
    });
    let weights = weights.map_err(|e| format!("prepare {}: {e}", net.name()))?;
    out.put("conv.prepare_ms", ms, 1);
    Ok(HostNet {
        net,
        model,
        weights,
    })
}

/// Whole images through `run_prepared`, cycling three variants: span
/// recorded (0), span not recorded (1), and metrics registry off (2).
struct WholeImages<'a> {
    host: &'a HostNet,
    rounds: usize,
    ms: [Samples; 3],
}

impl<'a> WholeImages<'a> {
    fn new(host: &'a HostNet) -> Self {
        Self {
            host,
            rounds: 0,
            ms: Default::default(),
        }
    }

    fn round(&mut self, ctx: &Ctx, images: &[Image], out: &mut Outcome) {
        let host = self.host;
        let inferencer = host.inferencer(Parallelism::Serial);
        let image = &images[self.rounds % images.len()];
        let run = || inferencer.run_prepared(&host.weights, &image.pixels);
        let variant = self.rounds % 3;
        let (result, ms) = match variant {
            0 => ctx
                .tracer
                .span("conv.run_prepared", None, self.rounds as u64, run),
            1 => time_ms(run),
            _ => {
                abm_metrics::global().set_enabled(false);
                let timed = time_ms(run);
                abm_metrics::global().set_enabled(true);
                timed
            }
        };
        self.rounds += 1;
        out.attempted += 1;
        if check_result(ctx, host.net, image, result, out) {
            self.ms[variant].push(ms);
        }
    }

    /// Returns the median in the default configuration (registry on,
    /// span or not), the figure the layer sum is set against.
    fn report(&self, out: &mut Outcome) -> f64 {
        let [traced, untraced, registry_off] = &self.ms;
        let mut registry_on = traced.clone();
        registry_on.extend(untraced.clone());
        let on = registry_on.median();
        out.put("conv.image_ms_p50", on, registry_on.n());
        put_tail(out, "conv.image_ms_p90", &registry_on, 0.90);
        out.put(
            "trace.overhead_share",
            (traced.median() - untraced.median()) / untraced.median(),
            traced.n(),
        );
        out.put(
            "metrics.enabled_overhead_share",
            (untraced.median() - registry_off.median()) / registry_off.median(),
            registry_off.n(),
        );
        on
    }
}

/// Reports a tail percentile, or 0 with the reason where fewer than ten
/// samples lie beyond it.
pub fn put_tail(out: &mut Outcome, name: &str, samples: &Samples, q: f64) {
    match samples.tail(q) {
        Some(v) => out.put(name, v, samples.n()),
        None => out.put_note(
            name,
            0.0,
            samples.n(),
            "n/a: fewer than ten samples beyond it",
        ),
    }
}

/// One replayable call into a layer's public function.
enum Call<'a> {
    Execute(&'a PreparedConv),
    Pool(abm_model::PoolSpec),
    Relu,
    Lrn(&'a abm_model::LrnSpec),
}

struct Step<'a> {
    span: String,
    layer: String,
    call: Call<'a>,
    input: Tensor3<i16>,
    ms: Samples,
}

/// The network as a list of replayable steps — all of them, or the
/// accelerated layers only — each with a seeded 8-bit input of its own
/// shape (softmax and flatten are left to `conv.unattributed_ms`).
fn steps<'a>(host: &'a HostNet, rng: &mut Rng, accelerated_only: bool) -> Vec<Step<'a>> {
    let network = &host.model.network;
    let shapes = network.shapes();
    let mut accelerated = 0;
    let mut steps = Vec::new();
    for (i, layer) in network.layers().iter().enumerate() {
        let before = if i == 0 {
            network.input_shape()
        } else {
            shapes[i - 1]
        };
        let (what, call, shape) = match &layer.kind {
            LayerKind::Conv(_) | LayerKind::FullyConnected(_) => {
                let prepared = host
                    .weights
                    .abm_layer(accelerated)
                    .expect("the ABM engine prepared every accelerated layer");
                accelerated += 1;
                (
                    "conv.execute",
                    Call::Execute(prepared),
                    prepared.input_shape(),
                )
            }
            _ if accelerated_only => continue,
            LayerKind::Pool(spec) => ("conv.host.pool", Call::Pool(*spec), before),
            LayerKind::Relu => ("conv.host.relu", Call::Relu, before),
            LayerKind::Lrn(spec) => ("conv.host.lrn", Call::Lrn(spec), before),
            LayerKind::Softmax => continue,
        };
        steps.push(Step {
            span: format!("{what}.{}", layer.name),
            layer: layer.name.clone(),
            call,
            input: feature_map(shape, rng),
            ms: Samples::default(),
        });
    }
    steps
}

/// The layer-by-layer replay and what each call cost, round by round.
struct Replay<'a> {
    host: &'a HostNet,
    steps: Vec<Step<'a>>,
    rounds: usize,
}

/// The sums the ladder is closed with.
struct LayerSums {
    execute_ms: f64,
    host_ms: f64,
    accumulations: u64,
}

impl<'a> Replay<'a> {
    fn new(host: &'a HostNet, rng: &mut Rng) -> Self {
        Self {
            host,
            steps: steps(host, rng, false),
            rounds: 0,
        }
    }

    /// Replays the network once, step by step.
    fn round(&mut self, ctx: &Ctx) {
        let features = QFormat::new(8, 3);
        let request = self.rounds as u64;
        let round = ctx.tracer.begin("replay.round", None, request);
        for step in &mut self.steps {
            let open = ctx.tracer.begin(&step.span, Some(&round), request);
            match &step.call {
                Call::Execute(p) => drop(black_box(p.execute(&step.input))),
                Call::Pool(spec) => drop(black_box(host::pool(&step.input, *spec))),
                Call::Relu => drop(black_box(host::relu(&step.input))),
                Call::Lrn(spec) => drop(black_box(host::lrn(&step.input, features, spec))),
            }
            step.ms.push(ctx.tracer.end(open));
        }
        ctx.tracer.end(round);
        self.rounds += 1;
    }

    /// Reports each call's median and checks the analytic work against
    /// its pinned value.
    fn report(&self, ctx: &Ctx, out: &mut Outcome) -> LayerSums {
        let rounds = self.rounds;
        let net = self.host.net.name();
        let (mut execute, mut fc, mut pool, mut relu, mut lrn) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut accumulations, mut multiplications) = (0u64, 0u64);
        for step in &self.steps {
            let ms = step.ms.median();
            match &step.call {
                Call::Execute(p) => {
                    execute += ms;
                    if step.layer.starts_with("FC") {
                        fc += ms;
                    }
                    accumulations += p.work().accumulations;
                    multiplications += p.work().multiplications;
                    if self.host.net != Net::Tiny {
                        out.put_note(
                            &format!("conv.execute_ms.{net}.{}", step.layer),
                            ms,
                            rounds,
                            &p.selection().name(),
                        );
                    }
                }
                Call::Pool(_) => pool += ms,
                Call::Relu => relu += ms,
                Call::Lrn(_) => lrn += ms,
            }
        }
        out.put("conv.execute_ms_sum", execute, rounds);
        out.put("conv.fc_ms", fc, rounds);
        out.put("conv.accumulations", accumulations as f64, 1);
        out.put("conv.multiplications", multiplications as f64, 1);
        out.put("conv.pool_ms", pool, rounds);
        out.put("conv.relu_ms", relu, rounds);
        out.put("conv.lrn_ms", lrn, rounds);
        for (what, got) in [
            ("accumulations", accumulations),
            ("multiplications", multiplications),
        ] {
            let want = ctx.golden.get(&format!("work.{net}.{what}"));
            if want != Some(got) {
                out.fail(format!("{net}: {got} analytic {what}, pinned {want:?}"));
            }
        }
        LayerSums {
            execute_ms: execute,
            host_ms: pool + relu + lrn,
            accumulations,
        }
    }
}

/// What `ResiliencePolicy::hardened()` adds, which the server forces on
/// every request: whole hardened images, `verify_checksum` and
/// `abft::verify_output` per accelerated layer, and the raw
/// `flat_checksum` rate on the largest layer. Runs for `budget_s`, at
/// least once. Returns the hardened image median.
pub fn hardened(
    ctx: &Ctx,
    host: &HostNet,
    images: &[Image],
    budget_s: f64,
    out: &mut Outcome,
) -> f64 {
    let inferencer = host
        .inferencer(Parallelism::Serial)
        .resilience(ResiliencePolicy::hardened());
    let steps = steps(host, &mut ctx.rng(4), true);
    let layers: Vec<&PreparedConv> = steps
        .iter()
        .filter_map(|s| match s.call {
            Call::Execute(p) => Some(p),
            _ => None,
        })
        .collect();
    let mut checksum_ms = vec![Samples::default(); steps.len()];
    let mut abft_ms = vec![Samples::default(); steps.len()];
    let mut image_ms = Samples::default();
    let flat_bytes = |p: &PreparedConv| -> usize {
        p.flat()
            .kernels()
            .iter()
            .map(|k| {
                k.values().len()
                    + 4 * (k.group_bounds().len() + k.offsets().len())
                    + 6 * k.taps().len()
            })
            .sum()
    };
    let largest = layers
        .iter()
        .map(|&p| (p, flat_bytes(p)))
        .max_by_key(|&(_, bytes)| bytes);
    let mut checksum_gb_s = 0f64;

    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < budget_s {
        let request = rounds as u64;
        let image = &images[rounds % images.len()];
        let (result, ms) = ctx
            .tracer
            .span("conv.run_prepared.hardened", None, request, || {
                inferencer.run_prepared(&host.weights, &image.pixels)
            });
        out.attempted += 1;
        if check_result(ctx, host.net, image, result, out) {
            image_ms.push(ms);
        }
        for (i, (step, &p)) in steps.iter().zip(&layers).enumerate() {
            let span = format!("conv.verify_checksum.{}", step.layer);
            let (verdict, ms) = ctx
                .tracer
                .span(&span, None, request, || p.verify_checksum());
            checksum_ms[i].push(ms);
            if let Err(e) = verdict {
                out.fail(format!("{}: {e}", step.layer));
            }
            let sums = p.execute(&step.input);
            let span = format!("conv.abft.{}", step.layer);
            let (verdict, ms) = ctx.tracer.span(&span, None, request, || {
                abft::verify_output(p, &step.input, &sums)
            });
            abft_ms[i].push(ms);
            if let Err(e) = verdict {
                out.fail(format!("{}: {e}", step.layer));
            }
        }
        if let Some((p, bytes)) = largest {
            let (digest, ms) = ctx.tracer.span("fault.flat_checksum", None, request, || {
                abm_fault::flat_checksum(p.flat())
            });
            black_box(digest);
            checksum_gb_s = checksum_gb_s.max(bytes as f64 / (ms * 1e6));
        }
        rounds += 1;
    }
    let sum_of_medians =
        |per_layer: &[Samples]| -> f64 { per_layer.iter().map(Samples::median).sum() };
    out.put(
        "conv.verify_checksum_ms",
        sum_of_medians(&checksum_ms),
        rounds,
    );
    out.put("conv.abft_ms", sum_of_medians(&abft_ms), rounds);
    out.put("conv.hardened_image_ms", image_ms.median(), image_ms.n());
    out.put("fault.flat_checksum_gb_s", checksum_gb_s, rounds);
    image_ms.median()
}
