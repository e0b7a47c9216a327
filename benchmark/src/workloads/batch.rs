//! `alexnet_batch`: a batch of eight images through
//! `run_batch_prepared` on `min(nproc, 2)` threads, again and again.
//! The layer-pipelined executor runs the same batch for the identity
//! check (and, traced, for its own diagnostic rate).

use super::{check_result, put_end_to_end, setup, Ctx, HostNet, Quiet, Window};
use crate::calibrate::Calibrator;
use crate::inputs::{Image, Net};
use crate::report::Outcome;
use crate::stats::{threads, Samples};
use abm_conv::{InferenceResult, Parallelism};
use abm_fault::AbmError;
use abm_tensor::Tensor3;

const NET: Net = Net::Alexnet;

/// Stages of the layer-pipelined executor.
const PIPELINE_STAGES: usize = 2;

/// Checks a batch's results image by image; returns how many are good.
fn check_batch(
    ctx: &Ctx,
    images: &[Image],
    results: Result<Vec<InferenceResult>, AbmError>,
    out: &mut Outcome,
) -> u64 {
    match results {
        Err(e) => {
            out.fail(format!("batch of {}: {e}", images.len()));
            0
        }
        Ok(results) => images
            .iter()
            .zip(results)
            .map(|(image, r)| u64::from(check_result(ctx, NET, image, Ok(r), out)))
            .sum(),
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let threads = threads();
    let (host, setup_time) = setup(|| HostNet::build(NET))?;
    let inferencer = host.inferencer(Parallelism::Threads(threads));
    let images = ctx.images(NET);
    let batch: Vec<Tensor3<i16>> = images.iter().map(|i| i.pixels.clone()).collect();
    let mut out = Outcome::default();
    let warm = inferencer.run_batch_prepared(&host.weights, &batch);
    check_batch(ctx, &images, warm, &mut out);

    // Traced, the window is shared with the pipelined executor and a
    // few serial images (the base of `conv.parallel_efficiency`).
    let share = if ctx.traced() { 0.5 } else { 1.0 };
    let mut batch_ms = Samples::default();
    let mut calibrator = Calibrator::new();
    let mut good = 0u64;
    let window = Window::start(share * ctx.seconds);
    while window.open() {
        let (results, ms) = ctx
            .tracer
            .span("conv.run_batch_prepared", None, out.attempted, || {
                inferencer.run_batch_prepared(&host.weights, &batch)
            });
        out.attempted += batch.len() as u64;
        let ok = check_batch(ctx, &images, results, &mut out);
        good += ok;
        if ok == batch.len() as u64 {
            batch_ms.push(ms);
        }
        calibrator.after_on(threads, ms);
    }
    let window_s = window.elapsed_s();
    put_end_to_end(
        &mut out,
        &setup_time,
        &batch_ms,
        Quiet::Calibrated(&calibrator),
        good,
        window_s,
    );

    // Serial == batch == pipelined: all three are held to the same
    // dense-engine digests.
    let mut pipelined_per_s = Samples::default();
    let window = Window::start(if ctx.traced() { 0.4 * ctx.seconds } else { 0.0 });
    loop {
        let (results, ms) = ctx.tracer.span(
            "conv.run_batch_pipelined",
            None,
            pipelined_per_s.n() as u64,
            || inferencer.run_batch_pipelined(&host.weights, &batch, PIPELINE_STAGES),
        );
        if check_batch(ctx, &images, results, &mut out) == batch.len() as u64 {
            pipelined_per_s.push(batch.len() as f64 * 1e3 / ms);
        }
        if !window.open() {
            break;
        }
    }
    if ctx.traced() {
        out.put(
            "conv.pipelined_images_per_s",
            pipelined_per_s.median(),
            pipelined_per_s.n(),
        );
        let serial = host.inferencer(Parallelism::Serial);
        let serial_ms: Samples = images
            .iter()
            .take(3)
            .map(|image| {
                let (r, ms) = ctx
                    .tracer
                    .span("conv.run_prepared", None, image.id as u64, || {
                        serial.run_prepared(&host.weights, &image.pixels)
                    });
                check_result(ctx, NET, image, r, &mut out);
                ms
            })
            .collect();
        let images_per_s = batch.len() as f64 * 1e3 / batch_ms.median();
        let ideal = threads as f64 * 1e3 / serial_ms.median();
        out.put_note(
            "conv.parallel_efficiency",
            images_per_s / ideal,
            batch_ms.n(),
            &format!("{threads} threads"),
        );
    }
    Ok(out)
}
