//! `alexnet_image` / `vgg16_image`: one caller, one image at a time
//! through `Inferencer::run_prepared` on one thread, default policy.

use super::{check_result, put_end_to_end, setup, Ctx, HostNet, Quiet, Window};
use crate::calibrate::Calibrator;
use crate::inputs::Net;
use crate::ladder;
use crate::report::Outcome;
use crate::stats::{time_ms, Samples};
use abm_conv::Parallelism;

/// Images run before the window opens, so code and weights are paged
/// in (VGG16 gets one: each costs a second).
fn warm_up_images(net: Net) -> usize {
    match net {
        Net::Vgg16 => 1,
        _ => 3,
    }
}

pub fn run(ctx: &Ctx, net: Net) -> Result<Outcome, String> {
    if ctx.traced() {
        return ladder::image(ctx, net);
    }
    let (host, setup_time) = setup(|| HostNet::build(net))?;
    let inferencer = host.inferencer(Parallelism::Serial);
    let images = ctx.images(net);
    let mut out = Outcome::default();
    for image in images.iter().take(warm_up_images(net)) {
        let warm = inferencer.run_prepared(&host.weights, &image.pixels);
        check_result(ctx, net, image, warm, &mut out);
    }

    let mut latency_ms = Samples::default();
    let mut calibrator = Calibrator::new();
    let mut good = 0u64;
    let window = Window::start(ctx.seconds);
    while window.open() {
        let image = &images[out.attempted as usize % images.len()];
        let (result, ms) = time_ms(|| inferencer.run_prepared(&host.weights, &image.pixels));
        out.attempted += 1;
        if check_result(ctx, net, image, result, &mut out) {
            good += 1;
            latency_ms.push(ms);
        }
        calibrator.after(ms);
    }
    let window_s = window.elapsed_s();
    put_end_to_end(
        &mut out,
        &setup_time,
        &latency_ms,
        Quiet::Calibrated(&calibrator),
        good,
        window_s,
    );
    Ok(out)
}
