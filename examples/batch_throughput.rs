//! Batched functional inference through the work-stealing host pool:
//! runs AlexNet over a 64-image batch with one-time weight preparation,
//! once serially and once with `Parallelism::Auto`, checks the results
//! are bit-identical, and reports the host-side speedup next to the
//! simulated accelerator throughput (where the batch also amortizes FC
//! weight streaming, Section 5.1's minimum-batch assumption).
//!
//! ```text
//! cargo run --release --example batch_throughput
//! ```

#![forbid(unsafe_code)]

use abm_conv::{Engine, Inferencer, Parallelism};
use abm_model::{synthesize_model, zoo, PruneProfile};
use abm_sim::{simulate_network, AcceleratorConfig};
use abm_tensor::Tensor3;
use std::time::Instant;

const BATCH: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = zoo::alexnet();
    let profile = PruneProfile::alexnet_deep_compression();
    let model = synthesize_model(&net, &profile, 13);

    let batch: Vec<Tensor3<i16>> = (0..BATCH)
        .map(|i| {
            Tensor3::from_fn(net.input_shape(), |c, r, col| {
                ((((c + i) * 769 + r * 37 + col * 11) % 255) as i16) - 127
            })
        })
        .collect();

    println!(
        "functional batch of {BATCH} images through {} (ABM engine):",
        net.name()
    );

    let serial = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Serial);
    let t0 = Instant::now();
    let serial_results = serial.run_batch(&batch)?;
    let serial_time = t0.elapsed();
    let serial_ips = BATCH as f64 / serial_time.as_secs_f64();
    println!("  serial      : {serial_time:>8.2?}  ({serial_ips:.2} images/s)");

    let parallel = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Auto);
    let t0 = Instant::now();
    let parallel_results = parallel.run_batch(&batch)?;
    let parallel_time = t0.elapsed();
    let parallel_ips = BATCH as f64 / parallel_time.as_secs_f64();
    println!(
        "  {:<12}: {parallel_time:>8.2?}  ({parallel_ips:.2} images/s)",
        format!("threads {}", Parallelism::Auto)
    );

    // The determinism invariant: the pool must not change a single bit.
    assert_eq!(serial_results, parallel_results);
    println!("  parallel results are bit-identical to serial (checked)");

    let speedup = parallel_ips / serial_ips;
    println!(
        "  speedup: {speedup:.2}x on {} workers",
        Parallelism::Auto.worker_count()
    );
    if Parallelism::Auto.worker_count() >= 2 {
        assert!(
            speedup >= 2.0,
            "expected >=2x batch speedup on a multicore host, got {speedup:.2}x"
        );
    }

    let classes: Vec<_> = parallel_results
        .iter()
        .take(8)
        .map(|r| r.argmax().unwrap_or(0))
        .collect();
    println!("  predicted classes (first 8): {classes:?}");

    // The simulated accelerator, whose own cycle simulation also rides
    // the pool (fanning out across AlexNet's layers / kernel lanes).
    let sim = simulate_network(&model, &AcceleratorConfig::paper_alexnet());
    println!("\nsimulated accelerator (batch {BATCH} amortizing FC weights):");
    println!(
        "  {:.3} ms/image, {:.0} images/s, {:.1} GOP/s",
        sim.total_seconds() * 1e3,
        sim.images_per_second(),
        sim.gops()
    );
    Ok(())
}
