//! Batched functional inference through the claim-counter host pool:
//! prepares AlexNet once, runs a 64-image batch with
//! `run_batch_prepared` serially and with `Parallelism::Auto`, checks
//! the results are bit-identical to each other and to the first images
//! run singly, and reports images/s next to the share of the batch its
//! fully-connected tail took. A batch runs that tail once, its images
//! the vector lanes of each layer's sweep — 64 of them are one AVX-512
//! register block — which is the host's form of the accelerator filling
//! its `S_ec` lanes with images on fully-connected layers (Section 5.1's
//! minimum-batch assumption, priced by the simulation at the end).
//!
//! ```text
//! cargo run --release --example batch_throughput
//! ```

#![forbid(unsafe_code)]

use abm_conv::{Engine, InferenceResult, Inferencer, Parallelism};
use abm_model::{synthesize_model, zoo, LayerKind, PruneProfile};
use abm_sim::{simulate_network, AcceleratorConfig};
use abm_telemetry::{Event, TelemetrySink};
use abm_tensor::Tensor3;
use std::time::{Duration, Instant};

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

    // Prepare once: neither timing below holds the encoder.
    let base = Inferencer::new(&model).engine(Engine::Abm);
    let prepared = base.prepare()?;
    let fc_layers: Vec<&str> = net
        .layers()
        .iter()
        .filter(|l| matches!(l.kind, LayerKind::FullyConnected(_)))
        .map(|l| l.name.as_str())
        .collect();

    println!(
        "functional batch of {BATCH} images through {} (ABM engine, prepared once):",
        net.name()
    );
    // One timed batch: its results, its wall time, and the wall time of
    // its fully-connected layers' spans (one a layer and batch).
    let timed = |parallelism: Parallelism| -> Result<_, Box<dyn std::error::Error>> {
        let sink = TelemetrySink::new();
        let inferencer = base
            .clone()
            .parallelism(parallelism)
            .telemetry(sink.clone());
        // (A first batch sizes the arenas.)
        inferencer.run_batch_prepared(&prepared, &batch[..2])?;
        drop(sink.drain());
        let t0 = Instant::now();
        let results = inferencer.run_batch_prepared(&prepared, &batch)?;
        let wall = t0.elapsed();
        let tail_ns: u64 = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::HostSpan { name, dur_ns, .. } if fc_layers.contains(&name.as_str()) => {
                    Some(*dur_ns)
                }
                _ => None,
            })
            .sum();
        Ok((results, wall, Duration::from_nanos(tail_ns)))
    };
    let report = |label: &str, wall: Duration, tail: Duration| {
        println!(
            "  {label:<12}: {wall:>8.2?}  ({:.2} images/s; FC tail {tail:.2?}, {:.1}% of the batch)",
            BATCH as f64 / wall.as_secs_f64(),
            100.0 * tail.as_secs_f64() / wall.as_secs_f64()
        );
    };

    let (serial_results, serial_time, serial_tail): (Vec<InferenceResult>, _, _) =
        timed(Parallelism::Serial)?;
    report("serial", serial_time, serial_tail);
    let (pooled_results, pooled_time, pooled_tail) = timed(Parallelism::Auto)?;
    report(
        &format!("threads {}", Parallelism::Auto),
        pooled_time,
        pooled_tail,
    );

    // The determinism invariants: neither the pool nor the lanes may
    // change a single bit.
    assert_eq!(serial_results, pooled_results);
    let single = base.clone().parallelism(Parallelism::Serial);
    for (image, result) in batch.iter().zip(&serial_results).take(4) {
        assert_eq!(&single.run_prepared(&prepared, image)?, result);
    }
    println!("  pooled == serial == images run singly, bit for bit (checked)");

    let workers = Parallelism::Auto.worker_count();
    println!(
        "  speedup: {:.2}x on {workers} workers",
        serial_time.as_secs_f64() / pooled_time.as_secs_f64()
    );
    // A shared host can take a core away mid-run, so what is asserted is
    // only that a pool is not a loss (a tenth is run-to-run noise).
    assert!(
        pooled_time.as_secs_f64() <= 1.1 * serial_time.as_secs_f64(),
        "the pooled batch ({pooled_time:.2?}) is slower than the serial one ({serial_time:.2?})"
    );

    let classes: Vec<_> = pooled_results
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
