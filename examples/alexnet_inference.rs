//! Functional end-to-end AlexNet inference: runs a synthetic image
//! through the pruned 8-bit model with the ABM-SpConv engine and checks
//! it against the dense reference — convolutions, grouped convolutions,
//! LRN, pooling and FC layers included.
//!
//! ```text
//! cargo run --release --example alexnet_inference
//! ```

#![forbid(unsafe_code)]

use abm_conv::{Engine, Inferencer};
use abm_model::{synthesize_model, zoo, PruneProfile};
use abm_tensor::{Shape3, Tensor3};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = zoo::alexnet();
    let profile = PruneProfile::alexnet_deep_compression();
    let model = synthesize_model(&net, &profile, 7);

    // A deterministic synthetic "image" in 8-bit fixed point.
    let image = Tensor3::from_fn(Shape3::new(3, 227, 227), |c, r, col| {
        ((((c + 1) * (r + 3) * (col + 7)) % 255) as i16) - 127
    });

    println!(
        "running AlexNet ({} layers, {} weights, {} non-zero)",
        net.len(),
        net.total_weights(),
        model.total_nnz()
    );

    let t0 = Instant::now();
    let abm = Inferencer::new(&model).engine(Engine::Abm).run(&image)?;
    let t_abm = t0.elapsed();
    let t0 = Instant::now();
    let dense = Inferencer::new(&model).engine(Engine::Dense).run(&image)?;
    let t_dense = t0.elapsed();

    assert_eq!(abm.logits, dense.logits, "engines must agree bit-for-bit");
    println!("ABM-SpConv output matches the dense reference bit-for-bit");
    println!("  host time: ABM {:.2?} vs dense {:.2?}", t_abm, t_dense);
    println!(
        "  two-stage work: {} accumulations, {} multiplications ({:.1}x fewer mults than MACs)",
        abm.work.accumulations,
        abm.work.multiplications,
        abm.work.accumulations as f64 / abm.work.multiplications as f64
    );

    let top = abm.argmax().expect("logits");
    println!(
        "\npredicted class: {top}  (softmax p = {:.4})",
        abm.probabilities[top]
    );
    let mut idx: Vec<usize> = (0..abm.probabilities.len()).collect();
    idx.sort_by(|&a, &b| {
        abm.probabilities[b]
            .partial_cmp(&abm.probabilities[a])
            .unwrap()
    });
    println!("top-5:");
    for &i in idx.iter().take(5) {
        println!(
            "  class {i:>4}: p = {:.4}  logit = {:+.3}",
            abm.probabilities[i], abm.logits[i]
        );
    }

    println!("\nper-layer formats (name, output shape, feature format):");
    let layers = net.layers().iter().zip(net.shapes());
    for ((layer, shape), format) in layers.zip(&abm.formats) {
        println!("  {:<10} {:>12} {format}", layer.name, shape.to_string());
    }
    Ok(())
}
