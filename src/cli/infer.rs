//! `abm-spconv infer`: functional inference on synthetic images.

use super::flags::{engine, flag, positive, uint, ISA, PARALLEL};
use super::{build, fields, fold_dispatch, render_dispatch, synthetic_inputs, Command, Subcommand};
use abm_conv::{Engine, Inferencer, Parallelism};
use abm_kernel::Isa;
use abm_sim::{AcceleratorConfig, SimContext};
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "infer",
    flags: &[
        flag!("--engine" "dense|gemm|sparse|abm|freq", Infer.engine = engine),
        flag!("--seed" "S", Infer.seed = uint),
        flag!("--batch" "N", Infer.batch = positive),
        flag!("--parallel" PARALLEL, Infer.parallelism = Parallelism::parse),
        flag!("--isa" ISA, Infer.isa = Isa::parse),
    ],
    default: |net| Command::Infer {
        net,
        engine: Engine::Abm,
        seed: 2019,
        batch: 1,
        parallelism: Parallelism::Auto,
        isa: None,
    },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Infer { net, engine, seed, batch, parallelism, isa });
    let (network, _, model) = build(net, *seed);
    let inputs = synthetic_inputs(&network, *batch);
    // Prepare once, then run the batch against the shared
    // prepared weights — the prepared forms also carry the
    // per-layer kernel [`Selection`]s reported below.
    let inferencer = Inferencer::new(&model)
        .engine(*engine)
        .parallelism(*parallelism)
        .isa(*isa);
    let prepared = inferencer.prepare()?;
    let results = inferencer.run_batch_prepared(&prepared, &inputs)?;
    let result = &results[0];
    println!(
        "{} via {:?} (batch {}, host threads: {}): predicted class {:?}",
        network.name(),
        engine,
        batch,
        parallelism,
        result.argmax()
    );
    if *batch > 1 {
        let classes: Vec<_> = results.iter().map(|r| r.argmax().unwrap_or(0)).collect();
        println!("  batch classes: {classes:?}");
    }
    if *engine == Engine::Abm {
        let resolved = isa
            .or_else(|| abm_kernel::forced_isa().ok().flatten())
            .unwrap_or_else(Isa::detect);
        println!(
            "  host kernel ISA: {resolved} ({} pixel lanes)",
            resolved.lanes()
        );
        // Per-layer resolved kernel variants (the accumulator
        // width is proven per layer, so it can differ even
        // under one pinned ISA).
        let groups = fold_dispatch((0..model.layers.len()).filter_map(|layer| {
            let sel = prepared.abm_layer(layer)?.selection();
            Some((sel.name(), sel.lanes() as u32))
        }));
        if !groups.is_empty() {
            println!("  layer kernels: {}", render_dispatch(&groups));
        }
        println!(
            "  {} accumulations, {} multiplications ({:.1}x fewer mults than MACs)",
            result.work.accumulations,
            result.work.multiplications,
            result.work.accumulations as f64 / result.work.multiplications.max(1) as f64
        );
        // AbmWork totals across the batch, and what they come to
        // in ops/cycle on the simulated accelerator (paper
        // config for this network).
        let total_ops: u64 = results.iter().map(|r| r.work.total()).sum();
        let cfg = AcceleratorConfig::paper_for(net);
        let cycles = SimContext {
            parallelism: *parallelism,
            ..SimContext::default()
        }
        .simulate_network(&model, &cfg)?
        .summary()
        .compute_cycles;
        println!(
            "  batch AbmWork: {} total ops | {:.2} ops/cycle over {} simulated cycles/image",
            total_ops,
            total_ops as f64 / (*batch as f64 * cycles.max(1) as f64),
            cycles
        );
    }
    Ok(())
}
