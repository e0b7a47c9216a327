//! `abm-spconv analyze`: static op-count and encoded-size analysis.

use super::{build, fields, Command, Subcommand};
use abm_conv::ops::NetworkOps;
use abm_sparse::SizeModel;
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "analyze",
    flags: &[],
    default: |net| Command::Analyze { net },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Analyze { net });
    let (network, _, model) = build(net, 2019);
    let ops = NetworkOps::analyze(&model);
    println!(
        "{}: {} accelerated layers, {:.2} GOP dense, {:.1}M weights",
        network.name(),
        network.conv_fc_layers().count(),
        network.total_dense_ops() as f64 / 1e9,
        network.total_weights() as f64 / 1e6
    );
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}",
        "layer", "SD (MOP)", "Acc (MOP)", "Mult (MOP)", "ratio"
    );
    for l in ops.layers() {
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>10.2} {:>10.1}",
            l.name,
            l.sdconv as f64 / 1e6,
            l.abm_acc as f64 / 1e6,
            l.abm_mult as f64 / 1e6,
            l.acc_mult_ratio()
        );
    }
    let size = SizeModel::paper();
    let enc = size.model_bytes(&model)?;
    println!(
        "op saving vs dense: {:.1}%   encoded weights: {:.1} MB (original {:.1} MB)",
        ops.abm_saving() * 100.0,
        enc.total() as f64 / 1e6,
        size.original_bytes(network.total_weights()) as f64 / 1e6
    );
    Ok(())
}
