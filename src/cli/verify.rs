//! `abm-spconv verify`: static verification of every lowered layer.

use super::flags::{flag, uint};
use super::{build, fields, Command, Subcommand};
use abm_sim::task::Workload;
use abm_sim::{verify_workload, AcceleratorConfig};
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "verify",
    flags: &[flag!("--seed" "S", Verify.seed = uint)],
    default: |net| Command::Verify { net, seed: 2019 },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Verify { net, seed });
    let (network, _, model) = build(net, *seed);
    let cfg = AcceleratorConfig::paper_for(net);
    println!(
        "{} (seed {seed}) under N_cu={} N_knl={} N={} S_ec={}:",
        network.name(),
        cfg.n_cu,
        cfg.n_knl,
        cfg.n,
        cfg.s_ec
    );
    let mut dirty = 0usize;
    for layer in &model.layers {
        let w = Workload::from_layer(layer)?;
        let report = verify_workload(&w, &cfg)?;
        println!(
            "  {:<10} {:>10} facts  {:>2} defects",
            w.name,
            report.facts,
            report.defects.len()
        );
        if !report.is_clean() {
            print!("{report}");
            dirty += report.defects.len();
        }
    }
    if dirty > 0 {
        return Err(format!("static verification found {dirty} defect(s)").into());
    }
    println!("all layers defect-free");
    Ok(())
}
