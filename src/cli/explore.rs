//! `abm-spconv explore`: the full design-space exploration flow.

use super::flags::{device, flag, DEVICE};
use super::{fields, lookup, Command, Subcommand};
use abm_dse::flow::run_flow;
use abm_dse::FpgaDevice;
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "explore",
    flags: &[flag!("--device" DEVICE, Explore.device = device)],
    default: |net| Command::Explore {
        net,
        device: FpgaDevice::stratix_v_gxa7(),
    },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Explore { net, device });
    let (network, profile) = lookup(net);
    let result = run_flow(&network, &profile, device, 3);
    println!(
        "{} on {}: min ratio {:.1} => N={}, N_knl={}",
        network.name(),
        device.name,
        result.min_acc_mult_ratio,
        result.n,
        result.n_knl
    );
    for c in &result.candidates {
        println!(
            "  S_ec={:>2} N_cu={} -> {:>7.1} GOP/s (ALM {}, DSP {}, M20K {})",
            c.config.s_ec,
            c.config.n_cu,
            c.gops,
            c.resources.alms,
            c.resources.dsps,
            c.resources.m20ks
        );
    }
    println!(
        "memory: {}",
        if result.compute_bound {
            "compute-bound"
        } else {
            "MEMORY-BOUND"
        }
    );
    Ok(())
}
