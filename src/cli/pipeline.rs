//! `abm-spconv pipeline`: the pipelined-vs-time-multiplexed design axis.

use super::flags::{device, flag, positive, uint, DEVICE};
use super::{build, fields, Command, Subcommand};
use abm_dse::{explore_pipeline, FpgaDevice, ResourceModel};
use abm_sim::task::Workload;
use abm_sim::{plan_pipeline, verify_pipelined_schedule, AcceleratorConfig, PipelineOptions};
use std::error::Error;

pub(super) const SUB: Subcommand = Subcommand {
    name: "pipeline",
    flags: &[
        flag!("--seed" "S", Pipeline.seed = uint),
        flag!("--batch" "N", Pipeline.batch = positive),
        flag!("--device" DEVICE, Pipeline.device = device),
    ],
    default: |net| Command::Pipeline {
        net,
        seed: 2019,
        batch: 8,
        device: FpgaDevice::stratix_v_gxa7(),
    },
};

pub(super) fn run(command: &Command) -> Result<(), Box<dyn Error>> {
    fields!(command => Pipeline { net, seed, batch, device });
    let (network, _, model) = build(net, *seed);
    let cfg = AcceleratorConfig::paper_for(net);
    let workloads = model
        .layers
        .iter()
        .map(Workload::from_layer)
        .collect::<Result<Vec<_>, _>>()?;
    let exploration = explore_pipeline(&workloads, &cfg, device, &ResourceModel::paper(), *batch)?;
    println!(
        "{} pipelined vs time-multiplexed (seed {seed}, batch {batch}, {}):",
        network.name(),
        device.name
    );
    println!(
        "  time-multiplexed baseline: {:>8.2} img/s",
        exploration.sequential_images_per_second
    );
    for d in &exploration.designs {
        println!(
            "  {:<18} {} stages, {:>3} lanes @ {:>5.1} MHz, ALM {:>4.1}%: {:>8.2} img/s ({:.3}x) [{}{}]",
            d.label,
            d.n_stages,
            d.lane_budget,
            d.freq_mhz,
            d.alm_utilization * 100.0,
            d.images_per_second,
            d.speedup,
            if d.feasible { "fits" } else { "DOES NOT FIT" },
            if d.consistency.is_clean() {
                ", gate clean"
            } else {
                ", GATE FAILED"
            },
        );
    }
    if let Some(best) = exploration.best() {
        let opts = PipelineOptions {
            n_stages: best.n_stages,
            lane_budget: best.lane_budget,
            freq_mhz: best.freq_mhz,
        };
        let schedule = plan_pipeline(&workloads, &cfg, &opts, *batch)?;
        println!("  selected '{}':", best.label);
        for (i, s) in schedule.stages.iter().enumerate() {
            println!(
                "    stage {i}: layers {:>2}..{:<2} on CU {}..{} ({:>2} lanes), FIFO {} rows",
                s.layer_start,
                s.layer_end,
                s.cu_start,
                s.cu_start + s.cu_count,
                s.lanes(),
                s.fifo_rows
            );
        }
        let report = verify_pipelined_schedule(&workloads, &cfg, &schedule, *batch);
        if report.is_clean() {
            println!("  schedule verifies clean ({} facts)", report.facts);
        } else {
            print!("{report}");
            return Err("pipelined schedule failed verification".into());
        }
        if exploration.recommends_pipelining() {
            println!(
                "  recommendation: pipeline ({:.3}x over time-multiplexed)",
                best.speedup
            );
        } else {
            println!("  recommendation: keep the time-multiplexed design");
        }
    } else {
        println!("  no pipelined candidate is feasible and consistency-clean");
    }
    Ok(())
}
