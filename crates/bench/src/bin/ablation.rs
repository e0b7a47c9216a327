//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! * `N` — accumulators per multiplier (the Acc/Mult-ratio fit),
//! * partial-sum FIFO depth,
//! * semi-synchronous vs lock-step scheduling (design challenge (i)),
//! * load-sorted kernel batching.
//!
//! ```text
//! cargo run --release --bin ablation
//! ```

#![forbid(unsafe_code)]

use abm_bench::{rule, vgg16_model};
use abm_dse::ResourceModel;
use abm_sim::{simulate_network, AcceleratorConfig, SchedulingPolicy, SimContext};

fn main() {
    let model = vgg16_model();
    let resources = ResourceModel::paper();

    println!("Ablation 1: accumulators per multiplier (N), VGG16, S_ec=20");
    println!("(small N wastes DSPs; N above the min Acc/Mult ratio (~3.4) stalls multipliers)");
    rule(72);
    println!(
        "{:>4} {:>10} {:>8} {:>12} {:>14}",
        "N", "GOP/s", "DSPs", "GOP/s/DSP", "fits GXA7?"
    );
    rule(72);
    for n in [1usize, 2, 4, 5, 10, 20] {
        let cfg = AcceleratorConfig {
            n,
            ..AcceleratorConfig::paper()
        };
        let sim = simulate_network(&model, &cfg);
        let est = resources.estimate(&cfg);
        println!(
            "{:>4} {:>10.1} {:>8} {:>12.2} {:>14}",
            n,
            sim.gops(),
            est.dsps,
            sim.gops() / est.dsps as f64,
            if est.dsps <= 256 { "yes" } else { "NO (DSP)" }
        );
    }
    println!();

    println!("Ablation 2: partial-sum FIFO depth");
    rule(40);
    println!("{:>6} {:>10}", "depth", "GOP/s");
    rule(40);
    for fifo_depth in [1usize, 2, 4, 8, 16] {
        let cfg = AcceleratorConfig {
            fifo_depth,
            ..AcceleratorConfig::paper()
        };
        let sim = simulate_network(&model, &cfg);
        println!("{:>6} {:>10.1}", fifo_depth, sim.gops());
    }
    println!();

    println!("Ablation 3: scheduling policy (design challenge (i))");
    rule(56);
    for (name, policy) in [
        ("semi-synchronous", SchedulingPolicy::SemiSynchronous),
        ("lock-step", SchedulingPolicy::LockStep),
    ] {
        let sim = SimContext {
            policy,
            ..SimContext::default()
        }
        .simulate_network(&model, &AcceleratorConfig::paper())
        .expect("VGG16 layers encode");
        println!(
            "{:<18} {:>8.1} GOP/s   CU busy {:>5.1}%   lane efficiency {:>5.1}%",
            name,
            sim.gops(),
            sim.cu_utilization() * 100.0,
            sim.lane_efficiency() * 100.0
        );
    }
    println!();

    println!("Ablation 4: load-sorted kernel batching");
    rule(56);
    for (name, sort) in [("sorted", true), ("unsorted", false)] {
        let cfg = AcceleratorConfig {
            sort_kernels_by_load: sort,
            ..AcceleratorConfig::paper()
        };
        let sim = simulate_network(&model, &cfg);
        println!("{:<18} {:>8.1} GOP/s", name, sim.gops());
    }
}
