//! The paper's headline claims, asserted end to end against this
//! reproduction. `REPRO_paper.json` records the exact numbers (and
//! EXPERIMENTS.md cites them); these tests pin the *shape*: who wins,
//! by roughly what factor, and which derived statistics match.

use abm_spconv_repro::conv::ops::NetworkOps;
use abm_spconv_repro::dse::explore::{best_feasible, explore_nknl, explore_sec_ncu, optimal_nknl};
use abm_spconv_repro::dse::flow::{run_flow, select_n};
use abm_spconv_repro::dse::{
    check_consistency, compute_roofline, estimate_network, FpgaDevice, ResourceModel, Tolerances,
};
use abm_spconv_repro::model::{synthesize_model, zoo, PruneProfile};
use abm_spconv_repro::sim::{simulate_network, AcceleratorConfig, SimContext};
use abm_spconv_repro::sparse::SizeModel;

fn vgg16() -> abm_spconv_repro::model::SparseModel {
    synthesize_model(&zoo::vgg16(), &PruneProfile::vgg16_deep_compression(), 2019)
}

fn alexnet() -> abm_spconv_repro::model::SparseModel {
    synthesize_model(
        &zoo::alexnet(),
        &PruneProfile::alexnet_deep_compression(),
        2019,
    )
}

/// Published baseline: [3] (Zeng et al.) on the same GXA7 device.
const FDCONV_VGG16_GOPS: f64 = 662.3;
const FDCONV_ALEXNET_GOPS: f64 = 663.5;

#[test]
fn table2_vgg16_throughput_beats_fdconv_baseline() {
    let sim = simulate_network(&vgg16(), &AcceleratorConfig::paper());
    let gops = sim.gops();
    // Paper: 1029 GOP/s (1.55x over [3]). Our simulation must preserve
    // the win with a clear margin and stay in the same regime.
    assert!(
        (850.0..=1150.0).contains(&gops),
        "VGG16 simulated {gops} GOP/s"
    );
    let speedup = gops / FDCONV_VGG16_GOPS;
    assert!(speedup > 1.25, "speedup over [3] only {speedup:.2}x");
}

#[test]
fn table2_alexnet_throughput_beats_fdconv_baseline() {
    let sim = simulate_network(&alexnet(), &AcceleratorConfig::paper_alexnet());
    let gops = sim.gops();
    // Paper: 699 GOP/s (+5.4% over [3]).
    assert!(
        (620.0..=800.0).contains(&gops),
        "AlexNet simulated {gops} GOP/s"
    );
    assert!(gops > FDCONV_ALEXNET_GOPS, "must edge out [3]'s 663.5");
}

#[test]
fn table2_performance_density_wins() {
    // Paper: 4.29 GOP/s/DSP vs 2.58 for [3] and <1.3 for all MAC-array
    // designs.
    let sim = simulate_network(&vgg16(), &AcceleratorConfig::paper());
    let est = ResourceModel::paper().estimate(&AcceleratorConfig::paper());
    let density = sim.gops() / est.dsps as f64;
    assert!(density > 2.59, "density {density:.2} must beat [3]");
    assert!(
        density > 1.30 * 2.0,
        "and clear MAC designs by a wide margin"
    );
}

#[test]
fn section62_execution_efficiency() {
    // Paper: 87% for VGG16, 81% for AlexNet.
    let vgg = simulate_network(&vgg16(), &AcceleratorConfig::paper());
    assert!(
        (vgg.lane_efficiency() - 0.87).abs() < 0.05,
        "VGG16 efficiency {}",
        vgg.lane_efficiency()
    );
    let alex = simulate_network(&alexnet(), &AcceleratorConfig::paper_alexnet());
    assert!(
        (alex.lane_efficiency() - 0.81).abs() < 0.09,
        "AlexNet efficiency {}",
        alex.lane_efficiency()
    );
}

#[test]
fn table1_op_totals() {
    let ops = NetworkOps::analyze(&vgg16());
    let t = ops.totals();
    assert!((t.sdconv as f64 / 1e6 - 30941.0).abs() / 30941.0 < 0.01);
    assert!((t.spconv as f64 / 1e6 - 10082.0).abs() / 10082.0 < 0.03);
    assert!((t.abm_acc as f64 / 1e6 - 5040.0).abs() / 5040.0 < 0.03);
    assert!(
        (ops.abm_saving() - 0.836).abs() < 0.015,
        "saving {}",
        ops.abm_saving()
    );
    // Section 5.2: the minimum layer Acc/Mult ratio (paper 3.4, CONV1_2)
    // fixes N = 4 accumulators per multiplier.
    let ratio = ops.min_acc_mult_ratio();
    assert_eq!((ratio * 10.0).round(), 35.0, "ratio {ratio}");
    assert_eq!(select_n(ratio), 4);
}

#[test]
fn table3_encoded_weight_sizes() {
    let size = SizeModel::paper();
    let vgg_mb = size.model_bytes(&vgg16()).unwrap().total() as f64 / 1e6;
    let alex_mb = size.model_bytes(&alexnet()).unwrap().total() as f64 / 1e6;
    // Paper: 26.4 MB (VGG16), 11.9 MB (AlexNet). Same regime: the
    // encoding must compress 5-6x from the 138/61 MB originals.
    assert!((18.0..=30.0).contains(&vgg_mb), "VGG16 encoded {vgg_mb} MB");
    assert!(
        (9.0..=17.0).contains(&alex_mb),
        "AlexNet encoded {alex_mb} MB"
    );
    // And beat CSR, by 31% (rounded) on both nets.
    for (model, mb) in [(alexnet(), alex_mb), (vgg16(), vgg_mb)] {
        let smaller = 1.0 - mb / (size.csr_bytes(&model) as f64 / 1e6);
        let name = model.network.name();
        assert_eq!((smaller * 100.0).round(), 31.0, "{name}: {smaller}");
    }
}

#[test]
fn figure1_rooflines() {
    let dev = FpgaDevice::stratix_v_gxa7();
    let r = compute_roofline(
        &dev,
        &zoo::vgg16(),
        &PruneProfile::vgg16_deep_compression(),
        4,
        0.75,
    );
    assert!((r.sdconv_gops - 204.8).abs() < 1e-9);
    assert!((r.fdconv_gops - 675.8).abs() < 5.0);
    assert!(
        (950.0..=1300.0).contains(&r.abm_gops),
        "ABM roof {}",
        r.abm_gops
    );
    // Ordering: ABM > FDConv > SDConv.
    assert!(r.abm_gops > r.fdconv_gops && r.fdconv_gops > r.sdconv_gops);
}

#[test]
fn figure6_optimum_matches_paper_choice() {
    let dev = FpgaDevice::stratix_v_gxa7();
    let net = zoo::vgg16();
    let profile = PruneProfile::vgg16_deep_compression();
    let base = AcceleratorConfig {
        freq_mhz: 200.0,
        ..AcceleratorConfig::paper()
    };
    let sweep = explore_nknl(&net, &profile, &dev, &base, 2..=20);
    let best = optimal_nknl(&sweep).unwrap();
    assert!(
        (12..=15).contains(&best.config.n_knl),
        "N_knl {}",
        best.config.n_knl
    );
}

#[test]
fn figure7_paper_point_ranks_in_the_top_two() {
    let dev = FpgaDevice::stratix_v_gxa7();
    let base = AcceleratorConfig {
        freq_mhz: 200.0,
        ..AcceleratorConfig::paper()
    };
    let s_ec: Vec<usize> = (4..=40).step_by(4).collect();
    let n_cu: Vec<usize> = (1..=6).collect();
    let grid = explore_sec_ncu(
        &zoo::vgg16(),
        &PruneProfile::vgg16_deep_compression(),
        &dev,
        &base,
        &s_ec,
        &n_cu,
        0.75,
    );
    let top = best_feasible(&grid, 2);
    assert!(
        top.iter()
            .any(|p| p.config.s_ec == 20 && p.config.n_cu == 3),
        "top two: {:?}",
        top.iter()
            .map(|p| (p.config.s_ec, p.config.n_cu))
            .collect::<Vec<_>>()
    );
}

#[test]
fn section52_compute_bound_on_de5() {
    // "We have verified that our design is compute-bound for most FPGA
    // devices" — on the DE5's 12.8 GB/s no layer is memory-bound.
    let sim = simulate_network(&vgg16(), &AcceleratorConfig::paper());
    for l in sim.layers() {
        assert!(!l.memory_bound, "{} unexpectedly memory-bound", l.name);
    }
}

#[test]
fn throughput_rises_with_pruning() {
    // The accumulator-bound design space's defining property: fewer
    // surviving weights => proportionally higher dense-equivalent
    // throughput (the record's `sweep` section maps the full plane).
    use abm_spconv_repro::model::LayerProfile;
    let net = zoo::alexnet();
    let cfg = AcceleratorConfig::paper_alexnet();
    let mut last = 0.0;
    for prune in [0.0, 0.4, 0.8] {
        let profile = PruneProfile::uniform(LayerProfile::new(prune, 16));
        let model = synthesize_model(&net, &profile, 77);
        let gops = simulate_network(&model, &cfg).gops();
        assert!(gops > last, "prune {prune}: {gops} <= {last}");
        last = gops;
    }
}

#[test]
fn value_concentration_only_matters_below_ratio_n() {
    // With ample Acc/Mult ratio, throughput is insensitive to the
    // codebook size; once nnz/Q < N the multipliers stall.
    use abm_spconv_repro::model::LayerProfile;
    let net = zoo::alexnet();
    let cfg = AcceleratorConfig::paper_alexnet();
    let gops_at = |levels: usize| {
        let profile = PruneProfile::uniform(LayerProfile::new(0.7, levels));
        let model = synthesize_model(&net, &profile, 77);
        simulate_network(&model, &cfg).gops()
    };
    let concentrated = gops_at(8);
    let moderate = gops_at(32);
    let diffuse = gops_at(192);
    assert!((concentrated - moderate).abs() / concentrated < 0.15);
    assert!(diffuse < 0.8 * concentrated, "{diffuse} vs {concentrated}");
}

#[test]
fn exploration_flow_end_to_end() {
    let dev = FpgaDevice::stratix_v_gxa7();
    let result = run_flow(
        &zoo::vgg16(),
        &PruneProfile::vgg16_deep_compression(),
        &dev,
        5,
    );
    assert_eq!(result.n, 4);
    assert!((12..=16).contains(&result.n_knl));
    assert!(result.compute_bound);
    // Simulate every candidate (stage 4): the winner must beat [3]'s
    // 662 GOP/s, and the analytic model must track the simulator within
    // 5% on each.
    let model = vgg16();
    let simulated: Vec<f64> = result
        .candidates
        .iter()
        .map(|c| simulate_network(&model, &c.config).gops())
        .collect();
    assert!(simulated[0] > FDCONV_VGG16_GOPS, "winner {}", simulated[0]);
    for (c, sim) in result.candidates.iter().zip(simulated) {
        let err = sim / c.gops - 1.0;
        assert!(
            err.abs() < 0.05,
            "S_ec={} N_cu={}: simulated {sim} vs model {} ({:+.1}%)",
            c.config.s_ec,
            c.config.n_cu,
            c.gops,
            err * 100.0
        );
    }
}

/// The cycle simulator and the Section 5.1 performance model tell the
/// same story: on AlexNet (seed 7) every layer's compute cycles, lane
/// efficiency and DDR traffic lie within `Tolerances::default()` of the
/// model. A failure names each diverging layer and metric.
#[test]
fn simulated_alexnet_agrees_with_the_performance_model() {
    let net = zoo::alexnet();
    let profile = PruneProfile::alexnet_deep_compression();
    let model = synthesize_model(&net, &profile, 7);
    let cfg = AcceleratorConfig::paper_alexnet();
    let sim = SimContext::default()
        .simulate_network(&model, &cfg)
        .unwrap();
    let est = estimate_network(&net, &profile, &cfg);
    let verdict = check_consistency(
        sim.layers(),
        &est,
        &net,
        &profile,
        &cfg,
        &Tolerances::default(),
    );
    assert!(verdict.is_clean(), "{verdict}");
    // Every layer modeled: each contributes all three metric checks.
    assert_eq!(verdict.facts, 3 * sim.layers().len() as u64);
}

#[test]
fn host_layers_hidden_by_pipelining() {
    // Section 6.1: "By adopting pipelined processing, the execution time
    // of CPU were hidden by FPGA."
    let vgg = simulate_network(&vgg16(), &AcceleratorConfig::paper());
    assert!(vgg.host_hidden());
    let alex = simulate_network(&alexnet(), &AcceleratorConfig::paper_alexnet());
    assert!(alex.host_hidden());
}

#[test]
fn mac_reduction_rates() {
    // Section 6.2: 3.06x for VGG16, 2.3x for AlexNet.
    let vgg = PruneProfile::vgg16_deep_compression().mac_reduction(&zoo::vgg16());
    assert!((vgg - 3.06).abs() < 0.1, "VGG16 Rmac {vgg}");
    let alex = PruneProfile::alexnet_deep_compression().mac_reduction(&zoo::alexnet());
    assert!((alex - 2.3).abs() < 0.2, "AlexNet Rmac {alex}");
}
