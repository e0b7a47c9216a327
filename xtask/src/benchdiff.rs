//! `cargo xtask bench-diff` — the noise-aware perf-regression gate.
//!
//! Compares two benchmark JSON files (the committed `BENCH_*.json`
//! reports or `metrics --json` snapshots) and fails when a headline
//! metric regresses past the threshold (default 10%), or when the
//! geometric mean across all headline metrics does. Per-layer numbers
//! are far noisier than the headlines they roll up into, so they only
//! warn (at 25%) and never gate.
//!
//! Two auxiliary modes keep the gate honest:
//!
//! * `--check-docs` asserts every number README, DESIGN and EXPERIMENTS
//!   cite from the committed records (`BENCH_pipeline.json`,
//!   `REPRO_paper.json`) rounds from them (the records are the source
//!   of truth; prose must follow them).
//! * `--self-test` proves the gate has teeth: committed-vs-committed
//!   must pass, a serving benchmark reporting a silent corruption must
//!   fail, and a degraded copy of `BENCH_pipeline.json` (every headline
//!   metric scaled by 0.8) must fail.

use abm_spconv_repro::telemetry::json::{self, Node, Value};
use std::path::Path;

/// Headline metrics gate at a 10% regression by default.
const DEFAULT_THRESHOLD: f64 = 0.10;

/// Per-layer metrics never gate; they warn past 25%.
const LAYER_WARN_THRESHOLD: f64 = 0.25;

/// One comparable number extracted from a benchmark JSON.
#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    /// Latency-like metrics regress when they grow.
    lower_better: bool,
    role: Role,
}

/// What a metric's movement does to the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A headline: gates the build.
    Gate,
    /// Per-layer detail: warns past 25%, never gates.
    Detail,
}

/// Entry point for `cargo xtask bench-diff <args>`.
///
/// # Errors
///
/// Returns a message on bad usage, unreadable/unrecognized files,
/// a gated regression, a stale doc citation, or a self-test failure.
pub fn run(root: &Path, args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("--check-docs") => check_docs(root),
        Some("--self-test") => self_test(root),
        Some(old) if !old.starts_with("--") => {
            let new = match args.get(1) {
                Some(a) if !a.starts_with("--") => a,
                _ => return Err("bench-diff needs <old.json> <new.json>".into()),
            };
            let mut threshold = DEFAULT_THRESHOLD;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--threshold" => {
                        let pct = args
                            .get(i + 1)
                            .ok_or("--threshold needs a percentage")?
                            .parse::<f64>()
                            .map_err(|e| format!("bad threshold: {e}"))?;
                        if !(0.0..100.0).contains(&pct) {
                            return Err(format!("threshold {pct}% out of range"));
                        }
                        threshold = pct / 100.0;
                        i += 2;
                    }
                    other => return Err(format!("unknown bench-diff flag '{other}'")),
                }
            }
            diff_files(&root.join(old), &root.join(new), threshold)
        }
        _ => Err("bench-diff needs <old.json> <new.json>, --check-docs, or --self-test".into()),
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn load(path: &Path) -> Result<Vec<Metric>, String> {
    let value = json::parse(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))?;
    extract(&value).map_err(|e| format!("{}: {e}", path.display()))
}

/// Extracts comparable metrics from any of the three known schemas:
/// the pipeline report (`networks`), a metrics-registry snapshot
/// (`histograms`), or the serving benchmark (`runs`, from the
/// `loadtest` binary).
fn extract(v: &Value) -> Result<Vec<Metric>, String> {
    if v.get("networks").is_some() {
        return extract_pipeline(v);
    }
    if v.get("histograms").is_some() {
        return extract_snapshot(v);
    }
    if v.get("runs").is_some() {
        return extract_serve(v);
    }
    Err("unrecognized benchmark schema (expected 'networks', 'histograms', or 'runs')".into())
}

fn extract_pipeline(v: &Value) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let networks = v
        .get("networks")
        .and_then(Value::as_arr)
        .ok_or("'networks' is not an array")?;
    for net in networks {
        let name = net
            .get("network")
            .and_then(Value::as_str)
            .ok_or("network without 'network'")?;
        if let Some(best) = net.get("best_speedup").and_then(Value::as_f64) {
            out.push(Metric {
                name: format!("best_speedup/{name}"),
                value: best,
                lower_better: false,
                role: Role::Gate,
            });
        }
        if let Some(seq) = net
            .get("sequential_images_per_second")
            .and_then(Value::as_f64)
        {
            out.push(Metric {
                name: format!("sequential_images_per_second/{name}"),
                value: seq,
                lower_better: false,
                role: Role::Gate,
            });
        }
        for design in net.get("designs").and_then(Value::as_arr).unwrap_or(&[]) {
            let (Some(label), Some(s)) = (
                design.get("label").and_then(Value::as_str),
                design.get("speedup").and_then(Value::as_f64),
            ) else {
                continue;
            };
            out.push(Metric {
                name: format!("design/{name}/{label}"),
                value: s,
                lower_better: false,
                role: Role::Detail,
            });
        }
    }
    Ok(out)
}

/// Metrics-registry snapshots gate on latency percentiles: p50 is the
/// stable headline, p99 and max only warn (tail noise).
fn extract_snapshot(v: &Value) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let Some(Value::Obj(histograms)) = v.get("histograms") else {
        return Err("'histograms' is not an object".into());
    };
    for (name, h) in histograms {
        for (stat, role) in [("p50", Role::Gate), ("p99", Role::Detail)] {
            if let Some(val) = h.get(stat).and_then(Value::as_f64) {
                out.push(Metric {
                    name: format!("{name}/{stat}"),
                    value: val,
                    lower_better: true,
                    role,
                });
            }
        }
    }
    if out.is_empty() {
        return Err("snapshot has no histograms to compare".into());
    }
    Ok(out)
}

/// Serving benchmark (`BENCH_serve.json`): goodput gates on every leg,
/// p50/p99 latency gate on the nominal leg only (overload legs cut and
/// shed by design, so their tails are load-shaped, not code-shaped —
/// they warn). Correctness fields are not ratios: **any** silent
/// corruption or untyped rejection in the file is an immediate error,
/// regardless of what it is being compared against.
fn extract_serve(v: &Value) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let runs = v
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("'runs' is not an array")?;
    for run in runs {
        let name = run
            .get("name")
            .and_then(Value::as_str)
            .ok_or("run without 'name'")?;
        for field in ["silent_corruptions", "untyped_rejections"] {
            let n = run.get(field).and_then(Value::as_f64).unwrap_or(0.0);
            if n > 0.0 {
                return Err(format!(
                    "run '{name}' reports {n} {field} — the serving gate requires zero"
                ));
            }
        }
        if let Some(g) = run.get("goodput_rps").and_then(Value::as_f64) {
            out.push(Metric {
                name: format!("goodput_rps/{name}"),
                value: g,
                lower_better: false,
                role: Role::Gate,
            });
        }
        let nominal = name == "nominal_1x";
        for stat in ["p50_us", "p99_us"] {
            if let Some(us) = run.get(stat).and_then(Value::as_f64) {
                out.push(Metric {
                    name: format!("{stat}/{name}"),
                    value: us,
                    lower_better: true,
                    role: if nominal { Role::Gate } else { Role::Detail },
                });
            }
        }
    }
    if out.is_empty() {
        return Err("serving benchmark has no runs to compare".into());
    }
    Ok(out)
}

fn diff_files(old: &Path, new: &Path, threshold: f64) -> Result<(), String> {
    let old_metrics = load(old)?;
    let new_metrics = load(new)?;
    println!(
        "bench-diff: {} -> {} (gate at {:.0}% regression)",
        old.display(),
        new.display(),
        threshold * 100.0
    );
    compare(&old_metrics, &new_metrics, threshold)
}

/// Pairs metrics by name and gates headline regressions. Ratio > 1 is
/// an improvement, < 1 a regression, in both metric directions.
fn compare(old: &[Metric], new: &[Metric], threshold: f64) -> Result<(), String> {
    let mut failures = Vec::new();
    let mut gate_ratios = Vec::new();
    let mut compared = 0usize;
    for o in old {
        let Some(n) = new.iter().find(|n| n.name == o.name) else {
            println!("  MISSING {} (present in old, absent in new)", o.name);
            continue;
        };
        if o.value <= 0.0 || n.value <= 0.0 || !o.value.is_finite() || !n.value.is_finite() {
            continue;
        }
        compared += 1;
        let ratio = if o.lower_better {
            o.value / n.value
        } else {
            n.value / o.value
        };
        let regression = 1.0 - ratio;
        let moved = format!(
            "{:<44} {:>12.3} -> {:>12.3}  ({:+.1}%",
            o.name,
            o.value,
            n.value,
            -regression * 100.0
        );
        match o.role {
            Role::Gate => {
                gate_ratios.push(ratio);
                let verdict = if regression > threshold { "FAIL" } else { "ok" };
                println!("  {verdict:>4}  {moved})");
                if regression > threshold {
                    failures.push(format!(
                        "{} regressed {:.1}% ({:.3} -> {:.3})",
                        o.name,
                        regression * 100.0,
                        o.value,
                        n.value
                    ));
                }
            }
            Role::Detail if regression > LAYER_WARN_THRESHOLD => {
                println!("  warn  {moved}, non-gating)");
            }
            Role::Detail => {}
        }
    }
    if compared == 0 {
        return Err("no comparable metrics shared between the two files".into());
    }
    if !gate_ratios.is_empty() {
        let geomean =
            (gate_ratios.iter().map(|r| r.ln()).sum::<f64>() / gate_ratios.len() as f64).exp();
        println!(
            "  geomean over {} headline metric(s): {:+.1}%",
            gate_ratios.len(),
            (geomean - 1.0) * 100.0
        );
        if 1.0 - geomean > threshold {
            failures.push(format!(
                "headline geomean regressed {:.1}%",
                (1.0 - geomean) * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "  clean: no gated regression past {:.0}%",
            threshold * 100.0
        );
        Ok(())
    } else {
        Err(format!("bench-diff FAILED:\n  {}", failures.join("\n  ")))
    }
}

/// The committed records the prose cites.
const RECORDS: &[&str] = &["BENCH_pipeline.json", "REPRO_paper.json"];

/// Every number the prose cites from a committed record: the document,
/// a base path, and a template the document must contain, in which each
/// `{key/…}` stands for one printed number that must round from the
/// record value at base/key/…. Whitespace runs match any whitespace, so
/// a citation may wrap. A path names the record, then one key a level;
/// inside an array a key picks the element whose first member equals
/// it; a `{"paper", "measured"}` cell reads as its measured value.
#[rustfmt::skip]
const DOC_CLAIMS: &[(&str, &str, &str)] = &[
    ("README.md", "BENCH_pipeline.json/networks", "VGG16 batch-8 gains only {vgg16/designs/streaming@nominal/speedup}× from overlap"),
    ("README.md", "BENCH_pipeline.json/networks", "reaches **{vgg16/best_speedup}×** (AlexNet batch-4: {alexnet/designs/streaming@nominal/speedup}× same-clock, {alexnet/best_speedup}× retimed"),
    ("DESIGN.md", "BENCH_pipeline.json/networks", "VGG16 batch-8 gains only {vgg16/designs/streaming@nominal/speedup}× (the partition"),
    ("DESIGN.md", "BENCH_pipeline.json/networks", "AlexNet batch-4 *loses* ({alexnet/designs/streaming@nominal/speedup}×)"),
    ("DESIGN.md", "BENCH_pipeline.json/networks", "VGG16 batch-8 reaches {vgg16/best_speedup}×; AlexNet {alexnet/best_speedup}×."),
    // EXPERIMENTS.md, Table 1.
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | SDConv | 173 | {sdconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | SpConv | 100 | {spconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | ABM Acc. | 50.3 | {abm_acc_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | ABM Mult. | 12.1 | {abm_mult_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | Acc/Mult | 4.1 | {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_2", "| CONV1_2 | Acc / Mult / ratio | 407 / 119 / 3.4 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV4_1", "| CONV4_1 | Acc / Mult / ratio | 296 / 9.23 / 32.0 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV4_2", "| CONV4_2 | Acc / Mult / ratio | 499 / 7.95 / 62.7 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/FC6", "| FC6 | Acc / Mult / ratio | 4.11 / 0.037 / 111 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/FC7", "| FC7 | Acc / Mult / ratio | 0.67 / 0.021 / 31.9 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| Entire CNN | SDConv | 30,941 | {sdconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| Entire CNN | FDConv | 9,531 | {fdconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| Entire CNN | SpConv | 10,082 | {spconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| Entire CNN | ABM Acc. | 5,040 | {abm_acc_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| #OP saved vs SDConv | | 83.6% | {saved_vs_sdconv_pct}% |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| — vs FDConv / SpConv | | 47.1% / 50% | {saved_vs_fdconv_pct}% / {saved_vs_spconv_pct}% |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "total of {fdconv_oaa_fft_mop} MOP — a {fdconv_oaa_fft_reduction}× whole-net reduction"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "not in the paper, totals {winograd_f2x2_3x3_mop} MOP."),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1", "ratio measures **{min_acc_mult_ratio}** (paper: 3.4, CONV1_2), driving the `N = {n}` selection"),
    // Table 2 and Section 6.2.
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/baselines", "| [13] SDConv, GXA7 | AlexNet | 134.1 | (quoted) | {[13] AlexNet/gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/baselines", "| [3] FDConv, GXA7 | AlexNet | 663.5 | (quoted) | {[3] AlexNet/gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/baselines", "| [3] FDConv, GXA7 | VGG16 | 662.3 | (quoted) | {[3] VGG16/gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed/AlexNet", "| **Proposed** | AlexNet | **699** | **{gops}** | 2.87 → {gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed/VGG16", "| **Proposed** | VGG16 | **1029** | **{gops}** | 4.29 → {gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "Speedup over [3] (VGG16): paper 1.55×, measured **{VGG16/speedup_over_ref3}×**"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "Speedup over [3] (AlexNet): paper 1.054×, measured **{AlexNet/speedup_over_ref3}×**"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/resources", "by calibration): {alms} ALM ({alm_pct}%), {dsps} DSP ({dsp_pct}%), {m20ks} M20K ({m20k_pct}%)."),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "measured **{VGG16/lane_efficiency_pct}% / {AlexNet/lane_efficiency_pct}%** (accumulator-lane efficiency"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2", "**On the VGG16 gap ({proposed/VGG16/gops} vs 1029).** With {vgg16_run/accumulator_lanes} accumulator lanes"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2", "(840 × {proposed/VGG16/lane_efficiency_pct}% × 204 MHz) = {vgg16_run/latency_ms} ms → {proposed/VGG16/gops} GOP/s)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_2", "(CONV1_2's Acc/Mult ratio {acc_mult_ratio} < N = 4"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/vgg16_run/layers/CONV1_2", "CONV1_2 is multiplier-bound on {mult_bound_pct}% of its sweeps"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "| VGG16 | 87% | {VGG16/lane_efficiency_pct}% |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "| AlexNet | 81% | {AlexNet/lane_efficiency_pct}% |"),
    // Table 3.
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks/AlexNet", "| AlexNet | 61 → {original_mb} | 11.9 → {encoded_mb} ({huffman_mb} with Huffman stage) |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks/VGG16", "| VGG16 | 138 → {original_mb} | 26.4 → {encoded_mb} ({huffman_mb} with Huffman stage) |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "Q-Table words) gives {AlexNet/encoded_mb}/{VGG16/encoded_mb} MB;"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "external-memory image gives {AlexNet/huffman_mb}/{VGG16/huffman_mb} MB."),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "measured {AlexNet/compression}×/{VGG16/compression}× raw, {AlexNet/huffman_compression}×/{VGG16/huffman_compression}× entropy-coded"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "The ABM encoding is {AlexNet/smaller_than_csr_pct}%/{VGG16/smaller_than_csr_pct}% smaller than the CSR format"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "SpConv designs ({AlexNet/csr_mb}/{VGG16/csr_mb} MB;"),
    // Figure 1.
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "| SDConv `2·Nmac·Freq` | 204.8 | {sdconv_roof_gops} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "| FDConv/SpConv `2·Rmac·Nmac·Freq` | 675 | {fdconv_roof_gops} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "| ABM-SpConv `2·Nacc·Freq` | 1046 | {abm_roof_gops} (N_acc = {n_acc} lanes"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "| Achieved point | 1029 | {achieved_gops} (simulated) |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "the ABM roof sits {abm_roof_over_paper_pct}% above the paper's"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "It is {abm_over_fdconv_roof}× the FDConv roof, for an op-reduction factor of {op_reduction}×."),
    // Figures 6 and 7.
    ("EXPERIMENTS.md", "REPRO_paper.json/figure6", "peaks at **{optimal_n_knl}** (paper implements **14**): {optimal_gops} GOP/s at {optimal_dsps} DSPs."),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure6/points", "Across 12–15 the boost reads {12/boost} / {13/boost} / {14/boost} / {15/boost}:"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure7/top/1", "1. `S_ec={s_ec}, N_cu={n_cu}` — {gops} GOP/s (est.)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure7/top/2", "2. `S_ec={s_ec}, N_cu={n_cu}` — {gops} GOP/s (est.)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure7/top/3", "3. `S_ec={s_ec}, N_cu={n_cu}` — {gops} GOP/s (est.)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure7", "ranks #{paper_point_rank} in our model, {paper_point_below_best_pct}% below the best ({top/2/gops} vs {top/1/gops} GOP/s;"),
    // Ablations and the precision study.
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation/n", "N=1/2 need {1/dsps}/{2/dsps} DSPs"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation", "N=4 fits at {n/4/dsps} DSP losing only {n4_loss_vs_n1_pct}% throughput vs N=1"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation/n", "N=5/10 stall multipliers ({5/gops}/{10/gops} GOP/s)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation/fifo_depth", "**FIFO depth:** 1 → {1/gops} GOP/s, 4+ → {4/gops} GOP/s"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation", "scheduling:** {scheduling/semi-synchronous/gops} vs {scheduling/lock-step/gops} GOP/s ({semi_sync_gain_pct}%), CU busy {scheduling/semi-synchronous/cu_busy_pct}% vs {scheduling/lock-step/cu_busy_pct}%"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation", "kernel batching:** {kernel_order/sorted/gops} vs {kernel_order/unsorted/gops} GOP/s ({sorted_gain_pct}%)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/precision/layers/CONV1_1/widths", "| CONV1_1 | lossless | lossless | {16/margin_bits} bits |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/precision/layers/CONV4_2/widths", "| CONV4_2 | {12/saturated} saturations, {12/diverged} diverged px | lossless | {16/margin_bits} bits |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/precision/layers/FC6/widths", "| FC6 | {12/saturated} saturations, {12/diverged} diverged px | lossless | {16/margin_bits} bits |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/precision/layers", "realistic activations with {FC6/widths/16/margin_bits}–{CONV4_2/widths/16/margin_bits} bits of headroom"),
    // Figure 4 and the studies beyond the paper.
    ("EXPERIMENTS.md", "REPRO_paper.json/figure4", "resulting {accumulations}-accumulate / {multiplications}-multiply per-pixel cost vs {dense_macs} MACs."),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure4", "takes a {wt_buffer_bytes} B WT-Buffer + a {q_table_bytes} B Q-Table = {encoded_bytes} B."),
    ("EXPERIMENTS.md", "REPRO_paper.json/sweep/prune", "(0% → 90% pruning: {0/levels/4/gops} → {0.9/levels/4/gops} GOP/s)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/projection/flows/Arria-10 GX1150 VGG16/candidates/36", "projects ~{gops} GOP/s for VGG16 on the Arria-10 using {dsps} DSPs"),
    ("EXPERIMENTS.md", "REPRO_paper.json", "([4]: {table2/baselines/[4] VGG16/gops} GOP/s with {table2/baselines/[4] VGG16/dsps} DSPs) at ~{projection/flows/Arria-10 GX1150 VGG16/density_over_ref4}× its performance density"),
    ("EXPERIMENTS.md", "REPRO_paper.json/energy/networks", "ABM-SpConv spends {AlexNet/energy_ratio}× (AlexNet) / {VGG16/energy_ratio}× (VGG16) less energy"),
    ("EXPERIMENTS.md", "REPRO_paper.json/projection/flows/Stratix-V GXA7 VGG16/candidates", "`sim_vs_model_pct`: {32/sim_vs_model_pct} / {64/sim_vs_model_pct} / {20/sim_vs_model_pct}%;"),
];

/// The value at `path` (see [`DOC_CLAIMS`]) in the parsed `records`.
fn lookup(records: &[(&str, Value)], path: &str) -> Result<f64, String> {
    let mut keys = path.split('/');
    let file = keys.next().unwrap_or_default();
    let mut v = records
        .iter()
        .find(|(name, _)| *name == file)
        .map(|(_, v)| v)
        .ok_or(format!("{path}: no record '{file}'"))?;
    for key in keys {
        v = match v {
            Value::Arr(items) => items.iter().find(|item| first_member_is(item, key)),
            _ => v.get(key),
        }
        .ok_or(format!("{path}: no '{key}'"))?;
    }
    v.get("measured")
        .unwrap_or(v)
        .as_f64()
        .ok_or(format!("{path} is not a number"))
}

/// Whether the object `item`'s first member is the string or number `key`.
fn first_member_is(item: &Value, key: &str) -> bool {
    let Value::Obj(fields) = item else {
        return false;
    };
    match fields.first() {
        Some((_, Value::Str(s))) => s == key,
        Some((_, Value::Num(n))) => key.parse() == Ok(*n),
        _ => false,
    }
}

/// The byte length of the number `s` starts with: a sign, digits with
/// `,` thousands groups, a decimal part. Zero when it starts with none.
fn number_len(s: &str) -> usize {
    let sign = ["−", "+", "-"]
        .iter()
        .find(|sign| s.starts_with(**sign))
        .map_or(0, |sign| sign.len());
    let b = s.as_bytes();
    let digit = |i: usize| b.get(i).is_some_and(u8::is_ascii_digit);
    let mut i = sign;
    loop {
        match b.get(i) {
            Some(b'0'..=b'9') => i += 1,
            Some(b',') if (1..=3).all(|k| digit(i + k)) && !digit(i + 4) => i += 1,
            Some(b'.') if digit(i + 1) => i += 1,
            _ => break,
        }
    }
    if i == sign {
        0
    } else {
        i
    }
}

/// A template's literal text around its `{key/…}` holes, and the holes.
fn split_template(template: &str) -> (Vec<&str>, Vec<&str>) {
    let (mut literals, mut holes) = (Vec::new(), Vec::new());
    let mut rest = template;
    while let Some((literal, hole)) = rest.split_once('{') {
        let (hole, after) = hole.split_once('}').expect("every hole closes");
        literals.push(literal);
        holes.push(hole);
        rest = after;
    }
    literals.push(rest);
    (literals, holes)
}

/// The numbers `text` prints between `literals`, at the first place
/// they all match.
fn cited<'t>(text: &'t str, literals: &[&str]) -> Option<Vec<&'t str>> {
    text.match_indices(literals[0]).find_map(|(at, head)| {
        let mut rest = &text[at + head.len()..];
        let mut numbers = Vec::new();
        for literal in &literals[1..] {
            let len = number_len(rest);
            if len == 0 {
                return None;
            }
            numbers.push(&rest[..len]);
            rest = rest[len..].strip_prefix(literal)?;
        }
        Some(numbers)
    })
}

/// Every whitespace run as one space.
fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn check_docs(root: &Path) -> Result<(), String> {
    let records = RECORDS
        .iter()
        .map(|name| Ok((*name, json::parse(&read(&root.join(name))?)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let checked = check_claims(|doc| read(&root.join(doc)), &records)?;
    println!("check-docs: {checked} cited number(s) match the committed records");
    Ok(())
}

/// Checks every [`DOC_CLAIMS`] citation in the text `doc_text` returns
/// for each file name against `records`, returning how many numbers
/// matched. A cited number matches when the record value rounds to it
/// at the digits it prints.
fn check_claims(
    doc_text: impl Fn(&str) -> Result<String, String>,
    records: &[(&str, Value)],
) -> Result<usize, String> {
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (doc, base, template) in DOC_CLAIMS {
        let text = squash(&doc_text(doc)?);
        let template = squash(template);
        let (literals, holes) = split_template(&template);
        let Some(numbers) = cited(&text, &literals) else {
            failures.push(format!("{doc}: citation '{template}' not found"));
            continue;
        };
        for (number, hole) in numbers.iter().zip(holes) {
            let path = format!("{base}/{hole}");
            let actual = lookup(records, &path)?;
            let plain = number.replace('−', "-").replace([',', '+'], "");
            let claimed: f64 = plain.parse().map_err(|e| format!("'{number}': {e}"))?;
            let decimals = plain.split_once('.').map_or(0, |(_, d)| d.len());
            // Half a unit in the last printed place, plus float slack.
            let tolerance = 0.5 * 10f64.powi(-(decimals as i32)) + 1e-9;
            if (claimed - actual).abs() > tolerance {
                failures.push(format!(
                    "{doc}: cites {number} for {path}, which is {actual}"
                ));
            }
            checked += 1;
        }
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(format!(
            "check-docs FAILED (stale citations):\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// The member `key` of an object, for editing.
fn member<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    let Value::Obj(fields) = v else { return None };
    fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The pipeline report with every network's gating figures
/// (`best_speedup`, `sequential_images_per_second`) scaled by `factor`,
/// rendered through the writer.
fn degraded_pipeline(pipeline: &Value, factor: f64) -> Result<String, String> {
    let mut doc = pipeline.clone();
    let Some(Value::Arr(networks)) = member(&mut doc, "networks") else {
        return Err("'networks' is not an array".into());
    };
    for net in networks {
        for field in ["best_speedup", "sequential_images_per_second"] {
            let Some(Value::Num(x)) = member(net, field) else {
                return Err(format!("network without '{field}'"));
            };
            *x *= factor;
        }
    }
    Ok(Node::from(&doc).render())
}

/// The serving benchmark with its first leg's `silent_corruptions` set
/// to one, rendered through the writer.
fn poisoned_serve(serve: &Value) -> Result<String, String> {
    let mut doc = serve.clone();
    let first_leg = match member(&mut doc, "runs") {
        Some(Value::Arr(legs)) => legs.first_mut(),
        _ => None,
    };
    *first_leg
        .and_then(|leg| member(leg, "silent_corruptions"))
        .ok_or("no first run with 'silent_corruptions'")? = Value::Num(1.0);
    Ok(Node::from(&doc).render())
}

fn self_test(root: &Path) -> Result<(), String> {
    let pipe = root.join("BENCH_pipeline.json");
    let serve = root.join("BENCH_serve.json");
    // Committed-vs-committed must be clean for every schema.
    diff_files(&pipe, &pipe, DEFAULT_THRESHOLD)?;
    diff_files(&serve, &serve, DEFAULT_THRESHOLD)?;
    // A benchmark reporting a silent corruption must be rejected
    // outright, before any ratio math.
    let committed = read(&serve)?;
    let poisoned = poisoned_serve(&json::parse(&committed)?)?;
    if json::parse(&poisoned)? == json::parse(&committed)? {
        return Err("self-test: poisoning left the serving benchmark unchanged".into());
    }
    let tmp = std::env::temp_dir().join("abm_benchdiff_selftest_poisoned.json");
    std::fs::write(&tmp, &poisoned).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    let verdict = diff_files(&serve, &tmp, DEFAULT_THRESHOLD);
    std::fs::remove_file(&tmp).ok();
    match verdict {
        Err(msg) if msg.contains("silent_corruptions") => {
            println!("self-test: corrupted serving benchmark correctly rejected");
        }
        Err(msg) => return Err(format!("self-test: poisoned serve run failed oddly: {msg}")),
        Ok(()) => {
            return Err("self-test FAILED: a silent corruption passed the serving gate".into())
        }
    }
    // A 20% across-the-board degradation must trip the 10% gate.
    let degraded = degraded_pipeline(&json::parse(&read(&pipe)?)?, 0.8)?;
    let tmp = std::env::temp_dir().join("abm_benchdiff_selftest_degraded.json");
    std::fs::write(&tmp, &degraded).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    let verdict = diff_files(&pipe, &tmp, DEFAULT_THRESHOLD);
    std::fs::remove_file(&tmp).ok();
    match verdict {
        Err(msg) if msg.contains("regressed") => {
            println!("self-test: degraded benchmark correctly rejected");
            Ok(())
        }
        Err(msg) => Err(format!("self-test: degraded run failed oddly: {msg}")),
        Ok(()) => Err("self-test FAILED: a 20% degradation passed the 10% gate".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One network whose gating `best_speedup` and
    /// `sequential_images_per_second` are `best` and `seq`, with one
    /// design entry whose per-design speedup is `design`.
    fn pipeline_fixture(best: f64, seq: f64, design: f64) -> Vec<Metric> {
        extract(
            &json::parse(&format!(
                "{{\"networks\": [{{\"network\": \"vgg16\", \
                   \"sequential_images_per_second\": {seq}, \"best_speedup\": {best}, \
                   \"designs\": [{{\"label\": \"streaming@nominal\", \"speedup\": {design}}}]}}]}}"
            ))
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn pipeline_extraction_finds_headlines_and_designs() {
        let m = pipeline_fixture(1.7, 24.0, 1.0);
        assert_eq!(m.len(), 3);
        assert!(m[0].role == Role::Gate && m[0].name == "best_speedup/vgg16");
        assert!(m[1].role == Role::Gate && m[1].name == "sequential_images_per_second/vgg16");
        assert!(m[2].role == Role::Detail && m[2].name == "design/vgg16/streaming@nominal");
        assert!(
            m.iter().all(|x| !x.lower_better),
            "speedups regress downwards"
        );
    }

    #[test]
    fn identical_metrics_pass_and_degraded_fail() {
        let old = pipeline_fixture(1.7, 24.0, 1.0);
        assert!(compare(&old, &old, 0.10).is_ok());
        // 20% down on one headline metric trips the per-metric gate.
        let new = pipeline_fixture(1.7 * 0.8, 24.0, 1.0);
        assert!(compare(&old, &new, 0.10).is_err());
        // 5% down on everything passes the 10% gate.
        let new = pipeline_fixture(1.7 * 0.95, 24.0 * 0.95, 0.95);
        assert!(compare(&old, &new, 0.10).is_ok());
    }

    /// A design's own speedup is detail: halving it with the headlines
    /// level warns but passes.
    #[test]
    fn design_speedups_never_gate() {
        let old = pipeline_fixture(1.7, 24.0, 1.0);
        assert!(compare(&old, &pipeline_fixture(1.7, 24.0, 0.5), 0.10).is_ok());
    }

    #[test]
    fn improvements_never_fail() {
        let old = pipeline_fixture(1.7, 24.0, 1.0);
        let new = pipeline_fixture(2.4, 48.0, 1.5);
        assert!(compare(&old, &new, 0.10).is_ok());
    }

    #[test]
    fn snapshot_latency_direction_is_lower_better() {
        let parse = |p50: f64| {
            extract(
                &json::parse(&format!(
                    "{{\"counters\": {{}}, \"gauges\": {{}}, \"histograms\": \
                      {{\"infer_image_ns\": {{\"count\": 2, \"p50\": {p50}, \"p99\": {p50}}}}}}}"
                ))
                .unwrap(),
            )
            .unwrap()
        };
        let old = parse(1000.0);
        assert!(compare(&old, &parse(1050.0), 0.10).is_ok());
        assert!(compare(&old, &parse(1200.0), 0.10).is_err());
        // Faster is never a regression.
        assert!(compare(&old, &parse(500.0), 0.10).is_ok());
    }

    fn serve_fixture(goodput: f64, p99: f64, corruptions: u64) -> Result<Vec<Metric>, String> {
        extract(
            &json::parse(&format!(
                "{{\"network\": \"tiny\", \"runs\": [\
                   {{\"name\": \"nominal_1x\", \"goodput_rps\": {goodput}, \
                     \"p50_us\": 2000, \"p99_us\": {p99}, \
                     \"silent_corruptions\": {corruptions}, \"untyped_rejections\": 0}}, \
                   {{\"name\": \"overload_2x\", \"goodput_rps\": {goodput}, \
                     \"p50_us\": 2500, \"p99_us\": 9000, \
                     \"silent_corruptions\": 0, \"untyped_rejections\": 0}}]}}"
            ))
            .unwrap(),
        )
    }

    #[test]
    fn serve_extraction_gates_goodput_and_nominal_latency_only() {
        let m = serve_fixture(40.0, 5000.0, 0).unwrap();
        let by_name = |n: &str| m.iter().find(|x| x.name == n).unwrap();
        let gates = |n: &str| by_name(n).role == Role::Gate;
        assert!(gates("goodput_rps/nominal_1x"));
        assert!(gates("goodput_rps/overload_2x"));
        assert!(gates("p99_us/nominal_1x") && by_name("p99_us/nominal_1x").lower_better);
        assert!(!gates("p99_us/overload_2x"), "overload tails must not gate");
    }

    #[test]
    fn serve_regressions_trip_the_gate_in_the_right_direction() {
        let old = serve_fixture(40.0, 5000.0, 0).unwrap();
        assert!(compare(&old, &old, 0.10).is_ok());
        // Goodput down 20% fails; nominal p99 up 20% fails.
        assert!(compare(&old, &serve_fixture(32.0, 5000.0, 0).unwrap(), 0.10).is_err());
        assert!(compare(&old, &serve_fixture(40.0, 6000.0, 0).unwrap(), 0.10).is_err());
        // Faster and fatter goodput is never a regression.
        assert!(compare(&old, &serve_fixture(80.0, 2500.0, 0).unwrap(), 0.10).is_ok());
    }

    #[test]
    fn serve_silent_corruption_is_rejected_at_load() {
        let err = serve_fixture(40.0, 5000.0, 1).unwrap_err();
        assert!(
            err.contains("silent_corruptions") && err.contains("nominal_1x"),
            "rejection must name the field and the run: {err}"
        );
    }

    #[test]
    fn degraded_pipeline_renders_valid_json() {
        let v = json::parse(
            "{\"networks\": [{\"network\": \"vgg16\", \
              \"sequential_images_per_second\": 25.0, \"best_speedup\": 2.0}]}",
        )
        .unwrap();
        let degraded = degraded_pipeline(&v, 0.8).unwrap();
        json::validate(&degraded).unwrap();
        let m = extract(&json::parse(&degraded).unwrap()).unwrap();
        assert!(m[0].role == Role::Gate && (m[0].value - 1.6).abs() < 1e-9);
        assert!(m[1].role == Role::Gate && (m[1].value - 20.0).abs() < 1e-9);
    }

    /// Both committed records, parsed.
    fn committed_records() -> Vec<(&'static str, Value)> {
        vec![
            (
                "BENCH_pipeline.json",
                json::parse(include_str!("../../BENCH_pipeline.json")).unwrap(),
            ),
            (
                "REPRO_paper.json",
                json::parse(include_str!("../../REPRO_paper.json")).unwrap(),
            ),
        ]
    }

    /// `check_claims` over the committed docs, with `edit` applied to
    /// README.md's text first.
    fn check_edited_readme(
        edit: impl Fn(String) -> String,
        records: &[(&str, Value)],
    ) -> Result<usize, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        check_claims(
            |doc| {
                let text = read(&root.join(doc))?;
                Ok(if doc == "README.md" { edit(text) } else { text })
            },
            records,
        )
    }

    /// A citation that drifts by one printed unit or is removed from
    /// the prose fails the check, and so does prose that a moved record
    /// cell leaves behind, in either record; each names the citation.
    #[test]
    fn a_drifted_or_removed_citation_fails() {
        let records = committed_records();
        assert!(check_edited_readme(|t| t, &records).is_ok());
        let err = check_edited_readme(|t| t.replace("1.71×", "1.70×"), &records).unwrap_err();
        assert!(
            err.contains(
                "README.md: cites 1.70 for BENCH_pipeline.json/networks/vgg16/best_speedup, \
                 which is 1.71"
            ),
            "{err}"
        );
        let err = check_edited_readme(|t| t.replace("1.46×", ""), &records).unwrap_err();
        assert!(
            err.contains("README.md: citation 'reaches **{vgg16/best_speedup}×**")
                && err.contains("not found"),
            "{err}"
        );
        // The prose unchanged, the committed pipeline number moved.
        let mut moved = committed_records();
        let Some(Value::Arr(networks)) = member(&mut moved[0].1, "networks") else {
            panic!("'networks' is not an array");
        };
        *member(&mut networks[0], "best_speedup").unwrap() = Value::Num(1.72);
        let err = check_edited_readme(|t| t, &moved).unwrap_err();
        assert!(
            err.contains(
                "cites 1.71 for BENCH_pipeline.json/networks/vgg16/best_speedup, which is 1.72"
            ),
            "{err}"
        );
        // The prose unchanged, a paper-record cell moved: Table 2's
        // simulated VGG16 throughput.
        let mut moved = committed_records();
        let table2 = member(&mut moved[1].1, "table2").unwrap();
        let Some(Value::Arr(proposed)) = member(table2, "proposed") else {
            panic!("'proposed' is not an array");
        };
        let gops = member(&mut proposed[1], "gops").unwrap();
        *member(gops, "measured").unwrap() = Value::Num(913.5);
        let err = check_edited_readme(|t| t, &moved).unwrap_err();
        assert!(
            err.contains(
                "EXPERIMENTS.md: cites 912.5 for REPRO_paper.json/table2/proposed/VGG16/gops, \
                 which is 913.5"
            ),
            "{err}"
        );
    }
}
