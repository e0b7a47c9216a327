//! Times the prepared ABM hot path on the AlexNet and VGG16 convolution
//! layers — once per compiled kernel variant the CPU can run — asserting
//! every output bit-identical to the interpretive reference executor and
//! writing `BENCH_abm_hotpath.json`.
//!
//! ```text
//! cargo run --release -p abm-bench --bin hotpath                 # all variants
//! cargo run --release -p abm-bench --bin hotpath -- --isa avx2   # one variant
//! cargo run --release -p abm-bench --bin hotpath -- --smoke      # CI smoke
//! ```
//!
//! `--smoke` restricts the run to AlexNet with one repetition per
//! engine — enough to exercise every variant end to end without tying
//! up the CI machine. The headline is absolute: `gacc_per_s`, the
//! layers' analytic stage-1 accumulations (`PreparedConv::work`) over
//! the sum of their best times — the same unit as the repo benchmark's
//! `conv.gacc_per_s`, and one that moves only when the hot path does.
//! The geomean ratio against the reference executor is reported beside
//! it but gates nothing: the oracle is deliberately naive, and the ratio
//! moves whenever *it* has a fast or slow day. The top-level numbers are
//! `auto`'s — the dispatch `Inferencer::prepare` makes, so they describe
//! what users run (with `--isa`, the one pinned variant's); per-variant
//! figures are reported alongside so a scalar regression is visible even
//! when a vector unit hides it.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use abm_bench::{alexnet_model, rule, vgg16_model};
use abm_conv::abm::{reference, PreparedConv};
use abm_conv::Geometry;
use abm_kernel::Isa;
use abm_model::{LayerKind, SparseLayer, SparseModel};
use abm_sparse::LayerCode;
use abm_telemetry::json::Node;
use abm_tensor::Tensor3;

/// One kernel variant's timing for one layer.
struct VariantCell {
    /// What actually ran (`avx2/i32`, `scalar/i64`, …) — the selection
    /// the accumulator-width proof permitted, not just the pin.
    selection: String,
    /// Best wall time of one `execute`, in nanoseconds.
    ns: f64,
    /// Stage-1 accumulations one `execute` performs (analytic, so the
    /// same for every variant of a layer).
    accumulations: u64,
    speedup: f64,
}

/// One timed layer's results across all benched variants.
struct Row {
    network: &'static str,
    layer: String,
    out_pixels: u64,
    reference_ns_per_pixel: f64,
    cells: Vec<VariantCell>,
}

/// Deterministic i16 activations for a layer input (same LCG family the
/// repo's property tests use).
fn synth_input(layer: &SparseLayer) -> Tensor3<i16> {
    let shape = layer.layer.input_shape;
    let mut state = 0x9e37_79b9_u64;
    Tensor3::from_fn(shape, |_, _, _| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 33) % 256) as i16 - 128
    })
}

/// Best-of-`reps` wall time for `f`, in nanoseconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_nanos() as f64);
        out = Some(r);
    }
    (out.expect("reps > 0"), best)
}

/// The host CPU model string (best effort; `unknown` off-Linux).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The column the top-level headline reports: `auto` when nothing is
/// pinned, the single pinned variant otherwise.
const HEADLINE: usize = 0;

/// One benched column.
struct Variant {
    /// Display label (also the JSON `isa` key).
    label: &'static str,
    /// ISA pin handed to the constructor (`None` = the engine's
    /// default geometry-aware auto-selection).
    pin: Option<Isa>,
}

fn bench_network(
    network: &'static str,
    model: &SparseModel,
    variants: &[Variant],
    reps: usize,
    rows: &mut Vec<Row>,
) {
    for layer in &model.layers {
        let LayerKind::Conv(spec) = &layer.layer.layer.kind else {
            continue;
        };
        let geom = Geometry::new(spec.stride, spec.pad).with_groups(spec.groups);
        let input = synth_input(layer);
        let code = Arc::new(LayerCode::encode(&layer.weights).expect("encodable weights"));

        let (oracle, ref_ns) = best_of(reps, || {
            reference::conv2d(&input, &code, geom).expect("reference conv")
        });
        let out_pixels = (oracle.shape().rows * oracle.shape().cols) as u64;

        let mut cells = Vec::with_capacity(variants.len());
        for v in variants {
            let prep = PreparedConv::try_new(Arc::clone(&code), input.shape(), geom, v.pin)
                .expect("preparable layer");
            let (fast, prep_ns) = best_of(reps, || prep.execute(&input));
            assert_eq!(
                oracle,
                fast,
                "{network}/{}: {} variant diverged",
                layer.name(),
                v.label,
            );
            cells.push(VariantCell {
                selection: prep.selection().name(),
                ns: prep_ns,
                accumulations: prep.work().accumulations,
                speedup: ref_ns / prep_ns,
            });
        }
        rows.push(Row {
            network,
            layer: layer.name().to_string(),
            out_pixels,
            reference_ns_per_pixel: ref_ns / out_pixels as f64,
            cells,
        });
    }
}

/// Variant column `v`'s absolute throughput: all rows' accumulations over
/// the sum of their best times (accumulations per ns = Gacc/s).
fn gacc_per_s(rows: &[Row], v: usize) -> f64 {
    let acc: u64 = rows.iter().map(|r| r.cells[v].accumulations).sum();
    acc as f64 / rows.iter().map(|r| r.cells[v].ns).sum::<f64>()
}

/// Geometric-mean speedup of variant column `v` across all rows.
fn geomean(rows: &[Row], v: usize) -> f64 {
    (rows.iter().map(|r| r.cells[v].speedup.ln()).sum::<f64>() / rows.len() as f64).exp()
}

fn write_json(rows: &[Row], variants: &[Variant], cpu: &str) -> std::io::Result<()> {
    let doc = Node::object(|o| {
        o.field("bench", "abm_hotpath");
        o.field("seed", abm_bench::SEED);
        o.field("cpu", cpu);
        o.array("variants", |a| {
            for (v, var) in variants.iter().enumerate() {
                a.object(|o| {
                    o.field("isa", var.label);
                    o.field("gacc_per_s", Node::fixed(gacc_per_s(rows, v), 3));
                    o.field("geomean_speedup", Node::fixed(geomean(rows, v), 3));
                });
            }
        });
        o.field("headline_isa", variants[HEADLINE].label);
        o.array("layers", |a| {
            for r in rows {
                a.object(|o| {
                    o.field("network", r.network);
                    o.field("layer", &r.layer);
                    o.field("out_pixels", r.out_pixels);
                    o.field("accumulations", r.cells[HEADLINE].accumulations);
                    let reference = Node::fixed(r.reference_ns_per_pixel, 2);
                    o.field("reference_ns_per_pixel", reference);
                    for (var, c) in variants.iter().zip(&r.cells) {
                        o.object(var.label, |o| {
                            o.field("selection", &c.selection);
                            o.field("ns_per_pixel", Node::fixed(c.ns / r.out_pixels as f64, 2));
                            o.field("ns_per_acc", Node::fixed(c.ns / c.accumulations as f64, 4));
                            o.field("speedup", Node::fixed(c.speedup, 3));
                        });
                    }
                });
            }
        });
        o.field("gacc_per_s", Node::fixed(gacc_per_s(rows, HEADLINE), 3));
        o.field("geomean_speedup", Node::fixed(geomean(rows, HEADLINE), 3));
    });
    std::fs::write("BENCH_abm_hotpath.json", doc.render())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };
    let pinned = args
        .iter()
        .position(|a| a == "--isa")
        .map(|i| {
            let v = args.get(i + 1).expect("--isa needs a value");
            Isa::parse(v).expect("valid --isa")
        })
        .unwrap_or(None);
    let variants: Vec<Variant> = match pinned {
        Some(isa) => {
            assert!(isa.available(), "ISA '{isa}' not available on this CPU");
            vec![Variant {
                label: isa.name(),
                pin: Some(isa),
            }]
        }
        // The engine's own auto-selection first (the headline), then
        // every pinned variant the CPU can run.
        None => std::iter::once(Variant {
            label: "auto",
            pin: None,
        })
        .chain(Isa::detect_all().into_iter().map(|i| Variant {
            label: i.name(),
            pin: Some(i),
        }))
        .collect(),
    };

    let mut rows = Vec::new();
    bench_network("alexnet", &alexnet_model(), &variants, reps, &mut rows);
    if !smoke {
        bench_network("vgg16", &vgg16_model(), &variants, reps, &mut rows);
    }

    let width = 46 + 10 * variants.len();
    println!("ABM hot path: prepared (flat-offset) vs reference executor, single thread");
    rule(width);
    print!(
        "{:<9} {:<9} {:>10} {:>14}",
        "Network", "Layer", "OutPixels", "Ref ns/px"
    );
    for v in &variants {
        print!(" {:>9}", v.label);
    }
    println!();
    rule(width);
    for r in &rows {
        print!(
            "{:<9} {:<9} {:>10} {:>14.1}",
            r.network, r.layer, r.out_pixels, r.reference_ns_per_pixel
        );
        for c in &r.cells {
            print!(" {:>8.2}x", c.speedup);
        }
        println!();
    }
    rule(width);
    print!("Gacc/s:");
    for (v, var) in variants.iter().enumerate() {
        print!("  {}={:.2}", var.label, gacc_per_s(&rows, v));
    }
    print!("\ngeomean speedup vs reference (reported, not gated):");
    for (v, var) in variants.iter().enumerate() {
        print!("  {}={:.2}x", var.label, geomean(&rows, v));
    }
    println!(
        "  (headline: {}, {} layers, best of {reps} reps)",
        variants[HEADLINE].label,
        rows.len()
    );

    let cpu = cpu_model();
    write_json(&rows, &variants, &cpu).expect("write BENCH_abm_hotpath.json");
    println!("wrote BENCH_abm_hotpath.json");
}
