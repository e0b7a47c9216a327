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
//! * `--check-docs` asserts every perf citation in README/DESIGN/
//!   EXPERIMENTS matches the committed benchmark JSONs (the JSONs are
//!   the source of truth; prose must follow them).
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

/// A doc citation is "N.NN×": correct rounding of the JSON value is
/// within half a unit in the last printed place (plus float slack).
const CLAIM_TOLERANCE: f64 = 0.0051;

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

/// Where a doc citation's canonical value lives in the committed JSONs.
enum Source {
    /// `BENCH_pipeline.json` networks: best pipelined speedup.
    PipelineBest(&'static str),
    /// `BENCH_pipeline.json` design entry: (network, design label).
    PipelineDesign(&'static str, &'static str),
}

/// Every perf citation the prose makes, and the JSON number it must
/// round to. A citation that drifts from the committed benchmarks —
/// after a re-run changes the JSONs, or after a doc edit — fails here.
const DOC_CLAIMS: &[(&str, &str, Source)] = &[
    ("README.md", "1.71×", Source::PipelineBest("vgg16")),
    ("README.md", "1.46×", Source::PipelineBest("alexnet")),
    (
        "README.md",
        "1.02×",
        Source::PipelineDesign("vgg16", "streaming@nominal"),
    ),
    (
        "README.md",
        "0.89×",
        Source::PipelineDesign("alexnet", "streaming@nominal"),
    ),
    ("DESIGN.md", "1.71×", Source::PipelineBest("vgg16")),
    ("DESIGN.md", "1.46×", Source::PipelineBest("alexnet")),
    (
        "DESIGN.md",
        "1.02×",
        Source::PipelineDesign("vgg16", "streaming@nominal"),
    ),
    (
        "DESIGN.md",
        "0.89×",
        Source::PipelineDesign("alexnet", "streaming@nominal"),
    ),
];

fn lookup_source(source: &Source, pipeline: &Value) -> Result<f64, String> {
    match source {
        Source::PipelineBest(net) => pipeline
            .get("networks")
            .and_then(Value::as_arr)
            .and_then(|nets| {
                nets.iter()
                    .find(|n| n.get("network").and_then(Value::as_str) == Some(net))
            })
            .and_then(|n| n.get("best_speedup"))
            .and_then(Value::as_f64)
            .ok_or(format!("no '{net}' best_speedup in BENCH_pipeline.json")),
        Source::PipelineDesign(net, label) => pipeline
            .get("networks")
            .and_then(Value::as_arr)
            .and_then(|nets| {
                nets.iter()
                    .find(|n| n.get("network").and_then(Value::as_str) == Some(net))
            })
            .and_then(|n| n.get("designs"))
            .and_then(Value::as_arr)
            .and_then(|designs| {
                designs
                    .iter()
                    .find(|d| d.get("label").and_then(Value::as_str) == Some(label))
            })
            .and_then(|d| d.get("speedup"))
            .and_then(Value::as_f64)
            .ok_or(format!("no '{net}/{label}' design in BENCH_pipeline.json")),
    }
}

fn check_docs(root: &Path) -> Result<(), String> {
    let pipeline = json::parse(&read(&root.join("BENCH_pipeline.json"))?)?;
    let checked = check_claims(|doc| read(&root.join(doc)), &pipeline)?;
    println!("check-docs: {checked} perf citation(s) match the committed benchmark JSONs");
    Ok(())
}

/// Checks every [`DOC_CLAIMS`] citation in the text `doc_text` returns
/// for each file name against `pipeline`, returning how many matched.
fn check_claims(
    doc_text: impl Fn(&str) -> Result<String, String>,
    pipeline: &Value,
) -> Result<usize, String> {
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (doc, claim, source) in DOC_CLAIMS {
        let text = doc_text(doc)?;
        let actual = lookup_source(source, pipeline)?;
        if !text.contains(claim) {
            failures.push(format!(
                "{doc}: citation '{claim}' not found (benchmarks say {actual:.3})"
            ));
            continue;
        }
        let claimed = claim
            .trim_end_matches(|c: char| !c.is_ascii_digit())
            .parse::<f64>()
            .map_err(|e| format!("unparseable claim '{claim}': {e}"))?;
        if (claimed - actual).abs() > CLAIM_TOLERANCE {
            failures.push(format!(
                "{doc}: cites '{claim}' but the committed benchmark says {actual:.3}"
            ));
        }
        checked += 1;
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(format!(
            "check-docs FAILED (stale perf citations):\n  {}",
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

    /// `check_claims` over the committed docs, with `edit` applied to
    /// README.md's text first.
    fn check_edited_readme(
        edit: impl Fn(String) -> String,
        pipeline: &Value,
    ) -> Result<usize, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        check_claims(
            |doc| {
                let text = read(&root.join(doc))?;
                Ok(if doc == "README.md" { edit(text) } else { text })
            },
            pipeline,
        )
    }

    /// A citation that drifts by one printed unit or is removed from
    /// the prose fails the check, and so does prose that a moved
    /// benchmark number leaves behind; each names the citation.
    #[test]
    fn a_drifted_or_removed_citation_fails() {
        let committed = include_str!("../../BENCH_pipeline.json");
        let pipeline = json::parse(committed).unwrap();
        let err = check_edited_readme(|t| t.replace("1.71×", "1.70×"), &pipeline).unwrap_err();
        assert!(
            err.contains("README.md: citation '1.71×' not found"),
            "{err}"
        );
        let err = check_edited_readme(|t| t.replace("1.46×", ""), &pipeline).unwrap_err();
        assert!(
            err.contains("README.md: citation '1.46×' not found"),
            "{err}"
        );
        // The prose unchanged, the committed number moved.
        let mut moved = pipeline;
        let Some(Value::Arr(networks)) = member(&mut moved, "networks") else {
            panic!("'networks' is not an array");
        };
        *member(&mut networks[0], "best_speedup").unwrap() = Value::Num(1.72);
        let err = check_edited_readme(|t| t, &moved).unwrap_err();
        assert!(
            err.contains("cites '1.71×' but the committed benchmark says 1.720"),
            "{err}"
        );
    }
}
