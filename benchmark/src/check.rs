//! `check`: does the benchmark agree with itself? Two sets of runs of
//! the same code, back to back, compared per (workload, end-to-end
//! metric) against that metric's bound. `self-test`: does a wrong
//! output fail a run?

use crate::report::{MetricSpec, Schema};
use crate::stats::Samples;
use crate::{child, Args};
use abm_telemetry::json::{self, Value};
use std::process::Stdio;

/// The result object a child run printed as its last line.
struct RunResult {
    exit_ok: bool,
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_child(workload: &str, args: &Args, traced: bool) -> Result<RunResult, String> {
    let output = child(workload, args, traced)?
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing ({})", output.status))?;
    let doc = json::parse(last).map_err(|e| format!("{workload}: last line: {e}"))?;
    let Some(Value::Obj(members)) = doc.get("metrics") else {
        return Err(format!("{workload}: result has no \"metrics\" object"));
    };
    Ok(RunResult {
        exit_ok: output.status.success(),
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        failed: doc
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN) as u64,
        metrics: members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
fn worsening(spec: &MetricSpec, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if spec.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn check(schema: &Schema, args: &Args) -> Result<bool, String> {
    // medians[set][workload][metric]
    let mut sets: Vec<Vec<Vec<Samples>>> = Vec::new();
    let mut all_correct = true;
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for workload in &schema.workloads {
            let mut per_metric = vec![Samples::default(); schema.end_to_end.len()];
            for run in 0..args.runs {
                // Another seed each run, the same seeds in both sets.
                let args = Args {
                    seed: args.seed + run as u64,
                    ..args.clone()
                };
                let result = run_child(workload, &args, false)?;
                if !(result.exit_ok && result.correct) {
                    println!(
                        "set {set} {workload} seed {}: INCORRECT ({} failed)",
                        args.seed, result.failed
                    );
                    all_correct = false;
                }
                for (spec, samples) in schema.end_to_end.iter().zip(&mut per_metric) {
                    let value = result
                        .metrics
                        .iter()
                        .find(|(k, _)| *k == spec.name)
                        .ok_or_else(|| format!("{workload} did not print {}", spec.name))?;
                    samples.push(value.1);
                }
            }
            per_workload.push(per_metric);
        }
        sets.push(per_workload);
    }

    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict   ({} run(s) per set, medians)",
        "workload", "metric", "first", "second", "worse by", "bound", args.runs
    );
    let mut all_within = true;
    for (w, workload) in schema.workloads.iter().enumerate() {
        for (m, spec) in schema.end_to_end.iter().enumerate() {
            let (first, second) = (sets[0][w][m].median(), sets[1][w][m].median());
            let worse = worsening(spec, first, second);
            let bound = spec.bound.unwrap_or(0.0);
            let within = worse <= bound;
            all_within &= within;
            println!(
                "{workload:<14} {:<16} {first:>14.4} {second:>14.4} {:>8.1}% {:>6.0}%  {}",
                spec.name,
                100.0 * worse,
                100.0 * bound,
                if within { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(all_correct && all_within)
}

/// Flips one golden entry in a short `tiny_serve` run and expects that
/// run — and only that run — to fail.
pub fn self_test(args: &Args) -> Result<bool, String> {
    let quick = Args {
        seconds: Some(args.seconds.unwrap_or(2.0)),
        ..args.clone()
    };
    let clean = run_child("tiny_serve", &quick, false)?;
    let corrupted = run_child(
        "tiny_serve",
        &Args {
            corrupt_golden: true,
            ..quick
        },
        false,
    )?;
    let clean_ok = clean.exit_ok && clean.correct && clean.failed == 0;
    let caught = !corrupted.exit_ok && !corrupted.correct && corrupted.failed > 0;
    println!(
        "self-test: clean run {} (failed {}); run with one golden entry flipped {} (failed {})",
        if clean_ok { "passed" } else { "FAILED" },
        clean.failed,
        if caught {
            "was caught"
        } else {
            "WAS NOT CAUGHT"
        },
        corrupted.failed
    );
    Ok(clean_ok && caught)
}
