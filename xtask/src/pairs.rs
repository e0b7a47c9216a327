//! `cargo xtask pairs <rev>` — the repo benchmark at a git revision
//! against the working tree, in alternating pairs.
//!
//! Both sides are built from source, offline, each into a target
//! directory of its own under `target/pairs/`: the revision from a
//! `git archive` export of it, the working tree in place. Building the
//! benchmark package rewrites its lagging `benchmark/Cargo.lock`, so the
//! file's bytes are put back afterwards. Every pair runs one workload on
//! both sides, one after the other, and the side that goes first swaps
//! from pair to pair, so a drift in the host's load lands on both.
//!
//! A run that reads `"correct": false` or `"failed"` above 0 ends the
//! command with an error and no table: a comparison with a broken side
//! shows nothing. Otherwise it prints, per workload and end-to-end
//! metric, each side's quartiles, the change in median, how many
//! pairs the working tree read lower in and that count's exact
//! two-sided sign-test p (ties left out; a report, not a threshold).
//! An A/A control is `cargo xtask pairs HEAD` on a clean tree.

use abm_spconv_repro::telemetry::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What `pairs` compares, and for how long.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    rev: String,
    /// Empty: every workload `BENCHMARK.json` lists.
    workloads: Vec<String>,
    pairs: usize,
    seconds: f64,
    seed: u64,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let rev = it
        .next()
        .filter(|r| !r.starts_with("--"))
        .ok_or("pairs needs a git revision to compare the working tree with")?;
    let mut opts = Options {
        rev: rev.clone(),
        workloads: Vec::new(),
        pairs: 10,
        seconds: 10.0,
        seed: 2019,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => opts.workloads.push(value.clone()),
            "--pairs" => {
                opts.pairs = value.parse().map_err(|_| number("a count"))?;
                if opts.pairs == 0 {
                    return Err("--pairs 0: must be at least 1".into());
                }
            }
            "--seconds" => opts.seconds = value.parse().map_err(|_| number("a number"))?,
            "--seed" => opts.seed = value.parse().map_err(|_| number("a number"))?,
            other => return Err(format!("unknown pairs flag '{other}'")),
        }
    }
    Ok(opts)
}

/// One benchmark run's result line.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    correct: bool,
    failed: u64,
    /// `(name, value)` of every end-to-end metric, in the line's order.
    metrics: Vec<(String, f64)>,
}

/// Reads the result object a benchmark run prints as its last line.
fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let doc = json::parse(line.unwrap_or_default()).map_err(|e| format!("result line: {e}"))?;
    let correct = match doc.get("correct") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("result line: no \"correct\"".into()),
    };
    let number = |key: &str| doc.get(key).and_then(Value::as_f64);
    let failed = number("failed").ok_or("result line: no \"failed\"")? as u64;
    let Some(Value::Obj(members)) = doc.get("metrics") else {
        return Err("result line: no \"metrics\" object".into());
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("result line: {name} has no value"))
        })
        .collect::<Result<_, String>>()?;
    Ok(RunResult {
        correct,
        failed,
        metrics,
    })
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = q * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One metric of one workload over every pair.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    metric: String,
    /// q1, median, q3 of the revision's runs.
    base: [f64; 3],
    /// q1, median, q3 of the working tree's runs.
    work: [f64; 3],
    /// `(work − base) / base` of the medians, in percent.
    delta_pct: f64,
    /// Pairs in which the working tree read lower.
    lower_in: usize,
    /// Pairs in which the working tree read higher.
    higher_in: usize,
    pairs: usize,
}

/// The exact two-sided sign test of `k` successes in `n` untied pairs:
/// `min(1, 2·Σ_{i ≤ min(k, n−k)} C(n, i) / 2ⁿ)`.
fn sign_test_p(k: usize, n: usize) -> f64 {
    let tail = k.min(n - k);
    let mut choose = 1.0; // C(n, i), built up from C(n, 0)
    let mut sum = 0.0;
    for i in 0..=tail {
        sum += choose;
        choose = choose * (n - i) as f64 / (i + 1) as f64;
    }
    (2.0 * sum / 2f64.powi(n as i32)).min(1.0)
}

/// Refuses pair `i`'s runs if either was incorrect or failed an
/// operation.
fn check_pair(i: usize, (base, work): &(RunResult, RunResult)) -> Result<(), String> {
    for (side, run) in [("revision", base), ("working tree", work)] {
        if !run.correct || run.failed > 0 {
            return Err(format!(
                "pair {}: the {side} run read correct {} with {} failed operation(s)",
                i + 1,
                run.correct,
                run.failed
            ));
        }
    }
    Ok(())
}

/// The table of `pairs`, each `(revision run, working-tree run)` of one
/// workload. Refuses any run that was incorrect or failed an operation.
fn summarize(pairs: &[(RunResult, RunResult)]) -> Result<Vec<Row>, String> {
    for (i, pair) in pairs.iter().enumerate() {
        check_pair(i, pair)?;
    }
    let Some((first, _)) = pairs.first() else {
        return Ok(Vec::new());
    };
    let column = |metric: &str, side: fn(&(RunResult, RunResult)) -> &RunResult| {
        let value = |p| {
            let run = side(p);
            let found = run.metrics.iter().find(|(name, _)| name == metric);
            found
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("a run did not report {metric}"))
        };
        pairs
            .iter()
            .map(value)
            .collect::<Result<Vec<f64>, String>>()
    };
    let quartiles = |v: &[f64]| [0.25, 0.5, 0.75].map(|q| quantile(v, q));
    let rows = first.metrics.iter().map(|(metric, _)| {
        let base = column(metric, |p| &p.0)?;
        let work = column(metric, |p| &p.1)?;
        let (b, w) = (quartiles(&base), quartiles(&work));
        Ok(Row {
            metric: metric.clone(),
            base: b,
            work: w,
            delta_pct: (w[1] - b[1]) / b[1] * 100.0,
            lower_in: base.iter().zip(&work).filter(|(b, w)| w < b).count(),
            higher_in: base.iter().zip(&work).filter(|(b, w)| w > b).count(),
            pairs: pairs.len(),
        })
    });
    rows.collect()
}

fn render(workload: &str, rev: &str, rows: &[Row]) -> String {
    let mut out = format!(
        "{workload}: {rev} vs working tree, median [q1, q3], {} pair(s)\n",
        rows.first().map_or(0, |r| r.pairs)
    );
    for r in rows {
        let side = |[q1, m, q3]: [f64; 3]| format!("{m:.4} [{q1:.4}, {q3:.4}]");
        let untied = r.lower_in + r.higher_in;
        out.push_str(&format!(
            "  {:<18} {:>30} -> {:<30} {:+7.1} %  lower in {}/{}  sign p {:.4}\n",
            r.metric,
            side(r.base),
            side(r.work),
            r.delta_pct,
            r.lower_in,
            r.pairs,
            sign_test_p(r.lower_in, untied)
        ));
    }
    out
}

/// Runs `cmd`, failing with its stderr when it exits non-zero.
fn run(cmd: &mut Command, what: &str) -> Result<String, String> {
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{what}: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{what}: {}\n{stderr}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Builds the benchmark package of the tree at `tree` into `target`,
/// offline, and returns its binary.
fn build(tree: &Path, target: &Path) -> Result<PathBuf, String> {
    let manifest = tree.join("benchmark/Cargo.toml");
    run(
        Command::new("cargo")
            .args([
                "build",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
            ])
            .arg(&manifest)
            .env("CARGO_TARGET_DIR", target),
        &format!("build {}", manifest.display()),
    )?;
    Ok(target.join("release/abm-benchmark"))
}

/// The source tree of `sha`, exported once under `dir`.
fn export(root: &Path, sha: &str, dir: &Path) -> Result<PathBuf, String> {
    let tree = dir.join("src");
    if tree.join("benchmark/Cargo.toml").exists() {
        return Ok(tree);
    }
    std::fs::create_dir_all(&tree).map_err(|e| format!("{}: {e}", tree.display()))?;
    let mut archive = Command::new("git")
        .current_dir(root)
        .args(["archive", "--format=tar", sha])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = archive.stdout.take().ok_or("git archive: no stdout")?;
    let untar = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(&tree)
        .stdin(tar)
        .status()
        .map_err(|e| format!("tar: {e}"))?;
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !(untar.success() && archived.success()) {
        // A half-written tree is not reused by the next call.
        let _ = std::fs::remove_dir_all(&tree);
        return Err(format!(
            "exporting {sha}: git archive {archived}, tar {untar}"
        ));
    }
    Ok(tree)
}

/// Entry point for `cargo xtask pairs`.
///
/// # Errors
///
/// Returns a message when an argument, a build or a run fails, or when
/// any run was incorrect or failed an operation.
pub fn main(root: &Path, args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let rev = format!("{}^{{commit}}", opts.rev);
    let sha = run(
        Command::new("git")
            .current_dir(root)
            .args(["rev-parse", "--verify", &rev]),
        "git rev-parse",
    )?;
    let sha = sha.trim();
    let pairs_dir = root.join("target/pairs");
    let base_dir = pairs_dir.join(&sha[..12.min(sha.len())]);
    let base_tree = export(root, sha, &base_dir)?;
    let base = build(&base_tree, &base_dir.join("target"))?;
    let lock_path = root.join("benchmark/Cargo.lock");
    let lock = std::fs::read(&lock_path).ok();
    let work = build(root, &pairs_dir.join("work/target"));
    if let Some(bytes) = &lock {
        std::fs::write(&lock_path, bytes).map_err(|e| format!("{}: {e}", lock_path.display()))?;
    }
    let work = work?;

    let workloads = if opts.workloads.is_empty() {
        let schema = std::fs::read_to_string(root.join("BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let doc = json::parse(&schema).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let listed = doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[]);
        let names = listed.iter().filter_map(|w| w.get("name")?.as_str());
        names.map(str::to_owned).collect()
    } else {
        opts.workloads.clone()
    };
    // An incorrect run exits non-zero but still prints its result
    // line, which is what names the failure.
    let one_run = |bin: &Path, tree: &Path, workload: &str| {
        let out = Command::new(bin)
            .current_dir(tree)
            .args(["run", "--workload", workload, "--trace", "0"])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--seed", &opts.seed.to_string()])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        parse_result(&String::from_utf8_lossy(&out.stdout)).map_err(|e| {
            let stderr = String::from_utf8_lossy(&out.stderr);
            format!(
                "{} {workload}: {}, {e}\n{stderr}",
                bin.display(),
                out.status
            )
        })
    };
    let mut tables = Vec::new();
    for workload in &workloads {
        let mut runs = Vec::with_capacity(opts.pairs);
        for pair in 0..opts.pairs {
            let pair_runs = if pair % 2 == 0 {
                let b = one_run(&base, &base_tree, workload)?;
                (b, one_run(&work, root, workload)?)
            } else {
                let w = one_run(&work, root, workload)?;
                (one_run(&base, &base_tree, workload)?, w)
            };
            check_pair(pair, &pair_runs).map_err(|e| format!("{workload}: {e}"))?;
            eprintln!("{workload}: pair {}/{} done", pair + 1, opts.pairs);
            runs.push(pair_runs);
        }
        let rows = summarize(&runs).map_err(|e| format!("{workload}: {e}"))?;
        tables.push(render(workload, &opts.rev, &rows));
    }
    print!("{}", tables.concat());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(correct: bool, failed: u64, setup: f64, latency: f64) -> RunResult {
        let line = format!(
            "noise before\n{{\"correct\": {correct}, \"attempted\": 9, \"failed\": {failed}, \
             \"metrics\": {{\"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}, \
             \"latency_quiet_ms\": {{\"value\": {latency}, \"unit\": \"ms\"}}}}}}\n"
        );
        parse_result(&line).unwrap()
    }

    #[test]
    fn the_table_is_quartiles_delta_and_lower_in_count() {
        // Revision setup 1..=5 s, working tree 10 % lower in four pairs
        // and higher in the fifth; latency equal in every pair.
        let pairs: Vec<_> = (1..=5)
            .map(|i| {
                let b = f64::from(i);
                let w = if i == 3 { 3.5 } else { b * 0.9 };
                (result(true, 0, b, 7.0), result(true, 0, w, 7.0))
            })
            .collect();
        let rows = summarize(&pairs).unwrap();
        assert_eq!(rows.len(), 2);
        let setup = &rows[0];
        assert_eq!(setup.metric, "setup_s");
        assert_eq!(setup.base, [2.0, 3.0, 4.0]);
        // Working tree: 0.9, 1.8, 3.5, 3.6, 4.5.
        assert_eq!(setup.work, [1.8, 3.5, 3.6]);
        assert!((setup.delta_pct - 100.0 / 6.0).abs() < 1e-9);
        assert_eq!((setup.lower_in, setup.higher_in, setup.pairs), (4, 1, 5));
        let latency = &rows[1];
        assert_eq!(
            (latency.delta_pct, latency.lower_in, latency.higher_in),
            (0.0, 0, 0)
        );
        // Even counts interpolate between the middle order statistics.
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
        let table = render("alexnet_image", "HEAD", &rows);
        // 4 of 5 untied: 2·(1 + 5)/32; latency ties everywhere: 1.
        assert!(
            table.contains("+16.7 %  lower in 4/5  sign p 0.3750"),
            "{table}"
        );
        assert!(table.contains("lower in 0/5  sign p 1.0000"), "{table}");
    }

    #[test]
    fn the_sign_test_is_exact_and_two_sided() {
        let close = |got: f64, want: f64| (got - want).abs() < 5e-5;
        assert!(
            close(sign_test_p(10, 10), 0.00195),
            "{}",
            sign_test_p(10, 10)
        );
        assert!(close(sign_test_p(9, 10), 0.02148), "{}", sign_test_p(9, 10));
        assert_eq!(sign_test_p(5, 10), 1.0);
        // Symmetric in which side read lower.
        assert_eq!(sign_test_p(1, 10), sign_test_p(9, 10));
        assert_eq!(sign_test_p(0, 0), 1.0);
    }

    #[test]
    fn a_failed_or_incorrect_run_leaves_no_table() {
        let good = || result(true, 0, 1.0, 2.0);
        let err = summarize(&[(good(), good()), (good(), result(true, 1, 1.0, 2.0))]);
        assert!(
            err.unwrap_err().contains("pair 2: the working tree run"),
            "a failed operation must refuse the table"
        );
        let err = summarize(&[(result(false, 0, 1.0, 2.0), good())]);
        assert!(err
            .unwrap_err()
            .contains("pair 1: the revision run read correct false"));
        assert!(parse_result("no result here").is_err());
    }

    #[test]
    fn flags_parse_and_a_revision_is_required() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let opts = parse(&args(
            "HEAD~1 --workload a --workload b --pairs 4 --seconds 2.5 --seed 7",
        ))
        .unwrap();
        assert_eq!(opts.rev, "HEAD~1");
        assert_eq!(opts.workloads, ["a", "b"]);
        assert_eq!((opts.pairs, opts.seconds, opts.seed), (4, 2.5, 7));
        let defaults = parse(&args("HEAD")).unwrap();
        assert_eq!((defaults.pairs, defaults.seconds), (10, 10.0));
        assert!(parse(&args("--pairs 3")).is_err());
        assert!(parse(&args("HEAD --pairs 0")).is_err());
        assert!(parse(&args("HEAD --aa")).is_err());
    }
}
