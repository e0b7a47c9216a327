//! The repo benchmark: see `README.md` beside this package and
//! `/BENCHMARK.json`.
//!
//! ```text
//! abm-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//! abm-benchmark check [--seed N] [--seconds S] [--runs N]
//! abm-benchmark self-test
//! abm-benchmark regen-golden
//! ```

#![forbid(unsafe_code)]

mod calibrate;
mod check;
mod golden;
mod inputs;
mod ladder;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Schema;
use std::process::{Command, ExitCode, Stdio};

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 2019;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// `None`: the schema's `run_seconds`.
    seconds: Option<f64>,
    /// `None`: both an untraced and a traced run.
    trace: Option<bool>,
    runs: usize,
    corrupt_golden: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        runs: 3,
        corrupt_golden: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s}: must be in (0, 60]"));
                }
                parsed.seconds = Some(s);
            }
            "--runs" => {
                parsed.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if parsed.runs == 0 {
                    return Err("--runs 0: must be at least 1".into());
                }
            }
            // `--trace` alone switches tracing on; the driver writes
            // `--trace 0` or `--trace 1`.
            "--trace" => {
                parsed.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--corrupt-golden" => parsed.corrupt_golden = true,
            other => return Err(format!("unknown argument \"{other}\"")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its result; `Ok(true)`
/// when every output was correct.
fn run_here(schema: &Schema, workload: &str, args: &Args) -> Result<bool, String> {
    if !schema.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload \"{workload}\" (BENCHMARK.json lists: {})",
            schema.workloads.join(", ")
        ));
    }
    let traced = args.trace.unwrap_or(false);
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(schema.run_seconds),
        tracer: trace::Tracer::new(traced),
        golden: golden::Golden::load(args.corrupt_golden)?,
    };
    println!(
        "{workload}: seed {}, {} s window, trace {}, {} core(s)",
        ctx.seed,
        ctx.seconds,
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let outcome = workloads::run(workload, &ctx)?;
    if let Some((path, spans)) = ctx.tracer.write(workload)? {
        println!("{workload}: {spans} spans written to {path}");
    }
    outcome.print(schema, workload, traced)?;
    Ok(outcome.correct())
}

/// This program again, for one workload in a process of its own, so
/// `peak_rss_mb`, allocator state and thread pools are that workload's
/// alone.
fn child(workload: &str, args: &Args, traced: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.corrupt_golden {
        cmd.arg("--corrupt-golden");
    }
    Ok(cmd)
}

/// Every workload, each in a fresh child process, untraced then traced
/// (or only the mode `--trace` names). `Ok(true)` when all were correct.
fn run_all(schema: &Schema, args: &Args) -> Result<bool, String> {
    let modes = match args.trace {
        Some(traced) => vec![traced],
        None => vec![false, true],
    };
    let mut failed = Vec::new();
    for workload in &schema.workloads {
        for &traced in &modes {
            let status = child(workload, args, traced)?
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            if !status.success() {
                failed.push(format!("{workload} (trace {}): {status}", u8::from(traced)));
            }
        }
    }
    for f in &failed {
        println!("FAILED {f}");
    }
    Ok(failed.is_empty())
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = argv
        .split_first()
        .ok_or("usage: abm-benchmark <run|check|self-test|regen-golden> [options]")?;
    let args = parse(rest)?;
    let schema = Schema::load()?;
    match command.as_str() {
        "run" => match &args.workload {
            Some(workload) => run_here(&schema, workload, &args),
            None => run_all(&schema, &args),
        },
        "check" => check::check(&schema, &args),
        "self-test" => check::self_test(&args),
        "regen-golden" => golden::regen().map(|()| true),
        other => Err(format!("unknown command \"{other}\"")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("abm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
