//! `cargo xtask serve [--smoke]` — the serving soak gate.
//!
//! Delegates to the `loadtest` binary in a release build. The binary
//! drives three open-loop legs against an in-process server (nominal,
//! 2× overload, 2× overload with seeded weight corruption) and
//! asserts its gates in-process: zero silent corruptions, every
//! rejection typed, nominal p99 inside the SLO, overload legs shedding
//! or cutting (never collapsing), and drain conservation
//! (`admitted == answered`) on every leg. A non-zero exit is the
//! verdict, so a status check is the whole gate.
//!
//! `--smoke` halves the request count and writes the report under
//! `target/` so CI never dirties the committed `BENCH_serve.json`;
//! the full run refreshes the committed report in place. Either runs
//! without the caller's backtrace variables (see `loadtest`).

use std::path::Path;
use std::process::Command;

/// Runs the serving soak, smoke or full.
///
/// # Errors
///
/// Returns a message when cargo cannot be spawned or the loadtest
/// reports a violated gate (non-zero exit).
pub fn run(root: &Path, smoke: bool) -> Result<(), String> {
    let (mut cmd, out) = loadtest(root, smoke);
    let status = cmd
        .status()
        .map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if status.success() {
        println!("serve gate passed; report at {out}");
        Ok(())
    } else {
        Err("serving soak failed: a robustness gate was violated (see loadtest output)".into())
    }
}

/// The `loadtest` invocation and the report it writes. The backtrace
/// variables are removed from its environment: with them set, every
/// guarded sweep panic in the chaos leg symbolizes a backtrace before
/// it is caught, which costs tens of milliseconds a panic and moves the
/// report's tail latencies and deadline cuts with the caller's shell.
fn loadtest(root: &Path, smoke: bool) -> (Command, &'static str) {
    let out = if smoke {
        "target/BENCH_serve_smoke.json"
    } else {
        "BENCH_serve.json"
    };
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root).args([
        "run",
        "--release",
        "-p",
        "abm-serve",
        "--bin",
        "loadtest",
        "--",
        "tiny",
        "--out",
        out,
    ]);
    if smoke {
        cmd.arg("--quick");
    }
    cmd.env_remove("RUST_BACKTRACE")
        .env_remove("RUST_LIB_BACKTRACE");
    (cmd, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsStr;

    #[test]
    fn the_loadtest_runs_without_the_backtrace_variables() {
        for smoke in [false, true] {
            let (cmd, out) = loadtest(Path::new("."), smoke);
            let envs: Vec<_> = cmd.get_envs().collect();
            assert_eq!(
                envs,
                [
                    (OsStr::new("RUST_BACKTRACE"), None),
                    (OsStr::new("RUST_LIB_BACKTRACE"), None)
                ]
            );
            let args: Vec<_> = cmd.get_args().collect();
            assert_eq!(args.contains(&OsStr::new("--quick")), smoke);
            assert!(args.contains(&OsStr::new(out)));
        }
    }
}
