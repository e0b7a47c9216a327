//! Repository automation driver (`cargo xtask <command>`).
//!
//! ```text
//! cargo xtask lint            # source lint: unsafe-forbid + panic-free core
//! cargo xtask verify --zoo    # static verification of AlexNet + VGG16
//! cargo xtask verify --net N  # ... of one zoo network
//! cargo xtask mc              # exhaustive concurrency model-checker suite
//! cargo xtask faults --smoke  # seeded fault-injection campaign gate
//! cargo xtask metrics --smoke # metrics-registry bit-identity + exposition gate
//! cargo xtask serve --smoke   # serving soak gate (loadtest legs incl. chaos)
//! cargo xtask bench-diff A B  # noise-aware perf-regression gate
//! ```
//!
//! All three commands exit non-zero on the first clean/dirty verdict
//! mismatch, so CI can call them directly. The lint pass is a source
//! scanner (no rustc involvement): it enforces `#![forbid(unsafe_code)]`
//! in every compilation root and denies `unwrap()`/`expect()`/`panic!`
//! in the non-test core paths of `tensor`/`sparse`/`conv`/`sim`, with
//! an allowlist (`xtask/lint-allow.txt`) whose every surviving site
//! must justify itself with an `// INVARIANT:` comment.

#![forbid(unsafe_code)]

mod benchdiff;
mod certify;
mod faults;
mod lint;
mod metrics;
mod serve;
mod zoo;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask <command>
commands:
  lint                 source lint pass (unsafe-forbid, panic-free core paths)
  lint --self-test     prove the token-aware scanner on seeded fixtures
  verify --zoo         statically verify every AlexNet + VGG16 layer
  verify --net <name>  statically verify one network (tiny|alexnet|vgg16|vgg19)
  verify --certify     re-derive width certificates, replay their witnesses,
                       and check CERT_zoo.json (--update rewrites the file)
  mc                   run the exhaustive interleaving model-checker suite
  faults [--smoke]     run the fault-injection campaign (smoke = AlexNet only;
                       the full run rewrites the committed FAULTS_campaign.json)
  metrics [--smoke]    metrics registry gate: on/off bit-identity + expositions
  serve [--smoke]      serving soak gate: loadtest legs incl. chaos, release build
  bench-diff <old> <new> [--threshold PCT]
                       fail when a headline benchmark metric regresses
  bench-diff --check-docs
                       assert every number the docs cite from the committed
                       records (BENCH_pipeline.json, REPRO_paper.json)
  bench-diff --self-test
                       prove the gate rejects a degraded benchmark";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The xtask binary lives in `<repo>/xtask`; everything it scans is
    // addressed relative to the repository root so `cargo xtask` works
    // from any subdirectory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level below the repository root")
        .to_path_buf();
    let outcome = match args.first().map(String::as_str) {
        Some("lint") => match args.get(1).map(String::as_str) {
            Some("--self-test") => lint::self_test(),
            None => lint::run(&root),
            Some(other) => Err(format!("unknown lint flag '{other}'\n{USAGE}")),
        },
        Some("verify") if args[1..].iter().any(|a| a == "--certify") => {
            certify::run(&root, args[1..].iter().any(|a| a == "--update"))
        }
        Some("verify") => match args.get(1).map(String::as_str) {
            Some("--zoo") | None => zoo::verify(&["alexnet", "vgg16"]),
            Some("--net") => match args.get(2) {
                Some(name) => zoo::verify(&[name.as_str()]),
                None => Err("--net needs a network name".into()),
            },
            Some(other) => Err(format!("unknown verify flag '{other}'\n{USAGE}")),
        },
        Some("mc") => zoo::model_check(),
        Some("faults") => match args.get(1).map(String::as_str) {
            Some("--smoke") => faults::run(&root, true),
            None => faults::run(&root, false),
            Some(other) => Err(format!("unknown faults flag '{other}'\n{USAGE}")),
        },
        Some("metrics") => match args.get(1).map(String::as_str) {
            Some("--smoke") | None => metrics::run(&root),
            Some(other) => Err(format!("unknown metrics flag '{other}'\n{USAGE}")),
        },
        Some("serve") => match args.get(1).map(String::as_str) {
            Some("--smoke") => serve::run(&root, true),
            None => serve::run(&root, false),
            Some(other) => Err(format!("unknown serve flag '{other}'\n{USAGE}")),
        },
        Some("bench-diff") => benchdiff::run(&root, &args[1..]),
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
