//! Command-line interface for the reproduction (hand-rolled parser — no
//! extra dependencies).
//!
//! The accepted command lines are [`USAGE`]: the banner is generated
//! from the same per-subcommand flag tables (`flags.rs`) the parser
//! reads, so there is no second copy to drift. Each subcommand lives in
//! its own file: its flag table, the [`Command`] a bare `name <net>`
//! parses to, and what running it prints.

mod analyze;
mod explore;
mod faults;
mod flags;
mod infer;
mod metrics;
mod pipeline;
mod serve;
mod simulate;
mod verify;

use abm_conv::{Engine, Parallelism};
use abm_dse::FpgaDevice;
use abm_kernel::Isa;
use abm_model::{synthesize_model, zoo, Network, PruneProfile, SparseModel};
use abm_sim::AcceleratorConfig;
use abm_tensor::Tensor3;
use flags::Flag;
use std::error::Error;
use std::fmt;
use std::sync::LazyLock;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the usage banner (`-h` / `--help`).
    Help,
    /// Static analysis of a network + pruning profile.
    Analyze {
        /// Network name.
        net: String,
    },
    /// Cycle simulation on a configuration.
    Simulate {
        /// Network name.
        net: String,
        /// Accelerator configuration (paper defaults with overrides).
        config: AcceleratorConfig,
        /// Host-thread parallelism for the simulation itself.
        parallelism: Parallelism,
        /// Collect telemetry and print the cycle/stall/DDR summary.
        telemetry: bool,
        /// Print the per-layer roofline report annotated with the
        /// analytic model.
        report: bool,
        /// Write a Chrome `trace_event` JSON file of the CU timeline.
        trace_out: Option<String>,
    },
    /// The full design-space exploration flow.
    Explore {
        /// Network name.
        net: String,
        /// Target device.
        device: FpgaDevice,
    },
    /// Static verification of every lowered layer: the `abm-verify`
    /// lowering and schedule/legality passes under the network's paper
    /// configuration.
    Verify {
        /// Network name.
        net: String,
        /// Synthesis seed.
        seed: u64,
    },
    /// Seeded fault-injection campaign: every fault class against the
    /// network's detectors and recovery paths, gated on zero silent
    /// corruptions.
    Faults {
        /// Network name.
        net: String,
        /// Campaign seed (reproduces every trial).
        seed: u64,
        /// Trials per fault class.
        trials: usize,
        /// Write the JSON campaign report here.
        json: Option<String>,
        /// Write a Chrome trace of the fault telemetry here.
        trace_out: Option<String>,
    },
    /// The pipelined-vs-time-multiplexed design axis: plan a layer
    /// pipeline, simulate it against the sequential baseline, verify
    /// the selected schedule, and print the recommendation.
    Pipeline {
        /// Network name.
        net: String,
        /// Synthesis seed.
        seed: u64,
        /// Images streamed through the pipeline.
        batch: usize,
        /// Target device for the resource/frequency model.
        device: FpgaDevice,
    },
    /// Functional inference on a batch of synthetic images.
    Infer {
        /// Network name.
        net: String,
        /// Engine to run.
        engine: Engine,
        /// Synthesis seed.
        seed: u64,
        /// Number of synthetic images to run.
        batch: usize,
        /// Host-thread parallelism across the batch.
        parallelism: Parallelism,
        /// Pin the ABM hot path to one kernel ISA (`None` =
        /// auto-detect the widest available).
        isa: Option<Isa>,
    },
    /// Run a metered workload (batch inference plus a collected
    /// simulation) against the process-wide metrics registry and print
    /// the sorted metrics table with exact p50/p90/p99 percentiles.
    Metrics {
        /// Network name.
        net: String,
        /// Synthesis seed.
        seed: u64,
        /// Number of synthetic images to run.
        batch: usize,
        /// Host-thread parallelism across the batch.
        parallelism: Parallelism,
        /// Write the JSON metrics snapshot here.
        json: Option<String>,
        /// Write the Prometheus-style text exposition here.
        prom: Option<String>,
    },
    /// The fault-tolerant batching inference service: an in-process
    /// open-loop burst against the admission-controlled server
    /// (default), or a TCP listener speaking the line protocol.
    Serve {
        /// Network name.
        net: String,
        /// Synthesis seed.
        seed: u64,
        /// Requests offered in the burst.
        requests: usize,
        /// Offered rate as a multiple of the measured sustainable rate
        /// (2.0 = deliberate overload).
        rate_x: f64,
        /// Enable seeded chaos injection (weight-stream corruption).
        chaos: bool,
        /// Bind a TCP front end here (e.g. `127.0.0.1:7070`) instead
        /// of the in-process burst.
        listen: Option<String>,
        /// Seconds the TCP listener stays up before draining.
        for_secs: u64,
        /// Write the `BENCH_serve.json`-schema report here.
        json: Option<String>,
    },
}

/// CLI usage / parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for UsageError {}

fn err(msg: impl Into<String>) -> UsageError {
    UsageError(msg.into())
}

/// The networks every subcommand accepts.
const NETS: [&str; 4] = ["vgg16", "alexnet", "vgg19", "tiny"];

/// One subcommand: its name, its flag table, and the [`Command`] a bare
/// `name <net>` parses to (which the flags then edit).
struct Subcommand {
    name: &'static str,
    flags: &'static [Flag],
    default: fn(String) -> Command,
}

/// `fields!(command => Verify { net, seed })` binds the fields of the
/// variant [`execute`] dispatched `command` on; every subcommand's
/// `run` opens with it.
macro_rules! fields {
    ($command:ident => $variant:ident { $($field:ident),* }) => {
        let $crate::cli::Command::$variant { $($field),* } = $command else {
            unreachable!("execute dispatches on the variant")
        };
    };
}
use fields;

/// Every subcommand, in usage-banner order.
const SUBCOMMANDS: [&Subcommand; 9] = [
    &analyze::SUB,
    &simulate::SUB,
    &explore::SUB,
    &infer::SUB,
    &verify::SUB,
    &faults::SUB,
    &pipeline::SUB,
    &metrics::SUB,
    &serve::SUB,
];

/// The usage banner, generated from the subcommands' flag tables.
pub static USAGE: LazyLock<String> = LazyLock::new(|| {
    let mut usage = String::from("usage: abm-spconv <command> [options]\ncommands:");
    for (i, sub) in SUBCOMMANDS.iter().enumerate() {
        // The first entry spells the network names out.
        let net = if i == 0 {
            format!("<{}>", NETS.join("|"))
        } else {
            "<net>".to_string()
        };
        usage.push('\n');
        usage.push_str(&flags::usage_line(sub.name, &net, sub.flags));
    }
    usage
});

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing what was wrong.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let Some(cmd) = args.first() else {
        return Err(err(USAGE.as_str()));
    };
    if cmd == "-h" || cmd == "--help" {
        return Ok(Command::Help);
    }
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.name == cmd)
        .ok_or_else(|| err(format!("unknown command '{cmd}'\n{}", *USAGE)))?;
    let net = args
        .get(1)
        .ok_or_else(|| err(format!("{cmd}: missing network name")))?;
    if !NETS.contains(&net.as_str()) {
        return Err(err(format!("unknown network '{net}'")));
    }
    let mut command = (sub.default)(net.clone());
    flags::apply(sub.flags, &args[2..], &mut command)?;
    // The one constraint that spans flags: the overridden design
    // parameters must still describe a buildable accelerator.
    if let Command::Simulate { config, .. } = &command {
        config
            .validate()
            .map_err(|e| err(format!("invalid configuration: {e}")))?;
    }
    Ok(command)
}

/// Resolves a network name to the zoo entry and its pruning profile.
pub fn lookup(net: &str) -> (Network, PruneProfile) {
    match net {
        "vgg16" => (zoo::vgg16(), PruneProfile::vgg16_deep_compression()),
        "vgg19" => (zoo::vgg19(), PruneProfile::vgg16_deep_compression()),
        "alexnet" => (zoo::alexnet(), PruneProfile::alexnet_deep_compression()),
        "tiny" => (
            zoo::tiny(),
            PruneProfile::uniform(abm_model::LayerProfile::new(0.6, 16)),
        ),
        other => unreachable!("parse() validated the name, got '{other}'"),
    }
}

fn build(net: &str, seed: u64) -> (Network, PruneProfile, SparseModel) {
    let (network, profile) = lookup(net);
    let model = synthesize_model(&network, &profile, seed);
    (network, profile, model)
}

/// `batch` deterministic synthetic images of `network`'s input shape.
fn synthetic_inputs(network: &Network, batch: usize) -> Vec<Tensor3<i16>> {
    (0..batch)
        .map(|i| {
            Tensor3::from_fn(network.input_shape(), |c, r, col| {
                ((((c + 1) * (r + 3) * (col + 7 + i)) % 255) as i16) - 127
            })
        })
        .collect()
}

/// Executes a parsed command, writing human-readable output to stdout.
pub fn execute(command: &Command) -> Result<(), Box<dyn Error>> {
    match command {
        Command::Help => {
            println!("{}", *USAGE);
            Ok(())
        }
        Command::Analyze { .. } => analyze::run(command),
        Command::Simulate { .. } => simulate::run(command),
        Command::Explore { .. } => explore::run(command),
        Command::Verify { .. } => verify::run(command),
        Command::Faults { .. } => faults::run(command),
        Command::Pipeline { .. } => pipeline::run(command),
        Command::Infer { .. } => infer::run(command),
        Command::Metrics { .. } => metrics::run(command),
        Command::Serve { .. } => serve::run(command),
    }
}

/// Folds `(variant name, lanes)` pairs into `(isa/acc, lanes, layer
/// count)` groups in first-seen order.
fn fold_dispatch(variants: impl Iterator<Item = (String, u32)>) -> Vec<(String, u32, u32)> {
    let mut groups: Vec<(String, u32, u32)> = Vec::new();
    for (name, lanes) in variants {
        match groups.iter_mut().find(|g| g.0 == name && g.1 == lanes) {
            Some(g) => g.2 += 1,
            None => groups.push((name, lanes, 1)),
        }
    }
    groups
}

/// Renders dispatch groups as `isa/acc xN (L lanes)`, comma-joined.
fn render_dispatch(groups: &[(String, u32, u32)]) -> String {
    groups
        .iter()
        .map(|(name, lanes, count)| format!("{name} x{count} ({lanes} lanes)"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests;
