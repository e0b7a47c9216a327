//! The flag table and the one parser that reads it.
//!
//! Every subcommand declares its flags once, as a `&[Flag]`: the
//! spelling, the value placeholder the usage banner shows, and — via
//! [`flag!`] — which field of its [`Command`] the value lands in through
//! which value parser. [`apply`] walks an argument list against such a
//! table and [`usage_line`] renders the same table into the banner, so a
//! flag that is not in the table cannot be parsed, and one that is
//! cannot be missing from the usage.

use super::{err, Command, UsageError};
use abm_conv::Engine;
use abm_dse::FpgaDevice;

/// One declared flag.
pub(super) struct Flag {
    /// The spelling on the command line, dashes included.
    pub name: &'static str,
    /// The value placeholder shown in the usage banner; empty for a
    /// switch, which takes no value.
    pub usage: &'static str,
    /// Parses a value and stores it in the command under construction.
    pub set: fn(&mut Command, &str) -> Result<(), String>,
}

/// `flag!("--seed" "S", Verify.seed = uint)`: the flag `--seed S` stores
/// `uint(value)?` in the `seed` field of `Command::Verify`.
macro_rules! flag {
    ($name:literal $usage:expr, $variant:ident . $field:ident $(. $inner:ident)* = $parse:expr) => {
        $crate::cli::flags::Flag {
            name: $name,
            usage: $usage,
            set: |command, value| {
                let parsed = $parse(value)?;
                if let $crate::cli::Command::$variant { $field, .. } = command {
                    (*$field)$(.$inner)* = parsed;
                }
                Ok(())
            },
        }
    };
}
pub(super) use flag;

/// Usage placeholder of `--parallel`.
pub(super) const PARALLEL: &str = "serial|auto|N";
/// Usage placeholder of `--isa`.
pub(super) const ISA: &str = "auto|scalar|avx2|avx512";
/// Usage placeholder of `--device`.
pub(super) const DEVICE: &str = "gxa7|arria10";

/// A switch was given.
pub(super) fn switch(_: &str) -> Result<bool, String> {
    Ok(true)
}

/// An integer of at least `min` that fits the field's type.
fn integer<T: TryFrom<u64>>(v: &str, min: u64) -> Result<T, String> {
    let n = v.parse::<u64>().ok().filter(|&n| n >= min);
    n.and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("bad number '{v}' (expected an integer >= {min})"))
}

/// A non-negative integer.
pub(super) fn uint<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    integer(v, 0)
}

/// An integer of at least one.
pub(super) fn positive<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    integer(v, 1)
}

/// A positive, finite floating-point number.
pub(super) fn positive_f64(v: &str) -> Result<f64, String> {
    let f = v.parse::<f64>().ok();
    f.filter(|f| *f > 0.0 && f.is_finite())
        .ok_or_else(|| format!("bad number '{v}' (expected a positive finite number)"))
}

/// `dense|gemm|sparse|abm|freq`.
pub(super) fn engine(v: &str) -> Result<Engine, String> {
    match v {
        "dense" => Ok(Engine::Dense),
        "gemm" => Ok(Engine::Gemm),
        "sparse" => Ok(Engine::Sparse),
        "abm" => Ok(Engine::Abm),
        "freq" => Ok(Engine::Freq),
        other => Err(format!("unknown engine '{other}'")),
    }
}

/// `gxa7|arria10`.
pub(super) fn device(v: &str) -> Result<FpgaDevice, String> {
    match v {
        "gxa7" => Ok(FpgaDevice::stratix_v_gxa7()),
        "arria10" => Ok(FpgaDevice::arria10_gx1150()),
        other => Err(format!("unknown device '{other}'")),
    }
}

/// Free text: a path or an address.
pub(super) fn text(v: &str) -> Result<Option<String>, String> {
    Ok(Some(v.to_string()))
}

/// Applies `args` (everything after the network name) to `command`
/// according to `flags`.
///
/// # Errors
///
/// `unknown flag`, `needs a value`, or a bad value — each naming the
/// flag.
pub(super) fn apply(
    flags: &[Flag],
    args: &[String],
    command: &mut Command,
) -> Result<(), UsageError> {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let declared = flags
            .iter()
            .find(|f| f.name == flag)
            .ok_or_else(|| err(format!("unknown flag {flag}")))?;
        let value = if declared.usage.is_empty() {
            ""
        } else {
            it.next()
                .ok_or_else(|| err(format!("flag {flag} needs a value")))?
        };
        (declared.set)(command, value).map_err(|why| err(format!("{flag}: {why}")))?;
    }
    Ok(())
}

/// Width the usage banner wraps at.
const USAGE_WIDTH: usize = 76;

/// One subcommand's entry in the usage banner: `name <net>` followed by
/// every flag of its table, wrapped under the first flag's column.
pub(super) fn usage_line(name: &str, net: &str, flags: &[Flag]) -> String {
    let mut out = format!("  {name:<8} {net}");
    let indent = "  ".len() + 8 + " <net> ".len();
    let mut width = out.len();
    for f in flags {
        let item = match f.usage {
            "" => format!("[{}]", f.name),
            usage => format!("[{} {usage}]", f.name),
        };
        if width + 1 + item.len() > USAGE_WIDTH {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            width = indent;
        } else {
            out.push(' ');
            width += 1;
        }
        out.push_str(&item);
        width += item.len();
    }
    out
}
