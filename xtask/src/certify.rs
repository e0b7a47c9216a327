//! `cargo xtask verify --certify`: re-derive the width certificates for
//! every AlexNet + VGG16 layer, validate each one end to end (fresh
//! re-analysis, index-level witness replay, *and* a full replay of both
//! extremal patches through the instrumented `abm::reference` executor),
//! and diff the summaries against the committed `CERT_zoo.json`.
//!
//! Without `--update` the committed file is authoritative: a missing,
//! spurious or loosened entry is a `cert_stale` defect and a layer that
//! now needs more bits than committed is a `cert_width_regression` —
//! both fail the command, so CI turns a stale certificate file into a
//! red build. The committed file must also be the rendered document
//! byte for byte, so it is always exactly the JSON writer's output.
//! With `--update` the file is rewritten from the fresh analysis (after
//! the same validation gauntlet).

use crate::zoo::{lookup, SEED};
use abm_model::synthesize_model;
use abm_sim::task::Workload;
use abm_sim::verify::workload_geometry;
use abm_spconv_repro::conv::abm::reference::conv2d_instrumented;
use abm_spconv_repro::conv::Geometry;
use abm_spconv_repro::sparse::LayerCode;
use abm_spconv_repro::telemetry::json::{self, Node, Value};
use abm_spconv_repro::tensor::{Shape3, Tensor3};
use abm_verify::{
    certify_layer, check_certificates, AbsVal, CertSummary, ExtremalPatch, Interval, VerifyReport,
    WidthCertificate,
};
use std::path::Path;
use std::time::Instant;

/// The committed certificate file at the repository root.
pub const CERT_FILE: &str = "CERT_zoo.json";

/// Networks the certificate file covers (same pair as `verify --zoo`).
const NETS: [&str; 2] = ["alexnet", "vgg16"];

/// Re-certifies the zoo and checks (or, with `update`, rewrites) the
/// committed certificate file. Errors with a defect dump when any
/// certificate fails validation or the committed file is stale.
pub fn run(root: &Path, update: bool) -> Result<(), String> {
    let mut failures = Vec::new();
    let path = root.join(CERT_FILE);
    let committed = if update {
        None
    } else {
        Some(read_committed(&path)?)
    };

    let mut networks = Vec::new();
    for name in NETS {
        let (net, profile, _cfg) = lookup(name)?;
        let model = synthesize_model(&net, &profile, SEED);
        println!("{} (seed {SEED}):", net.name());
        let mut certs = Vec::new();
        for layer in &model.layers {
            let started = Instant::now();
            let w = Workload::from_layer(layer)
                .map_err(|e| format!("{name}/{}: encoding failed: {e}", layer.name()))?;
            let geometry = workload_geometry(&w);
            let cert = certify_layer(&w.name, &w.code, &geometry, AbsVal::i8_features());
            let mut report = cert.validate(&w.code, &geometry);
            report.merge(replay_witnesses(&cert, &w.code, geometry.groups));
            println!(
                "  {:<10} stage1 {:>2}b  stage2 {:>2}b  abft {:>2}b  {}  ({:.2?})",
                cert.layer,
                cert.stage1_bits,
                cert.stage2_bits,
                cert.abft_bits,
                if cert.packable() {
                    "packable"
                } else {
                    "        "
                },
                started.elapsed()
            );
            if !report.is_clean() {
                failures.push(report.to_string());
            }
            certs.push(cert);
        }
        if let Some((committed, _)) = &committed {
            let have = committed.get(name).map_or(&[][..], Vec::as_slice);
            let report = check_certificates(name, have, &certs);
            if !report.is_clean() {
                failures.push(report.to_string());
            }
        }
        networks.push((name, certs));
    }
    let rendered = Node::object(|o| {
        o.field("seed", SEED);
        o.object("networks", |o| {
            for (name, certs) in &networks {
                o.array(name, |a| certs.iter().for_each(|c| a.item(&c.summary())));
            }
        });
    })
    .render();

    if !failures.is_empty() {
        return Err(format!(
            "certify failed with {} dirty report(s):\n{}",
            failures.len(),
            failures.join("")
        ));
    }
    match committed {
        None => {
            std::fs::write(&path, rendered).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("certify: wrote {CERT_FILE}");
        }
        Some((_, text)) if text != rendered => {
            return Err(format!(
                "{CERT_FILE} is not the certificate writer's output byte for byte \
                 (re-run with --update)"
            ));
        }
        Some(_) => println!("certify: all certificates validated and {CERT_FILE} is current"),
    }
    Ok(())
}

/// Replays both extremal witness patches through the instrumented
/// reference executor on the unpadded single-output-pixel geometry the
/// patch encodes, proving end to end that (a) the stage-2 witness
/// reproduces its `expect` through the real two-stage engine, (b) every
/// observed stage-1 partial and stage-2 accumulator stays inside the
/// certified intervals, and (c) the binding run *attains* the certified
/// bit-width exactly (tight-or-over, never under).
fn replay_witnesses(cert: &WidthCertificate, code: &LayerCode, groups: usize) -> VerifyReport {
    let mut report = VerifyReport::new(&cert.layer);
    let shape = code.shape();
    for (witness, is_stage1) in [(&cert.stage2_witness, false), (&cert.stage1_witness, true)] {
        if witness.patch.is_empty() {
            // Degenerate all-zero layer: nothing to replay.
            report.facts += 1;
            continue;
        }
        match replay_one(
            cert,
            witness,
            code,
            groups,
            (shape.kernel_rows, shape.kernel_cols),
            is_stage1,
        ) {
            Ok(facts) => report.facts += facts,
            Err(detail) => report.defect(abm_verify::Defect::RangeUnsound {
                layer: cert.layer.clone(),
                detail,
            }),
        }
    }
    report
}

fn replay_one(
    cert: &WidthCertificate,
    witness: &ExtremalPatch,
    code: &LayerCode,
    groups: usize,
    (k_rows, k_cols): (usize, usize),
    is_stage1: bool,
) -> Result<u64, String> {
    let kk = (k_rows * k_cols).max(1);
    let channels = witness.patch.len() / kk;
    if channels * kk != witness.patch.len() {
        return Err(format!(
            "witness patch length {} is not channels x {k_rows} x {k_cols}",
            witness.patch.len()
        ));
    }
    let input = Tensor3::from_fn(Shape3::new(channels, k_rows, k_cols), |c, r, cc| {
        witness.patch[c * kk + r * k_cols + cc]
    });
    let geom = Geometry::new(1, 0).with_groups(groups);
    let (out, _work, obs) =
        conv2d_instrumented(&input, code, geom).map_err(|e| format!("witness replay: {e}"))?;
    let observed1 = Interval::new(obs.stage1_min.into(), obs.stage1_max.into());
    let observed2 = Interval::new(obs.stage2_min.into(), obs.stage2_max.into());
    if !cert.stage1.encloses(observed1) {
        return Err(format!(
            "reference replay drove a stage-1 partial to {observed1}, outside certified {}",
            cert.stage1
        ));
    }
    if !cert.stage2.encloses(observed2) {
        return Err(format!(
            "reference replay drove a stage-2 accumulator to {observed2}, outside certified {}",
            cert.stage2
        ));
    }
    if is_stage1 {
        if observed1.required_bits() != cert.stage1_bits {
            return Err(format!(
                "stage-1 witness attains {} bits through the reference engine, certificate says {}",
                observed1.required_bits(),
                cert.stage1_bits
            ));
        }
    } else {
        let got = out[(witness.kernel, 0, 0)];
        if got != witness.expect {
            return Err(format!(
                "stage-2 witness expected {} from kernel {} but the reference engine produced {got}",
                witness.expect, witness.kernel
            ));
        }
        if observed2.required_bits() != cert.stage2_bits {
            return Err(format!(
                "stage-2 witness attains {} bits through the reference engine, certificate says {}",
                observed2.required_bits(),
                cert.stage2_bits
            ));
        }
    }
    Ok(3)
}

/// Per-network summaries of the committed certificate file.
type Committed = std::collections::BTreeMap<String, Vec<CertSummary>>;

/// Parses the committed `CERT_zoo.json` into per-network summaries,
/// returned with the file's text.
fn read_committed(path: &Path) -> Result<(Committed, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "{}: {e} (run `cargo xtask verify --certify --update` to create it)",
            path.display()
        )
    })?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let nets = value
        .get("networks")
        .ok_or_else(|| format!("{}: missing 'networks'", path.display()))?;
    let Value::Obj(entries) = nets else {
        return Err(format!("{}: 'networks' must be an object", path.display()));
    };
    let mut out = std::collections::BTreeMap::new();
    for (name, layers) in entries {
        let arr = layers
            .as_arr()
            .ok_or_else(|| format!("{}: '{name}' must be an array", path.display()))?;
        let mut summaries = Vec::with_capacity(arr.len());
        for v in arr {
            summaries
                .push(parse_summary(v).map_err(|e| format!("{}: {name}: {e}", path.display()))?);
        }
        out.insert(name.clone(), summaries);
    }
    Ok((out, text))
}

fn parse_summary(v: &Value) -> Result<CertSummary, String> {
    Ok(CertSummary {
        layer: v
            .get("layer")
            .and_then(Value::as_str)
            .ok_or("missing 'layer'")?
            .to_string(),
        input: parse_interval(v, "input")?,
        stage1: parse_interval(v, "stage1")?,
        stage1_bits: parse_u32(v, "stage1_bits")?,
        stage2: parse_interval(v, "stage2")?,
        stage2_bits: parse_u32(v, "stage2_bits")?,
        abft_bits: parse_u32(v, "abft_bits")?,
        out_pow2: parse_u32(v, "out_pow2")?,
    })
}

fn parse_interval(v: &Value, key: &str) -> Result<Interval, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing interval '{key}'"))?;
    let [lo, hi] = arr else {
        return Err(format!("'{key}' must be [lo, hi]"));
    };
    Ok(Interval::new(parse_int(lo, key)?, parse_int(hi, key)?))
}

fn parse_u32(v: &Value, key: &str) -> Result<u32, String> {
    let n = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing '{key}'"))?;
    u32::try_from(parse_num(n, key)?).map_err(|_| format!("'{key}' out of range"))
}

fn parse_int(v: &Value, key: &str) -> Result<i128, String> {
    parse_num(
        v.as_f64()
            .ok_or_else(|| format!("'{key}' must be numeric"))?,
        key,
    )
}

/// Exact-integer JSON numbers only: every certified quantity is far
/// below 2^53, so any fractional or huge value means a corrupt file.
fn parse_num(n: f64, key: &str) -> Result<i128, String> {
    if n.fract() != 0.0 || n.abs() >= 9_007_199_254_740_992.0 {
        return Err(format!("'{key}' is not an exact integer: {n}"));
    }
    Ok(n as i128)
}
