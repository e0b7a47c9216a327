//! The correctness oracle: `golden.json` holds, for every pool image of
//! every network, the FNV-1a digest of the logit bit patterns the
//! **dense** reference engine produces, plus pinned exact counts
//! (analytic ABM work, simulated cycles). Generated once by
//! `regen-golden`; compiled into the binary so a run reads no file.

use crate::inputs::{Net, MODEL_SEED, POOL};
use crate::stats::{fnv1a, threads};
use crate::workloads::sim::SimPins;
use abm_conv::{Engine, Inferencer, Parallelism, PreparedWeights};
use abm_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

const TEXT: &str = include_str!("../golden.json");

pub struct Golden {
    entries: BTreeMap<String, u64>,
    /// Set by `--corrupt-golden`: the next entry looked up reads one
    /// bit wrong, which `self-test` expects the run to report.
    corrupt_next: AtomicBool,
}

/// FNV-1a over the little-endian bit patterns of the logits.
pub fn logits_digest(logits: &[f32]) -> u64 {
    fnv1a(logits.iter().flat_map(|l| l.to_bits().to_le_bytes()))
}

/// Analytic ABM work of one image: the sum of `PreparedConv::work()`
/// over the accelerated layers.
pub fn total_work(prepared: &PreparedWeights, layers: usize) -> (u64, u64) {
    (0..layers)
        .filter_map(|i| prepared.abm_layer(i))
        .map(|p| p.work())
        .fold((0, 0), |(a, m), w| {
            (a + w.accumulations, m + w.multiplications)
        })
}

impl Golden {
    pub fn load(corrupt: bool) -> Result<Self, String> {
        let doc = json::parse(TEXT).map_err(|e| format!("golden.json: {e}"))?;
        let seed = doc.get("model_seed").and_then(Value::as_f64);
        if seed != Some(MODEL_SEED as f64) {
            return Err(format!(
                "golden.json is for model seed {seed:?}, the benchmark synthesizes with \
                 {MODEL_SEED}: run `regen-golden`"
            ));
        }
        let Some(Value::Obj(members)) = doc.get("entries") else {
            return Err("golden.json has no \"entries\" object".into());
        };
        let entries = members
            .iter()
            .map(|(k, v)| {
                let digits = v
                    .as_str()
                    .ok_or(format!("golden.json: {k} is not a string"))?;
                let n = u64::from_str_radix(digits, 16)
                    .map_err(|e| format!("golden.json: {k}: {e}"))?;
                Ok((k.clone(), n))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            entries,
            corrupt_next: AtomicBool::new(corrupt),
        })
    }

    /// The pinned value `key` must equal; `None` when the file has no
    /// such entry (which callers count as a failure).
    pub fn get(&self, key: &str) -> Option<u64> {
        let flip = u64::from(self.corrupt_next.swap(false, Ordering::Relaxed));
        self.entries.get(key).map(|v| v ^ flip)
    }

    /// Whether `logits` are the dense engine's for pool image `id`.
    pub fn logits_match(&self, net: Net, id: usize, logits: &[f32]) -> bool {
        self.get(&format!("logits.{}.{id}", net.name())) == Some(logits_digest(logits))
    }
}

/// Recomputes every entry and rewrites `golden.json` in the package
/// directory (VGG16 on the dense engine: several minutes).
pub fn regen() -> Result<(), String> {
    let mut entries: BTreeMap<String, u64> = BTreeMap::new();
    for net in Net::ALL {
        eprintln!("regen-golden: {} ({POOL} dense images)", net.name());
        let model = net.synthesize();
        let pool: Vec<_> = (0..POOL).map(|id| net.pool_image(id)).collect();
        let results = Inferencer::new(&model)
            .engine(Engine::Dense)
            .parallelism(Parallelism::Threads(threads()))
            .run_batch(&pool)
            .map_err(|e| format!("dense {}: {e}", net.name()))?;
        for (id, r) in results.iter().enumerate() {
            entries.insert(
                format!("logits.{}.{id}", net.name()),
                logits_digest(&r.logits),
            );
        }
        let prepared = Inferencer::new(&model)
            .prepare()
            .map_err(|e| format!("prepare {}: {e}", net.name()))?;
        let (acc, mult) = total_work(&prepared, model.layers.len());
        entries.insert(format!("work.{}.accumulations", net.name()), acc);
        entries.insert(format!("work.{}.multiplications", net.name()), mult);
        if net == Net::Vgg16 {
            entries.extend(SimPins::measure(&model)?.entries());
        }
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("    \"{}\": \"{v:016x}\"", json::escape(k)))
        .collect();
    let text = format!(
        "{{\n  \"model_seed\": {MODEL_SEED},\n  \"entries\": {{\n{}\n  }}\n}}\n",
        body.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "regen-golden: wrote {} entries to {path}; rebuild to embed them",
        entries.len()
    );
    Ok(())
}
