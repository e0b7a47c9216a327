//! The metric schema (read from `/BENCHMARK.json`, compiled in, so the
//! names, units and bounds exist in one place) and the result a run
//! prints.

use abm_telemetry::json::{self, Value};

const SCHEMA: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the earlier median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Schema {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing \"{key}\""))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" is not a string"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" is not a list"))
}

fn metric_specs(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Schema {
    pub fn load() -> Result<Self, String> {
        let doc = json::parse(SCHEMA).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Self {
            run_seconds: field(&doc, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: \"run_seconds\" is not a number")?,
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metric_specs(&doc, "end_to_end")?,
            per_layer: metric_specs(&doc, "per_layer")?,
        })
    }

    pub fn spec(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: usize,
    /// Shown beside the value in the readable listing (a kernel
    /// selection, "n/a: too few samples", ...).
    pub note: String,
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measuring window.
    pub attempted: u64,
    /// Operations that failed: refused, cut, late or wrong.
    pub failed: u64,
    /// Wrong outputs and broken invariants among them.
    pub wrong: u64,
    /// Why the run is incorrect (the first few reasons).
    pub errors: Vec<String>,
    pub values: Vec<Measured>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.put_note(name, value, samples, "");
    }

    pub fn put_note(&mut self, name: &str, value: f64, samples: usize, note: &str) {
        self.values.push(Measured {
            name: name.to_owned(),
            value,
            samples,
            note: note.to_owned(),
        });
    }

    /// Counts one wrong result or broken invariant: the run is
    /// incorrect.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.wrong += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Counts one operation that was refused, cut or late where the
    /// load gave the server no reason to: a failed operation, not a
    /// wrong output.
    pub fn miss(&mut self) {
        self.failed += 1;
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    fn get(&self, name: &str) -> Option<&Measured> {
        self.values.iter().find(|m| m.name == name)
    }

    /// Prints every metric of this run by name with its unit and
    /// sample count, then — as the last line — the result object the
    /// driver reads: every end-to-end metric untraced, every per-layer
    /// metric traced. A per-layer metric this workload does not
    /// exercise reads 0.
    pub fn print(&self, schema: &Schema, workload: &str, traced: bool) -> Result<(), String> {
        for m in &self.values {
            let Some(spec) = schema.spec(&m.name) else {
                return Err(format!(
                    "{workload} measured \"{}\", which BENCHMARK.json does not list",
                    m.name
                ));
            };
            println!(
                "{workload:<14} {:<34} {:>16.6} {:<9} n={}{}{}",
                m.name,
                m.value,
                spec.unit,
                m.samples,
                if m.note.is_empty() { "" } else { "  " },
                m.note
            );
        }
        let specs = if traced {
            &schema.per_layer
        } else {
            &schema.end_to_end
        };
        let mut members = Vec::with_capacity(specs.len());
        for spec in specs {
            let value = match self.get(&spec.name) {
                Some(m) => m.value,
                None if traced => 0.0,
                None => {
                    return Err(format!(
                        "{workload} did not measure end-to-end metric \"{}\"",
                        spec.name
                    ))
                }
            };
            if !value.is_finite() {
                return Err(format!("{workload}: {} is {value}", spec.name));
            }
            members.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                json::escape(&spec.name),
                json::escape(&spec.unit)
            ));
        }
        for e in &self.errors {
            println!("{workload:<14} INCORRECT: {e}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        );
        Ok(())
    }
}
