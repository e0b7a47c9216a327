//! Campaign bookkeeping: what was injected, what was caught, what it
//! cost to recover — and the JSON report the CI gate consumes.

use std::collections::BTreeMap;
use std::fmt;

use abm_telemetry::json::Node;

use crate::error::AbmError;
use crate::plan::FaultClass;

/// How one injected fault ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// A detector fired and recovery produced output bit-identical to
    /// the pristine run.
    DetectedRecovered,
    /// No detector fired, but the output (or schedule) was bit-identical
    /// to the pristine run anyway — the fault was absorbed by design
    /// (e.g. a FIFO stall within slack).
    Masked,
    /// A detector fired but recovery could not restore pristine output.
    DetectedUnrecovered,
    /// No detector fired and the output differs from pristine — silent
    /// corruption, the failure mode the whole subsystem exists to
    /// prevent.
    Silent,
}

impl FaultOutcome {
    /// Stable kebab-case name (used in reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::DetectedRecovered => "detected-recovered",
            FaultOutcome::Masked => "masked",
            FaultOutcome::DetectedUnrecovered => "detected-unrecovered",
            FaultOutcome::Silent => "silent",
        }
    }
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The action a recovery path took after detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryAction {
    /// No recovery was needed or attempted.
    None,
    /// The layer was rebuilt, once, from the model's raw weights —
    /// encoded and lowered again — and ran clean.
    Relowered,
    /// Execution fell back to the dense engine.
    DenseFallback,
    /// The layer (or simulation) was simply replayed fault-free.
    Replayed,
}

impl RecoveryAction {
    /// Stable kebab-case name (used in reports and telemetry details).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecoveryAction::None => "none",
            RecoveryAction::Relowered => "relowered",
            RecoveryAction::DenseFallback => "dense-fallback",
            RecoveryAction::Replayed => "replayed",
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected fault, as surfaced to callers of the resilient
/// execution paths: where it hit, what the detector said, and what the
/// recovery machinery did about it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Layer the fault was detected in (execution order).
    pub layer: usize,
    /// The detector's typed verdict.
    pub error: AbmError,
    /// What recovery did.
    pub action: RecoveryAction,
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer {}: {} -> {}", self.layer, self.error, self.action)
    }
}

/// One campaign trial: a single fault injected into a single net.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Net the trial ran on (e.g. `"alexnet"`).
    pub net: String,
    /// Layer the fault targeted.
    pub layer: usize,
    /// The injected fault class.
    pub class: FaultClass,
    /// How the trial resolved.
    pub outcome: FaultOutcome,
    /// The detector that fired (kebab-case, `"-"` when none did).
    pub detector: String,
    /// The recovery action taken.
    pub action: RecoveryAction,
}

/// Per-class outcome tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Faults actually delivered to an injection site.
    pub injected: usize,
    /// Trials where a detector fired.
    pub detected: usize,
    /// Trials resolved as [`FaultOutcome::Masked`].
    pub masked: usize,
    /// Trials resolved as [`FaultOutcome::DetectedRecovered`].
    pub recovered: usize,
    /// Trials resolved as [`FaultOutcome::Silent`].
    pub silent: usize,
}

/// The aggregate result of a seeded fault campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// The campaign seed (reproduces every trial).
    pub seed: u64,
    /// Every trial, in execution order.
    pub trials: Vec<TrialRecord>,
}

impl CampaignReport {
    /// An empty report for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            trials: Vec::new(),
        }
    }

    /// Per-class tallies, keyed by [`FaultClass::name`] so iteration
    /// order is stable in reports.
    #[must_use]
    pub fn class_counts(&self) -> BTreeMap<&'static str, ClassCounts> {
        let mut map: BTreeMap<&'static str, ClassCounts> = BTreeMap::new();
        for t in &self.trials {
            let c = map.entry(t.class.name()).or_default();
            c.injected += 1;
            match t.outcome {
                FaultOutcome::DetectedRecovered => {
                    c.detected += 1;
                    c.recovered += 1;
                }
                FaultOutcome::Masked => c.masked += 1,
                FaultOutcome::DetectedUnrecovered => c.detected += 1,
                FaultOutcome::Silent => c.silent += 1,
            }
        }
        map
    }

    /// Trials with the given outcome.
    #[must_use]
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        self.trials.iter().filter(|t| t.outcome == outcome).count()
    }

    /// The CI gate: every injected fault was either detected-and-
    /// recovered or provably masked — zero silent corruptions, zero
    /// unrecovered detections.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.count(FaultOutcome::Silent) == 0 && self.count(FaultOutcome::DetectedUnrecovered) == 0
    }

    /// The report as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        Node::object(|o| {
            o.field("seed", self.seed);
            o.field("trials", self.trials.len());
            o.field("recovered", self.count(FaultOutcome::DetectedRecovered));
            o.field("masked", self.count(FaultOutcome::Masked));
            let unrecovered = self.count(FaultOutcome::DetectedUnrecovered);
            o.field("detected_unrecovered", unrecovered);
            o.field("silent", self.count(FaultOutcome::Silent));
            o.field("clean", self.is_clean());
            o.object("classes", |classes| {
                for (name, c) in self.class_counts() {
                    classes.object(name, |o| {
                        o.field("injected", c.injected);
                        o.field("detected", c.detected);
                        o.field("masked", c.masked);
                        o.field("recovered", c.recovered);
                        o.field("silent", c.silent);
                    });
                }
            });
            o.array("records", |records| {
                for t in &self.trials {
                    records.object(|o| {
                        o.field("net", &t.net);
                        o.field("layer", t.layer);
                        o.field("class", t.class.name());
                        o.field("outcome", t.outcome.name());
                        o.field("detector", &t.detector);
                        o.field("action", t.action.to_string());
                    });
                }
            });
        })
        .render()
    }

    /// A fixed-width text table, one row per class, for terminal
    /// output.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>9} {:>9} {:>7} {:>10} {:>7}\n",
            "class", "injected", "detected", "masked", "recovered", "silent"
        ));
        for (name, c) in self.class_counts() {
            out.push_str(&format!(
                "{:<22} {:>9} {:>9} {:>7} {:>10} {:>7}\n",
                name, c.injected, c.detected, c.masked, c.recovered, c.silent
            ));
        }
        out.push_str(&format!(
            "total: {} trials, {} recovered, {} masked, {} silent -> {}\n",
            self.trials.len(),
            self.count(FaultOutcome::DetectedRecovered),
            self.count(FaultOutcome::Masked),
            self.count(FaultOutcome::Silent),
            if self.is_clean() { "CLEAN" } else { "DIRTY" },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_telemetry::json::{self, Value};

    fn trial(class: FaultClass, outcome: FaultOutcome) -> TrialRecord {
        TrialRecord {
            net: "alexnet".into(),
            layer: 0,
            class,
            outcome,
            detector: "checksum".into(),
            action: RecoveryAction::Relowered,
        }
    }

    #[test]
    fn clean_gate() {
        let mut r = CampaignReport::new(7);
        r.trials.push(trial(
            FaultClass::WtWordFlip,
            FaultOutcome::DetectedRecovered,
        ));
        r.trials
            .push(trial(FaultClass::FifoStall, FaultOutcome::Masked));
        assert!(r.is_clean());
        r.trials
            .push(trial(FaultClass::AccumulatorStuck, FaultOutcome::Silent));
        assert!(!r.is_clean());
    }

    #[test]
    fn class_counts_tally() {
        let mut r = CampaignReport::new(0);
        r.trials.push(trial(
            FaultClass::WtWordFlip,
            FaultOutcome::DetectedRecovered,
        ));
        r.trials.push(trial(
            FaultClass::WtWordFlip,
            FaultOutcome::DetectedUnrecovered,
        ));
        let counts = r.class_counts();
        let c = counts["wt-word-flip"];
        assert_eq!(c.injected, 2);
        assert_eq!(c.detected, 2);
        assert_eq!(c.recovered, 1);
        assert_eq!(c.silent, 0);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let mut r = CampaignReport::new(42);
        r.trials
            .push(trial(FaultClass::CuHang, FaultOutcome::DetectedRecovered));
        let doc = json::parse(&r.to_json()).unwrap();
        assert_eq!(doc.get("seed"), Some(&Value::Num(42.0)));
        assert!(doc.get("classes").unwrap().get("cu-hang").is_some());
        assert_eq!(doc.get("clean"), Some(&Value::Bool(true)));
        let table = r.summary_table();
        assert!(table.contains("CLEAN"));
    }
}
