//! The machine-readable verification verdict: a [`VerifyReport`] holds
//! every [`Defect`] a pass found plus a count of the facts it proved.
//!
//! The defect vocabulary is shared by all three passes (lowering,
//! schedule, model checker) and by `abm-dse`'s model-consistency gate,
//! so one enum names every invariant the reproduction claims to hold
//! statically.

use abm_telemetry::json::Node;
use std::fmt;

/// Which measured-vs-model quantity diverged (see
/// [`Defect::ModelDivergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Per-layer compute cycles.
    Cycles,
    /// Accumulator-lane efficiency.
    LaneEfficiency,
    /// DDR traffic in bytes.
    Traffic,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Cycles => write!(f, "cycles"),
            Metric::LaneEfficiency => write!(f, "lane_efficiency"),
            Metric::Traffic => write!(f, "traffic"),
        }
    }
}

/// One violated invariant, with enough context to locate the defect.
///
/// Every variant corresponds to a property the accelerator guarantees
/// *by construction* at synthesis time; the reproduction proves the same
/// property over its lowered data structures before executing them.
#[derive(Debug, Clone, PartialEq)]
pub enum Defect {
    // ---- lowering: structure ----
    /// The flat code has a different kernel count than its source.
    KernelCountMismatch {
        /// Kernels in the flat lowering.
        flat: usize,
        /// Kernels in the source code.
        source: usize,
    },
    /// A kernel's group boundary table is corrupt (non-monotone, does
    /// not start at zero, or does not end at the offset count).
    GroupBoundsCorrupt {
        /// Kernel index.
        kernel: usize,
    },
    /// A value group's occurrence count does not match the source
    /// Q-Table `NUM` entry — the groups no longer partition the
    /// non-zero weights.
    GroupCountMismatch {
        /// Kernel index.
        kernel: usize,
        /// Group index within the kernel.
        group: usize,
        /// Count in the flat lowering.
        flat: u64,
        /// Count in the source Q-Table.
        source: u64,
    },
    /// A group's distinct value differs from the source Q-Table `VAL`,
    /// or the value sequence is not strictly ascending / contains zero.
    GroupValueMismatch {
        /// Kernel index.
        kernel: usize,
        /// Group index within the kernel.
        group: usize,
    },
    // ---- lowering: faithfulness ----
    /// A source index names a position outside the kernel volume.
    IndexOutOfKernel {
        /// Kernel index.
        kernel: usize,
        /// Position in the kernel's concatenated stream.
        index: usize,
    },
    /// A precomputed flat offset is not the re-laid-out address
    /// (`FlatLayout::offset_of`) of the source index its group holds at
    /// that position — the executor would read the wrong input pixel.
    OffsetMismatch {
        /// Kernel index.
        kernel: usize,
        /// Position in the kernel's concatenated stream.
        index: usize,
        /// The stored offset.
        offset: u32,
        /// The address of the source index.
        expected: u32,
    },
    /// An offset would read past the re-laid-out input for some position
    /// of the output plane's flat sweep.
    OffsetOutOfBounds {
        /// Kernel index.
        kernel: usize,
        /// Worst-case read index.
        read_index: u64,
        /// Re-laid-out input length (exclusive bound).
        bound: u64,
    },
    /// A one-position layer's offset names a feature its input does not
    /// have: swept across a batch, the read would leave the lane buffer.
    LaneSweepOutOfBounds {
        /// Kernel index.
        kernel: usize,
        /// The feature the kernel's largest offset picks.
        feature: u64,
        /// Features the layer's input has (exclusive bound).
        features: u64,
    },
    /// Offsets within a group are not strictly ascending — the
    /// forward-stream property the address generator needs is broken.
    StreamOrderViolation {
        /// Kernel index.
        kernel: usize,
        /// Group index within the kernel.
        group: usize,
    },
    // ---- lowering: arithmetic ----
    /// A kernel's worst-case accumulation exceeds the accumulator
    /// width.
    AccumulatorOverflow {
        /// Kernel index.
        kernel: usize,
        /// Signed bits the worst case needs.
        required_bits: u32,
        /// Signed bits the accumulator has.
        acc_bits: u32,
    },
    // ---- schedule legality ----
    /// Two tasks occupy the same CU at overlapping cycles.
    CuDoubleBooked {
        /// CU index.
        cu: usize,
        /// Earlier task's (start, end).
        first: (u64, u64),
        /// Overlapping task's (start, end).
        second: (u64, u64),
    },
    /// A task was assigned to a CU outside the configuration.
    CuOutOfRange {
        /// Offending CU index.
        cu: usize,
        /// Configured CU count.
        n_cu: usize,
    },
    /// A task is missing from or duplicated in the schedule.
    TaskCoverage {
        /// Task index.
        task: usize,
        /// How many times it was scheduled.
        times: usize,
    },
    /// A scheduled span's duration disagrees with the task's cycle
    /// cost.
    TaskDurationMismatch {
        /// Task index.
        task: usize,
        /// Scheduled duration.
        scheduled: u64,
        /// Declared task cycles.
        declared: u64,
    },
    /// The partial-sum FIFO would need more slots than the configured
    /// depth.
    FifoOverflow {
        /// Kernel index.
        kernel: usize,
        /// Observed high-water occupancy.
        high_water: u32,
        /// Configured depth.
        depth: usize,
    },
    /// A kernel's index stream does not fit the weight buffer.
    WeightBufferOverflow {
        /// Kernel index.
        kernel: usize,
        /// 16-bit words the stream needs.
        words: u64,
        /// Configured buffer depth in words.
        depth: usize,
    },
    /// A kernel's Q-Table does not fit the configured Q-Table depth.
    QTableOverflow {
        /// Kernel index.
        kernel: usize,
        /// 16-bit words the table needs.
        words: u64,
        /// Configured depth in words.
        depth: usize,
    },
    /// `N` does not divide `S_ec`: the round-robin multiplier would
    /// serve non-uniform accumulator groups.
    UnfairRoundRobin {
        /// Accumulators per multiplier.
        n: usize,
        /// Vector width.
        s_ec: usize,
    },
    // ---- pipelined schedules ----
    /// A layer is not covered by exactly one pipeline stage: the
    /// streamed image would skip it (gap) or execute it twice
    /// (overlap).
    StageCoverageGap {
        /// Workload (layer) index.
        layer: usize,
        /// How many stages claim the layer.
        covers: usize,
    },
    /// A CU is owned by two pipeline stages at once — unlike the
    /// time-multiplexed schedule, pipelined stages hold their CUs for
    /// the whole run, so ownership must be disjoint.
    StageCuOverlap {
        /// The double-booked CU.
        cu: usize,
        /// First stage claiming it.
        first_stage: usize,
        /// Second stage claiming it.
        second_stage: usize,
    },
    /// A pipeline stage owns zero kernel lanes: it could never retire a
    /// row, and the stream would stall at it for ever.
    StageWithoutLanes {
        /// Stage index.
        stage: usize,
    },
    /// An inter-stage FIFO is declared shallower than the row
    /// occupancy the dataflow actually reaches — the pipeline would
    /// backpressure (or drop rows) at that boundary.
    StageFifoUndersized {
        /// Boundary index (between stage `b` and `b+1`).
        boundary: usize,
        /// Declared depth, in rows.
        declared_rows: usize,
        /// Observed occupancy high water, in rows.
        observed_rows: usize,
    },
    // ---- model checking ----
    /// The exhaustive-interleaving explorer found a reachable state
    /// violating an invariant (or a deadlocked / bad terminal state).
    InterleavingViolation {
        /// Which model.
        model: String,
        /// What went wrong.
        message: String,
        /// The action trace reaching the state.
        trace: Vec<&'static str>,
    },
    // ---- model consistency ----
    /// A simulator measurement diverges from the analytic model beyond
    /// tolerance.
    ModelDivergence {
        /// Layer name.
        layer: String,
        /// Which quantity diverged.
        metric: Metric,
        /// Simulator-measured value.
        measured: f64,
        /// Analytic-model value.
        model: f64,
        /// The tolerance that was exceeded.
        tolerance: f64,
    },
}

impl Defect {
    /// Stable machine-readable class name (used by tests and the JSON
    /// export).
    pub fn class(&self) -> &'static str {
        match self {
            Defect::KernelCountMismatch { .. } => "kernel_count_mismatch",
            Defect::GroupBoundsCorrupt { .. } => "group_bounds_corrupt",
            Defect::GroupCountMismatch { .. } => "group_count_mismatch",
            Defect::GroupValueMismatch { .. } => "group_value_mismatch",
            Defect::IndexOutOfKernel { .. } => "index_out_of_kernel",
            Defect::OffsetMismatch { .. } => "offset_mismatch",
            Defect::OffsetOutOfBounds { .. } => "offset_out_of_bounds",
            Defect::LaneSweepOutOfBounds { .. } => "lane_sweep_out_of_bounds",
            Defect::StreamOrderViolation { .. } => "stream_order_violation",
            Defect::AccumulatorOverflow { .. } => "accumulator_overflow",
            Defect::CuDoubleBooked { .. } => "cu_double_booked",
            Defect::CuOutOfRange { .. } => "cu_out_of_range",
            Defect::TaskCoverage { .. } => "task_coverage",
            Defect::TaskDurationMismatch { .. } => "task_duration_mismatch",
            Defect::FifoOverflow { .. } => "fifo_overflow",
            Defect::WeightBufferOverflow { .. } => "weight_buffer_overflow",
            Defect::QTableOverflow { .. } => "q_table_overflow",
            Defect::UnfairRoundRobin { .. } => "unfair_round_robin",
            Defect::StageCoverageGap { .. } => "stage_coverage_gap",
            Defect::StageCuOverlap { .. } => "stage_cu_overlap",
            Defect::StageWithoutLanes { .. } => "stage_without_lanes",
            Defect::StageFifoUndersized { .. } => "stage_fifo_undersized",
            Defect::InterleavingViolation { .. } => "interleaving_violation",
            Defect::ModelDivergence { .. } => "model_divergence",
        }
    }
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defect::KernelCountMismatch { flat, source } => {
                write!(f, "flat code has {flat} kernels, source has {source}")
            }
            Defect::GroupBoundsCorrupt { kernel } => {
                write!(f, "kernel {kernel}: corrupt group boundary table")
            }
            Defect::GroupCountMismatch {
                kernel,
                group,
                flat,
                source,
            } => write!(
                f,
                "kernel {kernel} group {group}: {flat} offsets vs Q-Table NUM {source}"
            ),
            Defect::GroupValueMismatch { kernel, group } => {
                write!(f, "kernel {kernel} group {group}: value stream corrupt")
            }
            Defect::IndexOutOfKernel { kernel, index } => write!(
                f,
                "kernel {kernel} source index {index}: outside the kernel volume"
            ),
            Defect::OffsetMismatch {
                kernel,
                index,
                offset,
                expected,
            } => write!(
                f,
                "kernel {kernel} offset {index}: stored {offset}, source index addresses {expected}"
            ),
            Defect::OffsetOutOfBounds {
                kernel,
                read_index,
                bound,
            } => write!(
                f,
                "kernel {kernel}: swept read index {read_index} >= re-laid-out input length {bound}"
            ),
            Defect::LaneSweepOutOfBounds {
                kernel,
                feature,
                features,
            } => write!(
                f,
                "kernel {kernel}: lane sweep reads feature {feature} of an input of {features}"
            ),
            Defect::StreamOrderViolation { kernel, group } => write!(
                f,
                "kernel {kernel} group {group}: offsets not strictly ascending"
            ),
            Defect::AccumulatorOverflow {
                kernel,
                required_bits,
                acc_bits,
            } => write!(
                f,
                "kernel {kernel}: worst-case accumulation needs {required_bits} bits, accumulator has {acc_bits}"
            ),
            Defect::CuDoubleBooked { cu, first, second } => write!(
                f,
                "CU {cu}: task [{}, {}) overlaps task [{}, {})",
                first.0, first.1, second.0, second.1
            ),
            Defect::CuOutOfRange { cu, n_cu } => {
                write!(f, "task assigned to CU {cu} of {n_cu}")
            }
            Defect::TaskCoverage { task, times } => {
                write!(f, "task {task} scheduled {times} times (expected once)")
            }
            Defect::TaskDurationMismatch {
                task,
                scheduled,
                declared,
            } => write!(
                f,
                "task {task}: scheduled for {scheduled} cycles, costs {declared}"
            ),
            Defect::FifoOverflow {
                kernel,
                high_water,
                depth,
            } => write!(
                f,
                "kernel {kernel}: FIFO high-water {high_water} exceeds depth {depth}"
            ),
            Defect::WeightBufferOverflow {
                kernel,
                words,
                depth,
            } => write!(
                f,
                "kernel {kernel}: WT-Buffer stream {words} words exceeds D_w {depth}"
            ),
            Defect::QTableOverflow {
                kernel,
                words,
                depth,
            } => write!(
                f,
                "kernel {kernel}: Q-Table {words} words exceeds D_q {depth}"
            ),
            Defect::UnfairRoundRobin { n, s_ec } => write!(
                f,
                "N={n} does not divide S_ec={s_ec}: round-robin groups non-uniform"
            ),
            Defect::StageCoverageGap { layer, covers } => write!(
                f,
                "layer {layer} covered by {covers} stages (must be exactly 1)"
            ),
            Defect::StageCuOverlap {
                cu,
                first_stage,
                second_stage,
            } => write!(
                f,
                "CU {cu} owned by stages {first_stage} and {second_stage} at once"
            ),
            Defect::StageWithoutLanes { stage } => {
                write!(f, "stage {stage} owns zero kernel lanes")
            }
            Defect::StageFifoUndersized {
                boundary,
                declared_rows,
                observed_rows,
            } => write!(
                f,
                "boundary {boundary}: declared FIFO {declared_rows} rows below observed high water {observed_rows}"
            ),
            Defect::InterleavingViolation {
                model,
                message,
                trace,
            } => write!(
                f,
                "{model}: {message} (after {})",
                if trace.is_empty() {
                    "initial state".to_string()
                } else {
                    trace.join(" -> ")
                }
            ),
            Defect::ModelDivergence {
                layer,
                metric,
                measured,
                model,
                tolerance,
            } => write!(
                f,
                "{layer}: {metric} measured {measured:.4} vs model {model:.4} (tolerance {tolerance:.4})"
            ),
        }
    }
}

/// Outcome of one verification pass over one subject (a layer, a
/// schedule, a model-checker instance).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    /// What was verified (layer or instance name).
    pub subject: String,
    /// Number of elementary facts proven (offsets checked, groups
    /// reconciled, spans compared, states explored...).
    pub facts: u64,
    /// Kernels of one-position layers (fully-connected rows) whose
    /// sweep across a batch's lanes the lowering pass proved in-bounds
    /// at any pitch; zero for every other subject.
    pub lane_kernels: u64,
    /// Every invariant violation found.
    pub defects: Vec<Defect>,
}

impl VerifyReport {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        Self {
            subject: subject.into(),
            facts: 0,
            lane_kernels: 0,
            defects: Vec::new(),
        }
    }

    /// True when no defect was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }

    /// Folds another report into this one (facts add, defects append).
    pub fn merge(&mut self, other: VerifyReport) {
        self.facts += other.facts;
        self.lane_kernels += other.lane_kernels;
        self.defects.extend(other.defects);
    }

    /// Records a defect.
    pub fn defect(&mut self, d: Defect) {
        self.defects.push(d);
    }

    /// True when any defect has the given [`Defect::class`].
    #[must_use]
    pub fn has_class(&self, class: &str) -> bool {
        self.defects.iter().any(|d| d.class() == class)
    }

    /// Machine-readable JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        Node::object(|o| {
            o.field("subject", &self.subject);
            o.field("facts", self.facts);
            o.field("clean", self.is_clean());
            o.array("defects", |a| {
                for d in &self.defects {
                    a.object(|o| {
                        o.field("class", d.class());
                        o.field("detail", d.to_string());
                    });
                }
            });
        })
        .render()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "{}: clean ({} facts proven)", self.subject, self.facts)
        } else {
            writeln!(
                f,
                "{}: {} defect(s), {} facts proven",
                self.subject,
                self.defects.len(),
                self.facts
            )?;
            for d in &self.defects {
                writeln!(f, "  [{}] {}", d.class(), d)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_telemetry::json::{self, Value};

    #[test]
    fn clean_report_renders_and_serializes() {
        let mut r = VerifyReport::new("CONV1");
        r.facts = 42;
        assert!(r.is_clean());
        assert!(r.to_string().contains("clean"));
        let doc = json::parse(&r.to_json()).unwrap();
        assert_eq!(doc.get("facts"), Some(&Value::Num(42.0)));
        assert_eq!(doc.get("clean"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("defects"), Some(&Value::Arr(Vec::new())));
    }

    #[test]
    fn defects_carry_class_and_detail() {
        let mut r = VerifyReport::new("CONV1");
        r.defect(Defect::OffsetMismatch {
            kernel: 3,
            index: 17,
            offset: 99,
            expected: 98,
        });
        r.defect(Defect::ModelDivergence {
            layer: "CONV2".into(),
            metric: Metric::Traffic,
            measured: 1.0,
            model: 2.0,
            tolerance: 0.1,
        });
        assert!(!r.is_clean());
        assert!(r.has_class("offset_mismatch"));
        assert!(r.has_class("model_divergence"));
        assert!(!r.has_class("fifo_overflow"));
        let doc = json::parse(&r.to_json()).unwrap();
        let defect = |i: usize, key| doc.get("defects")?.as_arr()?[i].get(key)?.as_str();
        assert_eq!(defect(0, "class"), Some("offset_mismatch"));
        assert!(defect(1, "detail").unwrap().contains("traffic"));
        let text = r.to_string();
        assert!(text.contains("stored 99, source index addresses 98"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = VerifyReport::new("net");
        a.facts = 10;
        let mut b = VerifyReport::new("layer");
        b.facts = 5;
        b.defect(Defect::UnfairRoundRobin { n: 3, s_ec: 20 });
        a.merge(b);
        assert_eq!(a.facts, 15);
        assert_eq!(a.defects.len(), 1);
        assert_eq!(a.subject, "net");
    }

    #[test]
    fn json_escapes_quotes() {
        let mut r = VerifyReport::new("layer \"x\"");
        r.defect(Defect::InterleavingViolation {
            model: "claim-counter".into(),
            message: "bad\nstate".into(),
            trace: vec!["a", "b"],
        });
        let doc = json::parse(&r.to_json()).unwrap();
        assert_eq!(doc.get("subject").unwrap().as_str(), Some("layer \"x\""));
        let detail = doc.get("defects").unwrap().as_arr().unwrap()[0].get("detail");
        assert!(detail.unwrap().as_str().unwrap().contains("bad\nstate"));
    }
}
