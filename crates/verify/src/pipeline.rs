//! Pass 4 — the pipelined-schedule checker.
//!
//! A layer-pipelined schedule commits structural decisions that the
//! time-multiplexed schedule never had to make: which stage owns which
//! CUs for the whole run, which contiguous span of layers each stage
//! executes, and how deep every inter-stage row FIFO is. All three are
//! synthesis-time facts (HPIPE bakes them into the bitstream), so they
//! are checked statically here, before any streaming run:
//!
//! * **coverage** — every layer is executed by exactly one stage and
//!   stage spans are contiguous in layer order;
//! * **CU ownership** — no CU is claimed by two stages (stages hold
//!   their CUs permanently, unlike time-multiplexed tasks);
//! * **lanes** — every stage owns at least one kernel lane (a stage
//!   without one can never retire a row);
//! * **FIFO feasibility** — each declared inter-stage depth holds the
//!   row-occupancy high water the dataflow actually reaches (the same
//!   measure-then-check idea as the `D_q` feasibility pass).
//!
//! Like the other passes this is pure data → data: the sim crate's
//! `verify` glue runs the unbounded dataflow simulation, extracts the
//! observed high-water marks, and feeds the facts in.

use crate::report::{Defect, VerifyReport};

/// The configuration slice the pipeline checks need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineParams {
    /// Configured convolution units on the device.
    pub n_cu: usize,
    /// Workloads (layers) the schedule must cover.
    pub n_layers: usize,
}

/// One stage's structural claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFacts {
    /// Stage index.
    pub stage: usize,
    /// First CU the stage owns.
    pub cu_start: usize,
    /// CUs the stage owns.
    pub cu_count: usize,
    /// Kernel lanes the stage owns across its CUs.
    pub lanes: usize,
    /// First layer the stage executes.
    pub layer_start: usize,
    /// One past the last layer the stage executes.
    pub layer_end: usize,
}

/// One inter-stage boundary's declared depth against the occupancy the
/// dataflow run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryFacts {
    /// Boundary index (between stage `b` and `b+1`).
    pub boundary: usize,
    /// Declared FIFO depth, in rows.
    pub declared_rows: usize,
    /// Observed occupancy high water, in rows.
    pub observed_rows: usize,
}

/// Checks a pipelined schedule's structure and FIFO feasibility.
/// `boundaries` may be empty when only the structural half is wanted
/// (e.g. before a dataflow run that the structure itself would break).
#[must_use]
pub fn verify_pipeline(
    subject: &str,
    params: &PipelineParams,
    stages: &[StageFacts],
    boundaries: &[BoundaryFacts],
) -> VerifyReport {
    let mut report = VerifyReport::new(subject);

    // Coverage: every layer claimed exactly once.
    let mut covers = vec![0usize; params.n_layers];
    for s in stages {
        let end = s.layer_end.min(params.n_layers);
        for cover in covers.iter_mut().take(end).skip(s.layer_start) {
            *cover += 1;
        }
    }
    for (layer, &n) in covers.iter().enumerate() {
        report.facts += 1;
        if n != 1 {
            report.defect(Defect::StageCoverageGap { layer, covers: n });
        }
    }

    // CU ownership: pairwise disjoint.
    for (i, a) in stages.iter().enumerate() {
        for b in &stages[i + 1..] {
            report.facts += 1;
            let overlap_start = a.cu_start.max(b.cu_start);
            let overlap_end = (a.cu_start + a.cu_count).min(b.cu_start + b.cu_count);
            if overlap_start < overlap_end {
                report.defect(Defect::StageCuOverlap {
                    cu: overlap_start,
                    first_stage: a.stage,
                    second_stage: b.stage,
                });
            }
        }
    }

    // Lanes: a stage with none never retires a row.
    for s in stages {
        report.facts += 1;
        if s.lanes == 0 {
            report.defect(Defect::StageWithoutLanes { stage: s.stage });
        }
    }

    // FIFO feasibility: declared depth holds the observed high water.
    for b in boundaries {
        report.facts += 1;
        if b.declared_rows < b.observed_rows {
            report.defect(Defect::StageFifoUndersized {
                boundary: b.boundary,
                declared_rows: b.declared_rows,
                observed_rows: b.observed_rows,
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_stages() -> Vec<StageFacts> {
        (0..3)
            .map(|s| StageFacts {
                stage: s,
                cu_start: s,
                cu_count: 1,
                lanes: 14,
                layer_start: s * 2,
                layer_end: s * 2 + 2,
            })
            .collect()
    }

    fn params() -> PipelineParams {
        PipelineParams {
            n_cu: 3,
            n_layers: 6,
        }
    }

    #[test]
    fn sound_schedule_is_clean() {
        let b = [BoundaryFacts {
            boundary: 0,
            declared_rows: 8,
            observed_rows: 6,
        }];
        let r = verify_pipeline("pipe", &params(), &three_stages(), &b);
        assert!(r.is_clean(), "{r}");
        assert!(r.facts > 0);
    }

    #[test]
    fn uncovered_layer_is_a_coverage_gap() {
        let mut stages = three_stages();
        stages[1].layer_end -= 1; // layer 3 now unowned
        let r = verify_pipeline("pipe", &params(), &stages, &[]);
        assert!(r.has_class("stage_coverage_gap"), "{r}");
    }

    #[test]
    fn double_covered_layer_is_a_coverage_gap() {
        let mut stages = three_stages();
        stages[1].layer_start -= 1; // layer 1 owned twice
        let r = verify_pipeline("pipe", &params(), &stages, &[]);
        assert!(r.has_class("stage_coverage_gap"), "{r}");
    }

    #[test]
    fn shared_cu_is_an_overlap() {
        let mut stages = three_stages();
        stages[2].cu_start = 1; // collides with stage 1
        let r = verify_pipeline("pipe", &params(), &stages, &[]);
        assert!(r.has_class("stage_cu_overlap"), "{r}");
        assert!(!r.has_class("stage_coverage_gap"), "{r}");
    }

    #[test]
    fn laneless_stage_is_named() {
        let mut stages = three_stages();
        stages[1].lanes = 0;
        let r = verify_pipeline("pipe", &params(), &stages, &[]);
        assert!(r.has_class("stage_without_lanes"), "{r}");
        assert!(!r.has_class("stage_coverage_gap"), "{r}");
    }

    #[test]
    fn shallow_fifo_is_undersized() {
        let b = [BoundaryFacts {
            boundary: 1,
            declared_rows: 3,
            observed_rows: 9,
        }];
        let r = verify_pipeline("pipe", &params(), &three_stages(), &b);
        assert!(r.has_class("stage_fifo_undersized"), "{r}");
    }
}
