//! Layer-pipelined execution (HPIPE-style).
//!
//! The baseline simulator time-multiplexes all CUs over one layer at a
//! time, so steady-state throughput is bounded by one layer's worth of
//! occupancy. HPIPE (PAPERS.md) removes that bound by giving every
//! layer its own hardware and streaming images through; this module
//! reproduces the idea at CU granularity:
//!
//! * a [`PipelinedSchedule`] partitions the network's layers into
//!   contiguous [`PipelineStage`]s, each owning a disjoint slice of
//!   CUs with its own (heterogeneous) kernel-lane count;
//! * stages stream whole feature **rows** to their successor through
//!   inter-stage FIFOs, so image `n`'s layer `L` runs concurrently
//!   with image `n+1`'s layer `L-1`;
//! * FIFO depths are sized from the measured occupancy high water of
//!   an unbounded run (the same feasibility idea as the `D_q` check in
//!   `abm-verify`), plus a fixed jitter margin.
//!
//! Timing is derived from the same primitive as the sequential
//! simulator — [`lane::lane_cycles`] over the layer's Q-Table
//! value-run structure — so the pipelined/sequential comparison is
//! apples to apples: same cost model, same per-row sync overhead, only
//! the CU allocation and the streaming differ.
//!
//! The dataflow engine is a discrete-event simulation over row-level
//! work units `(image, layer, row)`. Each stage is one sequential
//! server (its CUs and lanes jointly execute one row unit at a time —
//! that is how the unit's cost is computed); within a stage, units are
//! dispatched in dataflow order (smallest ready `(image, layer, row)`
//! first), which collapses pipeline fill/drain to a few rows instead
//! of a few layers. Dependencies point strictly backward (a row needs
//! rows of the *previous* layer), so stages can be simulated in order,
//! each against its predecessor's completed row-finish timeline.

use crate::config::AcceleratorConfig;
use crate::fault::Watchdog;
use crate::lane;
use crate::run::SimContext;
use crate::sched::{PipelineStage, PipelinedSchedule};
use crate::task::Workload;
use abm_fault::{AbmError, Injector};
use abm_telemetry::{Collector, Event};
use std::collections::HashMap;

/// Extra rows of FIFO depth provisioned beyond the measured high
/// water, absorbing bounded producer jitter (the fault guards treat
/// this margin as the absorbable stall budget).
pub const FIFO_MARGIN_ROWS: usize = 2;

/// Planning knobs for [`plan_pipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Number of pipeline stages (each owns one CU).
    pub n_stages: usize,
    /// Total kernel lanes to distribute across stages.
    pub lane_budget: usize,
    /// Clock the pipelined design runs at.
    pub freq_mhz: f64,
}

impl PipelineOptions {
    /// Resource-neutral defaults: one stage per CU, the same total
    /// lane count and the same clock as the sequential design.
    #[must_use]
    pub fn for_config(cfg: &AcceleratorConfig) -> Self {
        Self {
            n_stages: cfg.n_cu,
            lane_budget: cfg.n_cu * cfg.n_knl,
            freq_mhz: cfg.freq_mhz,
        }
    }
}

/// A planning error: the requested partition cannot exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// More stages than layers (a stage would be empty), than CUs (a
    /// stage would have no CU), or zero stages.
    BadStageCount {
        /// Requested stage count.
        n_stages: usize,
        /// Layers available to cover.
        n_layers: usize,
        /// CUs available to own.
        n_cu: usize,
    },
    /// Fewer lanes than stages (a stage would have no lane).
    LaneBudgetTooSmall {
        /// Requested total lanes.
        lane_budget: usize,
        /// Requested stage count.
        n_stages: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadStageCount {
                n_stages,
                n_layers,
                n_cu,
            } => write!(
                f,
                "cannot split {n_layers} layers over {n_cu} CUs into {n_stages} stages"
            ),
            Self::LaneBudgetTooSmall {
                lane_budget,
                n_stages,
            } => write!(f, "{lane_budget} lanes cannot feed {n_stages} stages"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Row-level unit counts and costs for one layer under a given lane
/// count: everything the planner and the DES need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerCost {
    /// Work units for one image: output rows for conv, 1 for FC.
    rows: usize,
    /// Cycles one unit occupies its stage (includes the per-row sync
    /// overhead; FC units are amortized over the batch group).
    unit_cycles: u64,
}

impl LayerCost {
    /// Cycles the layer occupies its stage for one image.
    fn image_cycles(self) -> u64 {
        self.rows as u64 * self.unit_cycles
    }
}

/// Every layer's per-kernel row cycles, computed once and sorted longest
/// first once, with each layer's [`LayerCost`] memoised per lane count.
/// One table serves a whole planning call — the partition enumeration,
/// the arbitration runs and their fault guards — so a layer's lane
/// recurrence runs once however many partitions price it.
struct CostTable<'a> {
    workloads: &'a [Workload],
    cfg: &'a AcceleratorConfig,
    batch: usize,
    /// Per layer, each kernel lane's cycles for one work unit, longest
    /// first (the order the LPT schedule consumes them in).
    row_cycles: Vec<Vec<u64>>,
    memo: HashMap<(usize, usize), LayerCost>,
}

impl<'a> CostTable<'a> {
    fn new(workloads: &'a [Workload], cfg: &'a AcceleratorConfig, batch: usize) -> Self {
        let row_cycles = workloads
            .iter()
            .map(|w| {
                let mut cycles = kernel_row_cycles(w, cfg);
                cycles.sort_unstable_by(|a, b| b.cmp(a));
                cycles
            })
            .collect();
        Self {
            workloads,
            cfg,
            batch,
            row_cycles,
            memo: HashMap::new(),
        }
    }

    /// Layer `l`'s lane-work for one image: the partitioning signal.
    fn work(&self, l: usize) -> u64 {
        self.row_cycles[l].iter().sum::<u64>() * rows_of(&self.workloads[l]) as u64
    }

    /// Layer `l`'s unit count and cost on a stage owning `lanes` lanes.
    fn cost(&mut self, l: usize, lanes: usize) -> LayerCost {
        *self.memo.entry((l, lanes)).or_insert_with(|| {
            layer_cost(
                &self.workloads[l],
                self.cfg,
                &self.row_cycles[l],
                lanes,
                self.batch,
            )
        })
    }

    /// Each stage's layer costs under `schedule`, in stage and layer
    /// order — what the streaming core consumes.
    fn stage_costs(&mut self, schedule: &PipelinedSchedule) -> Vec<Vec<LayerCost>> {
        schedule
            .stages
            .iter()
            .map(|s| {
                (s.layer_start..s.layer_end)
                    .map(|l| self.cost(l, s.lanes()))
                    .collect()
            })
            .collect()
    }
}

/// Cycles each kernel lane needs for one output row: the address
/// generator packs the `S_ec`-wide vector across the row's pixels
/// (`ceil(out_cols / S_ec)` sweeps); an FC layer is one sweep whose
/// vector dimension is the `S_ec`-image batch.
fn kernel_row_cycles(w: &Workload, cfg: &AcceleratorConfig) -> Vec<u64> {
    let vectors = if w.is_fc {
        1
    } else {
        (w.out_cols as u64).div_ceil(cfg.s_ec as u64)
    };
    w.code
        .kernels()
        .iter()
        .map(|k| lane::lane_cycles(k, vectors, cfg.n as u64, cfg.fifo_depth))
        .collect()
}

/// Longest-processing-time list schedule of `sorted` — costs already
/// ordered longest first — onto `lanes` parallel lanes; returns the
/// makespan.
fn lpt_makespan(sorted: &[u64], lanes: usize) -> u64 {
    debug_assert!(lanes > 0);
    let mut load = vec![0u64; lanes];
    for &c in sorted {
        let idx = (0..lanes).min_by_key(|&i| load[i]).unwrap_or(0);
        load[idx] += c;
    }
    load.into_iter().max().unwrap_or(0)
}

/// Per-layer row counts and unit costs for a stage owning `lanes`
/// kernel lanes, from the layer's row cycles sorted longest first, with
/// FC units amortized over groups of `min(S_ec, batch)` images (the
/// accumulator-column batching the sequential simulator models).
fn layer_cost(
    w: &Workload,
    cfg: &AcceleratorConfig,
    sorted_row_cycles: &[u64],
    lanes: usize,
    batch: usize,
) -> LayerCost {
    let makespan = lpt_makespan(sorted_row_cycles, lanes);
    if w.is_fc {
        let group = cfg.s_ec.min(batch.max(1)) as u64;
        LayerCost {
            rows: 1,
            unit_cycles: makespan.div_ceil(group) + cfg.window_sync_overhead,
        }
    } else {
        LayerCost {
            rows: w.out_rows,
            unit_cycles: makespan + cfg.window_sync_overhead,
        }
    }
}

/// Work units (rows) of `w` for one image.
fn rows_of(w: &Workload) -> usize {
    if w.is_fc {
        1
    } else {
        w.out_rows
    }
}

/// The last producer-output row that consumer layer `c` (fed by
/// producer `p`) needs before it can emit output row `r`.
fn needed_producer_row(p: &Workload, c: &Workload, r: usize) -> usize {
    let p_rows = rows_of(p);
    if c.is_fc {
        return p_rows - 1; // flatten: the whole feature map
    }
    let l = c.layout;
    let last_in = (r * l.stride + c.kernel - 1)
        .saturating_sub(l.pad)
        .min(l.in_rows - 1);
    if p_rows == l.in_rows {
        return last_in;
    }
    // A host-side resampling layer (pooling, LRN) sits between the two
    // accelerated layers; map the consumer input row back to the
    // producer output row proportionally.
    (((last_in + 1) * p_rows).div_ceil(l.in_rows)).saturating_sub(1)
}

/// The first producer-output row that consumer row `r` reaches back
/// to — the release point for FIFO occupancy accounting.
fn first_producer_row(p: &Workload, c: &Workload, r: usize) -> usize {
    let p_rows = rows_of(p);
    if c.is_fc {
        return 0;
    }
    let l = c.layout;
    let first_in = (r * l.stride).saturating_sub(l.pad).min(l.in_rows - 1);
    if p_rows == l.in_rows {
        return first_in;
    }
    (first_in * p_rows) / l.in_rows
}

/// Timing of one pipeline stage over a whole batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSim {
    /// Kernel lanes the stage owns.
    pub lanes: usize,
    /// Cycles the stage spent executing row units.
    pub busy_cycles: u64,
    /// Cycle its first unit issued.
    pub first_start: u64,
    /// Cycle its last unit retired.
    pub finish: u64,
    /// `busy / (finish - first_start)` — how well streaming keeps the
    /// stage fed.
    pub occupancy: f64,
}

/// Occupancy of one inter-stage FIFO over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundarySim {
    /// Workload index of the producing layer (the last layer of the
    /// upstream stage).
    pub producer_layer: usize,
    /// Deepest simultaneous occupancy observed, in rows.
    pub high_water_rows: usize,
    /// Provisioned depth from the schedule, in rows.
    pub depth_rows: usize,
}

/// Result of a pipelined batch simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSim {
    /// Images streamed through the pipeline.
    pub batch: usize,
    /// Per-stage timing, in stage order.
    pub stages: Vec<StageSim>,
    /// Per-boundary FIFO occupancy (`stages.len() - 1` entries).
    pub boundaries: Vec<BoundarySim>,
    /// Cycle each image's last row retired from the last stage.
    pub image_finish: Vec<u64>,
    /// Cycle the whole batch completed.
    pub makespan_cycles: u64,
    /// Clock the schedule runs at.
    pub freq_mhz: f64,
}

impl PipelineSim {
    /// Wall-clock seconds for the whole batch.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.makespan_cycles as f64 / (self.freq_mhz * 1e6)
    }

    /// Steady-state cycles per image: the bottleneck stage's busy
    /// cycles divided by the batch.
    #[must_use]
    pub fn steady_cycles_per_image(&self) -> u64 {
        let bottleneck = self.stages.iter().map(|s| s.busy_cycles).max().unwrap_or(0);
        bottleneck / self.batch.max(1) as u64
    }

    /// Batch throughput in images per second.
    #[must_use]
    pub fn images_per_second(&self) -> f64 {
        self.batch as f64 / self.total_seconds()
    }
}

/// Strict sequential baseline over the *same* cost primitives: all
/// `N_cu · N_knl` lanes time-multiplexed over one layer at a time, one
/// image after another, FC amortized over `min(S_ec, batch)` — the
/// fair comparison target for [`simulate_pipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialBatchSim {
    /// Cycles one image takes front to back.
    pub cycles_per_image: u64,
    /// Cycles for the whole batch (`batch · cycles_per_image`).
    pub total_cycles: u64,
    /// Clock the sequential design runs at.
    pub freq_mhz: f64,
    /// Images in the batch.
    pub batch: usize,
}

impl SequentialBatchSim {
    /// Wall-clock seconds for the whole batch.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles as f64 / (self.freq_mhz * 1e6)
    }

    /// Batch throughput in images per second.
    #[must_use]
    pub fn images_per_second(&self) -> f64 {
        self.batch as f64 / self.total_seconds()
    }
}

/// Simulates the strictly sequential batch execution used as the
/// pipelining baseline (same row-cost primitives, all lanes on one
/// layer at a time).
#[must_use]
pub fn simulate_sequential_batch(
    workloads: &[Workload],
    cfg: &AcceleratorConfig,
    batch: usize,
) -> SequentialBatchSim {
    let lanes = cfg.n_cu * cfg.n_knl;
    let mut table = CostTable::new(workloads, cfg, batch);
    let cycles_per_image: u64 = (0..workloads.len())
        .map(|l| table.cost(l, lanes).image_cycles())
        .sum();
    SequentialBatchSim {
        cycles_per_image,
        total_cycles: cycles_per_image * batch as u64,
        freq_mhz: cfg.freq_mhz,
        batch,
    }
}

/// Plans a pipelined schedule: enumerates every contiguous partition
/// of the layers into `opts.n_stages` stages, allocates whole lanes to
/// stages by largest remainder proportional to stage lane-work, and
/// keeps the partition with the smallest bottleneck stage. FIFO depths
/// are then sized from an unbounded dataflow run at `batch` images
/// (measured high water plus [`FIFO_MARGIN_ROWS`]).
///
/// # Errors
///
/// [`PlanError`] when the stage count or lane budget cannot produce a
/// valid partition.
pub fn plan_pipeline(
    workloads: &[Workload],
    cfg: &AcceleratorConfig,
    opts: &PipelineOptions,
    batch: usize,
) -> Result<PipelinedSchedule, PlanError> {
    let n_layers = workloads.len();
    let n_stages = opts.n_stages;
    if n_stages == 0 || n_stages > n_layers || n_stages > cfg.n_cu {
        return Err(PlanError::BadStageCount {
            n_stages,
            n_layers,
            n_cu: cfg.n_cu,
        });
    }
    if opts.lane_budget < n_stages {
        return Err(PlanError::LaneBudgetTooSmall {
            lane_budget: opts.lane_budget,
            n_stages,
        });
    }

    // Every partition and arbitration run prices its layers from one
    // table: each layer's lane recurrence runs once per call.
    let mut table = CostTable::new(workloads, cfg, batch);
    let work: Vec<u64> = (0..n_layers).map(|l| table.work(l)).collect();

    let mut candidates: Vec<(u64, u64, Vec<usize>, Vec<usize>)> = Vec::new();
    let mut cuts = vec![0usize; n_stages + 1];
    cuts[n_stages] = n_layers;
    enumerate_partitions(n_layers, n_stages, &mut cuts, 1, &mut |cuts| {
        let lanes = allocate_lanes(&work, cuts, opts.lane_budget);
        let stage_cycles: Vec<u64> = (0..n_stages)
            .map(|s| {
                (cuts[s]..cuts[s + 1])
                    .map(|l| table.cost(l, lanes[s]).image_cycles())
                    .sum::<u64>()
            })
            .collect();
        let bottleneck = stage_cycles.iter().copied().max().unwrap_or(0);
        let spread = bottleneck - stage_cycles.iter().copied().min().unwrap_or(0);
        candidates.push((bottleneck, spread, cuts.to_vec(), lanes));
    });
    // The static bottleneck is only a proxy (it ignores dependency
    // stalls and fill/drain), so rank by it, then let the dataflow
    // engine arbitrate among the best few candidates — the measured
    // batch makespan is the real objective. Ties fall to the most
    // balanced partition: imbalance is pure run-ahead, which inflates
    // the inter-stage FIFOs for no throughput.
    candidates.sort_by_key(|c| (c.0, c.1));
    candidates.truncate(8);
    let mut best: Option<(u64, PipelinedSchedule, PipelineSim)> = None;
    for (_, _, cuts, lanes) in candidates {
        let schedule = PipelinedSchedule {
            stages: (0..n_stages)
                .map(|s| PipelineStage {
                    cu_start: s,
                    cu_count: 1,
                    n_knl: lanes[s],
                    layer_start: cuts[s],
                    layer_end: cuts[s + 1],
                    fifo_rows: 0,
                })
                .collect(),
            freq_mhz: opts.freq_mhz,
        };
        let costs = table.stage_costs(&schedule);
        let sim = SimContext::default()
            .stream(workloads, &schedule, batch, &costs)
            // INVARIANT: the core only fails through an enabled injector.
            .expect("the null injector trips no guard");
        if best
            .as_ref()
            .is_none_or(|(m, _, _)| sim.makespan_cycles < *m)
        {
            best = Some((sim.makespan_cycles, schedule, sim));
        }
    }
    // INVARIANT: n_stages <= n_layers guarantees at least one partition.
    let (_, mut schedule, sim) = best.expect("at least one contiguous partition exists");

    // Size the inter-stage FIFOs from the measured high water of the
    // unbounded run, plus the jitter margin the fault guards rely on.
    for (stage, boundary) in schedule.stages[1..].iter_mut().zip(&sim.boundaries) {
        stage.fifo_rows = boundary.high_water_rows + FIFO_MARGIN_ROWS;
    }
    Ok(schedule)
}

/// Visits every monotone cut vector `cuts[1..n_stages]` with
/// `0 < cuts[1] < … < cuts[n_stages-1] < n_layers`.
fn enumerate_partitions(
    n_layers: usize,
    n_stages: usize,
    cuts: &mut Vec<usize>,
    level: usize,
    visit: &mut impl FnMut(&[usize]),
) {
    if level == n_stages {
        visit(cuts);
        return;
    }
    let lo = cuts[level - 1] + 1;
    let hi = n_layers - (n_stages - level);
    for c in lo..=hi {
        cuts[level] = c;
        enumerate_partitions(n_layers, n_stages, cuts, level + 1, visit);
    }
}

/// Largest-remainder apportionment of `budget` whole lanes to stages,
/// proportional to stage lane-work, at least one lane each.
fn allocate_lanes(work: &[u64], cuts: &[usize], budget: usize) -> Vec<usize> {
    let n_stages = cuts.len() - 1;
    let stage_work: Vec<u64> = (0..n_stages)
        .map(|s| work[cuts[s]..cuts[s + 1]].iter().sum())
        .collect();
    let total: u64 = stage_work.iter().sum::<u64>().max(1);
    let mut lanes = vec![1usize; n_stages];
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(n_stages);
    let spendable = budget - n_stages; // one lane each is already granted
    let mut spent = 0usize;
    for (s, &w) in stage_work.iter().enumerate() {
        let exact = w as u128 * spendable as u128;
        let floor = (exact / total as u128) as usize;
        lanes[s] += floor;
        spent += floor;
        remainders.push(((exact % total as u128) as u64, s));
    }
    remainders.sort_unstable_by(|a, b| b.cmp(a));
    for &(_, s) in remainders.iter().take(budget - n_stages - spent) {
        lanes[s] += 1;
    }
    lanes
}

/// Simulates a pipelined batch under the default [`SimContext`] (null
/// collector, null injector).
///
/// # Panics
///
/// Panics if the schedule does not cover the workloads contiguously or
/// a stage owns zero kernel lanes (run `verify_pipelined_schedule` first
/// for a typed report).
#[must_use]
pub fn simulate_pipeline(
    workloads: &[Workload],
    cfg: &AcceleratorConfig,
    schedule: &PipelinedSchedule,
    batch: usize,
) -> PipelineSim {
    SimContext::default()
        .simulate_pipeline(workloads, cfg, schedule, batch)
        // INVARIANT: the core only fails through an enabled injector.
        .expect("the null injector trips no guard")
}

impl<C: Collector, I: Injector> SimContext<C, I> {
    /// The pipeline core: streams `batch` images through `schedule`'s
    /// stages. Reads only the context's hooks and watchdog — the
    /// dataflow engine has no DDR model, CU scheduling policy, host
    /// fan-out or budget.
    ///
    /// An enabled collector receives per-stage [`Event::StageSpan`]
    /// runs (contiguous row units of one image/layer merged into one
    /// span) and per-boundary [`Event::StageFifo`] occupancy.
    ///
    /// An enabled injector is held to the workload core's absorption
    /// discipline:
    ///
    /// * an injected **FIFO stall** at boundary `b` backs up
    ///   `ceil(stall / producer_row_cycles)` extra rows; the
    ///   provisioned margin above the measured high water absorbs it or
    ///   the run fails with [`AbmError::FifoOverflow`] (`kernel`
    ///   carries the boundary);
    /// * an injected **CU hang** on a stage (polled per image, `task`
    ///   carries the image index) is absorbed up to the watchdog's
    ///   slack or fails with [`AbmError::CuDeadline`].
    ///
    /// On success the result is bit-identical to the unguarded,
    /// unobserved run — absorbed faults are provably masked, never
    /// folded into the timing.
    ///
    /// # Errors
    ///
    /// [`AbmError::FifoOverflow`] / [`AbmError::CuDeadline`] as above,
    /// only with an enabled injector.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover the workloads contiguously
    /// or a stage owns zero kernel lanes (run `verify_pipelined_schedule`
    /// first for a typed report).
    pub fn simulate_pipeline(
        &mut self,
        workloads: &[Workload],
        cfg: &AcceleratorConfig,
        schedule: &PipelinedSchedule,
        batch: usize,
    ) -> Result<PipelineSim, AbmError> {
        let n_layers = workloads.len();
        assert!(
            schedule.stages.first().is_some_and(|s| s.layer_start == 0)
                && schedule
                    .stages
                    .last()
                    .is_some_and(|s| s.layer_end == n_layers)
                && schedule
                    .stages
                    .windows(2)
                    .all(|p| p[0].layer_end == p[1].layer_start),
            "schedule must cover the workloads contiguously"
        );
        for (s, stage) in schedule.stages.iter().enumerate() {
            assert!(
                stage.lanes() > 0,
                "pipeline stage {s} owns zero kernel lanes"
            );
        }
        let costs = CostTable::new(workloads, cfg, batch).stage_costs(schedule);
        self.stream(workloads, schedule, batch, &costs)
    }

    /// The streaming core proper, over each stage's layer costs
    /// (`costs[s][i]` prices layer `stages[s].layer_start + i` on stage
    /// `s`'s lanes) for a schedule that covers `workloads`.
    fn stream(
        &mut self,
        workloads: &[Workload],
        schedule: &PipelinedSchedule,
        batch: usize,
        costs: &[Vec<LayerCost>],
    ) -> Result<PipelineSim, AbmError> {
        let collector = &mut self.collector;
        let batch = batch.max(1);
        let n_layers = workloads.len();

        // finish[img][layer][row] — retire cycle of every row unit.
        let mut finish: Vec<Vec<Vec<u64>>> = (0..batch)
            .map(|_| workloads.iter().map(|w| vec![0u64; rows_of(w)]).collect())
            .collect();
        let mut done: Vec<Vec<usize>> = vec![vec![0; n_layers]; batch];

        let mut stages = Vec::with_capacity(schedule.stages.len());
        for ((si, stage), layer_costs) in schedule.stages.iter().enumerate().zip(costs) {
            let span = stage.layer_start..stage.layer_end;
            let mut remaining: usize = layer_costs.iter().map(|c| c.rows).sum::<usize>() * batch;
            let mut clock = 0u64;
            let mut busy = 0u64;
            let mut first_start = u64::MAX;
            // One open merged span per stage: (img, layer, start, end).
            let mut open: Option<(usize, usize, u64, u64)> = None;
            while remaining > 0 {
                // Dataflow dispatch: the smallest ready (img, layer, row).
                let mut earliest = u64::MAX;
                let mut pick: Option<(usize, usize, usize, u64)> = None;
                'scan: for img in 0..batch {
                    for (li, l) in span.clone().enumerate() {
                        let r = done[img][l];
                        if r >= layer_costs[li].rows {
                            continue;
                        }
                        let ready = if l == 0 {
                            0 // the input image is always resident
                        } else {
                            let pr = needed_producer_row(&workloads[l - 1], &workloads[l], r);
                            if done[img][l - 1] > pr {
                                finish[img][l - 1][pr]
                            } else {
                                // Producer row not yet executed; if it lives
                                // in this same stage it will become ready
                                // once its own unit runs.
                                u64::MAX
                            }
                        };
                        if ready <= clock {
                            pick = Some((img, l, r, layer_costs[li].unit_cycles));
                            break 'scan;
                        }
                        earliest = earliest.min(ready);
                    }
                }
                match pick {
                    Some((img, l, r, cost)) => {
                        let end = clock + cost;
                        finish[img][l][r] = end;
                        done[img][l] += 1;
                        busy += cost;
                        first_start = first_start.min(clock);
                        if C::ENABLED {
                            open = match open {
                                Some((oi, ol, os, oe)) if oi == img && ol == l && oe == clock => {
                                    Some((oi, ol, os, end))
                                }
                                prev => {
                                    flush_span(collector, si, prev);
                                    Some((img, l, clock, end))
                                }
                            };
                        }
                        clock = end;
                        remaining -= 1;
                    }
                    None => {
                        // INVARIANT: some unit's producer lives in an
                        // earlier stage (finish time known), so starvation
                        // always has a finite horizon.
                        assert!(earliest > clock && earliest < u64::MAX, "pipeline deadlock");
                        clock = earliest;
                    }
                }
            }
            if C::ENABLED {
                flush_span(collector, si, open);
            }
            let first = if first_start == u64::MAX {
                0
            } else {
                first_start
            };
            stages.push(StageSim {
                lanes: stage.lanes(),
                busy_cycles: busy,
                first_start: first,
                finish: clock,
                occupancy: if clock > first {
                    busy as f64 / (clock - first) as f64
                } else {
                    1.0
                },
            });
        }

        // FIFO occupancy per boundary, aggregated across images: a
        // producer row enters at its finish and retires when the last
        // consumer row reaching back to it finishes (retire before add at
        // equal cycles — the hardware pops before it pushes).
        let mut boundaries = Vec::with_capacity(schedule.stages.len().saturating_sub(1));
        for (b, stage) in schedule.stages[1..].iter().enumerate() {
            let cl = stage.layer_start; // consumer: first layer of the stage
            let p = &workloads[cl - 1];
            let c = &workloads[cl];
            let p_rows = rows_of(p);
            let c_rows = rows_of(c);
            let mut events: Vec<(u64, u8)> = Vec::new(); // (cycle, 0=retire 1=add)
            for img_finish in finish.iter().take(batch) {
                for r in 0..p_rows {
                    events.push((img_finish[cl - 1][r], 1));
                    // Last consumer row whose receptive field still holds
                    // producer row r: first_producer_row is monotone, so
                    // scan back from the end.
                    let release = (0..c_rows)
                        .rev()
                        .find(|&cr| first_producer_row(p, c, cr) <= r)
                        .unwrap_or(0);
                    events.push((img_finish[cl][release], 0));
                }
            }
            events.sort_unstable();
            let mut occupancy = 0i64;
            let mut high = 0i64;
            for (_, kind) in events {
                if kind == 1 {
                    occupancy += 1;
                    high = high.max(occupancy);
                } else {
                    occupancy -= 1;
                }
            }
            let boundary = BoundarySim {
                producer_layer: cl - 1,
                high_water_rows: high as usize,
                depth_rows: stage.fifo_rows,
            };
            if C::ENABLED {
                collector.record(Event::StageFifo {
                    boundary: b as u32,
                    high_water: boundary.high_water_rows as u32,
                    depth: boundary.depth_rows as u32,
                });
            }
            boundaries.push(boundary);
        }

        let last = n_layers - 1;
        let image_finish: Vec<u64> = (0..batch)
            // INVARIANT: rows_of() is >= 1 for every layer kind, so each
            // per-layer finish vector holds at least one row timestamp.
            .map(|img| *finish[img][last].last().expect("layers have rows"))
            .collect();
        let makespan_cycles = image_finish.iter().copied().max().unwrap_or(0);
        let sim = PipelineSim {
            batch,
            stages,
            boundaries,
            image_finish,
            makespan_cycles,
            freq_mhz: schedule.freq_mhz,
        };
        if I::ENABLED {
            check_pipeline(schedule, costs, &sim, &mut self.injector, self.watchdog)?;
        }
        Ok(sim)
    }
}

fn flush_span<C: Collector>(
    collector: &mut C,
    stage: usize,
    open: Option<(usize, usize, u64, u64)>,
) {
    if let Some((img, layer, start, end)) = open {
        collector.record(Event::StageSpan {
            stage: stage as u32,
            img: img as u32,
            layer: layer as u32,
            start,
            end,
        });
    }
}

/// The pipelined fault guards: polls `injector` at every inter-stage
/// boundary (FIFO stall) and every stage × image (CU hang) and holds
/// each delivered fault to the slack `sim` measured, pricing a producer
/// row from the stage costs the run streamed with.
fn check_pipeline<I: Injector>(
    schedule: &PipelinedSchedule,
    costs: &[Vec<LayerCost>],
    sim: &PipelineSim,
    injector: &mut I,
    watchdog: Watchdog,
) -> Result<(), AbmError> {
    for (b, (stage, boundary)) in schedule.stages[1..].iter().zip(&sim.boundaries).enumerate() {
        let consumer = stage.layer_start;
        let stall = injector.lane_stall(consumer, b);
        if stall > 0 {
            // INVARIANT: boundary.producer_layer was derived from this
            // same schedule's stages, so stage_of always resolves it.
            let ps = schedule
                .stage_of(boundary.producer_layer)
                .expect("producer layer is covered");
            let row_cycles =
                costs[ps][boundary.producer_layer - schedule.stages[ps].layer_start].unit_cycles;
            let headroom = stage.fifo_rows.saturating_sub(boundary.high_water_rows) as u64;
            let slack = headroom * row_cycles;
            if stall > slack {
                return Err(AbmError::FifoOverflow {
                    layer: consumer,
                    kernel: b,
                    stall,
                    slack,
                });
            }
        }
    }
    for stage in &schedule.stages {
        for img in 0..sim.batch {
            let delay = injector.task_delay(stage.layer_start, img);
            if delay > watchdog.slack_cycles {
                return Err(AbmError::CuDeadline {
                    layer: stage.layer_start,
                    task: img,
                    delay,
                    slack: watchdog.slack_cycles,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_fault::{FaultPlan, PlanInjector};
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};
    use abm_telemetry::RecordingCollector;

    fn tiny_workloads() -> (Vec<Workload>, AcceleratorConfig) {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 16));
        let model = synthesize_model(&net, &profile, 2019);
        let workloads: Vec<Workload> = model
            .layers
            .iter()
            .map(|l| Workload::from_layer(l).unwrap())
            .collect();
        (workloads, AcceleratorConfig::paper())
    }

    #[test]
    fn plan_covers_all_layers_with_the_full_lane_budget() {
        let (w, cfg) = tiny_workloads();
        let opts = PipelineOptions::for_config(&cfg);
        let s = plan_pipeline(&w, &cfg, &opts, 4).unwrap();
        assert_eq!(s.stages.len(), opts.n_stages.min(w.len()));
        assert_eq!(s.total_lanes(), opts.lane_budget);
        assert_eq!(s.stages[0].layer_start, 0);
        assert_eq!(s.stages.last().unwrap().layer_end, w.len());
        for pair in s.stages.windows(2) {
            assert_eq!(pair[0].layer_end, pair[1].layer_start);
            assert!(pair[1].fifo_rows >= FIFO_MARGIN_ROWS);
        }
    }

    #[test]
    fn work_is_conserved_across_the_pipeline() {
        let (w, cfg) = tiny_workloads();
        let batch = 3;
        let opts = PipelineOptions::for_config(&cfg);
        let s = plan_pipeline(&w, &cfg, &opts, batch).unwrap();
        let sim = simulate_pipeline(&w, &cfg, &s, batch);
        // Every stage's busy cycles equal its layers' unit costs times
        // the batch — nothing is dropped or double-counted.
        let costs = CostTable::new(&w, &cfg, batch).stage_costs(&s);
        for (layer_costs, ssim) in costs.iter().zip(&sim.stages) {
            let expected: u64 =
                layer_costs.iter().map(|c| c.image_cycles()).sum::<u64>() * batch as u64;
            assert_eq!(ssim.busy_cycles, expected);
        }
        // Image finishes are ordered and bounded by the makespan.
        for pair in sim.image_finish.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert_eq!(sim.makespan_cycles, *sim.image_finish.iter().max().unwrap());
    }

    #[test]
    fn planned_fifos_hold_the_observed_high_water() {
        let (w, cfg) = tiny_workloads();
        let opts = PipelineOptions::for_config(&cfg);
        let s = plan_pipeline(&w, &cfg, &opts, 4).unwrap();
        let sim = simulate_pipeline(&w, &cfg, &s, 4);
        for b in &sim.boundaries {
            assert!(
                b.depth_rows >= b.high_water_rows + FIFO_MARGIN_ROWS,
                "boundary after layer {} undersized: {} < {}",
                b.producer_layer,
                b.depth_rows,
                b.high_water_rows
            );
        }
    }

    #[test]
    fn pipelining_beats_sequential_at_batch() {
        let (w, cfg) = tiny_workloads();
        let batch = 8;
        let opts = PipelineOptions::for_config(&cfg);
        let s = plan_pipeline(&w, &cfg, &opts, batch).unwrap();
        let pipe = simulate_pipeline(&w, &cfg, &s, batch);
        let seq = simulate_sequential_batch(&w, &cfg, batch);
        // Same lanes, same clock: streaming must not lose throughput
        // (tiny has little work, so just require parity-or-better with
        // a 5% numerical allowance).
        assert!(
            pipe.total_seconds() <= seq.total_seconds() * 1.05,
            "pipe {} s vs seq {} s",
            pipe.total_seconds(),
            seq.total_seconds()
        );
    }

    #[test]
    fn collected_run_is_bit_identical_and_spans_are_sane() {
        let (w, cfg) = tiny_workloads();
        let opts = PipelineOptions::for_config(&cfg);
        let s = plan_pipeline(&w, &cfg, &opts, 2).unwrap();
        let plain = simulate_pipeline(&w, &cfg, &s, 2);
        let mut rec = RecordingCollector::new();
        let collected = SimContext::default()
            .collector(&mut rec)
            .simulate_pipeline(&w, &cfg, &s, 2)
            .unwrap();
        assert_eq!(plain, collected);
        let mut span_cycles = vec![0u64; s.stages.len()];
        let mut fifos = 0;
        for e in rec.events() {
            match e {
                Event::StageSpan {
                    stage, start, end, ..
                } => span_cycles[*stage as usize] += end - start,
                Event::StageFifo { .. } => fifos += 1,
                _ => {}
            }
        }
        assert_eq!(fifos, s.stages.len() - 1);
        for (stage, cycles) in plain.stages.iter().zip(span_cycles) {
            assert_eq!(
                stage.busy_cycles, cycles,
                "merged spans must tile busy time"
            );
        }
    }

    #[test]
    fn guarded_clean_run_matches_unguarded() {
        let (w, cfg) = tiny_workloads();
        let opts = PipelineOptions::for_config(&cfg);
        let s = plan_pipeline(&w, &cfg, &opts, 2).unwrap();
        let plain = simulate_pipeline(&w, &cfg, &s, 2);
        // An enabled injector with nothing to deliver walks every guard.
        let mut idle = PlanInjector::new(FaultPlan::default());
        let guarded = SimContext::default()
            .injector(&mut idle)
            .simulate_pipeline(&w, &cfg, &s, 2)
            .unwrap();
        assert_eq!(plain, guarded);
    }

    #[test]
    fn bad_stage_counts_are_typed_errors() {
        let (w, cfg) = tiny_workloads();
        let mut opts = PipelineOptions::for_config(&cfg);
        opts.n_stages = w.len() + 1;
        assert!(matches!(
            plan_pipeline(&w, &cfg, &opts, 1),
            Err(PlanError::BadStageCount { .. })
        ));
        opts.n_stages = 2;
        opts.lane_budget = 1;
        assert!(matches!(
            plan_pipeline(&w, &cfg, &opts, 1),
            Err(PlanError::LaneBudgetTooSmall { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "pipeline stage 1 owns zero kernel lanes")]
    fn zero_lane_stage_panics_by_name() {
        let (w, cfg) = tiny_workloads();
        let mut s = plan_pipeline(&w, &cfg, &PipelineOptions::for_config(&cfg), 2).unwrap();
        s.stages[1].n_knl = 0;
        let _ = simulate_pipeline(&w, &cfg, &s, 2);
    }

    /// The pricing the cost table replaced, kept only as an oracle:
    /// every query re-runs the layer's lane recurrence, copies and sorts
    /// its row cycles and list-schedules them.
    fn uncached_layer_cost(
        w: &Workload,
        cfg: &AcceleratorConfig,
        lanes: usize,
        batch: usize,
    ) -> LayerCost {
        let mut sorted = kernel_row_cycles(w, cfg);
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut load = vec![0u64; lanes];
        for c in sorted {
            let idx = (0..lanes).min_by_key(|&i| load[i]).unwrap();
            load[idx] += c;
        }
        let makespan = load.into_iter().max().unwrap();
        if w.is_fc {
            let group = cfg.s_ec.min(batch.max(1)) as u64;
            LayerCost {
                rows: 1,
                unit_cycles: makespan.div_ceil(group) + cfg.window_sync_overhead,
            }
        } else {
            LayerCost {
                rows: w.out_rows,
                unit_cycles: makespan + cfg.window_sync_overhead,
            }
        }
    }

    fn uncached_stage_costs(
        w: &[Workload],
        cfg: &AcceleratorConfig,
        schedule: &PipelinedSchedule,
        batch: usize,
    ) -> Vec<Vec<LayerCost>> {
        schedule
            .stages
            .iter()
            .map(|s| {
                w[s.layer_start..s.layer_end]
                    .iter()
                    .map(|l| uncached_layer_cost(l, cfg, s.lanes(), batch))
                    .collect()
            })
            .collect()
    }

    /// The planner as it was before the cost table: every partition and
    /// every arbitration run prices every layer afresh.
    fn uncached_plan(
        w: &[Workload],
        cfg: &AcceleratorConfig,
        opts: &PipelineOptions,
        batch: usize,
    ) -> PipelinedSchedule {
        let (n_layers, n_stages) = (w.len(), opts.n_stages);
        let work: Vec<u64> = w
            .iter()
            .map(|l| kernel_row_cycles(l, cfg).iter().sum::<u64>() * rows_of(l) as u64)
            .collect();
        let mut candidates: Vec<(u64, u64, Vec<usize>, Vec<usize>)> = Vec::new();
        let mut cuts = vec![0usize; n_stages + 1];
        cuts[n_stages] = n_layers;
        enumerate_partitions(n_layers, n_stages, &mut cuts, 1, &mut |cuts| {
            let lanes = allocate_lanes(&work, cuts, opts.lane_budget);
            let stage_cycles: Vec<u64> = (0..n_stages)
                .map(|s| {
                    w[cuts[s]..cuts[s + 1]]
                        .iter()
                        .map(|l| uncached_layer_cost(l, cfg, lanes[s], batch).image_cycles())
                        .sum::<u64>()
                })
                .collect();
            let bottleneck = *stage_cycles.iter().max().unwrap();
            let spread = bottleneck - stage_cycles.iter().min().unwrap();
            candidates.push((bottleneck, spread, cuts.to_vec(), lanes));
        });
        candidates.sort_by_key(|c| (c.0, c.1));
        candidates.truncate(8);
        let mut best: Option<(PipelinedSchedule, PipelineSim)> = None;
        for (_, _, cuts, lanes) in candidates {
            let schedule = PipelinedSchedule {
                stages: (0..n_stages)
                    .map(|s| PipelineStage {
                        cu_start: s,
                        cu_count: 1,
                        n_knl: lanes[s],
                        layer_start: cuts[s],
                        layer_end: cuts[s + 1],
                        fifo_rows: 0,
                    })
                    .collect(),
                freq_mhz: opts.freq_mhz,
            };
            let costs = uncached_stage_costs(w, cfg, &schedule, batch);
            let sim = SimContext::default()
                .stream(w, &schedule, batch, &costs)
                .unwrap();
            if best
                .as_ref()
                .is_none_or(|(_, b)| sim.makespan_cycles < b.makespan_cycles)
            {
                best = Some((schedule, sim));
            }
        }
        let (mut schedule, sim) = best.unwrap();
        for (stage, boundary) in schedule.stages[1..].iter_mut().zip(&sim.boundaries) {
            stage.fifo_rows = boundary.high_water_rows + FIFO_MARGIN_ROWS;
        }
        schedule
    }

    /// The table-driven planner, simulator and sequential baseline
    /// return exactly what pricing every query afresh returns, on tiny,
    /// AlexNet and VGG16 for every stage count the paper's three CUs
    /// allow and batches 1, 4 and 8.
    #[test]
    fn cost_table_changes_no_plan_and_no_cycle() {
        let cfg = AcceleratorConfig::paper();
        for (net, profile) in [
            (
                zoo::tiny(),
                PruneProfile::uniform(LayerProfile::new(0.6, 16)),
            ),
            (zoo::alexnet(), PruneProfile::alexnet_deep_compression()),
            (zoo::vgg16(), PruneProfile::vgg16_deep_compression()),
        ] {
            let model = synthesize_model(&net, &profile, 2019);
            let w: Vec<Workload> = model
                .layers
                .iter()
                .map(|l| Workload::from_layer(l).unwrap())
                .collect();
            for n_stages in 1..=3 {
                for batch in [1, 4, 8] {
                    let opts = PipelineOptions {
                        n_stages,
                        ..PipelineOptions::for_config(&cfg)
                    };
                    let tag = format!("{} stages={n_stages} batch={batch}", net.name());
                    let planned = plan_pipeline(&w, &cfg, &opts, batch).unwrap();
                    assert_eq!(planned, uncached_plan(&w, &cfg, &opts, batch), "{tag}");
                    let costs = uncached_stage_costs(&w, &cfg, &planned, batch);
                    let oracle = SimContext::default()
                        .stream(&w, &planned, batch, &costs)
                        .unwrap();
                    assert_eq!(
                        simulate_pipeline(&w, &cfg, &planned, batch),
                        oracle,
                        "{tag}"
                    );
                    let seq = simulate_sequential_batch(&w, &cfg, batch);
                    let lanes = cfg.n_cu * cfg.n_knl;
                    let per_image: u64 = w
                        .iter()
                        .map(|l| uncached_layer_cost(l, &cfg, lanes, batch).image_cycles())
                        .sum();
                    assert_eq!(seq.cycles_per_image, per_image, "{tag}");
                }
            }
        }
    }
}
