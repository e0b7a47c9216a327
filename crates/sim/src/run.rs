//! Layer- and network-level simulation: the [`SimContext`] every
//! simulation runs under, and its workload and network cores (the
//! pipeline core is in [`crate::pipeline`]).
//!
//! The context is generic, never `dyn`: with the default
//! [`NullCollector`] / [`NullInjector`] every `C::ENABLED` /
//! `I::ENABLED` block is a compile-time-dead branch, so the default
//! monomorphization **is** the uninstrumented, unguarded simulation.
//!
//! Host threads accelerate the *simulation*, as pure maps reassembled
//! in index order; the CU-level concurrency of the accelerator itself is
//! *modeled* by [`schedule_window`](crate::sched::schedule_window),
//! which stays sequential and deterministic regardless of pool size.

use crate::config::AcceleratorConfig;
use crate::fault::{self, SimBudget, Watchdog};
use crate::lane;
use crate::memory::{layer_traffic, window_traffic, LayerTraffic, MemorySystem};
use crate::sched::{schedule_window_with, SchedulingPolicy};
use crate::task::Workload;
use abm_conv::parallel::{parallel_map_salvage, Parallelism};
use abm_fault::{AbmError, Injector, NullInjector};
use abm_model::SparseModel;
use abm_telemetry::{Collector, Event, NullCollector};
use std::time::Instant;

/// Simulation outcome for one accelerated layer (per image).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSim {
    /// Layer name.
    pub name: String,
    /// Compute makespan in cycles (including window syncs); for FC
    /// layers this is per `S_ec`-image batch.
    pub compute_cycles: u64,
    /// Sum of executed task cycles across CUs.
    pub busy_cycles: u64,
    /// CU utilization: busy / (N_cu × makespan).
    pub utilization: f64,
    /// External memory traffic.
    pub traffic: LayerTraffic,
    /// Compute time in seconds (per image; FC amortized over the batch).
    pub compute_seconds: f64,
    /// Memory transfer time in seconds (per image; overlapped with
    /// compute by double buffering).
    pub memory_seconds: f64,
    /// Layer latency per image: `max(compute, memory)`.
    pub seconds: f64,
    /// Dense op count (throughput numerator).
    pub dense_ops: u64,
    /// ABM accumulations executed.
    pub acc_ops: u64,
    /// ABM multiplications executed.
    pub mult_ops: u64,
    /// Whether this layer is memory-bound.
    pub memory_bound: bool,
    /// Accumulator cycles lost to partial-sum FIFO back-pressure:
    /// per-sweep stalls (from the bottleneck profile) times vector
    /// sweeps across all windows. First-order — steady-state sweeps can
    /// overlap stalls — but it is the same first-order model the DSE
    /// crate reasons with, which is what matters for comparing them.
    pub stall_cycles: u64,
    /// Fraction of accumulator-lane cycles doing useful accumulations —
    /// the "execution efficiency" the paper reports in Sections 6.2/7
    /// (87% VGG16, 81% AlexNet).
    pub lane_efficiency: f64,
    /// Bottleneck profile: FIFO stalls and multiplier-bound kernel
    /// population.
    pub bottleneck: crate::task::BottleneckProfile,
    /// Estimated host-CPU time for the *following* host layers (pool,
    /// ReLU, LRN) attributable to this layer's output — pipelined
    /// against the accelerator, per the paper's measurement setup.
    pub host_seconds: f64,
}

impl LayerSim {
    /// Dense-equivalent throughput of this layer in GOP/s.
    pub fn gops(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.dense_ops as f64 / self.seconds / 1e9
        }
    }

    /// The layer's headline numbers as a [`SimSummary`].
    pub fn summary(&self) -> SimSummary {
        SimSummary {
            compute_cycles: self.compute_cycles,
            stall_cycles: self.stall_cycles,
            bytes_moved: self.traffic.total(),
        }
    }
}

/// The three headline numbers of a simulation — cycles, stalls and DDR
/// bytes — at layer or network granularity (see [`LayerSim::summary`]
/// and [`NetworkSim::summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SimSummary {
    /// Compute makespan in cycles (including window syncs).
    pub compute_cycles: u64,
    /// Accumulator cycles lost to FIFO back-pressure.
    pub stall_cycles: u64,
    /// DDR bytes moved (features in + out + weights).
    pub bytes_moved: u64,
}

/// Simulation outcome for a whole network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSim {
    layers: Vec<LayerSim>,
    freq_mhz: f64,
}

impl NetworkSim {
    /// Per-layer results in execution order.
    pub fn layers(&self) -> &[LayerSim] {
        &self.layers
    }

    /// Accelerator clock frequency this network was simulated at (MHz).
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Network-level totals: cycles, stalls and DDR bytes summed over
    /// layers.
    pub fn summary(&self) -> SimSummary {
        self.layers
            .iter()
            .map(LayerSim::summary)
            .fold(SimSummary::default(), |a, l| SimSummary {
                compute_cycles: a.compute_cycles + l.compute_cycles,
                stall_cycles: a.stall_cycles + l.stall_cycles,
                bytes_moved: a.bytes_moved + l.bytes_moved,
            })
    }

    /// Finds a layer by name.
    pub fn layer(&self, name: &str) -> Option<&LayerSim> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Total accelerator time per image in seconds (host layers are
    /// hidden by pipelining, as in the paper's measurement).
    pub fn total_seconds(&self) -> f64 {
        self.layers.iter().map(|l| l.seconds).sum()
    }

    /// Inference rate in images per second.
    pub fn images_per_second(&self) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            0.0
        } else {
            1.0 / t
        }
    }

    /// Dense-equivalent throughput in GOP/s — the Table 2 metric
    /// ("total #OP for spatial convolution of the original model divided
    /// by the average inference time").
    pub fn gops(&self) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            return 0.0;
        }
        let ops: u64 = self.layers.iter().map(|l| l.dense_ops).sum();
        ops as f64 / t / 1e9
    }

    /// Whether the host-side layers are fully hidden behind accelerator
    /// execution (every layer's estimated host time fits within its
    /// accelerator time — the paper's pipelining claim in Section 6.1).
    pub fn host_hidden(&self) -> bool {
        self.layers.iter().all(|l| l.host_seconds <= l.seconds)
    }

    /// Accumulator-lane execution efficiency across the network — the
    /// number Section 6.2 / the related-work comparison quote (87% for
    /// VGG16, 81% for AlexNet): useful accumulations over lane-cycle
    /// capacity.
    pub fn lane_efficiency(&self) -> f64 {
        let acc: f64 = self.layers.iter().map(|l| l.acc_ops as f64).sum();
        let cap: f64 = self
            .layers
            .iter()
            .filter(|l| l.lane_efficiency > 0.0)
            .map(|l| l.acc_ops as f64 / l.lane_efficiency)
            .sum();
        if cap == 0.0 {
            0.0
        } else {
            acc / cap
        }
    }

    /// Cycle-weighted CU utilization across the network (the "measured
    /// CU utilization" of Section 6.2).
    pub fn cu_utilization(&self) -> f64 {
        // Per layer, utilization = busy / capacity, so capacity is
        // recovered as busy / utilization; aggregate over layers.
        let busy: f64 = self.layers.iter().map(|l| l.busy_cycles as f64).sum();
        let cap: f64 = self
            .layers
            .iter()
            .filter(|l| l.utilization > 0.0)
            .map(|l| l.busy_cycles as f64 / l.utilization)
            .sum();
        if cap == 0.0 {
            0.0
        } else {
            busy / cap
        }
    }
}

/// Everything a simulation runs under besides its subject and the
/// accelerator configuration: the memory system, the CU scheduling
/// policy, the host parallelism of the simulation itself, resource
/// limits, and the two statically-dispatched hooks (telemetry
/// [`Collector`], fault [`Injector`] with its [`Watchdog`]).
///
/// [`SimContext::default`] is the paper's setup — DE5-Net memory,
/// semi-synchronous scheduler, [`Parallelism::Auto`], no limits, null
/// hooks. Plain fields are replaced with struct-update syntax, the two
/// hooks (which change the context's type) with
/// [`collector`](Self::collector) / [`injector`](Self::injector). The
/// context owns its hooks: lend it a `&mut` collector to keep the
/// recording, or read a moved-in hook back from its field.
///
/// Not every core reads every field — each field says who does.
///
/// # Examples
///
/// ```
/// use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};
/// use abm_sim::{simulate_network, AcceleratorConfig, Parallelism, SimContext};
/// use abm_telemetry::RecordingCollector;
///
/// let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
/// let model = synthesize_model(&zoo::tiny(), &profile, 7);
/// let cfg = AcceleratorConfig::paper();
/// let mut rec = RecordingCollector::new();
/// let serial = SimContext {
///     parallelism: Parallelism::Serial,
///     ..SimContext::default()
/// };
/// let sim = serial
///     .collector(&mut rec)
///     .simulate_network(&model, &cfg)
///     .unwrap();
/// assert_eq!(sim, simulate_network(&model, &cfg));
/// assert!(!rec.events().is_empty());
/// ```
#[derive(Debug)]
pub struct SimContext<C: Collector = NullCollector, I: Injector = NullInjector> {
    /// External memory system. Read by the workload and network cores;
    /// the pipeline core's dataflow engine has no DDR model.
    pub mem: MemorySystem,
    /// How tasks are dispatched onto CUs. Read by the workload and
    /// network cores; pipeline stages dispatch in dataflow order.
    pub policy: SchedulingPolicy,
    /// Host threads the simulation itself may use (workload and network
    /// cores; the pipeline core is sequential); never changes a
    /// simulated number.
    pub parallelism: Parallelism,
    /// Wall-clock / simulated-cycle limits. Read by the network core
    /// only, which checks them between layers.
    pub budget: SimBudget,
    /// Per-task overrun the fault guards tolerate. Read by the workload,
    /// network and pipeline cores, and only with an enabled injector.
    pub watchdog: Watchdog,
    /// Telemetry sink; every core reports to it.
    pub collector: C,
    /// Fault source polled by every core's fail-stop guards (see
    /// [`crate::fault`]).
    pub injector: I,
}

impl Default for SimContext {
    fn default() -> Self {
        Self {
            mem: MemorySystem::de5_net(),
            policy: SchedulingPolicy::SemiSynchronous,
            parallelism: Parallelism::Auto,
            budget: SimBudget::unlimited(),
            watchdog: Watchdog::default(),
            collector: NullCollector,
            injector: NullInjector,
        }
    }
}

impl<C: Collector, I: Injector> SimContext<C, I> {
    /// This context reporting to `collector`.
    #[must_use]
    pub fn collector<C2: Collector>(self, collector: C2) -> SimContext<C2, I> {
        SimContext {
            mem: self.mem,
            policy: self.policy,
            parallelism: self.parallelism,
            budget: self.budget,
            watchdog: self.watchdog,
            collector,
            injector: self.injector,
        }
    }

    /// This context polling `injector` at every fault site.
    #[must_use]
    pub fn injector<I2: Injector>(self, injector: I2) -> SimContext<C, I2> {
        SimContext {
            mem: self.mem,
            policy: self.policy,
            parallelism: self.parallelism,
            budget: self.budget,
            watchdog: self.watchdog,
            collector: self.collector,
            injector,
        }
    }

    /// The workload core: simulates one prepared layer.
    ///
    /// `layer` tags the emitted events and addresses the injector's
    /// fault sites; `start_cycle` offsets events onto a
    /// network-cumulative timeline so per-CU trace tracks lay layers out
    /// end to end. Per-kernel timing fans out under
    /// [`parallelism`](Self::parallelism); the budget is a
    /// network-level limit and is not consulted here.
    ///
    /// With an enabled injector every timing-fault site is polled and
    /// held to the absorption rules of [`crate::fault`] — structural
    /// sites (FIFO stalls, lost deposits, CU hangs) before the
    /// simulation runs, the bandwidth derate against the computed layer
    /// timing after. An absorbed fault is one the real machine masks, so
    /// on `Ok` the result is bit-identical to the unguarded run.
    ///
    /// # Errors
    ///
    /// The watchdog errors, only with an enabled injector:
    /// [`AbmError::FifoOverflow`], [`AbmError::LostDeposit`],
    /// [`AbmError::CuDeadline`], [`AbmError::BandwidthCollapse`].
    pub fn simulate_workload(
        &mut self,
        w: &Workload,
        cfg: &AcceleratorConfig,
        layer: u32,
        start_cycle: u64,
    ) -> Result<LayerSim, AbmError> {
        if I::ENABLED {
            fault::check_lanes(w, cfg, layer as usize, &mut self.injector)?;
            fault::check_tasks(w, cfg, layer as usize, &mut self.injector, self.watchdog)?;
        }
        let collector = &mut self.collector;
        let rows_pw = w.rows_per_window(cfg);
        let windows = w.window_count(cfg);
        if C::ENABLED {
            collector.record(Event::LayerBegin {
                layer,
                name: w.name.clone(),
                cycle: start_cycle,
            });
            collector.record(Event::KernelDispatch {
                layer,
                isa: w.host_sel.isa.name().to_string(),
                acc: w.host_sel.acc.name().to_string(),
                lanes: w.host_sel.lanes() as u32,
            });
            for (k, kernel) in w.code.kernels().iter().enumerate() {
                if kernel.total() == 0 {
                    continue;
                }
                let obs = lane::vector_cycles_probed(kernel, cfg.n as u64, cfg.fifo_depth);
                collector.record(Event::LaneStats {
                    layer,
                    kernel: k as u32,
                    acc_busy: obs.cycles.acc_busy,
                    acc_stall: obs.cycles.acc_stall,
                    mult_busy: kernel.distinct() as u64 * cfg.n as u64,
                    fifo_high_water: obs.fifo_high_water,
                });
            }
        }
        // Double-buffered feature fetch means a CU that finishes a window's
        // tasks can start on the next window immediately ("synchronization
        // ... is infrequently conducted"); only the buffer-swap bookkeeping
        // costs serial cycles. The layer's tasks therefore schedule as one
        // continuous stream, window-ordered.
        let full_tasks = w.window_task_cycles(cfg, rows_pw, self.parallelism);
        let tail_rows = if w.is_fc {
            rows_pw
        } else {
            w.out_rows - rows_pw * (windows - 1)
        };
        let mut all_tasks: Vec<u64> = Vec::new();
        let mut total_vectors = 0u64;
        for i in 0..windows {
            let rows = if i + 1 < windows || tail_rows == rows_pw {
                all_tasks.extend_from_slice(&full_tasks);
                rows_pw
            } else {
                all_tasks.extend(w.window_task_cycles(cfg, tail_rows, self.parallelism));
                tail_rows
            };
            total_vectors += w.vectors_per_window(cfg, rows);
            if C::ENABLED {
                collector.record(Event::QueueDepth {
                    layer,
                    window: i as u32,
                    depth: w.batches(cfg) as u32,
                });
                let t = window_traffic(w, cfg, i);
                collector.record(Event::DdrWindow {
                    layer,
                    window: i as u32,
                    read_bytes: t.read_bytes,
                    write_bytes: t.write_bytes,
                });
            }
        }
        let sched = schedule_window_with(&all_tasks, cfg.n_cu, self.policy, |cu, s, e| {
            if C::ENABLED {
                collector.record(Event::CuTask {
                    layer,
                    cu: cu as u32,
                    start: start_cycle + s,
                    end: start_cycle + e,
                });
            }
        });
        let compute_cycles = sched.makespan + windows as u64 * cfg.window_sync_overhead;
        let busy_cycles = sched.busy;
        let utilization = if compute_cycles == 0 {
            0.0
        } else {
            busy_cycles as f64 / (cfg.n_cu as f64 * compute_cycles as f64)
        };

        let traffic = layer_traffic(w, cfg);
        let batch = if w.is_fc { cfg.s_ec as f64 } else { 1.0 };
        let compute_seconds = compute_cycles as f64 * cfg.clock_period() / batch;
        let memory_seconds = self.mem.transfer_seconds(traffic.total()) / batch;
        let seconds = compute_seconds.max(memory_seconds);
        let acc_ops = w.code.total_nnz() * (w.out_rows * w.out_cols) as u64;
        let lane_capacity = cfg.accumulator_lanes() as f64 * compute_cycles as f64 / batch;
        let lane_efficiency = if lane_capacity == 0.0 {
            0.0
        } else {
            acc_ops as f64 / lane_capacity
        };
        let bottleneck = w.bottleneck_profile(cfg);
        let stall_cycles = bottleneck.stall_cycles_per_vector * total_vectors;
        if C::ENABLED {
            collector.record(Event::LayerEnd {
                layer,
                cycle: start_cycle + compute_cycles,
            });
        }
        // Host layers (ReLU / pooling / LRN) run on the CPU, pipelined with
        // the accelerator; ~2 elementwise host ops per produced feature at a
        // multicore-SIMD rate. Rough by design — it only needs to show
        // whether the host keeps up (the paper's "execution time of CPU were
        // hidden by FPGA").
        const HOST_ELEMENT_RATE: f64 = 2e10;
        let out_elems = (w.out_channels * w.out_rows * w.out_cols) as f64;
        let host_seconds = 2.0 * out_elems / HOST_ELEMENT_RATE / batch;

        let sim = LayerSim {
            name: w.name.clone(),
            compute_cycles,
            busy_cycles,
            utilization,
            traffic,
            compute_seconds,
            memory_seconds,
            seconds,
            dense_ops: w.dense_ops,
            acc_ops,
            mult_ops: w.code.total_distinct() * (w.out_rows * w.out_cols) as u64,
            memory_bound: memory_seconds > compute_seconds,
            stall_cycles,
            lane_efficiency,
            bottleneck,
            host_seconds,
        };
        if I::ENABLED {
            fault::check_bandwidth(layer as usize, &mut self.injector, &sim)?;
        }
        Ok(sim)
    }

    /// The network core: simulates every accelerated layer of `model`
    /// in execution order.
    ///
    /// How layers are walked is chosen from what the context shows.
    /// With both hooks null and at least as many layers as (two or
    /// more) workers, the pool's workers claim whole layers, most
    /// weights first, and each layer's kernels run serially (no nested
    /// pools). Otherwise
    /// layers run in order on the calling thread, on one cumulative
    /// cycle timeline — which keeps an enabled collector's event stream
    /// and an enabled injector's poll order deterministic — and each
    /// layer's per-kernel timing uses the whole pool. Either way the
    /// returned [`NetworkSim`] is the same.
    ///
    /// A wall budget is checked cooperatively before each layer starts
    /// (by every worker before it claims, on the pool): layers in
    /// flight finish, nothing is torn down mid-computation. A cycle
    /// budget stops the in-order walk at the first layer that crosses
    /// it; the pool checks it once all layers are home, with the same
    /// error.
    ///
    /// # Errors
    ///
    /// [`AbmError::WallBudgetExceeded`] / [`AbmError::CycleBudgetExceeded`]
    /// when a limit is hit, [`AbmError::Encode`] (wrapped in
    /// [`AbmError::Layer`]) if a layer's weights cannot be encoded, and
    /// the workload core's watchdog errors with an enabled injector.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn simulate_network(
        &mut self,
        model: &SparseModel,
        cfg: &AcceleratorConfig,
    ) -> Result<NetworkSim, AbmError> {
        // INVARIANT: documented panic — this API's contract rejects
        // invalid configurations up front.
        cfg.validate().expect("invalid accelerator configuration");
        let budget = self.budget;
        let start = Instant::now();
        let deadline = budget.max_wall.map(|limit| start + limit);
        let out_of_time = |layers_done| AbmError::WallBudgetExceeded {
            layers_done,
            elapsed_ms: start.elapsed().as_millis() as u64,
            budget_ms: budget.max_wall.map_or(0, |limit| limit.as_millis() as u64),
        };
        let within_cycles = |layers_done, cycles| match budget.max_cycles {
            Some(budget) if cycles > budget => Err(AbmError::CycleBudgetExceeded {
                layers_done,
                cycles,
                budget,
            }),
            _ => Ok(()),
        };
        let prepare = |i: usize| {
            Workload::from_layer(&model.layers[i]).map_err(|e| AbmError::from(e).at_layer(i))
        };

        let workers = self.parallelism.worker_count();
        let mut layers = Vec::with_capacity(model.layers.len());
        let mut cycles = 0u64;
        if !C::ENABLED && !I::ENABLED && workers > 1 && model.layers.len() >= workers {
            let (mem, policy) = (self.mem, self.policy);
            // Most weights first: encoding a layer costs time and memory
            // in proportion to its weights, and the pool runs its first
            // item on this thread, so the largest (VGG16's FC6) starts
            // at once and allocates on the same thread every call.
            let mut order: Vec<usize> = (0..model.layers.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(model.layers[i].weights.len()));
            let mut results: Vec<_> =
                parallel_map_salvage(self.parallelism, &order, None, deadline, |_, _, &i| {
                    let mut worker = SimContext {
                        mem,
                        policy,
                        parallelism: Parallelism::Serial,
                        ..SimContext::default()
                    };
                    worker.simulate_workload(&prepare(i)?, cfg, i as u32, 0)
                })
                .into_iter()
                .zip(order)
                .collect();
            results.sort_by_key(|&(_, i)| i);
            let cut = |r: &Result<_, AbmError>| matches!(r, Err(AbmError::DeadlineExceeded { .. }));
            if results.iter().any(|(r, _)| cut(r)) {
                let done = results.iter().filter(|(r, _)| !cut(r)).count();
                return Err(out_of_time(done));
            }
            for (i, (result, _)) in results.into_iter().enumerate() {
                let sim: LayerSim = result.flatten()?;
                cycles += sim.compute_cycles;
                within_cycles(i + 1, cycles)?;
                layers.push(sim);
            }
        } else {
            for i in 0..model.layers.len() {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(out_of_time(i));
                }
                let sim = self.simulate_workload(&prepare(i)?, cfg, i as u32, cycles)?;
                cycles += sim.compute_cycles;
                within_cycles(i + 1, cycles)?;
                layers.push(sim);
            }
        }
        Ok(NetworkSim {
            layers,
            freq_mhz: cfg.freq_mhz,
        })
    }
}

/// Simulates every accelerated layer of a model under the paper's
/// setup ([`SimContext::default`]: semi-synchronous scheduler, DE5-Net
/// memory, host parallelism [`Parallelism::Auto`]).
///
/// # Panics
///
/// Panics if a layer cannot be encoded (the model zoo networks all can)
/// or the configuration is invalid.
pub fn simulate_network(model: &SparseModel, cfg: &AcceleratorConfig) -> NetworkSim {
    SimContext::default()
        .simulate_network(model, cfg)
        // INVARIANT: documented panic — every synthesized zoo layer
        // encodes (u16 indices, nonzero kernels), and the default
        // context has no budget to run out of and no injector to trip.
        .expect("model layers must be encodable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};

    fn tiny_model() -> SparseModel {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
        synthesize_model(&net, &profile, 11)
    }

    #[test]
    fn network_sim_aggregates() {
        let model = tiny_model();
        let cfg = AcceleratorConfig::paper();
        let sim = simulate_network(&model, &cfg);
        assert_eq!(sim.layers().len(), 4);
        assert!(sim.total_seconds() > 0.0);
        assert!(sim.images_per_second() > 0.0);
        assert!(sim.gops() > 0.0);
        let u = sim.cu_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        assert!(sim.layer("CONV1").is_some());
        assert!(sim.layer("nope").is_none());
    }

    #[test]
    fn utilization_bounded_per_layer() {
        let model = tiny_model();
        let cfg = AcceleratorConfig::paper();
        let sim = simulate_network(&model, &cfg);
        for l in sim.layers() {
            assert!(
                l.utilization > 0.0 && l.utilization <= 1.0,
                "{}: {}",
                l.name,
                l.utilization
            );
            assert!(l.seconds >= l.compute_seconds.max(l.memory_seconds) - 1e-15);
            assert!(l.gops() > 0.0);
        }
    }

    #[test]
    fn semi_sync_not_slower_than_lock_step() {
        let model = tiny_model();
        let cfg = AcceleratorConfig::paper();
        let semi = simulate_network(&model, &cfg);
        let lock = SimContext {
            policy: SchedulingPolicy::LockStep,
            ..SimContext::default()
        }
        .simulate_network(&model, &cfg)
        .unwrap();
        assert!(semi.total_seconds() <= lock.total_seconds() * 1.001);
    }

    #[test]
    fn more_cus_do_not_hurt() {
        let model = tiny_model();
        let mut cfg = AcceleratorConfig::paper();
        let one = simulate_network(&model, &cfg);
        cfg.n_cu = 6;
        let six = simulate_network(&model, &cfg);
        assert!(six.total_seconds() <= one.total_seconds() * 1.001);
    }

    #[test]
    fn starved_bandwidth_makes_layers_memory_bound() {
        let model = tiny_model();
        let cfg = AcceleratorConfig::paper();
        let sim = SimContext {
            mem: MemorySystem::with_bandwidth_gbps(0.001),
            ..SimContext::default()
        }
        .simulate_network(&model, &cfg)
        .unwrap();
        assert!(sim.layers().iter().any(|l| l.memory_bound));
        let fast = simulate_network(&model, &cfg);
        assert!(sim.total_seconds() > fast.total_seconds());
    }

    #[test]
    fn bottleneck_profile_reflects_n() {
        // Large N turns kernels multiplier-bound; tiny N does not.
        let model = tiny_model();
        let mut cfg = AcceleratorConfig::paper();
        cfg.n = 20; // s_ec = 20, so one multiplier per lane group of 20
        let heavy = simulate_network(&model, &cfg);
        let heavy_frac: f64 = heavy
            .layers()
            .iter()
            .map(|l| l.bottleneck.mult_bound_fraction())
            .sum::<f64>()
            / heavy.layers().len() as f64;
        cfg.n = 1;
        let light = simulate_network(&model, &cfg);
        let light_frac: f64 = light
            .layers()
            .iter()
            .map(|l| l.bottleneck.mult_bound_fraction())
            .sum::<f64>()
            / light.layers().len() as f64;
        assert!(heavy_frac > light_frac, "{heavy_frac} vs {light_frac}");
    }

    #[test]
    fn host_time_is_modeled() {
        let model = tiny_model();
        let sim = simulate_network(&model, &AcceleratorConfig::paper());
        for l in sim.layers() {
            assert!(l.host_seconds > 0.0);
        }
        // TinyNet is small enough that the host keeps up.
        assert!(sim.host_hidden());
    }

    #[test]
    fn work_conservation() {
        // Busy cycles must equal the per-batch maxima times windows,
        // independent of CU count.
        let model = tiny_model();
        let mut cfg = AcceleratorConfig::paper();
        let a = simulate_network(&model, &cfg);
        cfg.n_cu = 5;
        // n=4 divides s_ec=20 still; n_cu free.
        let b = simulate_network(&model, &cfg);
        for (x, y) in a.layers().iter().zip(b.layers()) {
            assert_eq!(x.busy_cycles, y.busy_cycles, "{}", x.name);
            assert_eq!(x.acc_ops, y.acc_ops);
        }
    }
}
