//! The batching inference server: bounded queue → dynamic batcher →
//! worker pool, with admission control, per-request deadlines, bounded
//! retry, chaos injection, a stuck-batch watchdog and graceful drain.
//!
//! ## Architecture
//!
//! ```text
//! submit()/TCP ──► admission ──► bounded queue ──► batcher ──► work queue
//!                  (CostModel)    (Mutex+Condvar)   (coalesce      │
//!                      │           shed: typed       ≤ max_batch   ▼
//!                      ▼           Overloaded)       within     workers (handles to
//!                  shed/reject                       window     the one PreparedWeights,
//!                                                    while all  hardened policy; a batch
//!                                                    workers    alone on the server runs
//!                                                    are busy)  at Parallelism::Auto)
//!                                                                   │
//!                        watchdog ◄── heartbeats ──────────────────┤
//!                        (confiscates stuck batches,                ▼
//!                         fails over to fresh workers)          responses
//! ```
//!
//! Every degradation decision is typed and accounted: shed requests
//! get [`AbmError::Overloaded`], deadline cuts get
//! [`AbmError::DeadlineExceeded`], detected corruptions climb the
//! recovery ladder (re-lower → dense) inside the workers
//! and come back **bit-identical** — never silent. A failed request
//! freezes a flight-recorder dump
//! ([`abm_metrics::MetricsRegistry::note_error`]) exactly like batch mode.

use crate::cost::CostModel;
use abm_conv::{Inferencer, Parallelism, PreparedWeights, ResiliencePolicy};
use abm_fault::{AbmError, SplitMix64};
use abm_model::SparseModel;
use abm_sim::AcceleratorConfig;
use abm_telemetry::sink::EventTee;
use abm_telemetry::{Event, FaultAction, TelemetrySink};
use abm_tensor::Tensor3;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data from a poisoned lock — a worker
/// that panicked mid-batch must not wedge the whole server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tuning knobs for [`Server`]. `Default` is sized for the `tiny`
/// network on a laptop-class host; real deployments tune per model.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded request-queue capacity; a full queue sheds with
    /// [`AbmError::Overloaded`] before admission is even consulted.
    pub queue_capacity: usize,
    /// Most requests one batch may coalesce.
    pub max_batch: usize,
    /// How long the batcher holds an open batch waiting for co-riders
    /// (the coalescing latency budget) while every worker is busy. A
    /// batch closes as soon as the queue is empty and a worker is
    /// waiting for it: holding it would delay it and help nobody.
    pub batch_window: Duration,
    /// Executor workers. All of them — and every replacement a
    /// watchdog failover starts — read the one model `Server::start`
    /// prepared, through a handle of their own: an abandoned worker
    /// holds no copy of the weights, and the only write (chaos
    /// corruption) is copy-on-write, so it cannot poison the rest. A
    /// batch that is alone — nothing else queued or running — runs at
    /// [`Parallelism::Auto`] on the cores the idle workers leave free;
    /// any other runs on its worker's thread alone.
    pub workers: usize,
    /// Deadline budget for a caller to give requests that carry none
    /// ([`Server::submit`] always takes one explicitly).
    pub default_deadline: Duration,
    /// The p99 latency objective for admitted requests (reporting and
    /// load-test gating; admission enforces per-request deadlines).
    pub slo: Duration,
    /// Bounded retry attempts for transient per-item failures.
    pub max_retries: u32,
    /// Base backoff before the first retry (doubles per attempt).
    pub retry_backoff: Duration,
    /// Floor of the stuck threshold — how long a busy worker may go
    /// without finishing a layer before the watchdog fails its batch
    /// over (4× the batch's predicted execution when that is longer).
    pub watchdog_grace: Duration,
    /// Times a confiscated batch is re-run on a fresh worker before
    /// its requests are failed with typed errors.
    pub max_failovers: u32,
    /// Images run at start-up to calibrate the cost model.
    pub warmup_images: u64,
    /// Seeded chaos injection (`None` in production).
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            workers: 2,
            default_deadline: Duration::from_millis(250),
            slo: Duration::from_millis(100),
            max_retries: 2,
            retry_backoff: Duration::from_micros(500),
            watchdog_grace: Duration::from_millis(200),
            max_failovers: 1,
            warmup_images: 3,
            chaos: None,
        }
    }
}

impl ServeConfig {
    /// Structural validation.
    ///
    /// # Errors
    ///
    /// Returns [`AbmError::BadGrouping`]-style contract errors as a
    /// plain description when a knob is zero that must not be.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 || self.max_batch == 0 || self.workers == 0 {
            return Err(format!(
                "queue_capacity ({}), max_batch ({}) and workers ({}) must all be positive",
                self.queue_capacity, self.max_batch, self.workers
            ));
        }
        Ok(())
    }
}

/// Deterministic, seed-reproducible fault injection for chaos runs —
/// the serving-path analogue of the fault campaign's functional
/// classes. Word flips land in prepared WT-Buffer offset streams
/// (`FaultClass::WtWordFlip`), where the hardened recovery ladder must
/// detect and mask them; stalls simulate a hung worker the watchdog
/// must fail over.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed every injection derives from (same seed → same plan).
    pub seed: u64,
    /// Corrupt one prepared layer before every Nth batch (0 = never).
    pub corrupt_every: u64,
    /// Stall the first attempt of every Nth batch (0 = never).
    pub stall_every: u64,
    /// How long a stalled batch sleeps (must exceed the stuck threshold
    /// — see [`ServeConfig::watchdog_grace`] — to trip the watchdog).
    pub stall_for: Duration,
}

impl ChaosConfig {
    /// Corruption-only chaos at the given cadence.
    #[must_use]
    pub fn corrupt(seed: u64, every: u64) -> Self {
        Self {
            seed,
            corrupt_every: every,
            stall_every: 0,
            stall_for: Duration::ZERO,
        }
    }
}

/// One answered request's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutput {
    /// Predicted class (argmax of the logits).
    pub argmax: usize,
    /// Dequantized final-layer activations — exposed so callers (and
    /// the chaos tests) can check bit-identity against a golden run.
    pub logits: Vec<f32>,
}

/// The server's answer to one request — exactly one per admitted
/// request, success or failure, even across drain and failover.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Request id assigned at admission.
    pub id: u64,
    /// The result, or the typed error that ended the request.
    pub outcome: Result<ServeOutput, AbmError>,
    /// Microseconds spent queued before a worker picked the batch up.
    pub queued_us: u64,
    /// End-to-end microseconds from admission to response.
    pub total_us: u64,
    /// Transient-failure retries spent on this request.
    pub retries: u32,
    /// Whether the batch this request rode in engaged the recovery
    /// ladder (a fault was detected and masked).
    pub degraded: bool,
    /// Completed successfully, but after its deadline had passed.
    pub deadline_missed: bool,
}

/// A handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    /// The id admission assigned; responses echo it.
    pub id: u64,
    rx: mpsc::Receiver<ServeResponse>,
}

impl Ticket {
    /// Blocks until the response arrives. The drain guarantee means
    /// this returns for every admitted request; if the server was torn
    /// down abnormally the response is a typed [`AbmError::WorkerPanic`].
    #[must_use]
    pub fn wait(self) -> ServeResponse {
        let id = self.id;
        self.rx.recv().unwrap_or_else(|_| ServeResponse {
            id,
            outcome: Err(AbmError::WorkerPanic {
                item: 0,
                message: "response channel dropped before an answer was produced".into(),
            }),
            queued_us: 0,
            total_us: 0,
            retries: 0,
            degraded: false,
            deadline_missed: false,
        })
    }

    /// Non-blocking poll; `None` until the response is ready.
    #[must_use]
    pub fn poll(&self) -> Option<ServeResponse> {
        self.rx.try_recv().ok()
    }
}

/// An event the server counts — one [`ServeStats`] field each.
#[derive(Debug, Clone, Copy)]
enum Counter {
    Submitted,
    Admitted,
    Shed,
    Completed,
    Failed,
    DeadlineCut,
    DeadlineMissed,
    Retries,
    DegradedBatches,
    ChaosInjected,
    WatchdogFailovers,
    WatchdogLate,
    WideBatches,
    Batches,
}

impl Counter {
    /// The event's counter in the metrics registry.
    fn metric(self) -> &'static str {
        match self {
            Self::Submitted => "serve_submitted_total",
            Self::Admitted => "serve_admitted_total",
            Self::Shed => "serve_shed_total",
            Self::Completed => "serve_completed_total",
            Self::Failed => "serve_failed_total",
            Self::DeadlineCut => "serve_deadline_total",
            Self::DeadlineMissed => "serve_deadline_missed_total",
            Self::Retries => "serve_retries_total",
            Self::DegradedBatches => "serve_degraded_total",
            Self::ChaosInjected => "serve_chaos_injected_total",
            Self::WatchdogFailovers => "serve_watchdog_failover_total",
            Self::WatchdogLate => "serve_watchdog_late_total",
            Self::WideBatches => "serve_wide_batches_total",
            Self::Batches => "serve_batches_total",
        }
    }
}

/// Monotone counters, one per [`Counter`] (`Batches` is the last),
/// snapshotted as [`ServeStats`].
#[derive(Debug, Default)]
struct Counters([AtomicU64; Counter::Batches as usize + 1]);

/// A point-in-time snapshot of the server's accounting. The
/// conservation invariant after a drain:
/// `admitted == completed + failed + deadline_cut` and
/// `submitted == admitted + shed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests offered (admitted + shed).
    pub submitted: u64,
    /// Requests that entered the queue.
    pub admitted: u64,
    /// Requests refused with a typed [`AbmError::Overloaded`].
    pub shed: u64,
    /// Requests answered with a successful inference.
    pub completed: u64,
    /// Requests answered with a typed error other than a deadline cut.
    pub failed: u64,
    /// Requests answered with [`AbmError::DeadlineExceeded`].
    pub deadline_cut: u64,
    /// Requests that completed successfully but past their deadline.
    pub deadline_missed: u64,
    /// Transient-failure retries spent across all requests.
    pub retries: u64,
    /// Batches in which the recovery ladder masked a detected fault.
    pub degraded_batches: u64,
    /// Chaos corruptions injected into prepared weights.
    pub chaos_injected: u64,
    /// Stuck batches the watchdog confiscated and failed over.
    pub watchdog_failovers: u64,
    /// Batches whose worker finished after the watchdog had already
    /// confiscated them (the late result is discarded, never served).
    pub watchdog_late: u64,
    /// Batches a worker ran at [`Parallelism::Auto`] because nothing
    /// else was queued or running.
    pub wide_batches: u64,
    /// Batches dispatched to workers.
    pub batches: u64,
}

impl ServeStats {
    /// Requests that received *some* response.
    #[must_use]
    pub fn answered(&self) -> u64 {
        self.completed + self.failed + self.deadline_cut
    }
}

impl Counters {
    /// Counts one `event`: here always, and in the metrics registry
    /// when that is on — the two can only agree.
    fn bump(&self, event: Counter) {
        self.0[event as usize].fetch_add(1, Ordering::Relaxed);
        if abm_metrics::enabled() {
            abm_metrics::global().add(event.metric(), 1);
        }
    }

    fn snapshot(&self) -> ServeStats {
        let read = |event: Counter| self.0[event as usize].load(Ordering::Relaxed);
        ServeStats {
            submitted: read(Counter::Submitted),
            admitted: read(Counter::Admitted),
            shed: read(Counter::Shed),
            completed: read(Counter::Completed),
            failed: read(Counter::Failed),
            deadline_cut: read(Counter::DeadlineCut),
            deadline_missed: read(Counter::DeadlineMissed),
            retries: read(Counter::Retries),
            degraded_batches: read(Counter::DegradedBatches),
            chaos_injected: read(Counter::ChaosInjected),
            watchdog_failovers: read(Counter::WatchdogFailovers),
            watchdog_late: read(Counter::WatchdogLate),
            wide_batches: read(Counter::WideBatches),
            batches: read(Counter::Batches),
        }
    }
}

/// One queued request.
struct Request {
    id: u64,
    input: Tensor3<i16>,
    enqueued: Instant,
    deadline: Instant,
    reply: mpsc::Sender<ServeResponse>,
}

/// Per-request metadata that rides through batch execution.
#[derive(Debug, Clone, Copy)]
struct ReqMeta {
    id: u64,
    enqueued: Instant,
    deadline: Instant,
}

/// The shareable body of a dispatched batch. `claim` holds the reply
/// channels; whoever takes it (the executing worker, or the watchdog
/// confiscating a stuck batch) owns the obligation to respond.
struct BatchShared {
    id: u64,
    inputs: Vec<Tensor3<i16>>,
    meta: Vec<ReqMeta>,
    claim: Mutex<Option<Vec<mpsc::Sender<ServeResponse>>>>,
}

#[derive(Clone)]
struct Batch {
    shared: Arc<BatchShared>,
    attempt: u32,
}

/// Work queue state guarded by `Shared::work`.
struct WorkQueue {
    batches: VecDeque<Batch>,
    batcher_done: bool,
    stop: bool,
    /// Workers blocked waiting for a batch: while more of them wait
    /// than batches are queued, the batcher holds no batch open.
    idle: usize,
    /// Batches workers have taken and not yet finished (an abandoned
    /// worker's counts until it returns): a batch taken while this is
    /// zero and the queue empty is alone and runs wide.
    running: usize,
}

impl WorkQueue {
    /// Whether a batch dispatched now would be taken at once.
    fn worker_waiting(&self) -> bool {
        self.idle > self.batches.len()
    }
}

/// A worker's heartbeat slot, watched by the watchdog: the batch it is
/// running and the instant past which, absent a [`beat`](Self::beat),
/// the watchdog declares it stuck.
struct WorkerState {
    busy: Mutex<Option<(Batch, Instant)>>,
    abandoned: AtomicBool,
}

impl WorkerState {
    /// Progress: the worker finished a layer, so it is slow at worst,
    /// not wedged — re-arm the stuck deadline `stuck_after` from now. A
    /// no-op once the watchdog has confiscated the batch.
    fn beat(&self, stuck_after: Duration) {
        if let Some((_, hard)) = lock(&self.busy).as_mut() {
            *hard = Instant::now() + stuck_after;
        }
    }
}

struct WorkerEntry {
    state: Arc<WorkerState>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct Shared {
    cfg: ServeConfig,
    model: Arc<SparseModel>,
    /// The process's one prepared model, as `Server::start` lowered and
    /// warmed it up. Nothing writes it: every worker runs on a handle
    /// clone (`worker_loop`), and chaos repairs from it.
    weights: PreparedWeights,
    cost: CostModel,
    counters: Counters,
    queue: Mutex<VecDeque<Request>>,
    queue_cv: Condvar,
    work: Mutex<WorkQueue>,
    work_cv: Condvar,
    accepting: AtomicBool,
    in_flight: AtomicUsize,
    next_id: AtomicU64,
    next_batch: AtomicU64,
    registry: Mutex<Vec<WorkerEntry>>,
    watchdog_stop: AtomicBool,
}

/// The fault-tolerant batching inference server.
///
/// Start with [`Server::start`], feed it with [`Server::submit`] (or
/// the TCP front end in [`crate::net`]), and always finish with
/// [`Server::shutdown`] — the graceful drain answers every admitted
/// request before returning. Dropping an un-shutdown server drains
/// implicitly.
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    drained: bool,
}

impl Server {
    /// Prepares the weights — once; the workers share them — and warms
    /// them up on one thread (the cost model's estimate is the warm-up's
    /// measured time per image: admission prices a worker that runs its
    /// batch alone), then spawns the batcher, `cfg.workers` workers and
    /// the watchdog. The accelerator configuration is accepted and
    /// unused, so any value is safe: nothing on the served path
    /// simulates.
    ///
    /// # Errors
    ///
    /// Returns the preparation or warm-up error if the model cannot be
    /// lowered or run, or a [`AbmError::CodeCorrupt`]-style description
    /// wrapped from config validation.
    pub fn start(
        model: Arc<SparseModel>,
        _accel: &AcceleratorConfig,
        cfg: ServeConfig,
    ) -> Result<Self, AbmError> {
        cfg.validate().map_err(|detail| AbmError::CodeCorrupt {
            kernel: 0,
            detail: format!("invalid serve config: {detail}"),
        })?;
        // Validate the model end to end and calibrate the cost model
        // before the first real request can be admitted.
        let cost = CostModel::fixed(1);
        let weights = {
            let inferencer = hardened(&model);
            let prepared = inferencer.prepare()?;
            let input = crate::synth_input(model.network.input_shape(), 0xC0FF_EE00);
            let images = cfg.warmup_images.max(1);
            let t0 = Instant::now();
            for _ in 0..images {
                inferencer.run_prepared(&prepared, &input)?;
            }
            cost.calibrate(t0.elapsed(), images);
            // The layers without the warm-up's arenas, which would idle
            // in a pool no worker draws from (each clone has its own).
            prepared.clone()
        };

        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            model,
            weights,
            cost,
            counters: Counters::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            work: Mutex::new(WorkQueue {
                batches: VecDeque::new(),
                batcher_done: false,
                stop: false,
                idle: 0,
                running: 0,
            }),
            work_cv: Condvar::new(),
            accepting: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            next_batch: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
            watchdog_stop: AtomicBool::new(false),
        });

        for _ in 0..cfg.workers {
            spawn_worker(&shared);
        }
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared))
        };
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        Ok(Self {
            shared,
            batcher: Some(batcher),
            watchdog: Some(watchdog),
            drained: false,
        })
    }

    /// Offers a request with a relative deadline budget. On admission
    /// the request is queued and a [`Ticket`] returned; otherwise the
    /// typed rejection says why nothing ran.
    ///
    /// # Errors
    ///
    /// [`AbmError::ShapeMismatch`] when `input` is not the model's
    /// input shape — refused before it is counted or admitted, so it
    /// can never fail the batch it would have ridden in; and
    /// [`AbmError::Overloaded`] when the server is draining, the
    /// bounded queue is full, or the cost model predicts the queue's
    /// drain time exceeds `deadline_budget`.
    pub fn submit(
        &self,
        input: Tensor3<i16>,
        deadline_budget: Duration,
    ) -> Result<Ticket, AbmError> {
        let shared = &self.shared;
        let (got, want) = (input.shape(), self.input_shape());
        if got != want {
            let e = AbmError::ShapeMismatch {
                got: (got.channels, got.rows, got.cols),
                want: (want.channels, want.rows, want.cols),
            };
            abm_metrics::global().note_error("serve", &format!("refused: {e}"));
            return Err(e);
        }
        let c = &shared.counters;
        c.bump(Counter::Submitted);
        // Admission runs under the queue lock so the backlog it reasons
        // about cannot change underneath it, and so `accepting` is
        // linearized against the batcher's drain-exit check.
        let e = {
            let mut q = lock(&shared.queue);
            let depth = q.len();
            let in_flight = shared.in_flight.load(Ordering::Relaxed);
            let deadline_us = u64::try_from(deadline_budget.as_micros()).unwrap_or(u64::MAX);
            let verdict = if !shared.accepting.load(Ordering::SeqCst) {
                Err(AbmError::Overloaded {
                    queue_depth: depth + in_flight,
                    predicted_us: u64::MAX,
                    deadline_us,
                })
            } else if depth >= shared.cfg.queue_capacity {
                Err(AbmError::Overloaded {
                    queue_depth: depth + in_flight,
                    predicted_us: u64::try_from(
                        shared
                            .cost
                            .predicted_completion(depth, in_flight, shared.cfg.workers)
                            .as_micros(),
                    )
                    .unwrap_or(u64::MAX),
                    deadline_us,
                })
            } else {
                shared
                    .cost
                    .admit(depth, in_flight, shared.cfg.workers, deadline_budget)
            };
            match verdict {
                Ok(()) => {
                    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                    let (tx, rx) = mpsc::channel();
                    let now = Instant::now();
                    q.push_back(Request {
                        id,
                        input,
                        enqueued: now,
                        deadline: now + deadline_budget,
                        reply: tx,
                    });
                    c.bump(Counter::Admitted);
                    if abm_metrics::enabled() {
                        abm_metrics::global()
                            .gauge_max("serve_queue_depth_high_water", q.len() as u64);
                    }
                    shared.queue_cv.notify_one();
                    return Ok(Ticket { id, rx });
                }
                Err(e) => e,
            }
        };
        // Shed path: typed rejection, counted, flight-dumped.
        c.bump(Counter::Shed);
        abm_metrics::global().note_error("serve", &format!("shed: {e}"));
        Err(e)
    }

    /// The configured service-level objective (p99 target).
    #[must_use]
    pub fn slo(&self) -> Duration {
        self.shared.cfg.slo
    }

    /// The cost model's current per-image service estimate.
    #[must_use]
    pub fn service_estimate(&self) -> Duration {
        self.shared.cost.service_estimate()
    }

    /// A handle clone of the one prepared model every worker runs on —
    /// for an oracle beside the server, which would otherwise prepare a
    /// second copy. The layers are shared, not copied, and nothing the
    /// server does writes them (chaos corrupts a worker's copy-on-write
    /// clone), so what it returns stays the pristine lowering.
    /// Preparation reads neither a [`Parallelism`] nor a
    /// [`ResiliencePolicy`], so an oracle may run it under any.
    #[must_use]
    pub fn prepared_weights(&self) -> PreparedWeights {
        self.shared.weights.clone()
    }

    /// The model's expected input shape.
    #[must_use]
    pub fn input_shape(&self) -> abm_tensor::Shape3 {
        self.shared.model.network.input_shape()
    }

    /// A snapshot of the accounting counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot()
    }

    /// Graceful drain: stop accepting, let the batcher flush the
    /// queue, wait until every in-flight request is answered (the
    /// watchdog rescues stuck batches), then join all live threads.
    /// Returns the final accounting — after this,
    /// `admitted == answered()` always holds.
    #[must_use]
    pub fn shutdown(mut self) -> ServeStats {
        self.drain();
        self.shared.counters.snapshot()
    }

    fn drain(&mut self) {
        if self.drained {
            return;
        }
        self.drained = true;
        let shared = &self.shared;
        shared.accepting.store(false, Ordering::SeqCst);
        shared.queue_cv.notify_all();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        {
            let mut w = lock(&shared.work);
            w.batcher_done = true;
            shared.work_cv.notify_all();
        }
        // The watchdog stays alive here: a stuck batch during drain is
        // confiscated and answered exactly like in steady state.
        while shared.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let mut w = lock(&shared.work);
            w.stop = true;
            shared.work_cv.notify_all();
        }
        let entries: Vec<WorkerEntry> = lock(&shared.registry).drain(..).collect();
        for mut entry in entries {
            if entry.state.abandoned.load(Ordering::SeqCst) {
                // Abandoned workers may be wedged forever; detach.
                drop(entry.handle.take());
            } else if let Some(h) = entry.handle.take() {
                let _ = h.join();
            }
        }
        shared.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Sends a response, updating the per-request accounting and freezing
/// a flight dump for every failure.
fn respond(
    shared: &Shared,
    meta: &ReqMeta,
    reply: &mpsc::Sender<ServeResponse>,
    mut r: ServeResponse,
) {
    let c = &shared.counters;
    let now = Instant::now();
    r.total_us =
        u64::try_from(now.saturating_duration_since(meta.enqueued).as_micros()).unwrap_or(u64::MAX);
    match &r.outcome {
        Ok(_) => {
            if now > meta.deadline {
                r.deadline_missed = true;
                c.bump(Counter::DeadlineMissed);
            }
            c.bump(Counter::Completed);
            if abm_metrics::enabled() {
                abm_metrics::global().observe("serve_request_us", r.total_us);
            }
        }
        Err(e) => {
            if matches!(e.root_cause(), AbmError::DeadlineExceeded { .. }) {
                c.bump(Counter::DeadlineCut);
            } else {
                c.bump(Counter::Failed);
            }
            abm_metrics::global().note_error("serve", &format!("request {}: {e}", meta.id));
        }
    }
    // A dropped ticket receiver is the client's choice; the send result
    // is deliberately ignored so drain still completes.
    let _ = reply.send(r);
}

/// The batcher: pops the queue, coalesces up to `max_batch` requests
/// within `batch_window`, answers already-expired requests with the
/// typed deadline cut, and dispatches the rest to the work queue. It is
/// work-conserving: once the queue is empty, a batch is held open for
/// co-riders only while no worker is waiting to run it — under load
/// the window coalesces as before, and an idle server starts a request
/// the moment it arrives.
fn batcher_loop(shared: &Arc<Shared>) {
    loop {
        // Block for the first request of the next batch (or exit once
        // draining and empty — linearized by the queue lock against
        // `submit`, which re-checks `accepting` under the same lock).
        let first = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(r) = q.pop_front() {
                    break r;
                }
                if !shared.accepting.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(20))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
            }
        };
        let mut batch = vec![first];
        let window_end = Instant::now() + shared.cfg.batch_window;
        while batch.len() < shared.cfg.max_batch {
            let now = Instant::now();
            if now >= window_end {
                break;
            }
            let mut q = lock(&shared.queue);
            if let Some(r) = q.pop_front() {
                drop(q);
                batch.push(r);
                continue;
            }
            if !shared.accepting.load(Ordering::SeqCst) {
                break; // draining: don't hold the window open
            }
            if lock(&shared.work).worker_waiting() {
                break; // a worker would idle while the batch waited
            }
            let (guard, _) = shared
                .queue_cv
                .wait_timeout(
                    q,
                    window_end
                        .saturating_duration_since(now)
                        .min(Duration::from_millis(1)),
                )
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            drop(guard);
        }
        dispatch(shared, batch);
    }
}

/// Splits expired requests out of a raw batch (answering them with the
/// typed deadline cut) and hands the rest to the workers.
fn dispatch(shared: &Arc<Shared>, batch: Vec<Request>) {
    let now = Instant::now();
    let mut inputs = Vec::with_capacity(batch.len());
    let mut meta = Vec::with_capacity(batch.len());
    let mut replies = Vec::with_capacity(batch.len());
    for r in batch {
        let m = ReqMeta {
            id: r.id,
            enqueued: r.enqueued,
            deadline: r.deadline,
        };
        if now >= r.deadline {
            // Expired while queued: never dispatched, typed cut.
            respond(
                shared,
                &m,
                &r.reply,
                ServeResponse {
                    id: r.id,
                    outcome: Err(AbmError::DeadlineExceeded {
                        item: 0,
                        late_us: u64::try_from(
                            now.saturating_duration_since(r.deadline).as_micros(),
                        )
                        .unwrap_or(u64::MAX),
                    }),
                    queued_us: u64::try_from(now.saturating_duration_since(r.enqueued).as_micros())
                        .unwrap_or(u64::MAX),
                    total_us: 0,
                    retries: 0,
                    degraded: false,
                    deadline_missed: false,
                },
            );
            continue;
        }
        inputs.push(r.input);
        meta.push(m);
        replies.push(r.reply);
    }
    if inputs.is_empty() {
        return;
    }
    shared.in_flight.fetch_add(inputs.len(), Ordering::SeqCst);
    shared.counters.bump(Counter::Batches);
    if abm_metrics::enabled() {
        abm_metrics::global().observe("serve_batch_size", inputs.len() as u64);
    }
    let id = shared.next_batch.fetch_add(1, Ordering::Relaxed);
    let b = Batch {
        shared: Arc::new(BatchShared {
            id,
            inputs,
            meta,
            claim: Mutex::new(Some(replies)),
        }),
        attempt: 0,
    };
    let mut w = lock(&shared.work);
    w.batches.push_back(b);
    shared.work_cv.notify_one();
}

/// Spawns a worker thread and registers its heartbeat slot.
fn spawn_worker(shared: &Arc<Shared>) {
    let state = Arc::new(WorkerState {
        busy: Mutex::new(None),
        abandoned: AtomicBool::new(false),
    });
    let handle = {
        let shared = Arc::clone(shared);
        let state = Arc::clone(&state);
        std::thread::spawn(move || worker_loop(&shared, &state))
    };
    lock(&shared.registry).push(WorkerEntry {
        state,
        handle: Some(handle),
    });
}

/// Classifies an error as worth a bounded retry: transient faults
/// (corruptions, worker panics, watchdog trips) yes; contract
/// violations and typed rejections no.
fn transient(e: &AbmError) -> bool {
    e.is_corruption() || e.is_watchdog() || matches!(e.root_cause(), AbmError::WorkerPanic { .. })
}

/// The inferencer every served image runs under: the hardened policy,
/// on the calling thread alone (a batch that is alone on the server is
/// widened in `execute_batch`).
fn hardened(model: &SparseModel) -> Inferencer<'_> {
    Inferencer::new(model)
        .parallelism(Parallelism::Serial)
        .resilience(ResiliencePolicy::hardened())
}

/// The per-worker executor loop. A worker — first or replacement —
/// prepares nothing: it runs on a handle clone of the server's one
/// prepared model (its own arena pool, the shared read-only layers)
/// and a deterministic chaos stream. The clone is what chaos corrupts;
/// that write copies the one layer it touches, so a confiscated batch
/// never shares mutable state with its replacement, nor a corrupted
/// layer with a sibling.
fn worker_loop(shared: &Arc<Shared>, state: &Arc<WorkerState>) {
    let model: &SparseModel = &shared.model;
    let cfg = &shared.cfg;
    let base = hardened(model);
    let mut prepared = shared.weights.clone();
    let conv_layers = model.conv_indices();

    loop {
        let (batch, alone) = {
            let mut w = lock(&shared.work);
            loop {
                if let Some(b) = w.batches.pop_front() {
                    let alone = w.batches.is_empty() && w.running == 0;
                    w.running += 1;
                    break (b, alone);
                }
                if w.stop || (w.batcher_done && shared.in_flight.load(Ordering::SeqCst) == 0) {
                    return;
                }
                w.idle += 1;
                let (mut guard, _) = shared
                    .work_cv
                    .wait_timeout(w, Duration::from_millis(10))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                guard.idle -= 1;
                w = guard;
            }
        };
        // Alone on the server, a batch takes the cores the idle workers
        // leave free; otherwise it stays on this thread, as admission
        // priced it.
        let parallelism = if alone {
            shared.counters.bump(Counter::WideBatches);
            Parallelism::Auto
        } else {
            Parallelism::Serial
        };
        let started = Instant::now();
        // Stuck threshold: 4× the cost model's predicted execution for
        // this batch (headroom for the recovery ladder and retries),
        // floored by the configured grace. Keying off the prediction —
        // not the client deadline — means a confiscated batch can still
        // complete on its replacement worker inside the deadline. Every
        // finished layer re-arms it (the heartbeat below): a worker the
        // host merely slows keeps its batch — failing it over would only
        // add a replacement thread beside the abandoned one to that
        // host's load — and the per-item deadlines bound
        // how long slow can last; only a worker that stops making
        // progress loses its batch.
        let stuck_after = shared
            .cost
            .service_estimate()
            .saturating_mul(u32::try_from(batch.shared.inputs.len()).unwrap_or(u32::MAX))
            .saturating_mul(4)
            .max(cfg.watchdog_grace);
        *lock(&state.busy) = Some((batch.clone(), started + stuck_after));
        let heartbeat: EventTee = {
            let state = Arc::clone(state);
            Arc::new(move |_| state.beat(stuck_after))
        };

        // Chaos: a stalled first attempt simulates a hung worker — the
        // watchdog must confiscate the batch and fail it over.
        if let Some(chaos) = &cfg.chaos {
            if batch.attempt == 0
                && chaos.stall_every > 0
                && batch.shared.id % chaos.stall_every == 0
            {
                std::thread::sleep(chaos.stall_for);
            }
        }
        // Chaos: corrupt one prepared layer so the hardened ladder has
        // something real to detect and mask, then repair afterwards.
        let mut injected = None;
        if let Some(chaos) = &cfg.chaos {
            if chaos.corrupt_every > 0 && batch.shared.id % chaos.corrupt_every == 0 {
                let mut rng = SplitMix64::new(chaos.seed ^ batch.shared.id);
                injected = corrupt_one_layer(&mut prepared, &conv_layers, &mut rng);
                if injected.is_some() {
                    shared.counters.bump(Counter::ChaosInjected);
                }
            }
        }

        let inferencer = base.clone().parallelism(parallelism);
        let (outcomes, retries_spent, degraded) =
            execute_batch(&inferencer, &prepared, &batch, cfg, shared, heartbeat);
        // Before any reply goes out: a caller that submits again on
        // receiving it must find this worker's batch finished.
        lock(&shared.work).running -= 1;

        if let Some(layer) = injected {
            // Repair: back onto the server's clean layer, dropping the
            // corrupted private copy.
            prepared.share_layer(layer, &shared.weights);
        }
        if degraded {
            shared.counters.bump(Counter::DegradedBatches);
        }

        let claim = lock(&batch.shared.claim).take();
        *lock(&state.busy) = None;
        match claim {
            Some(replies) => {
                let queued_us = |m: &ReqMeta| {
                    u64::try_from(started.saturating_duration_since(m.enqueued).as_micros())
                        .unwrap_or(u64::MAX)
                };
                for (((outcome, m), reply), retries) in outcomes
                    .into_iter()
                    .zip(batch.shared.meta.iter())
                    .zip(replies.iter())
                    .zip(retries_spent)
                {
                    respond(
                        shared,
                        m,
                        reply,
                        ServeResponse {
                            id: m.id,
                            outcome: outcome.map(|r| ServeOutput {
                                argmax: r.argmax().unwrap_or(0),
                                logits: r.logits,
                            }),
                            queued_us: queued_us(m),
                            total_us: 0, // filled by respond()
                            retries,
                            degraded,
                            deadline_missed: false,
                        },
                    );
                }
                shared
                    .in_flight
                    .fetch_sub(batch.shared.meta.len(), Ordering::SeqCst);
            }
            None => {
                // The watchdog already confiscated this batch; the
                // late result must be discarded, never served twice.
                shared.counters.bump(Counter::WatchdogLate);
            }
        }
        if state.abandoned.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Runs one batch through the deadline-salvage batch executor
/// ([`Inferencer::run_batch_salvage`]) with bounded retry-with-backoff
/// for transient per-item failures; `heartbeat` sees every telemetry
/// event the run records (one per finished layer).
/// Returns the per-item outcomes, retries spent per item, and whether
/// the recovery ladder engaged (fault detected/masked) anywhere in the
/// batch.
fn execute_batch(
    base: &Inferencer<'_>,
    prepared: &PreparedWeights,
    batch: &Batch,
    cfg: &ServeConfig,
    shared: &Shared,
    heartbeat: EventTee,
) -> (
    Vec<Result<abm_conv::InferenceResult, AbmError>>,
    Vec<u32>,
    bool,
) {
    let sink = TelemetrySink::new().with_tee(heartbeat);
    let inferencer = base.clone().telemetry(sink.clone());
    let inputs = &batch.shared.inputs;
    let meta = &batch.shared.meta;
    let batch_deadline = meta
        .iter()
        .map(|m| m.deadline)
        .max()
        .unwrap_or_else(Instant::now);

    let mut outcomes = inferencer.run_batch_salvage(prepared, inputs, Some(batch_deadline));

    let mut retries_spent = vec![0u32; inputs.len()];
    for (i, slot) in outcomes.iter_mut().enumerate() {
        let mut attempt = 0u32;
        while let Err(e) = slot {
            if attempt >= cfg.max_retries || !transient(e) || Instant::now() >= meta[i].deadline {
                break;
            }
            std::thread::sleep(cfg.retry_backoff * 2u32.pow(attempt.min(8)));
            attempt += 1;
            shared.counters.bump(Counter::Retries);
            let retried = inferencer.run_batch_salvage(
                prepared,
                std::slice::from_ref(&inputs[i]),
                Some(meta[i].deadline),
            );
            if let Some(r) = retried.into_iter().next() {
                *slot = r.map_err(|e| match e {
                    // Re-key the single-item batch back to its slot.
                    AbmError::DeadlineExceeded { late_us, .. } => {
                        AbmError::DeadlineExceeded { item: i, late_us }
                    }
                    AbmError::WorkerPanic { message, .. } => {
                        AbmError::WorkerPanic { item: i, message }
                    }
                    other => other,
                });
            }
        }
        retries_spent[i] = attempt;
    }

    let degraded = sink.events().iter().any(|e| {
        matches!(
            e,
            Event::Fault {
                action: FaultAction::Detected | FaultAction::Recovered | FaultAction::Masked,
                ..
            }
        )
    });
    (outcomes, retries_spent, degraded)
}

/// Flips one bit of one WT-Buffer offset word in a seeded convolution
/// (`conv_layers`: same targeting as the fault campaign's functional
/// classes) — the campaign's `wt-word-flip` class, injected post-load
/// so the stored stream checksum is the detector. Deterministic in
/// (chaos seed, batch id): a chaos run is replayable from the seed
/// alone. Returns the corrupted layer index.
fn corrupt_one_layer(
    prepared: &mut PreparedWeights,
    conv_layers: &[usize],
    rng: &mut SplitMix64,
) -> Option<usize> {
    if conv_layers.is_empty() {
        return None;
    }
    let layer = conv_layers[rng.below(conv_layers.len() as u64) as usize];
    let kernels = prepared.abm_layer(layer)?.flat().kernels();
    if kernels.is_empty() {
        return None;
    }
    let start = rng.below(kernels.len() as u64) as usize;
    let kernel = (0..kernels.len())
        .map(|i| (start + i) % kernels.len())
        .find(|&i| !kernels[i].offsets().is_empty())?;
    let index = rng.below(kernels[kernel].offsets().len() as u64) as usize;
    let bit = u32::try_from(rng.below(32)).unwrap_or(0);
    // The one write: copies this layer if the handle still shares it.
    let flat = prepared.abm_layer_mut(layer)?.flat_mut();
    let (_, _, offsets) = flat.kernels_mut()[kernel].streams_mut();
    offsets[index] ^= 1u32 << bit;
    Some(layer)
}

/// The stuck-batch watchdog: scans worker heartbeats; a batch still
/// running past its hard deadline is confiscated (the worker is
/// abandoned and replaced) and either re-queued at the front for a
/// fresh worker or — failovers exhausted — answered with typed errors.
fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.watchdog_stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
        let now = Instant::now();
        let mut stuck: Vec<(Batch, Vec<mpsc::Sender<ServeResponse>>)> = Vec::new();
        {
            let mut registry = lock(&shared.registry);
            let mut replacements = 0usize;
            registry.retain_mut(|entry| {
                let batch = {
                    let mut busy = lock(&entry.state.busy);
                    if busy.as_ref().is_some_and(|(_, hard)| now >= *hard) {
                        busy.take().map(|(b, _)| b)
                    } else {
                        None
                    }
                };
                let Some(batch) = batch else {
                    return true;
                };
                // Take the claim: if the worker finished in the
                // meantime it already owns the responses and the
                // failover degenerates to a no-op.
                let Some(replies) = lock(&batch.shared.claim).take() else {
                    return true;
                };
                entry.state.abandoned.store(true, Ordering::SeqCst);
                drop(entry.handle.take()); // detach the wedged thread
                replacements += 1;
                shared.counters.bump(Counter::WatchdogFailovers);
                abm_metrics::global().note_error(
                    "serve",
                    &format!(
                        "watchdog confiscated stuck batch {} (attempt {})",
                        batch.shared.id, batch.attempt
                    ),
                );
                stuck.push((batch, replies));
                false // the wedged worker's registry slot is retired
            });
            drop(registry);
            for _ in 0..replacements {
                spawn_worker(shared);
            }
        }
        for (batch, replies) in stuck {
            failover(shared, batch, replies);
        }
    }
}

/// Re-dispatches a confiscated batch (at the front of the work queue,
/// with the original reply channels restored into a fresh claim), or —
/// `max_failovers` exhausted — answers its requests with typed errors.
fn failover(shared: &Arc<Shared>, batch: Batch, replies: Vec<mpsc::Sender<ServeResponse>>) {
    let next_attempt = batch.attempt + 1;
    if next_attempt <= shared.cfg.max_failovers {
        let b = Batch {
            shared: Arc::new(BatchShared {
                id: batch.shared.id,
                inputs: batch.shared.inputs.clone(),
                meta: batch.shared.meta.clone(),
                claim: Mutex::new(Some(replies)),
            }),
            attempt: next_attempt,
        };
        let mut w = lock(&shared.work);
        w.batches.push_front(b);
        shared.work_cv.notify_one();
        return;
    }
    for (m, reply) in batch.shared.meta.iter().zip(replies) {
        respond(
            shared,
            m,
            &reply,
            ServeResponse {
                id: m.id,
                outcome: Err(AbmError::WorkerPanic {
                    item: 0,
                    message: format!(
                        "watchdog: batch {} stuck past its deadline on {} worker(s); failovers exhausted",
                        batch.shared.id,
                        batch.attempt + 1
                    ),
                }),
                queued_us: 0,
                total_us: 0,
                retries: 0,
                degraded: false,
                deadline_missed: false,
            },
        );
    }
    shared
        .in_flight
        .fetch_sub(batch.shared.meta.len(), Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The heartbeat moves a busy worker's stuck deadline forward, and
    /// does nothing once the watchdog has taken the batch.
    #[test]
    fn heartbeat_rearms_the_stuck_deadline_until_confiscation() {
        let batch = Batch {
            shared: Arc::new(BatchShared {
                id: 7,
                inputs: Vec::new(),
                meta: Vec::new(),
                claim: Mutex::new(None),
            }),
            attempt: 0,
        };
        let expired = Instant::now();
        let state = WorkerState {
            busy: Mutex::new(Some((batch, expired))),
            abandoned: AtomicBool::new(false),
        };
        let stuck_after = Duration::from_secs(3600);
        state.beat(stuck_after);
        let hard = lock(&state.busy).as_ref().map(|(_, hard)| *hard);
        assert!(hard.is_some_and(|hard| hard >= expired + stuck_after));
        // Confiscation empties the slot; a late beat must not refill it.
        lock(&state.busy).take();
        state.beat(stuck_after);
        assert!(lock(&state.busy).is_none());
    }
}
