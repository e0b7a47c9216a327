//! The batching inference server: one bounded queue that idle workers
//! take their batches from, with admission control, per-request
//! deadlines, chaos injection, a stuck-batch watchdog and graceful
//! drain.
//!
//! ## Architecture
//!
//! ```text
//! submit()/TCP ──► admission ──► bounded queue ◄── take ── idle worker (handle to the
//!                  (CostModel)   (one Mutex +       ≤ max_batch,   one PreparedWeights,
//!                      │          one Condvar;      failover       hardened policy; a batch
//!                      ▼          shed: typed       batches first) alone on the server runs
//!                  shed/reject    Overloaded)            ▲         at Parallelism::Auto)
//!                                                        │              │
//!                          watchdog ── confiscated ──────┘              │
//!                          (fails stuck batches over) ◄── heartbeats ───┤
//!                                                                       ▼
//!                                                                   responses
//! ```
//!
//! Every degradation decision is typed and accounted: shed requests
//! get [`AbmError::Overloaded`], deadline cuts get
//! [`AbmError::DeadlineExceeded`], detected corruptions climb the
//! recovery ladder (re-lower → dense) inside the workers
//! and come back **bit-identical** — never silent. A refused, shed, cut
//! or failed request is counted in `abm_errors_serve_total`
//! ([`abm_metrics::MetricsRegistry::note_error`]), as a failed image is
//! in batch mode.

use crate::cost::CostModel;
use abm_conv::{Inferencer, Parallelism, PreparedWeights, ResiliencePolicy};
use abm_fault::{AbmError, FaultClass, SplitMix64};
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
    /// Most requests one batch may coalesce: a free worker takes up to
    /// this many of the requests queued when it frees up.
    pub max_batch: usize,
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
            workers: 2,
            default_deadline: Duration::from_millis(250),
            slo: Duration::from_millis(100),
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
    /// [`AbmError::InvalidConfig`] naming the first of `queue_capacity`,
    /// `max_batch` and `workers` that is zero.
    pub fn validate(&self) -> Result<(), AbmError> {
        let knobs = [
            ("queue_capacity", self.queue_capacity),
            ("max_batch", self.max_batch),
            ("workers", self.workers),
        ];
        match knobs.iter().find(|&&(_, value)| value == 0) {
            Some((name, _)) => Err(AbmError::InvalidConfig {
                detail: format!("ServeConfig::{name} must be positive"),
            }),
            None => Ok(()),
        }
    }
}

/// Deterministic, seed-reproducible fault injection for chaos runs —
/// the serving-path analogue of the fault campaign's host classes,
/// drawn from the same source (`PreparedConv::upset`). Word flips land
/// in prepared WT-Buffer offset streams
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
    Refused,
    Completed,
    Failed,
    DeadlineCut,
    DeadlineMissed,
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
            Self::Refused => "serve_refused_total",
            Self::Completed => "serve_completed_total",
            Self::Failed => "serve_failed_total",
            Self::DeadlineCut => "serve_deadline_total",
            Self::DeadlineMissed => "serve_deadline_missed_total",
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
/// `submitted == admitted + shed`. Every request answered with an
/// error, or refused, is counted once in `abm_errors_serve_total`:
/// `shed + refused + failed + deadline_cut`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests offered (admitted + shed).
    pub submitted: u64,
    /// Requests that entered the queue.
    pub admitted: u64,
    /// Requests refused with a typed [`AbmError::Overloaded`].
    pub shed: u64,
    /// Requests refused at submit with [`AbmError::ShapeMismatch`]: not
    /// submitted, so in no other field.
    pub refused: u64,
    /// Requests answered with a successful inference.
    pub completed: u64,
    /// Requests answered with a typed error other than a deadline cut.
    pub failed: u64,
    /// Requests answered with [`AbmError::DeadlineExceeded`].
    pub deadline_cut: u64,
    /// Requests that completed successfully but past their deadline.
    pub deadline_missed: u64,
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
    /// Batches workers took from the queue (a failed-over batch is
    /// counted once, when it was first taken).
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
            refused: read(Counter::Refused),
            completed: read(Counter::Completed),
            failed: read(Counter::Failed),
            deadline_cut: read(Counter::DeadlineCut),
            deadline_missed: read(Counter::DeadlineMissed),
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

impl Request {
    fn meta(&self) -> ReqMeta {
        ReqMeta {
            id: self.id,
            enqueued: self.enqueued,
            deadline: self.deadline,
        }
    }
}

/// The shareable body of a taken batch. `claim` holds the reply
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

/// Everything guarded by `Shared::queue`: what admission reasons about
/// and what a free worker takes.
struct Queue {
    /// Admitted requests, oldest first.
    requests: VecDeque<Request>,
    /// Batches the watchdog confiscated, to be re-run before any new
    /// request (their requests are still in flight).
    failover: VecDeque<Batch>,
    /// Batches workers have taken and not yet finished (an abandoned
    /// worker's counts until it returns): a batch taken while this is
    /// zero and nothing is queued is alone and runs wide.
    running: usize,
    /// The id the next batch a worker takes gets.
    next_batch: u64,
    /// Cleared by drain: `submit` sheds from then on.
    accepting: bool,
    /// Set by drain once nothing is queued or in flight: idle workers
    /// exit.
    stop: bool,
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
    queue: Mutex<Queue>,
    /// Wakes an idle worker: a request was admitted, a batch failed
    /// over, or the server stops.
    queue_cv: Condvar,
    /// Admitted requests a worker has taken and not yet answered.
    /// Raised under the queue lock in the same critical section that
    /// takes them, so whoever holds that lock sees every admitted,
    /// unanswered request either queued or counted here.
    in_flight: AtomicUsize,
    next_id: AtomicU64,
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
    watchdog: Option<std::thread::JoinHandle<()>>,
    drained: bool,
}

impl Server {
    /// Prepares the weights — once; the workers share them — and warms
    /// them up on one thread (the cost model's estimate is the warm-up's
    /// measured time per image: admission prices a worker that runs its
    /// batch alone), then spawns `cfg.workers` workers and the
    /// watchdog. The accelerator configuration is accepted and
    /// unused, so any value is safe: nothing on the served path
    /// simulates.
    ///
    /// # Errors
    ///
    /// [`AbmError::InvalidConfig`] from [`ServeConfig::validate`], or
    /// the preparation or warm-up error if the model cannot be lowered
    /// or run.
    pub fn start(
        model: Arc<SparseModel>,
        _accel: &AcceleratorConfig,
        cfg: ServeConfig,
    ) -> Result<Self, AbmError> {
        cfg.validate()?;
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
            queue: Mutex::new(Queue {
                requests: VecDeque::new(),
                failover: VecDeque::new(),
                running: 0,
                next_batch: 0,
                accepting: true,
                stop: false,
            }),
            queue_cv: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            registry: Mutex::new(Vec::new()),
            watchdog_stop: AtomicBool::new(false),
        });

        for _ in 0..cfg.workers {
            spawn_worker(&shared);
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        Ok(Self {
            shared,
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
    /// input shape — refused before it is submitted or admitted (counted
    /// in [`ServeStats::refused`]), so it can never fail the batch it
    /// would have ridden in; and
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
            shared.counters.bump(Counter::Refused);
            abm_metrics::global().note_error("serve");
            return Err(e);
        }
        let c = &shared.counters;
        c.bump(Counter::Submitted);
        // Admission runs under the queue lock, so the backlog it reasons
        // about — queued plus in flight, which a take moves between
        // under the same lock — cannot change underneath it, and so
        // drain's `accepting` is linearized against it.
        let e = {
            let mut q = lock(&shared.queue);
            let depth = q.requests.len();
            let in_flight = shared.in_flight.load(Ordering::Relaxed);
            let deadline_us = u64::try_from(deadline_budget.as_micros()).unwrap_or(u64::MAX);
            let verdict = if !q.accepting {
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
                    q.requests.push_back(Request {
                        id,
                        input,
                        enqueued: now,
                        deadline: now + deadline_budget,
                        reply: tx,
                    });
                    c.bump(Counter::Admitted);
                    if abm_metrics::enabled() {
                        abm_metrics::global()
                            .gauge_max("serve_queue_depth_high_water", q.requests.len() as u64);
                    }
                    shared.queue_cv.notify_one();
                    return Ok(Ticket { id, rx });
                }
                Err(e) => e,
            }
        };
        // Shed path: typed rejection, counted.
        c.bump(Counter::Shed);
        abm_metrics::global().note_error("serve");
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

    /// Graceful drain: stop accepting, let the workers empty the queue,
    /// wait until every in-flight request is answered (the watchdog
    /// rescues stuck batches), then join all live threads.
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
        lock(&shared.queue).accepting = false;
        // The watchdog stays alive here: a stuck batch during drain is
        // confiscated and answered exactly like in steady state.
        loop {
            let mut q = lock(&shared.queue);
            if q.requests.is_empty() && shared.in_flight.load(Ordering::SeqCst) == 0 {
                q.stop = true;
                shared.queue_cv.notify_all();
                break;
            }
            drop(q);
            std::thread::sleep(Duration::from_millis(1));
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

/// Sends a response, updating the per-request accounting and counting
/// every failure as a served error.
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
            abm_metrics::global().note_error("serve");
        }
    }
    // A dropped ticket receiver is the client's choice; the send result
    // is deliberately ignored so drain still completes.
    let _ = reply.send(r);
}

/// A free worker's take, under the one queue lock: the front failover
/// batch if there is one, otherwise up to `max_batch` requests, oldest
/// first. Whatever it takes joins `in_flight` before the lock drops, so
/// an admitted request is always queued or in flight. Returns the batch
/// to run (none when every request taken had expired), the expired
/// requests for [`cut`], and whether the batch is alone — nothing left
/// queued and no other batch running. Blocks while there is nothing to
/// take; `None` once drain stops the workers.
fn take(shared: &Shared) -> Option<(Option<Batch>, Vec<Request>, bool)> {
    let mut q = lock(&shared.queue);
    while q.failover.is_empty() && q.requests.is_empty() {
        if q.stop {
            return None;
        }
        q = shared
            .queue_cv
            .wait(q)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let (batch, expired) = match q.failover.pop_front() {
        Some(b) => (Some(b), Vec::new()),
        None => {
            let n = q.requests.len().min(shared.cfg.max_batch);
            let now = Instant::now();
            let (expired, live): (Vec<_>, Vec<_>) =
                q.requests.drain(..n).partition(|r| now >= r.deadline);
            shared.in_flight.fetch_add(n, Ordering::SeqCst);
            let batch = (!live.is_empty()).then(|| {
                let id = q.next_batch;
                q.next_batch += 1;
                new_batch(shared, id, live)
            });
            (batch, expired)
        }
    };
    let alone = q.failover.is_empty() && q.requests.is_empty() && q.running == 0;
    q.running += usize::from(batch.is_some());
    Some((batch, expired, alone))
}

/// A freshly taken batch of `live` requests, counted.
fn new_batch(shared: &Shared, id: u64, live: Vec<Request>) -> Batch {
    shared.counters.bump(Counter::Batches);
    if abm_metrics::enabled() {
        abm_metrics::global().observe("serve_batch_size", live.len() as u64);
    }
    let mut inputs = Vec::with_capacity(live.len());
    let mut meta = Vec::with_capacity(live.len());
    let mut replies = Vec::with_capacity(live.len());
    for r in live {
        meta.push(r.meta());
        inputs.push(r.input);
        replies.push(r.reply);
    }
    Batch {
        shared: Arc::new(BatchShared {
            id,
            inputs,
            meta,
            claim: Mutex::new(Some(replies)),
        }),
        attempt: 0,
    }
}

/// Answers requests that expired while queued with the typed deadline
/// cut — they never ran — and takes them out of `in_flight`.
fn cut(shared: &Shared, expired: Vec<Request>) {
    let now = Instant::now();
    let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    for r in &expired {
        respond(
            shared,
            &r.meta(),
            &r.reply,
            ServeResponse {
                id: r.id,
                outcome: Err(AbmError::DeadlineExceeded {
                    item: 0,
                    late_us: micros(now.saturating_duration_since(r.deadline)),
                }),
                queued_us: micros(now.saturating_duration_since(r.enqueued)),
                total_us: 0,
                degraded: false,
                deadline_missed: false,
            },
        );
    }
    shared.in_flight.fetch_sub(expired.len(), Ordering::SeqCst);
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

    while let Some((batch, expired, alone)) = take(shared) {
        cut(shared, expired);
        let Some(batch) = batch else {
            continue;
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
        // this batch (headroom for the recovery ladder),
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
        // Chaos: flip one bit of a seeded convolution's offsets — the
        // campaign's `wt-word-flip`, from the same source — so the
        // hardened ladder has something real to detect and mask, then
        // repair afterwards. Deterministic in (chaos seed, batch id): a
        // chaos run is replayable from the seed alone.
        let mut injected = None;
        if let Some(chaos) = &cfg.chaos {
            if chaos.corrupt_every > 0 && batch.shared.id % chaos.corrupt_every == 0 {
                let rng = &mut SplitMix64::new(chaos.seed ^ batch.shared.id);
                injected = conv_layers
                    .get(rng.below(conv_layers.len() as u64) as usize)
                    .copied();
                // The one write: copies this layer if the handle still
                // shares it.
                let slot = injected.and_then(|layer| prepared.abm_layer_mut(layer));
                if slot
                    .and_then(|l| l.upset(FaultClass::WtWordFlip, rng))
                    .is_some()
                {
                    shared.counters.bump(Counter::ChaosInjected);
                }
            }
        }

        let inferencer = base.clone().parallelism(parallelism);
        let (outcomes, degraded) = execute_batch(&inferencer, &prepared, &batch, heartbeat);
        // Before any reply goes out: a caller that submits again on
        // receiving it must find this worker's batch finished.
        lock(&shared.queue).running -= 1;

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
                for ((outcome, m), reply) in outcomes
                    .into_iter()
                    .zip(batch.shared.meta.iter())
                    .zip(replies.iter())
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
/// ([`Inferencer::run_batch_salvage`]); `heartbeat` sees every
/// telemetry event the run records (one per finished layer). Returns
/// the per-item outcomes and whether the recovery ladder engaged (a
/// fault detected) anywhere in the batch. A recovery always follows its
/// detection, so `Detected` alone decides.
fn execute_batch(
    base: &Inferencer<'_>,
    prepared: &PreparedWeights,
    batch: &Batch,
    heartbeat: EventTee,
) -> (Vec<Result<abm_conv::InferenceResult, AbmError>>, bool) {
    let sink = TelemetrySink::new().with_tee(heartbeat);
    let inferencer = base.clone().telemetry(sink.clone());
    let batch_deadline = batch
        .shared
        .meta
        .iter()
        .map(|m| m.deadline)
        .max()
        .unwrap_or_else(Instant::now);
    let outcomes =
        inferencer.run_batch_salvage(prepared, &batch.shared.inputs, Some(batch_deadline));
    let degraded = sink.events().iter().any(|e| {
        matches!(
            e,
            Event::Fault {
                action: FaultAction::Detected,
                ..
            }
        )
    });
    (outcomes, degraded)
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

/// Queues a confiscated batch for the next free worker (ahead of every
/// request, with the original reply channels restored into a fresh
/// claim), or —
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
        lock(&shared.queue).failover.push_back(b);
        shared.queue_cv.notify_one();
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
