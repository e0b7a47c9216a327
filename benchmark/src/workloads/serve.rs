//! The served workloads, against an in-process `abm_serve::Server`.
//!
//! `alexnet_serve` is a closed loop: one caller, `submit` then
//! `Ticket::wait`. `tiny_serve` is an open loop with the
//! benchmark's own generator (not `abm_serve::LoadGen`, which times
//! from submission): an absolute due-time schedule drawn from `--seed`,
//! one generator thread that submits each request when it falls due
//! whatever became of the earlier ones, and latency counted from the
//! *due* time, so a stall charges every request it delays. How late the
//! generator itself ran is reported.
//!
//! The traced `tiny_serve` run follows its nominal phase with an
//! overload phase at about twice the server's capacity. There a typed
//! refusal, a cut or a late reply is the designed behaviour: it is
//! reported as a share, and only a wrong answer fails the run.

use super::{put_end_to_end, setup, Ctx, HostNet, Quiet, Window};
use crate::inputs::{Image, Net};
use crate::ladder::{self, put_tail};
use crate::report::Outcome;
use crate::stats::{ms_since, threads, Rng, Samples};
use abm_fault::AbmError;
use abm_model::SparseModel;
use abm_serve::{ServeConfig, ServeResponse, ServeStats, Server, Ticket};
use abm_sim::AcceleratorConfig;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests per second of the nominal open-loop phase: a quarter of
/// the measured capacity (~400 rps: two workers, ~5 ms a hardened tiny
/// image).
const NOMINAL_RPS: f64 = 100.0;

/// Requests per second of the overload phase: about twice capacity.
const OVERLOAD_RPS: f64 = 800.0;

/// Length of the overload phase as a share of the window.
const OVERLOAD_SHARE: f64 = 0.4;

/// Deadline of the overload phase's requests: the default
/// configuration's SLO, which keeps admission control at its edge. The
/// nominal phase's carry the configuration's own default deadline
/// (250 ms): there a late reply is a failed operation, and on a shared
/// machine a 100 ms deadline fails on the neighbours' account a few
/// times in a thousand.
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(100);

/// Deadline (and SLO) of the closed-loop AlexNet requests: generous, so
/// the load never trips admission control.
const CLOSED_LOOP_DEADLINE: Duration = Duration::from_secs(10);

/// Threads blocked in `Ticket::wait` on behalf of the open-loop
/// generator. More than the nominal load ever has in flight; under
/// overload replies come back in queue order anyway.
const WAITERS: usize = 16;

/// Share of the window a traced run spends, on top of it, on the
/// hardened-path ladder (at least one round).
const LADDER_SHARE: f64 = 0.1;

struct Serving {
    server: Server,
    start_ms: f64,
}

impl Serving {
    /// Synthesizes the model and starts a server on it (which runs the
    /// simulator once for its cost model and warms up).
    fn start(net: Net, cfg: &ServeConfig) -> Result<Self, String> {
        let model: Arc<SparseModel> = Arc::new(net.synthesize());
        let t = Instant::now();
        let server = Server::start(model, &AcceleratorConfig::paper(), cfg.clone())
            .map_err(|e| format!("Server::start {}: {e}", net.name()))?;
        Ok(Self {
            server,
            start_ms: ms_since(t),
        })
    }
}

/// One request as the harness saw it.
struct Reply {
    image: usize,
    /// When the request was due (closed loop: when it was submitted).
    due: Instant,
    submitted: Instant,
    /// The reply and when it arrived, or why admission refused the
    /// request.
    fate: Result<(Instant, ServeResponse), AbmError>,
}

/// Submits one request and, if admitted, waits for its reply.
fn request(server: &Server, images: &[Image], image: usize, deadline: Duration) -> Reply {
    let submitted = Instant::now();
    let fate = server
        .submit(images[image].pixels.clone(), deadline)
        .map(|ticket| {
            let response = ticket.wait();
            (Instant::now(), response)
        });
    Reply {
        image,
        due: submitted,
        submitted,
        fate,
    }
}

/// What became of one phase's requests.
#[derive(Default)]
struct Tally {
    offered: u64,
    admitted: u64,
    on_time: u64,
    shed: u64,
    cut: u64,
    late: u64,
    request_ms: Samples,
    queued_ms: Samples,
    exec_ms: Samples,
    generator_late_ms: Samples,
}

/// Sorts every reply into on time / late / cut / shed / wrong, checking
/// each answer against the dense engine's logits. In a phase that
/// `counts`, each request is an attempted operation and a refusal, cut
/// or late reply a failed one; a wrong answer fails the run anywhere.
fn tally(
    ctx: &Ctx,
    net: Net,
    images: &[Image],
    replies: &[Reply],
    deadline: Duration,
    counts: bool,
    out: &mut Outcome,
) -> Tally {
    let mut t = Tally::default();
    let miss = |out: &mut Outcome| {
        if counts {
            out.miss();
        }
    };
    for (request, reply) in replies.iter().enumerate() {
        t.offered += 1;
        out.attempted += u64::from(counts);
        t.generator_late_ms
            .push(reply.submitted.duration_since(reply.due).as_secs_f64() * 1e3);
        let image = &images[reply.image];
        let (done, response) = match &reply.fate {
            Ok(answered) => answered,
            Err(AbmError::Overloaded { .. }) => {
                t.shed += 1;
                miss(out);
                continue;
            }
            Err(other) => {
                out.fail(format!("submit: {other}"));
                continue;
            }
        };
        t.admitted += 1;
        ctx.tracer
            .record("serve.request", reply.due, *done, request as u64);
        match &response.outcome {
            Ok(output) if ctx.golden.logits_match(net, image.id, &output.logits) => {
                let latency = done.duration_since(reply.due);
                t.request_ms.push(latency.as_secs_f64() * 1e3);
                t.queued_ms.push(response.queued_us as f64 / 1e3);
                t.exec_ms
                    .push(response.total_us.saturating_sub(response.queued_us) as f64 / 1e3);
                if latency <= deadline && !response.deadline_missed {
                    t.on_time += 1;
                } else {
                    t.late += 1;
                    miss(out);
                }
            }
            Ok(_) => out.fail(format!(
                "{} image {}: served logits differ from the dense engine's",
                net.name(),
                image.id
            )),
            Err(e) if matches!(e.root_cause(), AbmError::DeadlineExceeded { .. }) => {
                t.cut += 1;
                miss(out);
            }
            Err(e) => out.fail(format!("{} image {}: {e}", net.name(), image.id)),
        }
    }
    t
}

/// Shuts the server down and holds its accounting to the harness's own
/// (`offered` and `shed` since the `before` snapshot).
fn check_drain(server: Server, before: ServeStats, offered: u64, shed: u64, out: &mut Outcome) {
    let after = server.shutdown();
    if after.admitted != after.answered() {
        out.fail(format!(
            "server admitted {} requests and answered {}",
            after.admitted,
            after.answered()
        ));
    }
    let counted = (after.submitted - before.submitted, after.shed - before.shed);
    if counted != (offered, shed) {
        out.fail(format!(
            "server counted {counted:?} (submitted, shed), the harness ({offered}, {shed})"
        ));
    }
}

/// Mean requests per dispatched batch between two snapshots.
fn batch_size_mean(before: ServeStats, after: ServeStats, out: &mut Outcome) {
    let batches = after.batches - before.batches;
    out.put(
        "serve.batch_size_mean",
        (after.answered() - before.answered()) as f64 / batches.max(1) as f64,
        batches as usize,
    );
}

/// The per-layer metrics of a served run: latencies from the `nominal`
/// phase, refusal shares from the `stressed` one (the same phase in the
/// closed loop).
fn put_serve_layers(
    ctx: &Ctx,
    net: Net,
    images: &[Image],
    serving: &Serving,
    nominal: &Tally,
    stressed: &Tally,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = nominal.request_ms.n();
    out.put("serve.start_ms", serving.start_ms, 1);
    out.put("serve.request_ms_p50", nominal.request_ms.median(), n);
    put_tail(out, "serve.request_ms_p95", &nominal.request_ms, 0.95);
    put_tail(out, "serve.request_ms_p99", &nominal.request_ms, 0.99);
    out.put("serve.queued_ms_p50", nominal.queued_ms.median(), n);
    put_tail(out, "serve.queued_ms_p99", &nominal.queued_ms, 0.99);
    out.put("serve.exec_ms_p50", nominal.exec_ms.median(), n);
    put_tail(
        out,
        "serve.generator_late_ms_p99",
        &nominal.generator_late_ms,
        0.99,
    );

    let offered = stressed.offered.max(1) as f64;
    let admitted = stressed.admitted.max(1) as f64;
    let share = |out: &mut Outcome, name: &str, count: u64, of: f64| {
        out.put(name, count as f64 / of, count as usize);
    };
    share(out, "serve.shed_share", stressed.shed, offered);
    share(out, "serve.cut_share", stressed.cut, admitted);
    share(out, "serve.late_share", stressed.late, admitted);
    out.put(
        "serve.estimate_err",
        serving.server.service_estimate().as_secs_f64() * 1e3 / stressed.exec_ms.median(),
        stressed.exec_ms.n(),
    );

    // What the forced hardened policy costs without any serving around
    // it; the difference to the request median is the server's own.
    let host = HostNet::build(net)?;
    let hardened_ms = ladder::hardened(ctx, &host, images, LADDER_SHARE * ctx.seconds, out);
    out.put(
        "serve.overhead_ms_p50",
        nominal.request_ms.median() - hardened_ms,
        n,
    );
    Ok(())
}

/// `alexnet_serve`: one caller, `submit` then `Ticket::wait`, again and
/// again. (A caller per worker was tried: two hardened AlexNet requests
/// at once keep both cores busy for the whole window, and then the
/// request median read 608 to 1595 ms within ten runs, as the
/// neighbours pleased.)
pub fn closed_loop(ctx: &Ctx) -> Result<Outcome, String> {
    const NET: Net = Net::Alexnet;
    let cfg = ServeConfig {
        workers: threads(),
        slo: CLOSED_LOOP_DEADLINE,
        default_deadline: CLOSED_LOOP_DEADLINE,
        ..ServeConfig::default()
    };
    let (serving, setup_time) = setup(|| Serving::start(NET, &cfg))?;
    let server = &serving.server;
    let images = &ctx.images(NET)[..];
    let mut out = Outcome::default();

    // Each worker prepares its own weights when its thread starts; a
    // request per worker gets that out of the window.
    let warm: Vec<Reply> = (0..cfg.workers)
        .map(|i| request(server, images, i % images.len(), CLOSED_LOOP_DEADLINE))
        .collect();
    tally(
        ctx,
        NET,
        images,
        &warm,
        CLOSED_LOOP_DEADLINE,
        false,
        &mut out,
    );

    let before = server.stats();
    let mut replies = Vec::new();
    let window = Window::start(ctx.seconds);
    while window.open() {
        let image = replies.len() % images.len();
        replies.push(request(server, images, image, CLOSED_LOOP_DEADLINE));
    }
    let window_s = window.elapsed_s();
    let t = tally(
        ctx,
        NET,
        images,
        &replies,
        CLOSED_LOOP_DEADLINE,
        true,
        &mut out,
    );
    put_end_to_end(
        &mut out,
        &setup_time,
        &t.request_ms,
        Quiet::LowerDecile,
        t.on_time,
        window_s,
    );
    if ctx.traced() {
        batch_size_mean(before, server.stats(), &mut out);
        put_serve_layers(ctx, NET, images, &serving, &t, &t, &mut out)?;
    }
    check_drain(serving.server, before, t.offered, t.shed, &mut out);
    Ok(out)
}

/// Offers `rps` requests a second for `seconds` on a schedule drawn
/// from `jitter`: request i is due at `(i + u_i) / rps`, `u_i` uniform
/// in `[0, 1)` — jittered, never reordered. Returns the replies in due
/// order and the seconds until the last was answered.
fn offer(
    server: &Server,
    images: &[Image],
    rps: f64,
    seconds: f64,
    deadline: Duration,
    mut jitter: Rng,
) -> (Vec<Reply>, f64) {
    let due_s: Vec<f64> = (0..(rps * seconds) as usize)
        .map(|i| (i as f64 + jitter.unit()) / rps)
        .collect();
    // An admitted request on its way to a waiter: image, due time,
    // submission time and the ticket to wait on.
    let (jobs, waiting) = mpsc::channel::<(usize, Instant, Instant, Ticket)>();
    let waiting = Mutex::new(waiting);
    let start = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // One waiter at a time blocks in `recv`; the
                        // others queue on the lock, the same idle wait.
                        let job = waiting.lock().expect("no waiter panics").recv();
                        let Ok((image, due, submitted, ticket)) = job else {
                            break mine;
                        };
                        let response = ticket.wait();
                        mine.push(Reply {
                            image,
                            due,
                            submitted,
                            fate: Ok((Instant::now(), response)),
                        });
                    }
                })
            })
            .collect();

        let mut refused = Vec::new();
        for (i, due_s) in due_s.iter().enumerate() {
            let due = start + Duration::from_secs_f64(*due_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let image = i % images.len();
            let submitted = Instant::now();
            match server.submit(images[image].pixels.clone(), deadline) {
                Ok(ticket) => jobs
                    .send((image, due, submitted, ticket))
                    .expect("waiters outlive the generator"),
                Err(e) => refused.push(Reply {
                    image,
                    due,
                    submitted,
                    fate: Err(e),
                }),
            }
        }
        drop(jobs);
        waiters
            .into_iter()
            .flat_map(|w| w.join().expect("waiter panicked"))
            .chain(refused)
            .collect()
    });
    replies.sort_by_key(|r| r.due);
    (replies, start.elapsed().as_secs_f64())
}

/// `tiny_serve`.
pub fn open_loop(ctx: &Ctx) -> Result<Outcome, String> {
    const NET: Net = Net::Tiny;
    let cfg = ServeConfig::default();
    let (serving, setup_time) = setup(|| Serving::start(NET, &cfg))?;
    let server = &serving.server;
    let images = &ctx.images(NET)[..];
    let mut out = Outcome::default();

    // A few requests one at a time, so both workers have prepared their
    // weights before the schedule starts.
    let warm: Vec<Reply> = (0..4)
        .map(|i| request(server, images, i % images.len(), CLOSED_LOOP_DEADLINE))
        .collect();
    tally(
        ctx,
        NET,
        images,
        &warm,
        CLOSED_LOOP_DEADLINE,
        false,
        &mut out,
    );

    let before = server.stats();
    let deadline = cfg.default_deadline;
    let (replies, window_s) = offer(
        server,
        images,
        NOMINAL_RPS,
        ctx.seconds,
        deadline,
        ctx.rng(5),
    );
    let nominal = tally(ctx, NET, images, &replies, deadline, true, &mut out);
    put_end_to_end(
        &mut out,
        &setup_time,
        &nominal.request_ms,
        Quiet::LowerDecile,
        nominal.on_time,
        window_s,
    );
    let (mut offered, mut shed) = (nominal.offered, nominal.shed);

    if ctx.traced() {
        batch_size_mean(before, server.stats(), &mut out);
        let seconds = OVERLOAD_SHARE * ctx.seconds;
        let deadline = OVERLOAD_DEADLINE;
        let (replies, window_s) =
            offer(server, images, OVERLOAD_RPS, seconds, deadline, ctx.rng(6));
        let overload = tally(ctx, NET, images, &replies, deadline, false, &mut out);
        offered += overload.offered;
        shed += overload.shed;
        out.put(
            "serve.overload_goodput_rps",
            overload.on_time as f64 / window_s,
            overload.on_time as usize,
        );
        let refused = overload.shed + overload.cut + overload.late;
        out.put(
            "serve.overload_refused_share",
            refused as f64 / overload.offered.max(1) as f64,
            refused as usize,
        );
        put_serve_layers(ctx, NET, images, &serving, &nominal, &overload, &mut out)?;
    }
    check_drain(serving.server, before, offered, shed, &mut out);
    Ok(out)
}
