//! Integration tests for the `abm-serve` batching inference service:
//! per-item deadline salvage (the mid-batch-deadline regression
//! `Inferencer::run_batch_salvage` documents), admission-control shed
//! accounting, graceful drain, watchdog failover, the TCP front-end,
//! and the chaos property: seeded fault plans during serving yield
//! detected-or-masked outcomes — never silent — while unaffected
//! requests stay bit-identical to the injector-off run.

use abm_spconv_repro::conv::{Inferencer, Parallelism, ResiliencePolicy};
use abm_spconv_repro::fault::AbmError;
use abm_spconv_repro::model::{synthesize_model, zoo, LayerProfile, PruneProfile, SparseModel};
use abm_spconv_repro::serve::{
    synth_input, ChaosConfig, NetConfig, NetServer, ServeConfig, Server, Ticket,
};
use abm_spconv_repro::sim::AcceleratorConfig;
use abm_spconv_repro::tensor::{Shape3, Tensor3};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL_SEED: u64 = 7;

fn tiny_model() -> SparseModel {
    synthesize_model(
        &zoo::tiny(),
        &PruneProfile::uniform(LayerProfile::new(0.6, 16)),
        MODEL_SEED,
    )
}

/// Golden injector-off logits for seeds `0..n`, via the same hardened
/// serial policy the server's workers run.
fn golden_logits(model: &SparseModel, n: u64) -> HashMap<u64, Vec<f32>> {
    let inferencer = Inferencer::new(model)
        .parallelism(Parallelism::Serial)
        .resilience(ResiliencePolicy::hardened());
    let prepared = inferencer.prepare().expect("prepare");
    let shape = model.network.input_shape();
    (0..n)
        .map(|seed| {
            let r = inferencer
                .run_prepared(&prepared, &synth_input(shape, seed))
                .expect("golden run");
            (seed, r.logits)
        })
        .collect()
}

/// A serve config sized for test speed: tiny batches, short windows,
/// generous queue.
fn test_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 32,
        max_batch: 4,
        batch_window: Duration::from_millis(5),
        workers: 2,
        warmup_images: 1,
        ..ServeConfig::default()
    }
}

fn start_server(cfg: ServeConfig) -> (Arc<SparseModel>, Server) {
    let model = Arc::new(tiny_model());
    let server =
        Server::start(Arc::clone(&model), &AcceleratorConfig::paper(), cfg).expect("server start");
    (model, server)
}

// ---------------------------------------------------------------------
// Satellite 2 regression: per-item typed outcomes from deadline salvage
// ---------------------------------------------------------------------

#[test]
fn salvage_with_generous_deadline_matches_plain_batch() {
    let model = tiny_model();
    let inferencer = Inferencer::new(&model).parallelism(Parallelism::Threads(2));
    let prepared = inferencer.prepare().expect("prepare");
    let shape = model.network.input_shape();
    let inputs: Vec<_> = (0..4).map(|s| synth_input(shape, s)).collect();

    let plain = inferencer
        .run_batch_prepared(&prepared, &inputs)
        .expect("plain batch");
    let salvaged = inferencer.run_batch_salvage(
        &prepared,
        &inputs,
        Some(Instant::now() + Duration::from_secs(600)),
    );

    assert_eq!(salvaged.len(), inputs.len());
    for (i, (got, want)) in salvaged.iter().zip(&plain).enumerate() {
        let got = got
            .as_ref()
            .unwrap_or_else(|e| panic!("item {i} failed: {e}"));
        assert_eq!(
            got.logits, want.logits,
            "item {i}: salvage path must be bit-identical to the plain batch"
        );
    }
}

#[test]
fn salvage_with_expired_deadline_types_every_item() {
    let model = tiny_model();
    let inferencer = Inferencer::new(&model).parallelism(Parallelism::Serial);
    let prepared = inferencer.prepare().expect("prepare");
    let shape = model.network.input_shape();
    let inputs: Vec<_> = (0..3).map(|s| synth_input(shape, s)).collect();

    // A deadline already in the past: nothing may run, and every item
    // must come back as its own typed DeadlineExceeded — the exact
    // regression the pre-salvage deadline pool collapsed into one
    // batch-wide error.
    let expired = Instant::now() - Duration::from_millis(1);
    let outcomes = inferencer.run_batch_salvage(&prepared, &inputs, Some(expired));
    assert_eq!(outcomes.len(), inputs.len());
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            Err(e @ AbmError::DeadlineExceeded { item, .. }) => {
                assert_eq!(*item, i, "cut error must carry its own item index");
                assert!(e.is_rejection(), "deadline cut must be a typed rejection");
            }
            other => panic!("item {i}: expected DeadlineExceeded, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Admission control and shed accounting
// ---------------------------------------------------------------------

#[test]
fn impossible_deadline_is_shed_with_typed_overloaded() {
    let (model, server) = start_server(test_config());
    let shape = model.network.input_shape();

    // One microsecond can never cover a full inference: the cost model
    // must shed at admission, before any work is queued.
    let err = server
        .submit(synth_input(shape, 0), Duration::from_micros(1))
        .expect_err("1 us budget must be shed");
    match &err {
        AbmError::Overloaded {
            predicted_us,
            deadline_us,
            ..
        } => {
            assert_eq!(*deadline_us, 1);
            assert!(
                *predicted_us > *deadline_us,
                "shed reason must show predicted {predicted_us} us > deadline {deadline_us} us"
            );
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(
        err.is_rejection(),
        "admission shed must be a typed rejection"
    );

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.answered(), 0);
}

#[test]
fn stats_conserve_requests_under_burst() {
    let (model, server) = start_server(test_config());
    let shape = model.network.input_shape();
    let generous = Duration::from_secs(600);

    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for seed in 0..12u64 {
        match server.submit(synth_input(shape, seed % 3), generous) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                assert!(e.is_rejection(), "burst shed must be typed: {e}");
                shed += 1;
            }
        }
    }
    for t in tickets {
        let r = t.wait();
        let out = r.outcome.expect("generous-deadline request must complete");
        assert!(!out.logits.is_empty());
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.admitted + stats.shed, stats.submitted);
    assert_eq!(stats.shed, shed);
    assert_eq!(
        stats.admitted,
        stats.answered(),
        "drain must answer every admitted request"
    );
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed, stats.admitted);
}

/// A request of the wrong shape is refused at `submit` with a typed
/// `ShapeMismatch`, before it is counted or admitted: outside input is
/// checked at the door, so it never takes a queue slot, an admission
/// estimate or a place in a batch, and the request submitted beside it is
/// served golden.
#[test]
fn a_wrong_shape_is_refused_at_submit_and_fails_no_co_rider() {
    let cfg = ServeConfig {
        workers: 1,
        batch_window: Duration::from_millis(50),
        warmup_images: 1,
        ..ServeConfig::default()
    };
    let (model, server) = start_server(cfg);
    let golden = golden_logits(&model, 1);
    let generous = Duration::from_secs(600);
    let good = server
        .submit(synth_input(model.network.input_shape(), 0), generous)
        .expect("admit");
    let odd = Tensor3::zeros(Shape3::new(1, 2, 2));
    let err = server.submit(odd, generous).expect_err("wrong shape");
    assert!(
        matches!(
            err,
            AbmError::ShapeMismatch {
                got: (1, 2, 2),
                want: (3, 32, 32)
            }
        ),
        "{err}"
    );
    let out = good.wait().outcome.unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.logits, golden[&0]);
    let stats = server.shutdown();
    let counts = (
        stats.submitted,
        stats.admitted,
        stats.shed,
        stats.answered(),
    );
    assert_eq!(counts, (1, 1, 0, 1), "{stats:?}");
}

// ---------------------------------------------------------------------
// The idle core: a work-conserving batcher and the width rule
// ---------------------------------------------------------------------

/// An idle server holds no request for co-riders: with a ten-second
/// window and both workers waiting, a lone request is dispatched at
/// once (the window only coalesces while every worker is busy).
#[test]
fn an_idle_server_starts_a_lone_request_at_once() {
    let cfg = ServeConfig {
        batch_window: Duration::from_secs(10),
        ..test_config()
    };
    let (model, server) = start_server(cfg);
    let golden = golden_logits(&model, 1);
    let input = synth_input(model.network.input_shape(), 0);
    let started = Instant::now();
    let ticket = server
        .submit(input, Duration::from_secs(600))
        .expect("admit");
    let r = ticket.wait();
    assert_eq!(r.outcome.expect("answered").logits, golden[&0]);
    assert!(
        started.elapsed() < Duration::from_secs(5) && r.queued_us < 5_000_000,
        "held for co-riders: queued {} us",
        r.queued_us
    );
    let stats = server.shutdown();
    assert_eq!((stats.batches, stats.answered()), (1, 1), "{stats:?}");
}

/// The width rule, without a stopwatch deciding it. A batch taken while
/// nothing else is queued or running runs wide; one taken while another
/// worker holds a batch — here batch 0, stalled by chaos — runs on its
/// worker alone; once that one is done, the next runs wide again. Every
/// answer is the golden one whatever the width.
#[test]
fn a_lone_batch_runs_wide_and_a_co_running_one_serial() {
    let cfg = ServeConfig {
        workers: 2,
        watchdog_grace: Duration::from_secs(600),
        chaos: Some(ChaosConfig {
            seed: 3,
            corrupt_every: 0,
            stall_every: u64::MAX,
            stall_for: Duration::from_secs(2),
        }),
        ..test_config()
    };
    let (model, server) = start_server(cfg);
    let shape = model.network.input_shape();
    let golden = golden_logits(&model, 3);
    let submit = |seed| {
        server
            .submit(synth_input(shape, seed), Duration::from_secs(600))
            .expect("admit")
    };
    let check = |seed, t: Ticket| {
        let out = t.wait().outcome.expect("answered");
        assert_eq!(out.logits, golden[&seed], "request {seed}");
    };
    // Batch 0, alone: wide, then stalled on its worker.
    let stalled = submit(0);
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.stats().wide_batches == 0 {
        assert!(Instant::now() < deadline, "batch 0 never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Batch 1, beside it: serial.
    check(1, submit(1));
    assert_eq!(server.stats().wide_batches, 1);
    check(0, stalled);
    // Batch 2, alone again: wide.
    check(2, submit(2));
    let stats = server.shutdown();
    assert_eq!((stats.batches, stats.wide_batches), (3, 2), "{stats:?}");
    assert_eq!(stats.watchdog_failovers, 0, "{stats:?}");
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

#[test]
fn drain_answers_every_ticket_and_then_refuses() {
    let (model, server) = start_server(test_config());
    let shape = model.network.input_shape();
    let generous = Duration::from_secs(600);

    let tickets: Vec<Ticket> = (0..6u64)
        .map(|seed| {
            server
                .submit(synth_input(shape, seed % 2), generous)
                .expect("admit")
        })
        .collect();

    // Shutdown races the in-flight work on purpose: drain must still
    // answer every ticket (completion, not channel drop).
    let stats = server.shutdown();
    assert_eq!(stats.admitted, 6);
    assert_eq!(stats.admitted, stats.answered());
    for t in tickets {
        let r = t.wait();
        r.outcome.expect("drained request must have completed");
    }
}

// ---------------------------------------------------------------------
// Watchdog failover
// ---------------------------------------------------------------------

#[test]
fn watchdog_fails_stuck_batch_over_to_fresh_worker() {
    // Every batch's first attempt stalls for far longer than the stuck
    // threshold; the watchdog must confiscate it, spawn a replacement
    // worker, and the retried batch (attempt 1 never stalls) must still
    // complete inside the generous client deadline.
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 4,
        batch_window: Duration::from_millis(5),
        watchdog_grace: Duration::from_millis(100),
        max_failovers: 1,
        warmup_images: 1,
        chaos: Some(ChaosConfig {
            seed: 0xDEAD_BEEF,
            corrupt_every: 0,
            stall_every: 1,
            stall_for: Duration::from_secs(30),
        }),
        ..ServeConfig::default()
    };
    let (model, server) = start_server(cfg);
    let shape = model.network.input_shape();
    let golden = golden_logits(&model, 2);

    let tickets: Vec<(u64, Ticket)> = (0..2u64)
        .map(|seed| {
            let t = server
                .submit(synth_input(shape, seed), Duration::from_secs(600))
                .expect("admit");
            (seed, t)
        })
        .collect();
    for (seed, t) in tickets {
        let r = t.wait();
        let out = r
            .outcome
            .unwrap_or_else(|e| panic!("failover must still answer request {seed}: {e}"));
        assert_eq!(
            out.logits, golden[&seed],
            "request {seed}: failover result must stay bit-identical"
        );
    }
    let stats = server.shutdown();
    assert!(
        stats.watchdog_failovers >= 1,
        "stalled batch must have been confiscated: {stats:?}"
    );
    assert_eq!(stats.admitted, stats.answered());
    assert_eq!(stats.failed, 0);
}

#[test]
fn exhausted_failovers_fail_typed_not_silent() {
    // Zero failover budget: the watchdog confiscates the stalled batch
    // and, with no retries left, must answer it with a typed watchdog
    // error instead of hanging drain forever.
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 2,
        batch_window: Duration::from_millis(5),
        watchdog_grace: Duration::from_millis(100),
        max_failovers: 0,
        warmup_images: 1,
        chaos: Some(ChaosConfig {
            seed: 0xDEAD_BEEF,
            corrupt_every: 0,
            stall_every: 1,
            stall_for: Duration::from_secs(30),
        }),
        ..ServeConfig::default()
    };
    let (model, server) = start_server(cfg);
    let shape = model.network.input_shape();

    let t = server
        .submit(synth_input(shape, 0), Duration::from_secs(600))
        .expect("admit");
    let r = t.wait();
    let e = r.outcome.expect_err("exhausted failover budget must fail");
    match &e {
        AbmError::WorkerPanic { message, .. } => {
            assert!(
                message.contains("watchdog") && message.contains("failovers exhausted"),
                "failure must be attributed to the watchdog: {message}"
            );
        }
        other => panic!("expected a typed WorkerPanic from the watchdog, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.admitted, stats.answered());
    assert_eq!(stats.failed, 1);
    assert!(stats.watchdog_failovers >= 1);
}

// ---------------------------------------------------------------------
// TCP front-end
// ---------------------------------------------------------------------

#[test]
fn tcp_roundtrip_ping_infer_stats() {
    let (_model, server) = start_server(test_config());
    let front = NetServer::bind(Arc::new(server), "127.0.0.1:0", NetConfig::default())
        .expect("bind loopback");
    let addr = front.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let mut line = String::new();

    let mut ask = |req: &str, line: &mut String| {
        writeln!(stream, "{req}").expect("write");
        line.clear();
        reader.read_line(line).expect("read");
        line.trim_end().to_string()
    };

    assert_eq!(ask("ping", &mut line), "pong");
    let infer = ask("infer 1 600000", &mut line);
    assert!(
        infer.starts_with("ok id=") && infer.contains("class="),
        "infer reply must be an ok line: {infer}"
    );
    let stats = ask("stats", &mut line);
    assert!(
        stats.starts_with("stats ") && stats.contains("admitted="),
        "stats reply malformed: {stats}"
    );
    let bogus = ask("frobnicate", &mut line);
    assert!(bogus.starts_with("err "), "unknown verb must err: {bogus}");

    drop(reader);
    drop(stream);
    let server = front.shutdown();
    let server = Arc::try_unwrap(server)
        .ok()
        .expect("sole owner after shutdown");
    let final_stats = server.shutdown();
    assert_eq!(final_stats.admitted, 1);
    assert_eq!(final_stats.completed, 1);
}

// ---------------------------------------------------------------------
// Satellite 3: chaos serving property
// ---------------------------------------------------------------------

/// One chaos serving trial: seeded weight corruption during serving
/// must never produce a silent corruption — every completion is
/// bit-identical to golden, every failure typed — and the accounting
/// must show the injections were seen.
fn chaos_trial(seed: u64, requests: u64, golden: &HashMap<u64, Vec<f32>>) {
    let cfg = ServeConfig {
        chaos: Some(ChaosConfig::corrupt(seed, 2)),
        ..test_config()
    };
    let (model, server) = start_server(cfg);
    let shape = model.network.input_shape();
    let distinct = golden.len() as u64;

    let tickets: Vec<(u64, Ticket)> = (0..requests)
        .map(|i| {
            let input_seed = i % distinct;
            let t = server
                .submit(synth_input(shape, input_seed), Duration::from_secs(600))
                .expect("admit under chaos");
            (input_seed, t)
        })
        .collect();

    let mut completions = 0u64;
    for (input_seed, t) in tickets {
        let r = t.wait();
        match r.outcome {
            Ok(out) => {
                completions += 1;
                assert_eq!(
                    out.logits, golden[&input_seed],
                    "chaos seed {seed:#x}: completion for input {input_seed} diverged from \
                     golden logits — silent corruption"
                );
            }
            Err(e) => {
                // Detected, not silent: the error must be typed and
                // traceable to the injector, the deadline, or the
                // watchdog — never an untyped panic.
                let typed = e.is_corruption()
                    || e.is_rejection()
                    || e.is_watchdog()
                    || matches!(
                        e.root_cause(),
                        AbmError::WorkerPanic { .. } | AbmError::RecoveryExhausted { .. }
                    );
                assert!(typed, "chaos seed {seed:#x}: untyped failure {e:?}");
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.admitted,
        stats.answered(),
        "chaos drain lost requests"
    );
    assert!(
        stats.chaos_injected > 0,
        "chaos seed {seed:#x}: corrupt_every=2 over {} batches must inject at least once",
        stats.batches
    );
    // Whatever was injected was either masked by the recovery ladder
    // (degraded batch, golden-identical output) or surfaced typed.
    assert!(
        stats.degraded_batches > 0 || stats.failed > 0 || completions < stats.admitted,
        "chaos seed {seed:#x}: {} injections left no trace in accounting: {stats:?}",
        stats.chaos_injected
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn chaos_serving_is_detected_or_masked_never_silent(seed in any::<u64>()) {
        let model = tiny_model();
        let golden = golden_logits(&model, 3);
        chaos_trial(seed, 9, &golden);
    }
}
