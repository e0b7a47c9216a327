//! Parallel execution on the host: the one worker pool that host
//! inference (`abm-conv`) and the cycle simulator (`abm-sim`) share,
//! a leaf crate so that the simulator links no host engine.
//!
//! The paper's accelerator scales by letting idle compute units grab
//! the next task the moment they finish ("semi-synchronous"
//! scheduling, Section 4). The host-side analogue implemented here is
//! a worker pool over a shared claim counter: an idle worker takes the
//! next task index with one atomic `fetch_add`, and results are
//! reassembled **by task index**, so the output is a
//! pure function of the inputs — bit-identical to serial execution
//! regardless of thread count or interleaving. That determinism
//! invariant is enforced by `tests/concurrency.rs`.
//!
//! There is one pool loop, [`parallel_map_salvage`]: optional telemetry
//! sink, optional deadline, a panic boundary around every item, one
//! typed outcome per item. Batched inference, the serving layer's
//! deadline-bounded batches and the simulator's budgeted runs all call
//! it, so its `pool_*` metrics and `WorkerClaims` events cover every
//! fan-out. [`parallel_map`] is the same loop for callers whose items
//! cannot fail. One level down, `on_shares` runs the fixed runs of one
//! layer's kernels a lone image splits across threads; the two are
//! never nested.
//!
//! [`Parallelism`] is the knob threaded through `abm-conv`'s
//! `Inferencer`, the simulator's network runner, the CLI and the
//! examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abm_fault::AbmError;
use abm_telemetry::{Event, TelemetrySink};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How much host-thread parallelism to use: a batch's images fan out
/// over it, a lone image's layers split across it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Everything on the calling thread, in order.
    Serial,
    /// A fixed-size worker pool (clamped to at least one worker).
    Threads(usize),
    /// One worker per available hardware thread.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of workers this setting resolves to on this host.
    /// `Auto` asks the OS once per process: on Linux the answer reads
    /// the cgroup quota files, ≈ 12 µs a call, which a served batch of
    /// one would otherwise pay on every request.
    pub fn worker_count(self) -> usize {
        static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => *AVAILABLE.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }),
        }
    }

    /// Parses a CLI spelling: `serial`, `auto`, or a thread count.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "serial" => Ok(Parallelism::Serial),
            "auto" => Ok(Parallelism::Auto),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(Parallelism::Threads)
                .ok_or_else(|| format!("bad parallelism '{n}' (expected serial|auto|N)")),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Threads(n) => write!(f, "{n}"),
            Parallelism::Auto => write!(f, "auto({})", self.worker_count()),
        }
    }
}

/// Applies `f` to every item on a worker pool and returns one typed
/// outcome per item, **in item order** — the single pool loop every
/// batch-level fan-out in the workspace runs on.
///
/// Workers share one claim counter; each repeatedly takes the next
/// unclaimed index from it (`fetch_add`, so indexes are claimed in
/// order and each exactly once), computes
/// `f(worker, index, &items[index])` and brings the result home tagged
/// with its index, so the pool load-balances uneven items exactly like
/// the paper's semi-synchronous CU scheduler balances uneven kernel
/// batches. The calling thread is always worker 0, and it claims the
/// first item before any other worker is spawned, so item 0 runs on
/// the caller every time: a caller that puts its heaviest item first
/// starts it at once and keeps its allocations on one thread from call
/// to call. With one worker (or fewer than two items) no thread is
/// spawned.
///
/// * `Ok(r)` — the item was claimed and `f` returned;
/// * [`AbmError::DeadlineExceeded`] — `deadline` passed before any
///   worker claimed the item. Cancellation is cooperative, at claim
///   granularity: workers check the clock before every claim, claimed
///   items always run to completion and the pool always joins cleanly;
/// * [`AbmError::WorkerPanic`] — `f` panicked on the item; the panic is
///   caught on the worker, never crosses the scope join, and poisons
///   only that item.
///
/// When a `sink` is attached each worker records one
/// [`Event::WorkerClaims`] (tasks it claimed, wall-clock time it spent in
/// `f`) before retiring; the `pool_*` metrics are recorded whenever the
/// registry is on. Both observe the pool, they never steer it.
pub fn parallel_map_salvage<T, R, F>(
    parallelism: Parallelism,
    items: &[T],
    sink: Option<&TelemetrySink>,
    deadline: Option<Instant>,
    f: F,
) -> Vec<Result<R, AbmError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    let workers = parallelism.worker_count().min(items.len());
    // Pool accounting: fan-out shape and queue depth are recorded up
    // front, claim totals per worker as each retires.
    let metrics_on = abm_metrics::enabled();
    if metrics_on {
        let m = abm_metrics::global();
        m.add("pool_fanouts_total", 1);
        m.add("pool_items_total", items.len() as u64);
        m.gauge_max("pool_queue_depth_high_water", items.len() as u64);
        if workers <= 1 {
            m.add("pool_serial_items_total", items.len() as u64);
        } else {
            m.add("pool_workers_total", workers as u64);
        }
    }

    // The next unclaimed index; every index below it is claimed.
    // `Relaxed` suffices: the counter publishes no data (the items are
    // shared before any worker starts, results come home through the
    // join), and a read-modify-write hands out each value once under
    // any ordering.
    let next = AtomicUsize::new(0);
    let claim = || {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < items.len())
    };
    // `claimed`: an index this worker took before it started.
    let run_worker = |worker: usize, mut claimed: Option<usize>| {
        let mut done: Vec<(usize, Result<R, AbmError>)> = Vec::new();
        let mut busy_ns = 0u64;
        while let Some(i) = claimed.take().or_else(claim) {
            let start = sink.map(|_| Instant::now());
            let result =
                catch_unwind(AssertUnwindSafe(|| f(worker, i, &items[i]))).map_err(|payload| {
                    AbmError::WorkerPanic {
                        item: i,
                        message: panic_message(payload.as_ref()),
                    }
                });
            if let Some(start) = start {
                busy_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            done.push((i, result));
        }
        let tasks = done.len() as u64;
        if let Some(sink) = sink {
            if tasks > 0 {
                sink.record(Event::WorkerClaims {
                    worker: worker as u32,
                    tasks,
                    busy_ns,
                });
            }
        }
        if metrics_on {
            let m = abm_metrics::global();
            m.add("pool_claims_total", tasks);
        }
        done
    };
    // Nothing else claims yet, so this takes item 0 unless the deadline
    // has already passed.
    let first = claim();
    let done: Vec<Vec<(usize, Result<R, AbmError>)>> = if workers <= 1 {
        vec![run_worker(0, first)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|worker| {
                    let run_worker = &run_worker;
                    scope.spawn(move || run_worker(worker, None))
                })
                .collect();
            let mine = run_worker(0, first);
            let joined = handles
                .into_iter()
                // A worker can only die outside the per-item boundary
                // (in the sink or the registry); that is this program's
                // bug, so it propagates as the scope join would.
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
            std::iter::once(mine).chain(joined).collect()
        })
    };

    // The counter hands out each index at most once and every claimed
    // index came home with exactly one result (the claim-counter model
    // checker proves no lost tasks), so a slot still empty was never
    // claimed — which only the deadline can cause.
    let mut slots: Vec<Option<Result<R, AbmError>>> = (0..items.len()).map(|_| None).collect();
    for (i, result) in done.into_iter().flatten() {
        slots[i] = Some(result);
    }
    let now = Instant::now();
    slots
        .into_iter()
        .enumerate()
        .map(|(item, slot)| {
            slot.unwrap_or_else(|| {
                let late = deadline.map_or(Duration::ZERO, |d| now.saturating_duration_since(d));
                Err(AbmError::DeadlineExceeded {
                    item,
                    late_us: u64::try_from(late.as_micros()).unwrap_or(u64::MAX),
                })
            })
        })
        .collect()
}

/// Runs `each` on every share of one pass over a layer's kernels —
/// every share but the last on a scoped thread of its own, the last on
/// the calling thread, so a pass of one share spawns nothing — and
/// folds the answers in share order. Below the claim-counter pool: the
/// shares are fixed up front, as the accelerator's compute units each
/// take the next kernels of one window, and a share's panic resumes on
/// the caller with its own payload.
pub fn on_shares<S, R>(
    shares: impl Iterator<Item = S>,
    each: impl Fn(S) -> R + Sync,
    fold: impl FnMut(R, R) -> R,
) -> Option<R>
where
    S: Send,
    R: Send,
{
    let mut shares = shares.peekable();
    let first = shares.next()?;
    if shares.peek().is_none() {
        return Some(each(first));
    }
    let each = &each;
    std::thread::scope(|scope| {
        let mut spawned = vec![scope.spawn(move || each(first))];
        let mut last = None;
        while let Some(share) = shares.next() {
            if shares.peek().is_some() {
                spawned.push(scope.spawn(move || each(share)));
            } else {
                last = Some(each(share));
            }
        }
        let joined = spawned
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
        joined.chain(last).reduce(fold)
    })
}

/// The message a caught panic carried (`panic!` payloads are a `String`
/// or a `&str`; anything else came from `panic_any`).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "worker panicked with a non-string payload".to_string())
}

/// [`parallel_map_salvage`] for an `f` that cannot fail and a batch
/// that must finish: no sink, no deadline, plain results in item order
/// — bit-identical to the serial map for every `parallelism`.
///
/// # Panics
///
/// Re-raises a panic from `f`, naming the item it happened on (after
/// the pool has joined all its workers).
pub fn parallel_map<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_salvage(parallelism, items, None, None, |_, i, item| f(i, item))
        .into_iter()
        // INVARIANT: documented panic — with no deadline the only
        // per-item error is a caught panic from `f`, re-raised here.
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one pool, over its whole option space: 0–40 items, 1–4
        /// workers, no / already-past / far-future deadline, a random
        /// subset of items panicking, a sink attached.
        #[test]
        fn pool_outcomes_are_ordered_typed_and_visited_once(
            n in 0usize..41,
            workers in 1usize..5,
            deadline_kind in 0u8..3,
            (mask_a, mask_b) in (any::<u64>(), any::<u64>()),
        ) {
            // About a quarter of the items panic.
            let poisoned = |i: usize| (mask_a & mask_b) >> i & 1 == 1;
            let items: Vec<u64> = (0..n as u64).map(|x| x * 3 + 1).collect();
            let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x + i as u64).collect();
            let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let deadline = match deadline_kind {
                0 => None,
                1 => Some(Instant::now() - Duration::from_millis(1)),
                _ => Some(Instant::now() + Duration::from_secs(3600)),
            };
            let sink = TelemetrySink::new();
            let out = parallel_map_salvage(
                Parallelism::Threads(workers),
                &items,
                Some(&sink),
                deadline,
                |worker, i, &x| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    assert!(worker < workers, "worker id {worker} out of range");
                    assert!(!poisoned(i), "poisoned item {i}");
                    x + i as u64
                },
            );
            prop_assert_eq!(out.len(), n);
            for (i, outcome) in out.iter().enumerate() {
                let visited = visits[i].load(Ordering::Relaxed);
                match outcome {
                    // An already-past deadline claims nothing.
                    Err(AbmError::DeadlineExceeded { item, .. }) => {
                        prop_assert_eq!(deadline_kind, 1);
                        prop_assert_eq!((*item, visited), (i, 0));
                    }
                    // A panic poisons exactly the item it happened on.
                    Err(AbmError::WorkerPanic { item, message }) => {
                        prop_assert!(poisoned(i) && deadline_kind != 1);
                        prop_assert_eq!((*item, visited), (i, 1));
                        prop_assert!(message.contains(&format!("poisoned item {i}")), "{message}");
                    }
                    // Everything else equals the serial map, in order.
                    Ok(v) => {
                        prop_assert!(!poisoned(i) && deadline_kind != 1);
                        prop_assert_eq!((*v, visited), (serial[i], 1));
                    }
                    Err(other) => panic!("item {i}: unexpected {other}"),
                }
            }
            // The sink saw every claimed item exactly once, spread over
            // at most `workers` retiring workers.
            let events = sink.events();
            prop_assert!(events.len() <= workers);
            let stolen: u64 = events
                .iter()
                .map(|e| match e {
                    Event::WorkerClaims { worker, tasks, .. } => {
                        assert!((*worker as usize) < workers);
                        *tasks
                    }
                    other => panic!("unexpected event {other:?}"),
                })
                .sum();
            let visited: usize = visits.iter().map(|v| v.load(Ordering::Relaxed)).sum();
            prop_assert_eq!(stolen, visited as u64);
        }
    }

    /// A deadline that fires mid-batch keeps what was claimed and types
    /// the rest. Every item waits out the deadline, so each worker
    /// claims at most one item before the clock stops it — no sleep
    /// decides which side of the cut an item lands on.
    #[test]
    fn midbatch_deadline_keeps_claimed_items_and_types_the_rest() {
        let items: Vec<u64> = (0..16).collect();
        for workers in [1usize, 3] {
            let deadline = Instant::now() + Duration::from_millis(50);
            let out = parallel_map_salvage(
                Parallelism::Threads(workers),
                &items,
                None,
                Some(deadline),
                |_, _, &x| {
                    while Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    x + 100
                },
            );
            let completed = out.iter().filter(|r| r.is_ok()).count();
            assert!(
                completed <= workers,
                "{workers} workers completed {completed}"
            );
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i as u64 + 100),
                    Err(AbmError::DeadlineExceeded { item, .. }) => assert_eq!(*item, i),
                    Err(other) => panic!("unexpected error for item {i}: {other}"),
                }
            }
        }
    }

    /// The infallible convenience is the serial map for every
    /// parallelism setting, uneven item costs included.
    #[test]
    fn parallel_map_equals_serial_map() {
        let items: Vec<u64> = (0..257)
            .map(|i| if i % 7 == 0 { 20_000 } else { 10 })
            .collect();
        let spin = |i: usize, &n: &u64| (0..n).fold(i as u64, |a, b| a.wrapping_add(b));
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, n)| spin(i, n)).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(7),
            Parallelism::Auto,
        ] {
            assert_eq!(parallel_map(par, &items, spin), serial, "{par}");
        }
    }

    #[test]
    #[should_panic(expected = "poisoned item 5")]
    fn parallel_map_reraises_a_worker_panic() {
        let items: Vec<u32> = (0..8).collect();
        let _ = parallel_map(Parallelism::Threads(3), &items, |_, &x| {
            assert!(x != 5, "poisoned item {x}");
            x
        });
    }

    /// Item 0 runs on the calling thread as worker 0 at every width, even
    /// when the other workers would be free to claim it first.
    #[test]
    fn item_zero_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..9).collect();
        for workers in 1..5 {
            for _ in 0..20 {
                let out = parallel_map(Parallelism::Threads(workers), &items, |i, _| {
                    (i, std::thread::current().id())
                });
                assert_eq!(out[0], (0, caller), "{workers} workers");
            }
        }
    }

    #[test]
    fn worker_counts_resolve() {
        assert_eq!(Parallelism::Serial.worker_count(), 1);
        assert_eq!(Parallelism::Threads(3).worker_count(), 3);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert!(Parallelism::Auto.worker_count() >= 1);
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(Parallelism::parse("serial"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse("auto"), Ok(Parallelism::Auto));
        assert_eq!(Parallelism::parse("6"), Ok(Parallelism::Threads(6)));
        assert!(Parallelism::parse("0").is_err());
        assert!(Parallelism::parse("fast").is_err());
    }
}
