//! The metrics registry's three contracts, end to end:
//!
//! 1. **Exact reconciliation** — every `sim_*` aggregate is mirrored
//!    from the same values the adjacent telemetry events carry, so
//!    summing a collected run's events must reproduce the registry
//!    deltas *exactly* (no sampling, no drift), on AlexNet and VGG16.
//! 2. **Observation never perturbs results** — inference with the
//!    registry on (and a flight-teed sink attached) is bit-identical
//!    to inference with it off, across synthesis randomness.
//! 3. **The flight recorder is a faithful post-mortem** — a seeded
//!    injected fault freezes a dump whose tail matches the recorded
//!    event stream, byte-stably across identical runs; and the sink it
//!    tees from loses nothing under concurrent writers.
//!
//! 4. **The served path counts what it does, once** — a server
//!    lowers its model once however many workers and failover
//!    replacements it starts (the dispatch counters say so), and every
//!    `serve_*_total` equals the `ServeStats` field it twins.
//!
//! Every test takes `registry_lock()`: the registry is process-wide
//! and `cargo test` runs tests in one binary concurrently.

use abm_spconv_repro::campaign::{run_campaign, CampaignConfig};
use abm_spconv_repro::conv::{
    Inferencer, Parallelism, PreparedConv, PreparedWeights, ResiliencePolicy,
};
use abm_spconv_repro::metrics;
use abm_spconv_repro::model::{
    synthesize_model, zoo, LayerProfile, Network, PruneProfile, SparseModel,
};
use abm_spconv_repro::serve::{synth_input, ChaosConfig, ServeConfig, ServeStats, Server};
use abm_spconv_repro::sim::{AcceleratorConfig, SimContext};
use abm_spconv_repro::telemetry::{json, Event, RecordingCollector, TelemetrySink};
use abm_spconv_repro::tensor::Tensor3;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes access to the process-wide registry across tests.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Enabled registry with zeroed metrics and an empty flight ring.
fn fresh_registry() -> &'static metrics::MetricsRegistry {
    let r = metrics::global();
    r.set_enabled(true);
    r.reset();
    r.flight().clear();
    r
}

fn tiny_model(density: f64, levels: usize, seed: u64) -> (Network, SparseModel) {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(density, levels));
    let model = synthesize_model(&net, &profile, seed);
    (net, model)
}

/// How many of the model's layers run on the prepared ABM executor.
fn abm_layer_count(model: &SparseModel, prepared: &PreparedWeights) -> u64 {
    let count = (0..model.layers.len())
        .filter(|&i| prepared.abm_layer(i).is_some())
        .count() as u64;
    assert!(count > 0);
    count
}

/// A counter of a snapshot, zero when it never moved.
fn counter(snap: &metrics::MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// The sum of a snapshot's counters whose name starts with `prefix`.
fn sum_of(snap: &metrics::MetricsSnapshot, prefix: &str) -> u64 {
    let named = snap.counters.iter().filter(|(k, _)| k.starts_with(prefix));
    named.map(|(_, v)| v).sum()
}

fn synthetic_input(net: &Network, salt: usize) -> Tensor3<i16> {
    Tensor3::from_fn(net.input_shape(), |c, r, col| {
        ((((c + 2) * (r + 5) * (col + 11 + salt)) % 255) as i16) - 127
    })
}

// ---------------------------------------------------------------------
// 1. Exact reconciliation: summed events == registry deltas.
// ---------------------------------------------------------------------

/// Everything the `sim_*` metrics claim, recomputed from the recorded
/// event stream.
#[derive(Default)]
struct EventSums {
    acc_busy: u64,
    acc_stall: u64,
    mult_busy: u64,
    fifo_high_water: u64,
    queue_depth_high_water: u64,
    ddr_read: u64,
    ddr_write: u64,
    cu_busy_total: u64,
    cu_busy: BTreeMap<u32, u64>,
    layers: u64,
    compute_cycles: u64,
}

fn sum_events(events: &[Event]) -> EventSums {
    let mut s = EventSums::default();
    let mut begin: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        match e {
            Event::LaneStats {
                acc_busy,
                acc_stall,
                mult_busy,
                fifo_high_water,
                ..
            } => {
                s.acc_busy += acc_busy;
                s.acc_stall += acc_stall;
                s.mult_busy += mult_busy;
                s.fifo_high_water = s.fifo_high_water.max(u64::from(*fifo_high_water));
            }
            Event::QueueDepth { depth, .. } => {
                s.queue_depth_high_water = s.queue_depth_high_water.max(u64::from(*depth));
            }
            Event::DdrWindow {
                read_bytes,
                write_bytes,
                ..
            } => {
                s.ddr_read += read_bytes;
                s.ddr_write += write_bytes;
            }
            Event::CuTask { cu, start, end, .. } => {
                s.cu_busy_total += end - start;
                *s.cu_busy.entry(*cu).or_default() += end - start;
            }
            Event::LayerBegin { layer, cycle, .. } => {
                begin.insert(*layer, *cycle);
            }
            Event::LayerEnd { layer, cycle } => {
                s.layers += 1;
                s.compute_cycles += cycle - begin.get(layer).copied().unwrap_or(0);
            }
            _ => {}
        }
    }
    s
}

fn reconcile_network(name: &str, network: Network, profile: PruneProfile, cfg: AcceleratorConfig) {
    let model = synthesize_model(&network, &profile, 2019);
    let registry = fresh_registry();
    let mut rec = RecordingCollector::new();
    let serial = SimContext {
        parallelism: Parallelism::Serial,
        ..SimContext::default()
    };
    serial
        .collector(&mut rec)
        .simulate_network(&model, &cfg)
        .unwrap();
    let snap = registry.snapshot();
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
    let gauge = |n: &str| snap.gauges.get(n).copied().unwrap_or(0);
    let expect = sum_events(rec.events());
    assert_eq!(
        counter("sim_acc_busy_cycles_total"),
        expect.acc_busy,
        "{name}"
    );
    assert_eq!(
        counter("sim_acc_stall_cycles_total"),
        expect.acc_stall,
        "{name}"
    );
    assert_eq!(
        counter("sim_mult_busy_cycles_total"),
        expect.mult_busy,
        "{name}"
    );
    assert_eq!(
        gauge("sim_fifo_high_water"),
        expect.fifo_high_water,
        "{name}"
    );
    assert_eq!(
        gauge("sim_queue_depth_high_water"),
        expect.queue_depth_high_water,
        "{name}"
    );
    assert_eq!(
        counter("sim_ddr_read_bytes_total"),
        expect.ddr_read,
        "{name}"
    );
    assert_eq!(
        counter("sim_ddr_write_bytes_total"),
        expect.ddr_write,
        "{name}"
    );
    assert_eq!(
        counter("sim_cu_busy_cycles_total"),
        expect.cu_busy_total,
        "{name}"
    );
    for (cu, busy) in &expect.cu_busy {
        assert_eq!(
            counter(&format!("sim_cu{cu}_busy_cycles_total")),
            *busy,
            "{name} CU {cu}"
        );
    }
    assert_eq!(counter("sim_layers_total"), expect.layers, "{name}");
    assert_eq!(
        counter("sim_compute_cycles_total"),
        expect.compute_cycles,
        "{name}"
    );
    assert!(
        expect.layers > 0 && expect.acc_busy > 0,
        "{name}: empty run"
    );
}

#[test]
fn sim_metrics_reconcile_exactly_on_alexnet() {
    let _guard = registry_lock();
    reconcile_network(
        "alexnet",
        zoo::alexnet(),
        PruneProfile::alexnet_deep_compression(),
        AcceleratorConfig::paper_alexnet(),
    );
}

#[test]
fn sim_metrics_reconcile_exactly_on_vgg16() {
    let _guard = registry_lock();
    reconcile_network(
        "vgg16",
        zoo::vgg16(),
        PruneProfile::vgg16_deep_compression(),
        AcceleratorConfig::paper(),
    );
}

/// The inference-side aggregates reconcile against ground truth the
/// result itself carries: image/layer histogram counts, per-variant
/// execute counters, and the written pixels against the swept lanes —
/// for images run one at a time, and for the same images as one batch,
/// whose fully-connected tail is swept once with the images as lanes.
#[test]
fn infer_metrics_reconcile_with_results() {
    let _guard = registry_lock();
    let (net, model) = tiny_model(0.6, 16, 7);
    let registry = fresh_registry();
    let inferencer = Inferencer::new(&model).parallelism(Parallelism::Serial);
    let prepared = inferencer.prepare().unwrap();
    let abm_layers = abm_layer_count(&model, &prepared);
    let layers = || (0..model.layers.len()).filter_map(|i| prepared.abm_layer(i));
    // tiny ends FC3 RELU3 FC4 SOFTMAX: the layers a batch runs on lanes.
    let on_lanes = |layer: &&PreparedConv| layer.input_shape().rows == 1;
    let fc_layers = layers().filter(on_lanes).count() as u64;
    assert_eq!(fc_layers, 2);
    let inputs: Vec<_> = (0..3).map(|i| synthetic_input(&net, i)).collect();
    let singles: Vec<_> = inputs
        .iter()
        .map(|input| inferencer.run_prepared(&prepared, input).unwrap())
        .collect();
    let snap = registry.snapshot();
    assert_eq!(counter(&snap, "infer_images_total"), 3);
    assert_eq!(snap.histograms["infer_image_ns"].count, 3);
    assert_eq!(snap.histograms["infer_layer_ns"].count, abm_layers * 3);
    // One execute per ABM layer per image, attributed to the exact
    // variant the preparation resolved.
    assert_eq!(sum_of(&snap, "abm_execute_"), abm_layers * 3);
    // One dispatch per ABM layer (preparation happens once).
    assert_eq!(sum_of(&snap, "abm_dispatch_"), abm_layers);
    // Every written feature is an output pixel of one sweep (useful /
    // issued = lane fill), and what a sweep issues is a function of the
    // layout and the vector width alone: per tile and kernel, the span
    // rounded up to whole vectors — however the kernel groups vectors
    // into register blocks — or one position per pixel when the span is
    // shorter than a vector.
    let features = singles[0].total_features;
    assert_eq!(counter(&snap, "abm_output_pixels_total"), features * 3);
    let swept = |layer: &PreparedConv| {
        let (layout, out) = (layer.flat().layout(), layer.output_shape());
        let lanes = layer.selection().lanes();
        let per_kernel: usize = layout
            .tiles(out.rows)
            .map(|rows| layout.sweep_span(rows.len(), out.cols))
            .map(|span| {
                if span < lanes {
                    span
                } else {
                    span.div_ceil(lanes) * lanes
                }
            })
            .sum();
        (per_kernel * out.channels) as u64
    };
    let swept_per_image: u64 = layers().map(swept).sum();
    assert_eq!(counter(&snap, "abm_swept_lanes_total"), swept_per_image * 3);
    assert!(swept_per_image >= features);

    // The same images as a batch of three: each still counted once and
    // every convolution executed once an image, but each layer of the
    // tail executed (and timed) once for all three, on the lane kernel
    // resolved for three images — three live columns of its one
    // vector, so the tail's fill is 3 / lanes, not the 100 % a
    // one-at-a-time position reads as. No new dispatch: the lane kernel
    // came with the layer's preparation.
    let registry = fresh_registry();
    let batch = inferencer.run_batch_prepared(&prepared, &inputs).unwrap();
    assert_eq!(batch, singles);
    let snap = registry.snapshot();
    let once = (abm_layers - fc_layers) * 3 + fc_layers;
    assert_eq!(counter(&snap, "infer_images_total"), 3);
    assert_eq!(snap.histograms["infer_image_ns"].count, 3);
    assert_eq!(snap.histograms["infer_layer_ns"].count, once);
    assert_eq!(sum_of(&snap, "abm_execute_"), once);
    assert_eq!(sum_of(&snap, "abm_dispatch_"), 0);
    assert_eq!(counter(&snap, "abm_output_pixels_total"), features * 3);
    let swept_by_batch: u64 = layers()
        .map(|layer| {
            if on_lanes(&layer) {
                let lanes = layer.lane_selection(3).lanes();
                (layer.output_shape().channels * 3usize.next_multiple_of(lanes)) as u64
            } else {
                swept(layer) * 3
            }
        })
        .sum();
    assert_eq!(counter(&snap, "abm_swept_lanes_total"), swept_by_batch);
    for layer in layers().filter(on_lanes) {
        let execute = format!("abm_execute_{}_total", layer.lane_selection(3).name());
        assert!(counter(&snap, &execute.replace('/', "_")) >= 1, "{execute}");
    }
}

/// Under the hardened policy each detector records one sample per ABM
/// layer per image — and none under the default policy, which never
/// calls them.
#[test]
fn hardened_detectors_record_one_sample_per_abm_layer() {
    let _guard = registry_lock();
    let (net, model) = tiny_model(0.6, 16, 7);
    let input = synthetic_input(&net, 0);
    for (policy, per_layer) in [
        (ResiliencePolicy::default(), 0),
        (ResiliencePolicy::hardened(), 1),
    ] {
        let registry = fresh_registry();
        let inferencer = Inferencer::new(&model)
            .parallelism(Parallelism::Serial)
            .resilience(policy);
        let prepared = inferencer.prepare().unwrap();
        let abm_layers = abm_layer_count(&model, &prepared);
        inferencer.run_prepared(&prepared, &input).unwrap();
        let snap = registry.snapshot();
        for name in ["abm_verify_checksum_ns", "abm_abft_ns"] {
            let samples = snap.histograms.get(name).map_or(0, |h| h.count);
            assert_eq!(samples, abm_layers * per_layer, "{name} under {policy:?}");
        }
    }
}

/// The served path's pool is visible: a deadline-bounded salvage batch
/// (what every served batch runs) moves the `pool_*` counters by
/// exactly the batch's amounts and reports its steals to the sink. The
/// deadline variants of the pool used to record neither.
#[test]
fn deadline_salvage_batch_is_visible_in_pool_metrics() {
    let _guard = registry_lock();
    let (net, model) = tiny_model(0.6, 16, 7);
    let sink = TelemetrySink::new();
    let inferencer = Inferencer::new(&model)
        .parallelism(Parallelism::Threads(2))
        .telemetry(sink.clone());
    let prepared = inferencer.prepare().unwrap();
    let inputs: Vec<_> = (0..5).map(|i| synthetic_input(&net, i)).collect();
    let registry = fresh_registry();
    let far_future = std::time::Instant::now() + std::time::Duration::from_secs(3600);
    let outcomes = inferencer.run_batch_salvage(&prepared, &inputs, Some(far_future));
    assert!(outcomes.iter().all(Result::is_ok));
    let snap = registry.snapshot();
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
    assert_eq!(counter("pool_fanouts_total"), 1);
    assert_eq!(counter("pool_items_total"), 5);
    assert_eq!(counter("pool_steals_total"), 5);
    assert_eq!(counter("pool_workers_total"), 2);
    let stolen: u64 = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::WorkerSteals { tasks, .. } => Some(*tasks),
            _ => None,
        })
        .sum();
    assert_eq!(stolen, 5);
}

/// The recovery ladder re-lowers through the constructor and ISA pin
/// `prepare` used, so a recovered layer runs the kernel the prepared
/// one ran: the checksum stops the corrupted layer before it executes,
/// the re-lowered one executes once, and the per-variant execute
/// counters end exactly where a clean image leaves them.
#[test]
fn recovered_layer_runs_the_prepared_kernel() {
    let _guard = registry_lock();
    let (net, model) = tiny_model(0.6, 16, 9);
    let input = synthetic_input(&net, 0);
    let inferencer = Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .resilience(ResiliencePolicy::hardened());
    let mut prepared = inferencer.prepare().unwrap();
    let executes = |prepared: &PreparedWeights| {
        let registry = fresh_registry();
        let result = inferencer.run_prepared(prepared, &input).unwrap();
        let snap = registry.snapshot();
        let relowered = snap.counters.get("recovery_relower_total").copied();
        let executes: BTreeMap<String, u64> = snap
            .counters
            .into_iter()
            .filter(|(k, _)| k.starts_with("abm_execute_"))
            .collect();
        (result, executes, relowered.unwrap_or(0))
    };
    let (clean, clean_executes, _) = executes(&prepared);
    flip_first_offset_bit(&model, &mut prepared);
    let (recovered, recovered_executes, relowered) = executes(&prepared);
    assert_eq!(
        relowered, 1,
        "the corruption must be detected and re-lowered"
    );
    assert_eq!(recovered.logits, clean.logits);
    assert_eq!(recovered_executes, clean_executes);
}

// ---------------------------------------------------------------------
// 2. Observation never perturbs results.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Registry on (with a flight-teed sink attached) == registry off,
    /// bit for bit, whatever the synthesized weights — logits, traces,
    /// work counters, calibration statistics — for a batch, whose
    /// prefixes run an image at a time and whose fully-connected tail
    /// runs once on a part-filled vector of lanes.
    #[test]
    fn registry_never_perturbs_inference(
        density in 0.2f64..0.9,
        levels in 4usize..32,
        seed in 0u64..1_000,
    ) {
        let _guard = registry_lock();
        let (net, model) = tiny_model(density, levels, seed);
        let inputs: Vec<_> = (0..3).map(|i| synthetic_input(&net, i)).collect();
        let registry = metrics::global();
        registry.set_enabled(false);
        let off = Inferencer::new(&model)
            .parallelism(Parallelism::Serial)
            .run_batch(&inputs)
            .unwrap();
        fresh_registry();
        let on = Inferencer::new(&model)
            .parallelism(Parallelism::Serial)
            .telemetry(metrics::flight_tee(TelemetrySink::new()))
            .run_batch(&inputs)
            .unwrap();
        prop_assert_eq!(off, on);
    }
}

// ---------------------------------------------------------------------
// 3. The flight recorder as a faithful post-mortem.
// ---------------------------------------------------------------------

/// Flips one offset bit in the first prepared ABM layer's streams while
/// keeping its golden checksum — a post-load SEU (the `wt-word-flip`
/// fault class).
fn flip_first_offset_bit(model: &SparseModel, prepared: &mut PreparedWeights) {
    let layer = (0..model.layers.len())
        .find(|&i| prepared.abm_layer(i).is_some())
        .unwrap();
    let prep = prepared.abm_layer_mut(layer).unwrap();
    let (_, _, offsets) = prep.flat_mut().kernels_mut()[0].streams_mut();
    offsets[0] ^= 1 << 5;
}

/// Deterministically corrupts the first prepared ABM layer (one offset
/// bit, the `wt-word-flip` fault class), runs one image under a
/// detect-only policy so the error surfaces, and returns the frozen
/// dump plus the full stable-rendered sink stream.
fn seeded_fault_run() -> (metrics::FlightDump, Vec<String>) {
    let registry = fresh_registry();
    let (net, model) = tiny_model(0.6, 16, 9);
    let sink = metrics::flight_tee(TelemetrySink::new());
    let inferencer = Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .resilience(ResiliencePolicy::detect_only())
        .telemetry(sink.clone());
    let mut prepared = inferencer.prepare().unwrap();
    flip_first_offset_bit(&model, &mut prepared);
    let input = synthetic_input(&net, 0);
    inferencer
        .run_prepared(&prepared, &input)
        .expect_err("detect-only policy must surface the corruption");
    let dump = registry
        .flight()
        .last_dump()
        .expect("the surfaced error must freeze a flight dump");
    let stream: Vec<String> = sink.events().iter().map(metrics::stable_line).collect();
    (dump, stream)
}

/// The dump's tail is exactly the recorded event stream (the run fits
/// inside the ring), and a surfaced error is counted.
#[test]
fn seeded_fault_dump_tail_matches_event_stream() {
    let _guard = registry_lock();
    let (dump, stream) = seeded_fault_run();
    assert_eq!(dump.context, "infer");
    assert_eq!(dump.total_recorded, stream.len() as u64);
    let dumped: Vec<String> = dump.events.iter().map(metrics::stable_line).collect();
    assert_eq!(dumped, stream);
    // A Detected fault event made it into the dump.
    assert!(
        dump.events.iter().any(|e| matches!(e, Event::Fault { .. })),
        "dump carries no fault event:\n{}",
        dump.to_text()
    );
    let snap = metrics::global().snapshot();
    assert_eq!(snap.counters.get("abm_errors_total"), Some(&1));
    assert_eq!(snap.counters.get("abm_errors_infer_total"), Some(&1));
    json::validate(&dump.to_json()).unwrap();
}

/// Two identical seeded fault runs freeze byte-identical dumps: the
/// stable rendering omits wall-clock fields, everything else is
/// deterministic.
#[test]
fn seeded_fault_dumps_are_byte_stable() {
    let _guard = registry_lock();
    let (first, _) = seeded_fault_run();
    let (second, _) = seeded_fault_run();
    assert_eq!(first.to_text(), second.to_text());
    assert_eq!(first.to_json(), second.to_json());
}

/// The full seeded fault *campaign* is also dump-stable: a trial's
/// telemetry tees into the flight ring (wired inside `run_campaign`),
/// and freezing a dump after two identical campaigns renders the same
/// bytes.
#[test]
fn seeded_campaign_flight_dump_is_byte_stable() {
    let _guard = registry_lock();
    let campaign_dump = || {
        let registry = fresh_registry();
        let config = CampaignConfig {
            nets: vec!["tiny".into()],
            seed: 5,
            trials_per_class: 1,
        };
        let sink = TelemetrySink::new();
        let report = run_campaign(&config, &sink).unwrap();
        assert!(report.is_clean());
        registry.note_error("campaign-postmortem", "post-campaign snapshot");
        registry.flight().last_dump().unwrap()
    };
    let first = campaign_dump();
    let second = campaign_dump();
    assert!(first.total_recorded > 0);
    assert_eq!(first.to_text(), second.to_text());
    // And the recovery-ladder counters saw the campaign.
    let snap = metrics::global().snapshot();
    let injected = snap
        .counters
        .get("fault_injected_total")
        .copied()
        .unwrap_or(0);
    let trials = snap
        .counters
        .get("campaign_trials_total")
        .copied()
        .unwrap_or(0);
    assert!(injected > 0, "campaign injected no counted faults");
    assert!(trials > 0, "campaign recorded no trials");
}

/// Satellite: the sink (with the flight tee attached — the config with
/// the most lock traffic) loses nothing under concurrent writers, and
/// per-thread event order is preserved.
#[test]
fn telemetry_sink_concurrent_writers_lose_nothing() {
    let _guard = registry_lock();
    let registry = fresh_registry();
    const THREADS: u32 = 8;
    const PER_THREAD: u64 = 200;
    let sink = metrics::flight_tee(TelemetrySink::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sink = sink.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    sink.record(Event::LayerEnd { layer: t, cycle: i });
                }
            });
        }
    });
    let events = sink.drain();
    assert_eq!(events.len(), (THREADS as u64 * PER_THREAD) as usize);
    let mut next = [0u64; THREADS as usize];
    for e in &events {
        match e {
            Event::LayerEnd { layer, cycle } => {
                assert_eq!(*cycle, next[*layer as usize], "thread {layer} reordered");
                next[*layer as usize] += 1;
            }
            other => panic!("corrupted event {other:?}"),
        }
    }
    assert!(next.iter().all(|&n| n == PER_THREAD));
    // The tee mirrored every record into the ring.
    assert_eq!(registry.flight().recorded(), THREADS as u64 * PER_THREAD);
}

/// The exposition formats stay well-formed on a real run, and the
/// Prometheus text quotes the quantiles the table prints.
#[test]
fn snapshot_expositions_are_well_formed() {
    let _guard = registry_lock();
    let (net, model) = tiny_model(0.6, 16, 3);
    let registry = fresh_registry();
    Inferencer::new(&model)
        .parallelism(Parallelism::Serial)
        .run_batch(&[synthetic_input(&net, 0)])
        .unwrap();
    let snap = registry.snapshot();
    let text = snap.to_json();
    json::validate(&text).unwrap();
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE infer_images_total counter"));
    assert!(prom.contains("quantile=\"0.99\""));
    let table = snap.render_table();
    assert!(table.contains("infer_image_ns"));
    assert!(table.contains("p99"));
}

// ---------------------------------------------------------------------
// 4. The served path counts what it does, once.
// ---------------------------------------------------------------------

/// Asserts that every `serve_*_total` the registry holds equals the
/// [`ServeStats`] field it twins — and that it holds no other.
fn assert_serve_totals_match(snap: &metrics::MetricsSnapshot, stats: &ServeStats) {
    let twins = [
        ("serve_submitted_total", stats.submitted),
        ("serve_admitted_total", stats.admitted),
        ("serve_shed_total", stats.shed),
        ("serve_completed_total", stats.completed),
        ("serve_failed_total", stats.failed),
        ("serve_deadline_total", stats.deadline_cut),
        ("serve_deadline_missed_total", stats.deadline_missed),
        ("serve_retries_total", stats.retries),
        ("serve_degraded_total", stats.degraded_batches),
        ("serve_chaos_injected_total", stats.chaos_injected),
        ("serve_watchdog_failover_total", stats.watchdog_failovers),
        ("serve_watchdog_late_total", stats.watchdog_late),
        ("serve_wide_batches_total", stats.wide_batches),
        ("serve_batches_total", stats.batches),
    ];
    for (name, field) in twins {
        assert_eq!(counter(snap, name), field, "{name} vs {stats:?}");
    }
    let served = |name: &&String| name.starts_with("serve_") && name.ends_with("_total");
    for name in snap.counters.keys().filter(served) {
        assert!(
            twins.iter().any(|(twin, _)| twin == name),
            "{name} has no ServeStats field"
        );
    }
}

/// Starts a server on the tiny model, submits `requests` seeded images
/// under a generous deadline and waits for every answer, each of which
/// must be the golden logits of its image.
fn serve_tiny(cfg: ServeConfig, requests: u64) -> Server {
    let (_, model) = tiny_model(0.6, 16, 7);
    let shape = model.network.input_shape();
    let inferencer = Inferencer::new(&model).parallelism(Parallelism::Serial);
    let prepared = inferencer.prepare().unwrap();
    let inputs: Vec<_> = (0..requests).map(|seed| synth_input(shape, seed)).collect();
    let golden = inferencer.run_batch_prepared(&prepared, &inputs).unwrap();
    // Counted from here: the server's own preparation, and nothing else.
    fresh_registry();
    let server = Server::start(Arc::new(model), &AcceleratorConfig::paper(), cfg).unwrap();
    let tickets: Vec<_> = inputs
        .into_iter()
        .map(|input| server.submit(input, Duration::from_secs(600)).unwrap())
        .collect();
    for (ticket, want) in tickets.into_iter().zip(&golden) {
        let answer = ticket.wait().outcome.expect("every request is answered");
        assert_eq!(answer.logits, want.logits);
    }
    server
}

/// One prepared model per process: the dispatch counters move once per
/// accelerated layer at `Server::start` — not once more per worker —
/// and a watchdog failover starts its replacement without moving them,
/// the failed-over requests still answered with golden logits.
#[test]
fn server_prepares_once() {
    let _guard = registry_lock();
    let (_, model) = tiny_model(0.6, 16, 7);
    let accelerated = model.layers.len() as u64;
    let quick = ServeConfig {
        max_batch: 4,
        warmup_images: 1,
        ..ServeConfig::default()
    };

    let server = serve_tiny(
        ServeConfig {
            workers: 2,
            ..quick.clone()
        },
        6,
    );
    let stats = server.shutdown();
    let snap = metrics::global().snapshot();
    assert_eq!(stats.completed, 6);
    assert_eq!(sum_of(&snap, "abm_dispatch_"), accelerated);
    assert_serve_totals_match(&snap, &stats);

    // Every batch's first attempt stalls past the stuck threshold: the
    // watchdog confiscates it and a replacement worker runs it.
    let server = serve_tiny(
        ServeConfig {
            workers: 1,
            watchdog_grace: Duration::from_millis(100),
            chaos: Some(ChaosConfig {
                seed: 1,
                corrupt_every: 0,
                stall_every: 1,
                stall_for: Duration::from_millis(400),
            }),
            ..quick
        },
        2,
    );
    // The abandoned worker wakes, finishes late and is discarded; after
    // that it touches no counter again.
    while server.stats().watchdog_late < server.stats().watchdog_failovers {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.shutdown();
    let snap = metrics::global().snapshot();
    assert!(stats.watchdog_failovers >= 1, "{stats:?}");
    assert_eq!((stats.completed, stats.failed), (2, 0), "{stats:?}");
    assert_eq!(sum_of(&snap, "abm_dispatch_"), accelerated);
    assert_serve_totals_match(&snap, &stats);
}

/// Every event the server counts is counted in both places or neither:
/// a drained run with sheds, chaos corruptions and degraded batches
/// leaves each `serve_*_total` equal to its `ServeStats` field.
#[test]
fn serve_totals_equal_serve_stats() {
    let _guard = registry_lock();
    let cfg = ServeConfig {
        max_batch: 2,
        warmup_images: 1,
        chaos: Some(ChaosConfig::corrupt(9, 2)),
        ..ServeConfig::default()
    };
    let server = serve_tiny(cfg, 8);
    // A deadline no inference fits: shed at admission.
    let shape = server.input_shape();
    assert!(server
        .submit(synth_input(shape, 0), Duration::from_micros(1))
        .is_err());
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.shed), (8, 1), "{stats:?}");
    assert!(
        stats.chaos_injected >= 1 && stats.degraded_batches >= 1,
        "{stats:?}"
    );
    assert_serve_totals_match(&metrics::global().snapshot(), &stats);
}
