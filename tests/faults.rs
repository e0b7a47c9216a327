//! Integration tests for the fault-injection and recovery stack: the
//! never-silent property over every fault class, the NullInjector
//! zero-overhead bit-identity guarantee, per-item batch salvage, and
//! the offset-overflow typed-error regression.

use abm_spconv_repro::campaign::{run_campaign, CampaignConfig};
use abm_spconv_repro::conv::{Engine, Inferencer, Parallelism};
use abm_spconv_repro::fault::{
    AbmError, FaultClass, FaultOutcome, FaultPlan, NullInjector, PlanInjector,
};
use abm_spconv_repro::model::{synthesize_model, zoo, LayerProfile, PruneProfile};
use abm_spconv_repro::sim::task::Workload;
use abm_spconv_repro::sim::{AcceleratorConfig, SimContext, Watchdog};
use abm_spconv_repro::sparse::{EncodeError, FlatCode, FlatLayout, LayerCode};
use abm_spconv_repro::telemetry::TelemetrySink;
use abm_spconv_repro::tensor::{Shape3, Shape4, Tensor3, Tensor4};
use proptest::prelude::*;

fn tiny_model() -> abm_spconv_repro::model::SparseModel {
    let net = zoo::tiny();
    let profile = PruneProfile::uniform(LayerProfile::new(0.6, 16));
    synthesize_model(&net, &profile, 7)
}

fn synth_image(shape: Shape3, salt: usize) -> Tensor3<i16> {
    Tensor3::from_fn(shape, |c, r, col| {
        ((((c + 1) * (r + 3) * (col + 7 + salt)) % 255) as i16) - 127
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: whatever the seed, every fault class the
    /// campaign injects into the tiny network is either detected (and
    /// recovered bit-identically) or provably masked — never silent,
    /// never unrecovered.
    #[test]
    fn every_fault_class_is_never_silent(seed in any::<u64>()) {
        let mut config = CampaignConfig::net("tiny");
        config.seed = seed;
        let report = run_campaign(&config, &TelemetrySink::new()).unwrap();
        // Every class once, plus the two pipelined dataflow trials
        // (boundary FIFO stall + stage CU hang), which must obey the
        // same lattice: detected-and-recovered or provably masked.
        prop_assert_eq!(report.trials.len(), FaultClass::ALL.len() + 2);
        prop_assert_eq!(report.count(FaultOutcome::Silent), 0);
        prop_assert_eq!(report.count(FaultOutcome::DetectedUnrecovered), 0);
        // Every class was actually injected; the two dataflow-sensitive
        // classes land on both the time-multiplexed and pipelined rails.
        let counts = report.class_counts();
        for class in FaultClass::ALL {
            let expected = match class {
                FaultClass::FifoStall | FaultClass::CuHang => 2,
                _ => 1,
            };
            prop_assert_eq!(counts[class.name()].injected, expected);
        }
    }

    /// Zero-overhead guarantee of the fault guards at the integration
    /// level: the workload core under the disabled injector, and under
    /// an enabled injector that walks every guard but delivers nothing,
    /// returns the plain simulation on every layer, for any watchdog
    /// slack.
    #[test]
    fn null_injector_guarded_sim_is_bit_identical(slack in 1u64..1_000_000) {
        let model = tiny_model();
        let cfg = AcceleratorConfig::paper();
        let guarded = || SimContext {
            parallelism: Parallelism::Serial,
            watchdog: Watchdog::with_slack(slack),
            ..SimContext::default()
        };
        for (i, layer) in model.layers.iter().enumerate() {
            let w = Workload::from_layer(layer).unwrap();
            let plain = SimContext::default().simulate_workload(&w, &cfg, 0, 0).unwrap();
            let null = guarded()
                .injector(&mut NullInjector)
                .simulate_workload(&w, &cfg, i as u32, 0)
                .unwrap();
            let idle = guarded()
                .injector(&mut PlanInjector::new(FaultPlan::default()))
                .simulate_workload(&w, &cfg, i as u32, 0)
                .unwrap();
            prop_assert_eq!(&null, &plain);
            prop_assert_eq!(&idle, &plain);
        }
    }
}

/// One corrupted image in a batch fails alone: the other items complete
/// and match a clean serial run exactly.
#[test]
fn corrupted_batch_item_is_salvaged_per_item() {
    let model = tiny_model();
    let shape = model.network.input_shape();
    let wrong = Shape3::new(shape.channels + 1, shape.rows, shape.cols);
    let inputs = vec![
        synth_image(shape, 0),
        synth_image(wrong, 1), // corrupted: wrong channel count
        synth_image(shape, 2),
    ];
    let inferencer = Inferencer::new(&model)
        .engine(Engine::Abm)
        .parallelism(Parallelism::Threads(2));
    let prepared = inferencer.prepare().unwrap();
    let results = inferencer.run_batch_salvage(&prepared, &inputs, None);
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert!(
        matches!(results[1], Err(AbmError::ShapeMismatch { .. })),
        "bad item must fail alone, got {:?}",
        results[1]
    );
    assert!(results[2].is_ok());

    // Salvaged items match a clean run bit-identically.
    let clean = inferencer
        .run_batch(&[inputs[0].clone(), inputs[2].clone()])
        .unwrap();
    assert_eq!(results[0].as_ref().unwrap().logits, clean[0].logits);
    assert_eq!(results[2].as_ref().unwrap().logits, clean[1].logits);

    // The fail-fast path reports the same corruption as a hard error.
    assert!(matches!(
        inferencer.run_batch(&inputs),
        Err(AbmError::ShapeMismatch { .. })
    ));
}

/// Regression: an input plane too large for 32-bit flat offsets is a
/// typed error, not a panic (the overflow used to be unchecked).
#[test]
fn flat_offset_overflow_is_a_typed_error() {
    let weights = Tensor4::from_fn(Shape4::new(1, 2, 1, 1), |_, _, _, _| 1i8);
    let code = LayerCode::encode(&weights).unwrap();
    // plane = 2^16 * 2^16 = 2^32, so channel n = 1 lands past u32::MAX.
    let layout = FlatLayout {
        in_rows: 1 << 16,
        in_cols: 1 << 16,
        stride: 1,
        pad: 0,
    };
    match FlatCode::lower(&code, layout) {
        Err(EncodeError::OffsetOverflow { offset }) => {
            assert!(offset > u32::MAX as usize);
        }
        other => panic!("expected OffsetOverflow, got {other:?}"),
    }
    // And the conversion into the unified error type is lossless.
    let e = AbmError::from(FlatCode::lower(&code, layout).unwrap_err());
    assert!(e.to_string().contains("offset"), "unhelpful error: {e}");
}

/// The telemetry fault track records the whole injected → detected →
/// recovered lifecycle for a campaign.
#[test]
fn campaign_telemetry_records_fault_lifecycle() {
    use abm_spconv_repro::telemetry::{Event, FaultAction};
    let sink = TelemetrySink::new();
    let report = run_campaign(&CampaignConfig::net("tiny"), &sink).unwrap();
    assert!(report.is_clean(), "\n{}", report.summary_table());
    let events = sink.events();
    let count = |action: FaultAction| {
        events
            .iter()
            .filter(|e| matches!(e, Event::Fault { action: a, .. } if *a == action))
            .count()
    };
    // Ten classes plus the two pipelined dataflow trials.
    assert_eq!(count(FaultAction::Injected), FaultClass::ALL.len() + 2);
    // Every detected trial also recorded a recovery.
    assert_eq!(count(FaultAction::Detected), count(FaultAction::Recovered));
    assert_eq!(
        count(FaultAction::Detected),
        report.count(FaultOutcome::DetectedRecovered)
    );
}
