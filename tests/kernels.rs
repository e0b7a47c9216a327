//! Differential and regression tests for the runtime-dispatched kernel
//! variants (`abm-kernel`): every variant the CPU can execute is forced
//! through the `ABM_FORCE_ISA` environment pin and checked bit-identical
//! against the interpretive `abm::reference` oracle, and the
//! verifier-proven narrow-accumulator (`i32`) path is pinned to exact
//! integers on an AlexNet layer. The kernels' lane pitch — what lets a
//! fully-connected layer sweep across a batch from its one offset
//! stream — is checked column by column against the one-position oracle.
//!
//! Environment-variable mutation is process-global; every test that
//! writes `ABM_FORCE_ISA` does so under [`ENV_LOCK`] and restores the
//! variable before releasing it. Tests that pin a variant explicitly
//! (`try_new(.., Some(isa))`) are immune — an explicit pin
//! outranks the environment.

use abm_spconv_repro::conv::abm::{self, PreparedConv};
use abm_spconv_repro::conv::Geometry;
use abm_spconv_repro::kernel::{self, gather_one, AccWidth, Isa, FORCE_ISA_ENV};
use abm_spconv_repro::model::{
    synthesize_model, ConvSpec, Layer, LayerKind, LayerProfile, Network, PruneProfile, SparseLayer,
};
use abm_spconv_repro::sparse::{FlatKernel, LayerCode};
use abm_spconv_repro::tensor::{Shape3, Shape4, Tensor3, Tensor4};
use abm_spconv_repro::verify::AccumulatorModel;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes every `ABM_FORCE_ISA` writer in this test binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `ABM_FORCE_ISA` set to `value`, restoring the previous
/// state before returning. The selection is latched at `PreparedConv`
/// construction, so `f` should build and return the prepared layer;
/// executing it afterwards no longer reads the environment.
fn with_forced_isa<T>(value: &str, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let saved = std::env::var(FORCE_ISA_ENV).ok();
    std::env::set_var(FORCE_ISA_ENV, value);
    let out = f();
    match saved {
        Some(v) => std::env::set_var(FORCE_ISA_ENV, v),
        None => std::env::remove_var(FORCE_ISA_ENV),
    }
    out
}

/// Deterministic i16 activations (the bench harness's LCG family).
fn synth_input(shape: Shape3) -> Tensor3<i16> {
    let mut state = 0x9e37_79b9_u64;
    Tensor3::from_fn(shape, |_, _, _| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 33) % 256) as i16 - 128
    })
}

/// One synthesized sparse conv layer with AlexNet CONV3's geometry
/// (256→384 channels, 3×3, stride 1, pad 1 over a 13×13 plane).
fn alexnet_conv3() -> SparseLayer {
    let mut net = Network::new("alexnet-conv3", Shape3::new(256, 13, 13));
    net.push(Layer::new(
        "CONV3",
        LayerKind::Conv(ConvSpec::new(256, 384, 3, 1, 1)),
    ));
    let profile = PruneProfile::uniform(LayerProfile::new(0.65, 16));
    let model = synthesize_model(&net, &profile, 2019);
    model.layers.into_iter().next().expect("one layer")
}

/// The environment pin must route dispatch: every available variant,
/// forced via `ABM_FORCE_ISA`, is what the prepared layer actually
/// selects (vector pins keep the verifier-proven `i32` packing), and
/// all of them produce bit-identical outputs. A typo'd pin must fail
/// construction, not silently fall back.
#[test]
fn forced_isa_env_routes_dispatch() {
    let layer = alexnet_conv3();
    let geom = Geometry::new(1, 1);
    let code = LayerCode::encode(&layer.weights).expect("encodable");
    let in_shape = layer.layer.input_shape;
    let input = synth_input(in_shape);

    let mut outputs = Vec::new();
    for isa in Isa::detect_all() {
        let prep = with_forced_isa(isa.name(), || {
            PreparedConv::try_new(code.clone(), in_shape, geom, None).expect("preparable")
        });
        let sel = prep.selection();
        if isa == Isa::Scalar {
            assert_eq!(sel.acc, AccWidth::I64, "scalar runs the i64 port");
        } else {
            assert_eq!(sel.isa, isa, "env pin must route to the forced variant");
            assert_eq!(sel.acc, AccWidth::I32, "vector pin keeps the narrow proof");
        }
        outputs.push((isa, prep.execute(&input)));
    }
    for pair in outputs.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
    }

    let err = with_forced_isa("avx9000", || {
        PreparedConv::try_new(code.clone(), in_shape, geom, None).unwrap_err()
    });
    assert!(
        err.to_string().contains("unknown ISA"),
        "typo'd pin must surface: {err}"
    );
}

/// The narrow-accumulator regression: AlexNet CONV3's worst-case
/// stage-1 magnitude provably fits `i32` (the verifier's bound, not
/// luck), so vector variants take the narrow packing — and the result
/// is pinned to exact integers so any cross-machine or cross-variant
/// drift fails loudly.
#[test]
fn narrow_accumulator_path_is_exact_on_alexnet_conv3() {
    let layer = alexnet_conv3();
    let geom = Geometry::new(1, 1);
    let code = LayerCode::encode(&layer.weights).expect("encodable");
    let in_shape = layer.layer.input_shape;
    let input = synth_input(in_shape);

    let scalar =
        PreparedConv::try_new(code.clone(), in_shape, geom, Some(Isa::Scalar)).expect("preparable");
    let counts = scalar
        .flat()
        .kernels()
        .iter()
        .flat_map(FlatKernel::group_counts);
    let bits = AccumulatorModel::host().stage1_required_bits(counts);
    assert!(
        bits <= 32,
        "CONV3's stage-1 worst case must fit i32 (got {bits} bits)"
    );

    let out = scalar.execute(&input);
    // Exact-integer pins: a wrapping sum and an FNV-1a fold over the
    // raw output words. Deterministic input + deterministic synthesis
    // ⇒ identical on every machine and every kernel variant.
    let sum = out.as_slice().iter().fold(0i64, |a, &x| a.wrapping_add(x));
    let fnv = out
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &x| {
            (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(sum, SUM_PIN, "wrapping-sum pin diverged");
    assert_eq!(fnv, FNV_PIN, "FNV pin diverged");

    for isa in Isa::detect_all() {
        let prep =
            PreparedConv::try_new(code.clone(), in_shape, geom, Some(isa)).expect("preparable");
        if isa != Isa::Scalar {
            assert_eq!(prep.selection().acc, AccWidth::I32, "{isa}");
        }
        assert_eq!(prep.execute(&input), out, "{isa} diverged from scalar");
    }
}

/// A lane buffer `[feature][lane]` swept at its pitch is every column's
/// own fully-connected row: for every detected ISA, at the one-vector
/// and the block width, pitches that are one vector, one block and more
/// than a block (72: a base past the first block's columns), each
/// column of a pitched call equals [`gather_one`] over that column
/// pulled out as an image's plain feature vector — full-range `i16`
/// inputs, the magnitudes the `i32` proof admits. `out` past the call's
/// width stays untouched, and the furthest legal base reads the
/// buffer's last element.
#[test]
fn pitched_kernels_equal_the_oracle_column_by_column() {
    let features = 300usize;
    let mut state = 0x1a2e_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let values: Vec<i8> = vec![-7, -2, 1, 3, 9];
    let mut starts = vec![0u32];
    let mut offsets = Vec::new();
    for _ in &values {
        let mut group: Vec<u32> = (0..40).map(|_| next() % features as u32).collect();
        group.sort_unstable();
        group.dedup();
        offsets.extend_from_slice(&group);
        starts.push(offsets.len() as u32);
    }
    // The last feature is read, so the last legal base is `pitch - n`.
    offsets[0] = features as u32 - 1;
    let mut partials = vec![0i64; values.len()];
    for pitch in [8usize, 16, 64, 72] {
        let lanes: Vec<i16> = (0..features * pitch)
            .map(|_| (next() % 65536) as i16)
            .collect();
        let oracle: Vec<i64> = (0..pitch)
            .map(|column| {
                let image: Vec<i16> = lanes.chunks_exact(pitch).map(|row| row[column]).collect();
                gather_one(&values, &starts, &offsets, &image, 0, &mut partials)
            })
            .collect();
        for isa in Isa::detect_all() {
            let kern = kernel::resolve(kernel::select(Some(isa), 32).expect("selects"));
            for blocked in [false, true] {
                let n = kern.lanes() * if blocked { kern.block() } else { 1 };
                if n > pitch {
                    continue;
                }
                for base in [0, pitch - n] {
                    let mut out = vec![i64::MIN; n + 2];
                    let (v, s, o) = (&values[..], &starts[..], &offsets[..]);
                    if blocked {
                        kern.gather_block_pitched(v, s, o, &lanes, base, pitch, &mut out);
                    } else {
                        kern.gather_unit_pitched(v, s, o, &lanes, base, pitch, &mut out);
                    }
                    let what = format!("{isa} x{n} pitch {pitch} base {base}");
                    assert_eq!(&out[..n], &oracle[base..base + n], "{what}");
                    assert!(out[n..].iter().all(|&x| x == i64::MIN), "{what}");
                }
            }
        }
    }
}

/// Golden values for `narrow_accumulator_path_is_exact_on_alexnet_conv3`
/// (recorded from the scalar port; every variant must reproduce them).
const SUM_PIN: i64 = 4132181;
const FNV_PIN: u64 = 10081456650955724138;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every compiled variant, forced through the environment pin,
    /// is bit-identical to the interpretive reference across strides,
    /// pads, groups, sparsity and weight bit-widths — output and work
    /// counts both. Planes reach 27×27 so that sweeps of several
    /// register blocks (64 positions on AVX-512) are drawn, not only
    /// spans under two.
    #[test]
    fn every_variant_matches_reference(
        (cpg, rows, cols, m_per_group, k) in (1usize..4, 4usize..28, 4usize..28, 1usize..4, 1usize..4),
        groups in prop_oneof![Just(1usize), Just(2)],
        stride in 1usize..4,
        pad in 0usize..4,
        zero_tenths in 1u32..10,
        bits in 4u32..9,
        seed in any::<u32>(),
    ) {
        let in_shape = Shape3::new(cpg * groups, rows, cols);
        let w_shape = Shape4::new(m_per_group * groups, cpg, k, k);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state
        };
        let input = Tensor3::from_fn(in_shape, |_, _, _| (next() % 255) as i16 - 127);
        let limit = (1u32 << (bits - 1)) - 1;
        let weights = Tensor4::from_fn(w_shape, |_, _, _, _| {
            if next() % 10 < zero_tenths {
                0
            } else {
                ((next() % (2 * limit + 1)) as i32 - limit as i32) as i8
            }
        });
        let geom = Geometry::new(stride, pad).with_groups(groups);
        let code = LayerCode::encode(&weights).unwrap();
        let (ref_out, ref_work) = abm::reference::conv2d_counted(&input, &code, geom).unwrap();
        for isa in Isa::detect_all() {
            let prep = with_forced_isa(isa.name(), || {
                PreparedConv::try_new(code.clone(), in_shape, geom, None).unwrap()
            });
            let (out, work) = (prep.execute(&input), prep.work());
            prop_assert_eq!(&ref_out, &out, "{} output", isa);
            prop_assert_eq!(ref_work, work, "{} work", isa);
        }
    }
}
