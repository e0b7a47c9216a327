//! Property-based tests (proptest) over the core data structures and
//! invariants that cut across crates.

use abm_spconv_repro::conv::{abm, dense, gemm, sparse, Geometry};
use abm_spconv_repro::sim::lane;
use abm_spconv_repro::sim::sched::{schedule_window, SchedulingPolicy};
use abm_spconv_repro::sparse::{CsrKernel, KernelCode, LayerCode};
use abm_spconv_repro::tensor::fixed::{round_shift, saturate};
use abm_spconv_repro::tensor::{QFormat, Rounding, Shape3, Shape4, Tensor3, Tensor4};
use proptest::prelude::*;

fn kernel_strategy(max_len: usize) -> impl Strategy<Value = Vec<i8>> {
    prop::collection::vec(prop_oneof![3 => Just(0i8), 2 => any::<i8>()], 1..max_len)
}

proptest! {
    #[test]
    fn encode_decode_round_trip(kernel in kernel_strategy(256)) {
        let code = KernelCode::encode(&kernel).unwrap();
        prop_assert_eq!(code.decode(kernel.len()), kernel);
    }

    #[test]
    fn encode_totals_consistent(kernel in kernel_strategy(256)) {
        let code = KernelCode::encode(&kernel).unwrap();
        let nnz = kernel.iter().filter(|&&w| w != 0).count();
        prop_assert_eq!(code.total() as usize, nnz);
        prop_assert_eq!(
            code.entries().iter().map(|e| e.count as usize).sum::<usize>(),
            nnz
        );
        prop_assert!(code.distinct() <= nnz.min(255));
        // Groups are disjoint and cover all indices.
        let mut seen = vec![false; kernel.len()];
        for (_, idxs) in code.groups() {
            for &i in idxs {
                prop_assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
    }

    #[test]
    fn csr_round_trip(kernel in kernel_strategy(256)) {
        let csr = CsrKernel::encode(&kernel);
        prop_assert_eq!(csr.decode(kernel.len()), kernel);
    }

    /// Equation (2) one layer at a time: ABM, im2col + GEMM and CSR
    /// SpConv each equal the dense reference bit for bit.
    #[test]
    fn abm_equals_dense_on_random_layers(
        (channels, rows, m, k) in (1usize..4, 3usize..8, 1usize..5, 1usize..4),
        seed in any::<u32>(),
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let in_shape = Shape3::new(channels, rows, rows);
        let w_shape = Shape4::new(m, channels, k, k);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state
        };
        let input = Tensor3::from_fn(in_shape, |_, _, _| (next() % 255) as i16 - 127);
        let weights = Tensor4::from_fn(w_shape, |_, _, _, _| {
            let v = next() % 100;
            if v < 60 { 0 } else { (v % 31) as i8 - 15 }
        });
        let geom = Geometry::new(stride, pad);
        let reference = dense::conv2d(&input, &weights, geom);
        let code = LayerCode::encode(&weights).unwrap();
        let result = abm::conv2d(&input, &code, geom).unwrap();
        prop_assert_eq!(&reference, &result);
        prop_assert_eq!(&reference, &gemm::conv2d(&input, &weights, geom));
        let csr = CsrKernel::encode_layer(&weights);
        prop_assert_eq!(&reference, &sparse::conv2d(&input, &csr, w_shape, geom));
    }

    #[test]
    fn prepared_abm_matches_reference_exactly(
        (cpg, rows, cols, m_per_group, k) in (1usize..4, 4usize..10, 4usize..10, 1usize..4, 1usize..4),
        groups in prop_oneof![Just(1usize), Just(2), Just(4)],
        stride in 1usize..3,
        pad in 0usize..4,
        zero_tenths in 1u32..10,
        bits in 4u32..9,
        seed in any::<u32>(),
    ) {
        // The prepared hot path (flat offsets, re-laid-out input,
        // analytic accounting) must be bit-identical to the interpretive
        // reference — output AND work counts — across strides, pads,
        // groups, sparsity 0.1–0.9 and 4–8-bit quantized values.
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
        let prepared = abm::PreparedConv::try_new(code.clone(), in_shape, geom, None).unwrap();
        let (out, work) = (prepared.execute(&input), prepared.work());
        prop_assert_eq!(ref_out, out);
        prop_assert_eq!(ref_work, work);
    }

    #[test]
    fn lane_makespan_bounds(kernel in kernel_strategy(128), n in 1u64..8, depth in 1usize..16) {
        let code = KernelCode::encode(&kernel).unwrap();
        let v = lane::vector_cycles(&code, n, depth);
        let nnz = code.total() as u64;
        let q = code.distinct() as u64;
        // Lower bounds: every index costs one accumulate cycle, every
        // distinct value costs n multiplier cycles.
        prop_assert!(v.makespan >= nnz);
        prop_assert!(v.makespan >= q * n);
        // Upper bound: fully serialized stages.
        prop_assert!(v.makespan <= nnz + q * n + v.acc_stall);
        prop_assert_eq!(v.acc_busy, nnz);
    }

    #[test]
    fn analytic_and_cycle_stepped_lane_models_agree(
        kernel in kernel_strategy(128),
        n in 1u64..8,
        depth in 1usize..16,
    ) {
        use abm_spconv_repro::sim::cycle;
        let code = KernelCode::encode(&kernel).unwrap();
        let analytic = lane::vector_cycles(&code, n, depth);
        let stepped = cycle::vector_cycles_stepped(&code, n, depth);
        prop_assert_eq!(analytic, stepped);
    }

    #[test]
    fn multi_sweep_models_agree_within_bound(
        kernel in kernel_strategy(96),
        vectors in 1u64..12,
        n in 1u64..6,
    ) {
        use abm_spconv_repro::sim::cycle;
        let code = KernelCode::encode(&kernel).unwrap();
        let analytic = lane::lane_cycles(&code, vectors, n, 8);
        let stepped = cycle::lane_cycles_stepped(&code, vectors, n, 8);
        // Steady-state collapse can deviate by a bounded boundary term.
        let slack = 2 * code.distinct() as u64 * n + 2;
        prop_assert!(
            analytic.abs_diff(stepped) <= slack,
            "analytic {} vs stepped {} (slack {})",
            analytic,
            stepped,
            slack
        );
    }

    #[test]
    fn deeper_fifos_never_hurt(kernel in kernel_strategy(128), n in 1u64..6) {
        let code = KernelCode::encode(&kernel).unwrap();
        let shallow = lane::vector_cycles(&code, n, 1);
        let deep = lane::vector_cycles(&code, n, 32);
        prop_assert!(deep.makespan <= shallow.makespan);
        prop_assert!(deep.acc_stall <= shallow.acc_stall);
    }

    #[test]
    fn scheduler_bounds(tasks in prop::collection::vec(1u64..1000, 0..40), n_cu in 1usize..8) {
        let total: u64 = tasks.iter().sum();
        let longest = tasks.iter().copied().max().unwrap_or(0);
        for policy in [SchedulingPolicy::SemiSynchronous, SchedulingPolicy::LockStep] {
            let s = schedule_window(&tasks, n_cu, policy);
            prop_assert_eq!(s.busy, total);
            prop_assert!(s.makespan <= total);
            prop_assert!(s.makespan >= total.div_ceil(n_cu as u64));
            prop_assert!(s.makespan >= longest);
        }
    }

    #[test]
    fn semi_sync_beats_lock_step(tasks in prop::collection::vec(1u64..1000, 0..40), n_cu in 1usize..8) {
        let semi = schedule_window(&tasks, n_cu, SchedulingPolicy::SemiSynchronous);
        let lock = schedule_window(&tasks, n_cu, SchedulingPolicy::LockStep);
        // Greedy list scheduling never loses to per-round barriers when
        // tasks arrive in the same order.
        prop_assert!(semi.makespan <= lock.makespan);
    }

    #[test]
    fn huffman_round_trips_arbitrary_kernels(kernel in kernel_strategy(300)) {
        use abm_spconv_repro::sparse::compress::{compress_layer, decompress_indices};
        use abm_spconv_repro::tensor::Tensor4;
        let len = kernel.len();
        let layer = LayerCode::encode(&Tensor4::from_vec(
            Shape4::new(1, len, 1, 1),
            kernel,
        ))
        .unwrap();
        let compressed = compress_layer(&layer);
        let decoded = decompress_indices(&compressed);
        let expect: Vec<Vec<u16>> =
            layer.kernels()[0].groups().map(|(_, idxs)| idxs.to_vec()).collect();
        prop_assert_eq!(&decoded[0], &expect);
    }

    #[test]
    fn wider_accumulators_never_diverge_more(
        kernel in kernel_strategy(48),
        seed in any::<u32>(),
    ) {
        use abm_spconv_repro::conv::precision::conv2d_saturating;
        use abm_spconv_repro::tensor::Tensor4;
        let len = kernel.len();
        let layer = LayerCode::encode(&Tensor4::from_vec(
            Shape4::new(1, len, 1, 1),
            kernel,
        ))
        .unwrap();
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state
        };
        let input = Tensor3::from_fn(Shape3::new(len, 1, 1), |_, _, _| {
            (next() % 255) as i16 - 127
        });
        let mut last_diverged = u64::MAX;
        for bits in [8u32, 12, 16, 24, 32] {
            let (_, report) = conv2d_saturating(&input, &layer, Geometry::unit(), bits);
            prop_assert!(report.diverged_outputs <= last_diverged);
            last_diverged = report.diverged_outputs;
        }
        prop_assert_eq!(last_diverged, 0, "32-bit must be exact");
    }

    #[test]
    fn quantize_round_trip_is_identity_on_grid(bits in 2u8..16, frac in -8i8..12, raw in any::<i16>()) {
        let fmt = QFormat::new(bits, frac);
        let raw = (raw as i32).clamp(fmt.min_raw(), fmt.max_raw());
        let v = fmt.dequantize(raw);
        prop_assert_eq!(fmt.quantize_f32(v), raw);
    }

    #[test]
    fn round_shift_matches_float(v in -1_000_000i64..1_000_000, shift in 0i32..20) {
        let exact = v as f64 / 2f64.powi(shift);
        let r = round_shift(v, shift, Rounding::NearestTiesAway);
        prop_assert!((r as f64 - exact).abs() <= 0.5 + 1e-12);
        let fl = round_shift(v, shift, Rounding::Floor);
        prop_assert_eq!(fl, exact.floor() as i64);
    }

    #[test]
    fn saturate_is_clamp(v in any::<i64>(), bits in 2u8..31) {
        let fmt = QFormat::new(bits, 0);
        let s = saturate(v, fmt) as i64;
        prop_assert!(s >= fmt.min_raw() as i64 && s <= fmt.max_raw() as i64);
        if v >= fmt.min_raw() as i64 && v <= fmt.max_raw() as i64 {
            prop_assert_eq!(s, v);
        }
    }
}

// Whole random *networks* through two engines are heavier per case;
// run fewer of them.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_networks_run_bit_exact_across_engines(
        seed in any::<u64>(),
        blocks in 1usize..3,
        base_channels in 1usize..5,
        kernel in 1usize..4,
        with_pool in any::<bool>(),
    ) {
        use abm_spconv_repro::conv::{Engine, Inferencer};
        use abm_spconv_repro::model::{
            synthesize_model, ConvSpec, FcSpec, Layer, LayerKind, LayerProfile,
            Network, PoolSpec, PruneProfile,
        };

        // Assemble a random-but-valid CNN.
        let mut net = Network::new("random", Shape3::new(2, 12, 12));
        let mut channels = 2usize;
        let mut spatial = 12usize;
        for b in 0..blocks {
            let out = base_channels * (b + 1);
            let pad = kernel / 2;
            net.push(Layer::new(
                format!("CONV{b}"),
                LayerKind::Conv(ConvSpec::new(channels, out, kernel, 1, pad)),
            ));
            net.push(Layer::new(format!("RELU{b}"), LayerKind::Relu));
            // 'same' conv with kernel=2, pad=1 grows by one pixel.
            spatial = spatial + 2 * pad + 1 - kernel;
            if with_pool && spatial >= 2 {
                net.push(Layer::new(
                    format!("POOL{b}"),
                    LayerKind::Pool(PoolSpec::max(2, 2)),
                ));
                spatial /= 2;
            }
            channels = out;
        }
        net.push(Layer::new(
            "FC",
            LayerKind::FullyConnected(FcSpec::new(channels * spatial * spatial, 5)),
        ));

        let profile = PruneProfile::uniform(LayerProfile::new(0.5, 7));
        let model = synthesize_model(&net, &profile, seed);
        let input = Tensor3::from_fn(Shape3::new(2, 12, 12), |c, r, col| {
            ((c * 144 + r * 12 + col) as i16 * 17) % 250 - 125
        });
        let dense = Inferencer::new(&model).engine(Engine::Dense).run(&input).unwrap();
        let abm = Inferencer::new(&model).engine(Engine::Abm).run(&input).unwrap();
        prop_assert_eq!(&dense.logits, &abm.logits);
    }

    #[test]
    fn engines_agree_over_shapes_sparsity_bits_and_batches(
        seed in any::<u64>(),
        (channels, out_channels, spatial, kernel) in (1usize..4, 1usize..6, 6usize..13, 1usize..4),
        sparsity in 0.1f64..0.9,
        bits in 4u8..9,
        batch in 1usize..5,
        from_float in any::<bool>(),
    ) {
        use abm_spconv_repro::conv::{Engine, Inferencer, Parallelism};
        use abm_spconv_repro::model::{
            synthesize_from_float, synthesize_model, ConvSpec, FcSpec, Layer, LayerKind,
            LayerProfile, Network, PruneProfile,
        };

        // One conv + FC head over a randomized geometry.
        let pad = kernel / 2;
        let out_spatial = spatial + 2 * pad + 1 - kernel;
        let mut net = Network::new("prop", Shape3::new(channels, spatial, spatial));
        net.push(Layer::new(
            "CONV",
            LayerKind::Conv(ConvSpec::new(channels, out_channels, kernel, 1, pad)),
        ));
        net.push(Layer::new("RELU", LayerKind::Relu));
        net.push(Layer::new(
            "FC",
            LayerKind::FullyConnected(FcSpec::new(
                out_channels * out_spatial * out_spatial,
                4,
            )),
        ));

        // `bits`-bit quantization gives at most 2^bits - 2 nonzero
        // codebook levels (one code reserved for zero, one for sign
        // symmetry); the encoder caps distinct values at 254.
        let value_levels = ((1usize << bits) - 2).min(254);
        let profile = PruneProfile::uniform(LayerProfile::new(sparsity, value_levels));
        // Both model-preparation paths must satisfy the invariant: the
        // direct codebook synthesizer and the float-quantization flow.
        let model = if from_float {
            synthesize_from_float(&net, &profile, seed)
        } else {
            synthesize_model(&net, &profile, seed)
        };

        let inputs: Vec<Tensor3<i16>> = (0..batch)
            .map(|i| {
                Tensor3::from_fn(Shape3::new(channels, spatial, spatial), |c, r, col| {
                    ((((c + i) * 239 + r * 23 + col * 7) % 255) as i16) - 127
                })
            })
            .collect();

        let run = |engine: Engine| {
            Inferencer::new(&model)
                .engine(engine)
                .parallelism(Parallelism::Threads(2))
                .run_batch(&inputs)
                .unwrap()
        };
        let dense = run(Engine::Dense);
        let abm = run(Engine::Abm);
        for i in 0..batch {
            prop_assert_eq!(&dense[i].logits, &abm[i].logits);
        }
    }
}
