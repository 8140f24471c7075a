//! Property-based cross-crate invariants (proptest).

use alf::baselines::api::chained_cost;
use alf::core::autoencoder::WeightAutoencoder;
use alf::core::{ConvShape, NetworkCost, PruneSchedule};
use alf::data::{decode_dataset, encode_dataset, SynthVision};
use alf::hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper};
use alf::nn::activation::ActivationKind;
use alf::nn::ste;
use alf::tensor::init::Init;
use alf::tensor::ops::gemm::{KC, NC};
use alf::tensor::ops::{
    col2im, conv2d, conv_gemm_into, gemm_active_rows_into, gemm_i8_into, gemm_into, im2col,
    im2col_i8_into, im2col_into, matmul, matmul_at, matmul_bt, reference, ActiveRows, Conv2dSpec,
    Workspace,
};
use alf::tensor::rng::Rng;
use alf::tensor::Tensor;
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..5, 1usize..5, 1usize..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- tensor algebra ---------------------------------------------------

    #[test]
    fn matmul_is_linear_in_first_argument((m, k, n) in small_dims(), seed in 0u64..1000, alpha in -2.0f32..2.0) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let lhs = matmul(&a.scale(alpha), &b).unwrap();
        let rhs = matmul(&a, &b).unwrap().scale(alpha);
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    #[test]
    fn matmul_transpose_variants_agree((m, k, n) in small_dims(), seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[k, m], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let via_at = matmul_at(&a, &b).unwrap();
        let via_explicit = matmul(&a.transpose2().unwrap(), &b).unwrap();
        prop_assert!(via_at.allclose(&via_explicit, 1e-4));
        let c = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let d = Tensor::randn(&[n, k], Init::Rand, &mut rng);
        let via_bt = matmul_bt(&c, &d).unwrap();
        let via_explicit = matmul(&c, &d.transpose2().unwrap()).unwrap();
        prop_assert!(via_bt.allclose(&via_explicit, 1e-4));
    }

    #[test]
    fn conv2d_is_linear(seed in 0u64..1000, alpha in -2.0f32..2.0,
                        n in 1usize..3, ci in 1usize..4, co in 1usize..4,
                        k in 1usize..4, side in 4usize..8) {
        let spec = Conv2dSpec::new(k, 1, k / 2);
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[n, ci, side, side], Init::Rand, &mut rng);
        let w = Tensor::randn(&[co, ci, k, k], Init::Rand, &mut rng);
        let lhs = conv2d(&x.scale(alpha), &w, None, spec).unwrap();
        let rhs = conv2d(&x, &w, None, spec).unwrap().scale(alpha);
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col(seed in 0u64..1000, ci in 1usize..4,
                                   k in 1usize..4, stride in 1usize..3, side in 5usize..9) {
        let spec = Conv2dSpec::new(k, stride, k / 2);
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[1, ci, side, side], Init::Rand, &mut rng);
        let cols = im2col(&x, spec).unwrap();
        let y = Tensor::randn(cols.dims(), Init::Rand, &mut rng);
        let lhs = cols.dot(&y).unwrap();
        let back = col2im(&y, 1, ci, side, side, spec).unwrap();
        let rhs = x.dot(&back).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    // ---- ALF mechanics ----------------------------------------------------

    #[test]
    fn clip_zeroes_exactly_the_dead_zone(m in proptest::collection::vec(-1.0f32..1.0, 1..16),
                                         t in 0.0f32..0.5) {
        let tensor = Tensor::from_vec(m.clone(), &[m.len()]).unwrap();
        let clipped = ste::clip_tensor(&tensor, t);
        for (orig, out) in m.iter().zip(clipped.data()) {
            if orig.abs() > t {
                prop_assert_eq!(*out, *orig);
            } else {
                prop_assert_eq!(*out, 0.0);
            }
        }
        let zf = ste::zero_fraction(&tensor, t);
        let expected = m.iter().filter(|v| v.abs() <= t).count() as f32 / m.len() as f32;
        prop_assert_eq!(zf, expected);
    }

    #[test]
    fn masked_code_channels_are_zero_under_any_mask(seed in 0u64..500,
                                                    mask_bits in 1u32..15) {
        let mut rng = Rng::new(seed);
        let mut ae = WeightAutoencoder::new(2, 4, 3, Init::Xavier, ActivationKind::Tanh, 0.5, &mut rng);
        // Drive mask entries inside/outside the dead zone per the bit mask.
        for j in 0..4 {
            let alive = (mask_bits >> j) & 1 == 1;
            ae.set_mask_value(j, if alive { 1.0 } else { 0.1 });
        }
        let w = Tensor::randn(&[4, 2, 3, 3], Init::He, &mut rng);
        let code = ae.code(&w).unwrap();
        let fan = 18;
        for j in 0..4 {
            let alive = (mask_bits >> j) & 1 == 1;
            let row_zero = code.data()[j * fan..(j + 1) * fan].iter().all(|&v| v == 0.0);
            prop_assert_eq!(!alive, row_zero, "channel {} alive={}", j, alive);
        }
    }

    #[test]
    fn nu_prune_is_bounded_and_decreasing(slope in 1.0f32..10.0, pr in 0.0f32..1.0,
                                          theta in 0.0f32..1.0) {
        let s = PruneSchedule::new(slope, pr);
        let nu = s.nu(theta);
        prop_assert!((0.0..=1.0).contains(&nu));
        prop_assert!(s.nu((theta + 0.05).min(1.0)) <= nu + 1e-6);
    }

    #[test]
    fn eq2_bound_is_the_break_even_point(ci in 1usize..64, co in 1usize..64, k in 1usize..6) {
        let shape = ConvShape::new("l", ci, co, k, 1, 8, 8);
        let bound = shape.c_code_max();
        if bound >= 1 {
            prop_assert!(shape.alf_ops(bound) <= shape.ops());
        }
        prop_assert!(shape.alf_ops(bound + 1) > shape.ops());
    }

    // ---- baselines ----------------------------------------------------------

    #[test]
    fn chained_cost_never_exceeds_full_cost(keeps in proptest::collection::vec(1usize..8, 3)) {
        let shapes = vec![
            ConvShape::new("a", 3, 8, 3, 1, 8, 8),
            ConvShape::new("b", 8, 8, 3, 1, 8, 8),
            ConvShape::new("c", 8, 8, 3, 2, 4, 4),
        ];
        let cost = chained_cost(&shapes, &keeps);
        let full = NetworkCost::of_layers(&shapes);
        prop_assert!(cost.params <= full.params);
        prop_assert!(cost.macs <= full.macs);
        // Monotone: keeping more filters never reduces cost.
        let mut more = keeps.clone();
        more[1] = (more[1] + 1).min(8);
        let cost_more = chained_cost(&shapes, &more);
        prop_assert!(cost_more.params >= cost.params);
    }

    // ---- accelerator model ----------------------------------------------------

    #[test]
    fn mapper_results_are_sane_for_random_layers(ci in 1usize..32, co in 1usize..32,
                                                 k in 1usize..4, side in 4usize..17) {
        let mapper = Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary);
        let w = ConvWorkload::from_shape(&ConvShape::new("l", ci, co, k, 1, side, side), 4);
        let r = mapper.search(&w).unwrap();
        prop_assert!(r.cost.total_energy() > 0.0);
        prop_assert!(r.cost.latency_cycles > 0.0);
        prop_assert!(r.cost.utilization > 0.0 && r.cost.utilization <= 1.0);
        // RF accesses follow the dataflow's per-MAC constant exactly.
        prop_assert_eq!(r.cost.rf_accesses, w.macs() as f64 * 3.0);
        // Fundamental lower bound: every input/weight/output word must cross
        // DRAM at least once.
        let min_dram = (w.input_words() + w.weight_words() + w.output_words()) as f64;
        prop_assert!(r.cost.dram_accesses >= min_dram - 1.0);
    }

    // ---- extensions -----------------------------------------------------------

    #[test]
    fn quantizer_error_bounded_by_half_step(values in proptest::collection::vec(-10.0f32..10.0, 1..64),
                                            bits in 2u8..12) {
        use alf::core::quant::Quantizer;
        let t = Tensor::from_vec(values.clone(), &[values.len()]).unwrap();
        let q = Quantizer::fit(&t, bits).unwrap();
        for &v in t.data() {
            let err = (q.round_trip(v) - v).abs();
            prop_assert!(err <= q.scale / 2.0 + 1e-5, "err {} step {}", err, q.scale);
        }
    }

    #[test]
    fn checkpoint_round_trips_for_any_width(width in 2usize..6, seed in 0u64..100) {
        use alf::core::checkpoint;
        use alf::core::models::plain20;
        use alf::nn::{Layer, RunCtx};
        let mut a = plain20(3, width).unwrap();
        let blob = checkpoint::save(&a);
        let mut b = plain20(3, width).unwrap();
        checkpoint::load(&mut b, &blob).unwrap();
        let x = Tensor::randn(&[1, 3, 8, 8], Init::Rand, &mut Rng::new(seed));
        prop_assert_eq!(
            a.forward(&x, &mut RunCtx::eval()).unwrap(),
            b.forward(&x, &mut RunCtx::eval()).unwrap()
        );
    }

    #[test]
    fn augment_preserves_shape_and_determinism(seed in 0u64..200, hflip in 0.0f32..1.0,
                                               shift in 0usize..3) {
        use alf::data::Augment;
        let policy = Augment { hflip_prob: hflip, max_shift: shift, noise: 0.01 };
        let run = || {
            let mut b = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 13) as f32);
            policy.apply(&mut b, &mut Rng::new(seed)).unwrap();
            b
        };
        let a = run();
        prop_assert_eq!(a.dims(), &[2, 3, 8, 8]);
        prop_assert_eq!(a, run());
    }

    #[test]
    fn geometric_median_stays_in_bounding_box(points in proptest::collection::vec(
        proptest::collection::vec(-5.0f32..5.0, 3), 1..10)) {
        let m = alf::baselines::geometric_median(&points, 100, 1e-5);
        for d in 0..3 {
            let lo = points.iter().map(|p| p[d]).fold(f32::INFINITY, f32::min);
            let hi = points.iter().map(|p| p[d]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(m[d] >= lo - 1e-3 && m[d] <= hi + 1e-3,
                         "dim {}: {} outside [{}, {}]", d, m[d], lo, hi);
        }
    }

    // ---- data ---------------------------------------------------------------

    #[test]
    fn dataset_encode_decode_round_trips(seed in 0u64..500, train in 1usize..12,
                                         test in 1usize..8, classes in 1usize..5) {
        let d = SynthVision::cifar_like(seed)
            .with_image_size(8)
            .with_max_shift(1)
            .with_num_classes(classes)
            .with_train_size(train)
            .with_test_size(test)
            .build()
            .unwrap();
        let decoded = decode_dataset(encode_dataset(&d)).unwrap();
        prop_assert_eq!(d, decoded);
    }
}

// ---- blocked GEMM vs the seed loops ----------------------------------------
//
// The blocked kernel must agree with `reference::matmul` (the preserved
// seed implementation) on arbitrary shapes — including dimensions of 1 and
// sizes straddling the MR/NR/KC block boundaries — and must produce
// *bitwise identical* results for every worker-thread count, since each
// `C` element is accumulated by exactly one worker in a fixed order.

/// Relative Frobenius error between two buffers.
fn rel_err(got: &[f32], want: &[f32]) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&g, &w) in got.iter().zip(want.iter()) {
        num += f64::from(g - w) * f64::from(g - w);
        den += f64::from(w) * f64::from(w);
    }
    (num / den.max(1e-30)).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_gemm_matches_reference_across_shapes(
        m in 1usize..40, k in 1usize..70, n in 1usize..40, seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let want = reference::matmul(&a, &b).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; m * n];
        gemm_into(&mut c, a.data(), false, b.data(), false, m, k, n, &mut ws, 1);
        prop_assert!(rel_err(&c, want.data()) < 1e-4,
                     "blocked vs reference diverge at {}x{}x{}", m, k, n);
    }

    #[test]
    fn blocked_gemm_transpose_flags_match_reference(
        m in 1usize..20, k in 1usize..40, n in 1usize..20,
        flags in 0u32..4, seed in 0u64..1000) {
        let (ta, tb) = (flags & 1 != 0, flags & 2 != 0);
        let mut rng = Rng::new(seed);
        // Stored layout honours the transpose flag; the product is always [m,n].
        let adims = if ta { [k, m] } else { [m, k] };
        let bdims = if tb { [n, k] } else { [k, n] };
        let a = Tensor::randn(&adims, Init::Rand, &mut rng);
        let b = Tensor::randn(&bdims, Init::Rand, &mut rng);
        let a_eff = if ta { a.transpose2().unwrap() } else { a.clone() };
        let b_eff = if tb { b.transpose2().unwrap() } else { b.clone() };
        let want = reference::matmul(&a_eff, &b_eff).unwrap();
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; m * n];
        gemm_into(&mut c, a.data(), ta, b.data(), tb, m, k, n, &mut ws, 1);
        prop_assert!(rel_err(&c, want.data()) < 1e-4,
                     "ta={} tb={} diverges at {}x{}x{}", ta, tb, m, k, n);
    }

    #[test]
    fn blocked_gemm_is_bitwise_deterministic_across_thread_counts(
        // m spans two MC=128 row blocks so multi-worker splits actually engage.
        m in 129usize..200, k in 1usize..48, n in 1usize..24, seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let mut ws = Workspace::new();
        let mut base = vec![0.0f32; m * n];
        gemm_into(&mut base, a.data(), false, b.data(), false, m, k, n, &mut ws, 1);
        for threads in [2usize, 3, 8] {
            let mut c = vec![0.0f32; m * n];
            gemm_into(&mut c, a.data(), false, b.data(), false, m, k, n, &mut ws, threads);
            let bitwise_equal = base
                .iter()
                .zip(c.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            prop_assert!(bitwise_equal,
                         "threads={} changes bits at {}x{}x{}", threads, m, k, n);
        }
    }
}

/// One convolution of `fused_conv_gemm_is_bitwise_the_im2col_route`.
#[derive(Debug)]
struct FusedConv {
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    m: usize,
    /// The surviving filters of the row-gathered comparison.
    live: Vec<usize>,
    seed: u64,
    /// Int8 operands at ±127 instead of a spread of small values.
    extreme: bool,
}

/// `conv_gemm_into` against the route it replaces — `im2col*_into` +
/// `gemm*_into`, i.e. the packed driver on an unfolded matrix — bit for
/// bit: f32 dense, f32 under the live-row subset, and int8. `ws` is the
/// caller's, carried from one geometry to the next as a layer stack carries
/// it, so scratch arrives holding another convolution's data.
fn fused_conv_agrees(case: &FusedConv, ws: &mut Workspace) -> Result<(), TestCaseError> {
    let &FusedConv {
        n,
        ci,
        h,
        w,
        spec,
        m,
        seed,
        extreme,
        ..
    } = case;
    let (ho, wo) = spec.output_hw(h, w);
    let (rows, cols) = (ci * spec.kernel * spec.kernel, n * ho * wo);
    let mut rng = Rng::new(seed);
    let x = Tensor::randn(&[n, ci, h, w], Init::Rand, &mut rng);
    let a = Tensor::randn(&[m, rows], Init::Rand, &mut rng);
    let live = ActiveRows::from_indices(case.live.clone(), m).unwrap();
    let dims = [n, ci, h, w];
    let same_bits = |w: &[f32], g: &[f32]| w.iter().zip(g).all(|(w, g)| w.to_bits() == g.to_bits());

    let mut unfolded = vec![0.0f32; rows * cols];
    im2col_into(&mut unfolded, &x, spec).unwrap();
    let mut want = vec![0.0f32; m * cols];
    let mut got = vec![f32::NAN; m * cols];
    gemm_into(
        &mut want,
        a.data(),
        false,
        &unfolded,
        false,
        m,
        rows,
        cols,
        ws,
        1,
    );
    conv_gemm_into(&mut got, a.data(), x.data(), m, dims, spec, None, ws, 1);
    prop_assert!(same_bits(&want, &got), "dense: {:?}", case);

    gemm_active_rows_into(
        &mut want,
        a.data(),
        &unfolded,
        false,
        m,
        rows,
        cols,
        &live,
        ws,
        1,
    );
    got.fill(f32::NAN);
    conv_gemm_into(
        &mut got,
        a.data(),
        x.data(),
        m,
        dims,
        spec,
        Some(&live),
        ws,
        1,
    );
    prop_assert!(same_bits(&want, &got), "rows: {:?}", case);

    let quantize = |t: &Tensor| -> Vec<i8> {
        let q = |v: &f32| {
            if extreme {
                127 * v.signum() as i8
            } else {
                (v * 60.0) as i8
            }
        };
        t.data().iter().map(q).collect()
    };
    let (x8, a8) = (quantize(&x), quantize(&a));
    let mut unfolded8 = vec![0i8; rows * cols];
    im2col_i8_into(&mut unfolded8, &x8, n, ci, h, w, spec);
    let mut want8 = vec![0i32; m * cols];
    let mut got8 = vec![i32::MIN; m * cols];
    gemm_i8_into(&mut want8, &a8, &unfolded8, m, rows, cols, ws);
    conv_gemm_into(&mut got8, &a8, &x8, m, dims, spec, None, ws, 1);
    prop_assert!(want8 == got8, "i8: {:?}", case);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The forward-only convolution never unfolds: it packs its `B` panels
    /// straight from the `NCHW` input, or — stride 1, k ≥ 2, AVX2 — packs
    /// none and runs the explicit tile on a zero-bordered copy. Either way
    /// the product must be *bitwise* the im2col + GEMM one.
    ///
    /// Every case runs one free draw over all strides, kernels and pads
    /// (the `deep` / `wide` flags force the depth past one `KC` slab and
    /// the column count past one `NC` strip; the narrow shapes have output
    /// rows shorter than a panel, down to 1, and column counts that are no
    /// multiple of `NR`, so single panels straddle several output rows and
    /// images), then one draw from each family the direct route's tile
    /// placement and flush logic branch on. `m` runs 1–19 throughout, so
    /// row blocks of the six-row tile come out full, ragged and single.
    #[test]
    fn fused_conv_gemm_is_bitwise_the_im2col_route(
        n in 1usize..4, kidx in 0usize..3, stride in 1usize..4, pad in 0usize..3,
        deep in 0usize..2, wide in 0usize..2, ci_extra in 1usize..5, side_extra in 0usize..12,
        m in 1usize..20, keep in proptest::collection::vec(0usize..2, 20), seed in 0u64..1000) {
        let mut ws = Workspace::new();
        let kept: Vec<usize> = (0..m).filter(|&i| keep[i] == 1).collect();
        let base = |ci: usize, h: usize, w: usize, k: usize, pad: usize| FusedConv {
            n, ci, h, w, spec: Conv2dSpec::new(k, 1, pad), m, live: kept.clone(), seed, extreme: false,
        };

        let k = [1usize, 3, 5][kidx];
        let ci = if deep == 1 { KC / (k * k) + ci_extra } else { ci_extra };
        let side = if wide == 1 { 33 * stride + k } else { k + side_extra };
        let spec = Conv2dSpec::new(k, stride, pad);
        let (ho, wo) = spec.output_hw(side, side);
        prop_assert!(deep == 0 || ci * k * k > KC);
        prop_assert!(wide == 0 || n * ho * wo > NC);
        fused_conv_agrees(&FusedConv { spec, ..base(ci, side, side, k, pad) }, &mut ws)?;

        // Two-row tiles: rows of at most one vector, an odd row count so
        // the last tile's partner is off; once more with a single live row.
        let two_row = base(ci_extra, 3 + side_extra / 2 * 2, 1 + side_extra % 8, 3, 1);
        fused_conv_agrees(&two_row, &mut ws)?;
        fused_conv_agrees(&FusedConv { live: vec![seed as usize % m], ..two_row }, &mut ws)?;
        // One-row tiles whose last vector, or last two, are ragged: odd
        // `wo` from 9 to 31, so no multiple of 8 or 16.
        let wo = 9 + 2 * side_extra;
        fused_conv_agrees(&base(ci_extra, 2 + n, wo + 2 - 2 * pad, 3, pad), &mut ws)?;
        // Two flushes: more than 2·KC taps, both slab boundaries inside a
        // channel (KC = 28·9 + 4).
        fused_conv_agrees(&base(2 * KC / 9 + ci_extra, 3 + side_extra % 4, 4, 3, 1), &mut ws)?;
        // 5×5 under every pad the model zoo uses.
        fused_conv_agrees(&base(ci_extra, 5 + side_extra % 5, 5 + side_extra, 5, pad), &mut ws)?;
        // Int8 at full scale over at least one whole slab: the f32-lane
        // accumulation must still be exact.
        let full_scale = FusedConv { extreme: true, ..base(KC / 9 + ci_extra, 4, 9 + side_extra, 3, 1) };
        prop_assert!(full_scale.ci * 9 >= KC);
        fused_conv_agrees(&full_scale, &mut ws)?;
    }
}

/// Degenerate dimensions: a zero-sized operand must yield an all-zero
/// (possibly empty) `C` without panicking, for every flag combination.
#[test]
fn blocked_gemm_handles_empty_dims() {
    let mut ws = Workspace::new();
    for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1)] {
        for flags in 0..4u32 {
            let (ta, tb) = (flags & 1 != 0, flags & 2 != 0);
            let a = vec![0.5f32; m * k];
            let b = vec![0.5f32; k * n];
            let mut c = vec![f32::NAN; m * n];
            gemm_into(&mut c, &a, ta, &b, tb, m, k, n, &mut ws, 1);
            let want = if k == 0 { 0.0 } else { 0.25 * k as f32 };
            assert!(
                c.iter().all(|&v| (v - want).abs() < 1e-5),
                "({m},{k},{n}) ta={ta} tb={tb}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ---- deployment: BN folding ------------------------------------------

    /// Folding batch-norm into conv weights at deploy time must be
    /// numerically equivalent to running the BN layers in f32, for any
    /// random conv→BN→ReLU stack — depth, widths, input size and all
    /// parameters drawn at random, with running statistics populated by
    /// genuine train-mode forwards.
    #[test]
    fn bn_folding_matches_unfolded_pipeline(seed in 0u64..500, depth in 1usize..4,
                                            widths in proptest::collection::vec(2usize..6, 3),
                                            side in 6usize..10) {
        use alf::core::deploy::Pipeline;
        use alf::core::model::{CnnModel, ConvKind, ConvUnit, Unit};
        use alf::nn::conv::Conv2d;
        use alf::nn::linear::Linear;
        use alf::nn::pool::GlobalAvgPool;
        use alf::nn::{Layer, RunCtx};

        let mut rng = Rng::new(seed);
        let mut units = Vec::new();
        let mut c_in = 3usize;
        for d in 0..depth {
            let c_out = widths[d % widths.len()];
            units.push(Unit::Conv(ConvUnit::new(
                format!("conv{d}"),
                ConvKind::Standard(Conv2d::new(c_in, c_out, 3, 1, 1, true, Init::Rand, &mut rng)),
                Some(ActivationKind::Relu),
            )));
            c_in = c_out;
        }
        units.push(Unit::GlobalPool(GlobalAvgPool::new()));
        units.push(Unit::Classifier(Linear::new(c_in, 4, Init::Rand, &mut rng)));
        let mut model = CnnModel::from_units("prop-bn", units, 4).unwrap();

        // Move γ/β off their identity init and populate running stats
        // with train-mode batches, so folding has real work to do.
        for cu in model.conv_units_mut() {
            if let Some(bn) = cu.bn_mut() {
                let c = bn.channels();
                *bn.scale_mut() = Tensor::randn(&[c], Init::Rand, &mut rng).map(|v| 1.0 + 0.3 * v);
                *bn.shift_mut() = Tensor::randn(&[c], Init::Rand, &mut rng).scale(0.2);
            }
        }
        let mut train_ctx = RunCtx::train();
        for _ in 0..3 {
            let batch = Tensor::randn(&[4, 3, side, side], Init::Rand, &mut rng);
            model.forward(&batch, &mut train_ctx).unwrap();
        }

        let mut unfolded = Pipeline::new().run(&model).unwrap().model;
        let mut folded = Pipeline::new().fold_bn(true).run(&model).unwrap().model;
        prop_assert!(folded.conv_units().iter().all(|u| u.bn().is_none()));

        let x = Tensor::randn(&[2, 3, side, side], Init::Rand, &mut rng);
        let y_bn = unfolded.forward(&x, &mut RunCtx::eval()).unwrap();
        let y_fold = folded.forward(&x, &mut RunCtx::eval()).unwrap();
        prop_assert!(y_bn.allclose(&y_fold, 1e-4),
                     "folded output diverges (depth {depth}, side {side})");
    }
}
