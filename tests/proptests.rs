//! Property-based cross-crate invariants (proptest).

use alf::baselines::api::chained_cost;
use alf::core::autoencoder::WeightAutoencoder;
use alf::core::{ConvShape, NetworkCost, PruneSchedule};
use alf::hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper};
use alf::nn::activation::ActivationKind;
use alf::nn::ste;
use alf::tensor::init::Init;
use alf::tensor::ops::gemm::{KC, MC, NC, NR};
use alf::tensor::ops::{
    conv2d, conv_gemm_into, conv_input_grad_into, conv_weight_grad_into, gemm_active_rows_into,
    gemm_i8_into, gemm_into, im2col, im2col_i8_into, im2col_into, matmul, matmul_at, matmul_bt,
    reference, requantize, requantize_into, ActiveRows, Conv2dSpec, Workspace,
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
        let mut back = Tensor::zeros(&[1, ci, side, side]);
        reference::col2im_into(back.data_mut(), y.data(), 1, ci, side, side, spec);
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
    fn masked_code_rows_are_zero_under_any_mask(seed in 0u64..500,
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

    /// The int8 engine's store: `requantize_into` (the explicit AVX2 body
    /// over whole 32-element blocks, then the scalar tail) must equal the
    /// scalar `requantize` element for element. Lengths 0–100 run the tail
    /// alone, the body alone and both; the draws reach the i32 extremes,
    /// saturation at ±127, the `0.5 − 2⁻²⁵` rounding edge, and an infinite
    /// `inv_out` (an output scale that underflowed to 0), where a zero
    /// pre-activation — ReLU'd or not — gives `0·∞ = NaN`.
    #[test]
    fn vector_requantize_store_is_bitwise_the_scalar_store(
        len in 0usize..101, relu in 0usize..2, deq_pick in 0usize..3, bias_pick in 0usize..4,
        inv_pick in 0usize..3, seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let below_half = 0.5 - 2.0f32.powi(-25);
        let deq = [0.0, 1.0, rng.uniform(1e-4, 0.05)][deq_pick];
        let bias = [0.0, below_half, -below_half, rng.uniform(-200.0, 200.0)][bias_pick];
        let inv_out = [f32::INFINITY, 1.0, rng.uniform(0.05, 20.0)][inv_pick];
        let relu = relu == 1;
        let acc: Vec<i32> = (0..len)
            .map(|_| match rng.below(5) {
                0 => i32::MIN,
                1 => i32::MAX,
                2 => rng.next_u64() as i32,
                3 => 0,
                _ => rng.below(4001) as i32 - 2000,
            })
            .collect();
        let mut got = vec![i8::MIN; len];
        requantize_into(&mut got, &acc, deq, bias, relu, inv_out);
        for (i, (&g, &a)) in got.iter().zip(&acc).enumerate() {
            prop_assert_eq!(g, requantize(a, deq, bias, relu, inv_out), "element {} of {}, acc {}", i, len, a);
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
    /// Int8 operands at −128 and 127 instead of a spread of small values:
    /// beyond the quantizer's ±127, the largest products an i8 holds.
    extreme: bool,
}

/// `C = A · unfold(X)` for int8 operands, one i32 element at a time: the
/// definition both int8 routes must equal. Rows outside `live` stay zero.
fn conv_i32(
    a: &[i8],
    x: &[i8],
    m: usize,
    dims: [usize; 4],
    spec: Conv2dSpec,
    live: &[usize],
) -> Vec<i32> {
    let [n, ci, h, w] = dims;
    let (ho, wo) = spec.output_hw(h, w);
    let kk = spec.kernel;
    let mut c = vec![0i32; m * n * ho * wo];
    for &row in live {
        for b in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0i32;
                    for ch in 0..ci {
                        for ky in 0..kk {
                            for kx in 0..kk {
                                let y = (oy * spec.stride + ky)
                                    .checked_sub(spec.pad)
                                    .filter(|&y| y < h);
                                let xx = (ox * spec.stride + kx)
                                    .checked_sub(spec.pad)
                                    .filter(|&xx| xx < w);
                                if let (Some(y), Some(xx)) = (y, xx) {
                                    acc += i32::from(a[((row * ci + ch) * kk + ky) * kk + kx])
                                        * i32::from(x[((b * ci + ch) * h + y) * w + xx]);
                                }
                            }
                        }
                    }
                    c[row * n * ho * wo + (b * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    c
}

/// `v`, `[m, n·hw]` (the unfolded product's layout), as `[n, m, hw]`
/// (`NCHW`, the convolution products' layout).
fn to_nchw<T: Copy>(v: &[T], m: usize, n: usize) -> Vec<T> {
    let hw = v.len() / (m * n).max(1);
    let plane = |(b, r): (usize, usize)| &v[(r * n + b) * hw..][..hw];
    (0..n * m)
        .flat_map(|i| plane((i / m, i % m)))
        .copied()
        .collect()
}

/// `conv_gemm_into` against the route it replaces — `im2col*_into` +
/// `gemm*_into`, i.e. the packed driver on an unfolded matrix — bit for
/// bit: f32 dense, f32 under the live-row subset, and int8 — dense, equal
/// to the packed route and to the i32 triple loop [`conv_i32`], and under
/// the live-row subset, equal to the triple loop. `ws` is the caller's,
/// carried from one geometry to the next as a layer stack carries it, so
/// scratch arrives holding another convolution's data.
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
    prop_assert!(same_bits(&to_nchw(&want, m, n), &got), "dense: {:?}", case);

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
    prop_assert!(same_bits(&to_nchw(&want, m, n), &got), "rows: {:?}", case);

    let quantize = |t: &Tensor| -> Vec<i8> {
        let q = |v: &f32| {
            if extreme {
                if *v < 0.0 {
                    i8::MIN
                } else {
                    i8::MAX
                }
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
    prop_assert!(to_nchw(&want8, m, n) == got8, "i8: {:?}", case);
    let all: Vec<usize> = (0..m).collect();
    prop_assert!(
        to_nchw(&conv_i32(&a8, &x8, m, dims, spec, &all), m, n) == got8,
        "i8 vs i32 loop: {:?}",
        case
    );

    got8.fill(i32::MIN);
    conv_gemm_into(&mut got8, &a8, &x8, m, dims, spec, Some(&live), ws, 1);
    prop_assert!(
        to_nchw(&conv_i32(&a8, &x8, m, dims, spec, &case.live), m, n) == got8,
        "i8 rows: {:?}",
        case
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The convolution forward never unfolds and never packs: at any
    /// stride, 1×1 included, it runs the tile on a zero-bordered copy of
    /// the image. The product must be *bitwise* the im2col + GEMM one.
    ///
    /// Every case runs one free draw over all strides, kernels and pads
    /// (the `deep` / `wide` flags force the depth past one `KC` slab and
    /// the column count past one `NC` strip; the narrow shapes have output
    /// rows shorter than a panel, down to 1, and column counts that are no
    /// multiple of `NR`, so single panels straddle several output rows and
    /// images), then one draw from each family the tile's placement and
    /// flush logic branch on. `m` runs 1–19 throughout, so
    /// row blocks of the six-row tile come out full, ragged and single.
    /// Every convolution is also run in int8 and held to the packed driver
    /// on the unfolded matrix and to an i32 triple loop; the first one leaves the workspace dirty.
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

        // A dirty workspace: the first convolution leaves every scratch
        // slot, the int8 route's i16 image included, holding a larger
        // geometry's extreme values where the next ones have border.
        fused_conv_agrees(&FusedConv { extreme: true, ..base(5, 13, 21, 5, 2) }, &mut ws)?;

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
        // Odd channel counts: the int8 image's last pair holds one channel
        // beside a zero. 3×3 and 1×1, the 1×1 at the i8 extremes.
        for ci in [1, 3, 5] {
            fused_conv_agrees(&base(ci, 3 + side_extra % 5, 9 + side_extra, 3, 1), &mut ws)?;
            fused_conv_agrees(&FusedConv { extreme: true, ..base(ci, 2 + side_extra % 4, 1 + side_extra, 1, 0) }, &mut ws)?;
        }
        // Int8 at the extremes over at least one whole slab, odd `ci`.
        let full_scale = FusedConv { extreme: true, ..base((KC / 9 + ci_extra) | 1, 4, 9 + side_extra, 3, 1) };
        prop_assert!(full_scale.ci * 9 >= KC);
        fused_conv_agrees(&full_scale, &mut ws)?;

        // 1×1 (every deployed expansion): more than 2·KC input channels, so
        // one tap column flushes twice, at odd ragged widths from 9 to 31;
        // a single live row; int8 at the extremes over a whole slab, odd
        // `ci`.
        let wide_1x1 = base(2 * KC + ci_extra, 1 + side_extra % 3, 9 + 2 * side_extra, 1, 0);
        fused_conv_agrees(&wide_1x1, &mut ws)?;
        let narrow_1x1 = base(ci_extra, 2 + side_extra % 4, 1 + side_extra % 8, 1, 0);
        fused_conv_agrees(&FusedConv { live: vec![seed as usize % m], ..narrow_1x1 }, &mut ws)?;
        fused_conv_agrees(&FusedConv { extreme: true, ..base((KC + ci_extra) | 1, 3, 9 + side_extra, 1, 0) }, &mut ws)?;
    }
}

/// The input side that gives `out` output pixels along one axis, plus
/// `extra` (< `stride`) ragged pixels the last window never reaches.
fn side_for(out: usize, spec: Conv2dSpec, extra: usize) -> usize {
    (out - 1) * spec.stride + spec.kernel + extra - 2 * spec.pad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Strided convolutions run on the same tile, reading the image
    /// as phase planes: one plane per `(y mod s, x mod s)` residue, so a
    /// ragged side leaves the last phases a row or column shorter than the
    /// first. Each family below is drawn at stride 2 or 3 and held, like
    /// every case of the stride-1 test above, to the im2col route in f32
    /// and int8 and to the i32 triple loop.
    #[test]
    fn fused_strided_conv_is_bitwise_the_im2col_route(
        n in 1usize..4, stride in 2usize..4, kidx in 0usize..3, pad in 0usize..3,
        ci_extra in 1usize..5, out_extra in 0usize..12, ragged in 0usize..3,
        m in 1usize..20, keep in proptest::collection::vec(0usize..2, 20), seed in 0u64..1000) {
        let mut ws = Workspace::new();
        let kept: Vec<usize> = (0..m).filter(|&i| keep[i] == 1).collect();
        let case = |ci: usize, h: usize, w: usize, spec: Conv2dSpec| FusedConv {
            n, ci, h, w, spec, m, live: kept.clone(), seed, extreme: false,
        };
        let extra = ragged % stride;

        // A dirty workspace: stride 1, then stride 2, then stride 1 again,
        // all at the i8 extremes, each one leaving its phase planes where
        // the next has border.
        let s1 = Conv2dSpec::new(3, 1, 1);
        let s2 = Conv2dSpec::new(3, 2, 1);
        fused_conv_agrees(&FusedConv { extreme: true, ..case(5, 13, 21, Conv2dSpec::new(5, 1, 2)) }, &mut ws)?;
        fused_conv_agrees(&FusedConv { extreme: true, ..case(3, 15, 19, s2) }, &mut ws)?;
        fused_conv_agrees(&FusedConv { extreme: true, ..case(3, 7, 9, s1) }, &mut ws)?;

        // Odd sides, so the phase planes are ragged, under every kernel
        // and pad 0–2.
        let k = [1usize, 3, 5][kidx];
        let spec = Conv2dSpec::new(k, stride, pad);
        let (h, w) = ((k + out_extra) | 1, (k + 2 * out_extra + 3) | 1);
        fused_conv_agrees(&case(ci_extra, h, w, spec), &mut ws)?;

        // 3×3, 5×5 and 1×1 at stride 2, one-row tiles whose last vector
        // is ragged: `wo` odd from 9 to 31.
        for (k, pad) in [(3, 1), (5, 2), (1, 0)] {
            let spec = Conv2dSpec::new(k, 2, pad);
            let (h, w) = (side_for(2 + out_extra % 4, spec, extra % 2), side_for(9 + 2 * out_extra, spec, extra % 2));
            prop_assert!(spec.output_hw(h, w).1 % 2 == 1);
            fused_conv_agrees(&case(ci_extra, h, w, spec), &mut ws)?;
        }

        // Two-row tiles: `wo ≤ 8` and an odd row count, so the last tile's
        // partner is off; once more with a single live row.
        let spec = Conv2dSpec::new(3, stride, pad.min(1));
        let two_row = case(ci_extra, side_for(1 + 2 * (out_extra % 4), spec, extra), side_for(1 + out_extra % 8, spec, extra), spec);
        let (ho, wo) = spec.output_hw(two_row.h, two_row.w);
        prop_assert!(wo <= 8 && ho % 2 == 1);
        fused_conv_agrees(&two_row, &mut ws)?;
        fused_conv_agrees(&FusedConv { live: vec![seed as usize % m], ..two_row }, &mut ws)?;

        // Past one `KC` slab of taps, the slab boundary inside a channel.
        let deep = case(KC / 9 + ci_extra, side_for(3, spec, extra), side_for(5, spec, extra), spec);
        prop_assert!(deep.ci * 9 > KC);
        fused_conv_agrees(&deep, &mut ws)?;

        // Odd channel counts: the int8 image's last pair holds one channel
        // beside a zero, at the i8 extremes.
        for ci in [1, 3, 5] {
            let spec = Conv2dSpec::new(3, stride, 1);
            let (h, w) = (side_for(2 + out_extra % 5, spec, extra), side_for(3 + out_extra, spec, extra));
            fused_conv_agrees(&FusedConv { extreme: true, ..case(ci, h, w, spec) }, &mut ws)?;
        }
    }
}

/// A training convolution's two products against the im2col route, bit
/// for bit, on `threads` workers: the forward `conv_gemm_into` against
/// `gemm_into(A, cols)`, and the weight gradient `conv_weight_grad_into`
/// against `gemm_into(G, cols, tb = true)` — both dense and under the
/// live-row subset, which `gemm_active_rows_into` computes on the
/// unfolded matrix. Every output starts as NaN, so a slot the image route
/// forgets shows; `ws` is the caller's, as in [`fused_conv_agrees`].
fn train_conv_agrees(
    case: &FusedConv,
    threads: usize,
    ws: &mut Workspace,
) -> Result<(), TestCaseError> {
    let &FusedConv {
        n,
        ci,
        h,
        w,
        spec,
        m,
        seed,
        ..
    } = case;
    let (ho, wo) = spec.output_hw(h, w);
    let (rows, cols) = (ci * spec.kernel * spec.kernel, n * ho * wo);
    let mut rng = Rng::new(seed);
    let x = Tensor::randn(&[n, ci, h, w], Init::Rand, &mut rng);
    let a = Tensor::randn(&[m, rows], Init::Rand, &mut rng);
    let g = Tensor::randn(&[m, cols], Init::Rand, &mut rng);
    let live = ActiveRows::from_indices(case.live.clone(), m).unwrap();
    let dims = [n, ci, h, w];
    let same_bits = |w: &[f32], g: &[f32]| w.iter().zip(g).all(|(w, g)| w.to_bits() == g.to_bits());
    let g_nchw = to_nchw(g.data(), m, n);
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
        threads,
    );
    conv_gemm_into(
        &mut got,
        a.data(),
        x.data(),
        m,
        dims,
        spec,
        None,
        ws,
        threads,
    );
    prop_assert!(
        same_bits(&to_nchw(&want, m, n), &got),
        "forward: {:?}",
        case
    );
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
        threads,
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
        threads,
    );
    prop_assert!(
        same_bits(&to_nchw(&want, m, n), &got),
        "forward rows: {:?}",
        case
    );

    let mut want = vec![0.0f32; m * rows];
    let mut got = vec![f32::NAN; m * rows];
    gemm_into(
        &mut want,
        g.data(),
        false,
        &unfolded,
        true,
        m,
        cols,
        rows,
        ws,
        threads,
    );
    conv_weight_grad_into(
        &mut got,
        &g_nchw,
        x.data(),
        m,
        dims,
        spec,
        None,
        ws,
        threads,
    );
    prop_assert!(same_bits(&want, &got), "dW: {:?}", case);
    gemm_active_rows_into(
        &mut want,
        g.data(),
        &unfolded,
        true,
        m,
        cols,
        rows,
        &live,
        ws,
        threads,
    );
    got.fill(f32::NAN);
    conv_weight_grad_into(
        &mut got,
        &g_nchw,
        x.data(),
        m,
        dims,
        spec,
        Some(&live),
        ws,
        threads,
    );
    prop_assert!(same_bits(&want, &got), "dW rows: {:?}", case);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A training convolution unfolds nothing: the forward runs
    /// `conv_gemm_into`, and the weight gradient `G · unfold(X)ᵀ` packs its
    /// `B` panels straight from the `NCHW` input. Both must be *bitwise*
    /// the im2col + GEMM products.
    ///
    /// Every case runs one free draw over strides 1–3, kernels 1/3/5 and
    /// pads 0–2 with a drawn live-row set, then the same geometry with all,
    /// one and no rows live; a pixel count spanning three `KC` slabs of
    /// the gradient's depth; a tap count past one `NC` strip, no multiple
    /// of `NR` so the last panel is ragged; and `c_out > MC` on two
    /// workers. The first convolution leaves the workspace dirty.
    #[test]
    fn conv_weight_grad_is_bitwise_the_im2col_route(
        n in 1usize..4, kidx in 0usize..3, stride in 1usize..4, pad in 0usize..3,
        ci in 1usize..6, side_extra in 0usize..12, m in 1usize..20,
        keep in proptest::collection::vec(0usize..2, 20), seed in 0u64..1000) {
        let mut ws = Workspace::new();
        let k = [1usize, 3, 5][kidx];
        let spec = Conv2dSpec::new(k, stride, pad);
        let case = |n: usize, ci: usize, h: usize, w: usize, m: usize, live: Vec<usize>| FusedConv {
            n, ci, h, w, spec, m, live, seed, extreme: false,
        };
        train_conv_agrees(
            &FusedConv { spec: Conv2dSpec::new(5, 2, 2), ..case(2, 7, 13, 21, 9, vec![0, 3, 4]) },
            1,
            &mut ws,
        )?;

        let kept: Vec<usize> = (0..m).filter(|&i| keep[i] == 1).collect();
        let (h, w) = (k + side_extra, k + 2 * side_extra % 7);
        train_conv_agrees(&case(n, ci, h, w, m, kept), 1, &mut ws)?;
        for live in [(0..m).collect(), vec![seed as usize % m], vec![]] {
            train_conv_agrees(&case(n, ci, h, w, m, live), 1, &mut ws)?;
        }

        // Output pixels past 2·KC: three slabs of the gradient's depth.
        let side = (2 * KC / n).isqrt() + 1;
        let long = case(n, ci, (side - 1) * stride + k, (side - 1) * stride + k, m, vec![0]);
        prop_assert!(long.n * long.spec.output_hw(long.h, long.w).0.pow(2) > 2 * KC);
        train_conv_agrees(&long, 1, &mut ws)?;

        // Taps past one NC strip, ragged in the last NR panel.
        let deep_ci = (NC / (k * k) + ci) | 1;
        prop_assert!(deep_ci * k * k > NC && !(deep_ci * k * k).is_multiple_of(NR));
        train_conv_agrees(&case(1, deep_ci, k + side_extra % 3, k + 2, m, vec![m - 1]), 1, &mut ws)?;

        // More filters, and more live ones, than one MC block: two workers
        // engage on every product.
        let wide: Vec<usize> = (0..2 * MC + m).filter(|i| i % 3 != 1).collect();
        prop_assert!(wide.len() > MC);
        train_conv_agrees(&case(n, ci, h, w, 2 * MC + m, wide), 2, &mut ws)?;
    }
}

/// A training convolution's input gradient against the column route's
/// definition, bit for bit, on `threads` workers: `conv_input_grad_into`
/// against the seed `Wᵀ·G` (`reference::matmul_at`, each element's `Σ_co`
/// from `+0.0` in ascending `co`) folded by the seed `col2im` (each input
/// element's taps in ascending `(ky, kx)`), densely and under the live-row
/// subset, whose dead rows of `W` the reference zeroes as a clipped mask
/// does. With `signed_zeros` the weights are `−|w|`, every fourth one
/// `−0.0`, and every other pixel of `G` is `±0.0`, so many taps sum
/// nothing but `−0.0` products. Every output starts as NaN, so an element
/// the route forgets shows; `ws` is the caller's, as in
/// [`fused_conv_agrees`].
fn input_grad_agrees(
    case: &FusedConv,
    signed_zeros: bool,
    threads: usize,
    ws: &mut Workspace,
) -> Result<(), TestCaseError> {
    let &FusedConv {
        n,
        ci,
        h,
        w,
        spec,
        m,
        seed,
        ..
    } = case;
    let (ho, wo) = spec.output_hw(h, w);
    let (rows, cols) = (ci * spec.kernel * spec.kernel, n * ho * wo);
    let mut rng = Rng::new(seed);
    let mut a = Tensor::randn(&[m, rows], Init::Rand, &mut rng);
    let mut g = Tensor::randn(&[m, cols], Init::Rand, &mut rng);
    if signed_zeros {
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            *v = if i % 4 == 0 { -0.0 } else { -v.abs() };
        }
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = if i % 4 == 0 { 0.0 } else { -0.0 };
            }
        }
    }
    let live = ActiveRows::from_indices(case.live.clone(), m).unwrap();
    let dims = [n, ci, h, w];
    let g_nchw = to_nchw(g.data(), m, n);
    let same_bits = |w: &[f32], g: &[f32]| w.iter().zip(g).all(|(w, g)| w.to_bits() == g.to_bits());
    let fold = |live: &[usize]| {
        let mut a_live = Tensor::zeros(&[m, rows]);
        for &r in live {
            a_live.data_mut()[r * rows..][..rows].copy_from_slice(&a.data()[r * rows..][..rows]);
        }
        let gcols = reference::matmul_at(&a_live, &g).unwrap();
        let mut want = vec![0.0f32; n * ci * h * w];
        reference::col2im_into(&mut want, gcols.data(), n, ci, h, w, spec);
        want
    };

    let mut got = vec![f32::NAN; n * ci * h * w];
    conv_input_grad_into(
        &mut got,
        a.data(),
        &g_nchw,
        m,
        dims,
        spec,
        None,
        ws,
        threads,
    );
    let all: Vec<usize> = (0..m).collect();
    prop_assert!(same_bits(&fold(&all), &got), "dX: {:?}", case);

    got.fill(f32::NAN);
    let rows = Some(&live);
    conv_input_grad_into(
        &mut got,
        a.data(),
        &g_nchw,
        m,
        dims,
        spec,
        rows,
        ws,
        threads,
    );
    prop_assert!(same_bits(&fold(&case.live), &got), "dX rows: {:?}", case);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A training convolution's input gradient forms no column matrix, at
    /// any stride, pad or width: each input phase is a stride-1
    /// convolution of the bordered output gradient with the flipped
    /// sub-kernel of its taps, on the forward tile, once per spatial tap.
    /// It must be *bitwise* the seed `Wᵀ·G` + `col2im` fold.
    ///
    /// Every case runs one free draw over strides 1–3, kernels 1/3/5 and
    /// pads 0–2 with a drawn live-row set, then the same geometry with all,
    /// one and no rows live, and once with signed zeros; one-row tiles with
    /// ragged vectors at stride 1; more live output channels than `KC` and
    /// more input channels than `MC` on two workers, both at the drawn
    /// stride; and every phase of a ragged odd side, at 3×3/2/1 (13×13),
    /// 5×5/3/2 (11×7) and 1×1/2/0 (whose odd phases have no tap), with one
    /// live row and with all. The first convolution leaves the workspace
    /// dirty.
    #[test]
    fn conv_input_grad_is_bitwise_the_col2im_route(
        n in 1usize..4, kidx in 0usize..3, stride in 1usize..4, pad in 0usize..3,
        ci in 1usize..9, side_extra in 0usize..12, m in 1usize..20,
        keep in proptest::collection::vec(0usize..2, 20), seed in 0u64..1000) {
        let mut ws = Workspace::new();
        let k = [1usize, 3, 5][kidx];
        let spec = Conv2dSpec::new(k, stride, pad);
        let case = |n: usize, ci: usize, h: usize, w: usize, m: usize, live: Vec<usize>| FusedConv {
            n, ci, h, w, spec, m, live, seed, extreme: false,
        };
        input_grad_agrees(
            &FusedConv { spec: Conv2dSpec::new(5, 1, 2), ..case(2, 7, 13, 21, 9, vec![0, 3, 4]) },
            false,
            1,
            &mut ws,
        )?;

        let kept: Vec<usize> = (0..m).filter(|&i| keep[i] == 1).collect();
        let (h, w) = (k + side_extra, k + 2 * side_extra % 7);
        input_grad_agrees(&case(n, ci, h, w, m, kept.clone()), false, 1, &mut ws)?;
        for live in [(0..m).collect(), vec![seed as usize % m], vec![]] {
            input_grad_agrees(&case(n, ci, h, w, m, live), false, 1, &mut ws)?;
        }
        input_grad_agrees(&case(n, ci, h, w, m, kept.clone()), true, 1, &mut ws)?;

        // One-row tiles whose last vector, or last two, are ragged: odd
        // widths from 9 to 31, at stride 1 and the drawn kernel and pad.
        let s1 = Conv2dSpec::new(k, 1, pad.min(k - 1));
        let ragged = FusedConv { spec: s1, ..case(n, ci, k + side_extra % 3, 9 + 2 * side_extra, m, kept) };
        input_grad_agrees(&ragged, false, 1, &mut ws)?;

        // More live output channels than KC: each tap's Σ_co is one sum,
        // as the seed Wᵀ·G forms it.
        let deep: Vec<usize> = (0..2 * KC + m).filter(|i| i % 7 != 3).collect();
        prop_assert!(deep.len() > KC);
        input_grad_agrees(&case(1, ci, k + 1, k + 2, 2 * KC + m, deep), false, 1, &mut ws)?;

        // More input channels than one MC block: two workers engage.
        let wide = case(1, MC + ci, k + side_extra % 3, k + 2, m, vec![m - 1]);
        input_grad_agrees(&wide, false, 2, &mut ws)?;

        // Every phase of a ragged odd side.
        for (h, w, (k, s, p)) in [(13, 13, (3, 2, 1)), (11, 7, (5, 3, 2)), (9, 7, (1, 2, 0))] {
            let spec = Conv2dSpec::new(k, s, p);
            for live in [vec![seed as usize % m], (0..m).collect()] {
                input_grad_agrees(&FusedConv { spec, ..case(n, ci, h, w, m, live) }, false, 1, &mut ws)?;
            }
        }
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
