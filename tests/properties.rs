//! Cross-crate property-based tests: randomized inputs, full-pipeline
//! invariants.

use lodim_lp::bigdata::streaming::{self, SamplingMode};
use lodim_lp::core::clarkson::ClarksonConfig;
use lodim_lp::core::lptype::{count_violations, LpTypeProblem};
use lodim_lp::lowerbound::{augindex, reduction};
use lodim_lp::num::{Rat, ScaledF64};
use lodim_lp::sampling::weight_index::WeightIndex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming Algorithm 1 returns a feasible solution matching the
    /// direct solver's objective on random bounded-feasible LPs of any
    /// small dimension and size.
    #[test]
    fn prop_streaming_lp_feasible_and_optimal(
        seed in 0u64..10_000,
        d in 2usize..5,
        n in 200usize..3000,
        r in 1u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (p, cs) = lodim_lp::workloads::random_lp(n, d, seed);
        let (sol, _) = streaming::solve(
            &p, &cs, &ClarksonConfig::lean(r), SamplingMode::TwoPassIid, &mut rng,
        ).expect("feasible");
        prop_assert_eq!(count_violations(&p, &sol, &cs), 0);
        let direct = p.solve_subset(&cs, &mut rng).expect("feasible");
        let (v1, v2) = (p.objective_value(&sol), p.objective_value(&direct));
        prop_assert!((v1 - v2).abs() < 1e-4 * v1.abs().max(1.0), "{} vs {}", v1, v2);
    }

    /// The LP-type monotonicity property: adding constraints never
    /// improves the optimum.
    #[test]
    fn prop_lp_monotonicity(seed in 0u64..10_000, n in 50usize..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (p, cs) = lodim_lp::workloads::random_lp(n, 3, seed);
        let half = p.solve_subset(&cs[..n / 2], &mut rng).expect("feasible");
        let full = p.solve_subset(&cs, &mut rng).expect("feasible");
        prop_assert!(
            p.objective_value(&full) >= p.objective_value(&half) - 1e-6,
            "monotonicity: {} then {}",
            p.objective_value(&half),
            p.objective_value(&full)
        );
    }

    /// The Aug-Index reduction decodes the planted bit for arbitrary bit
    /// strings, indices, and steepness.
    #[test]
    fn prop_augindex_roundtrip(
        bits in proptest::collection::vec(0u8..2, 2..128),
        pick in 0usize..1000,
        steep in 1i128..100_000,
    ) {
        let i_star = pick % bits.len() + 1;
        let n = bits.len() + 1;
        let inst = augindex::build_instance(
            &bits,
            i_star,
            lodim_lp::num::Rat::from_int(steep + 2 * n as i128),
        );
        prop_assert_eq!(inst.validate(), Ok(()));
        prop_assert_eq!(augindex::decode(inst.answer_scan(), i_star), bits[i_star - 1]);
        // And the exact LP reduction agrees with the scan.
        let mut rng = StdRng::seed_from_u64(7);
        prop_assert_eq!(reduction::answer_via_lp(&inst, &mut rng), inst.answer_scan());
    }

    /// MEB monotonicity + optimality: the streamed ball encloses all
    /// points and matches the direct Welzl radius.
    #[test]
    fn prop_meb_streaming(seed in 0u64..10_000, n in 100usize..2000, d in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = lodim_lp::workloads::ball_cloud(n, d, 3.0, seed);
        let p = lodim_lp::core::instances::meb::MebProblem::new(d);
        let (ball, _) = streaming::solve(
            &p, &pts, &ClarksonConfig::lean(2), SamplingMode::OnePassSpeculative, &mut rng,
        ).expect("solvable");
        prop_assert_eq!(count_violations(&p, &ball, &pts), 0);
        let direct = p.solve_subset(&pts, &mut rng).expect("solvable");
        prop_assert!((ball.radius - direct.radius).abs() < 1e-5 * direct.radius.max(1.0));
    }
}

// --------------------------------------------------------------------
// WeightIndex against a naive recomputed prefix-sum reference.
//
// The Fenwick tree accumulates multiplicative updates as node-level
// additions, so its internal sums associate differently from a fresh
// left-to-right prefix fold — exactly the drift the differential must
// bound. The naive reference applies the identical point updates to a
// plain weight vector and recomputes prefixes from scratch on every
// probe, the way `clarkson::solve` did before the index existed.
// --------------------------------------------------------------------

/// Runs one interleaved multiply/sample differential: after every
/// multiply, one inversion target is resolved by the index and checked
/// against a freshly folded prefix table (same target, 1e-9-relative
/// boundary tolerance), and the totals are compared in log space.
fn weight_index_differential(n: usize, base_exp: u32, ops: &[(usize, f64, f64)]) {
    let start = ScaledF64::powi(2.0, base_exp);
    let mut index = WeightIndex::from_weights(&vec![start; n]);
    let mut naive: Vec<ScaledF64> = vec![start; n];
    let check = |index: &WeightIndex, naive: &[ScaledF64], probe: f64| {
        // Totals: identical point weights, different association order.
        let naive_total: ScaledF64 = naive.iter().copied().sum();
        assert!(
            (index.total().log2() - naive_total.log2()).abs() <= 1e-6,
            "total drift: index {} vs naive {}",
            index.total().log2(),
            naive_total.log2()
        );

        // One inversion draw against both realizations.
        let t = index.total() * ScaledF64::from_f64(probe);
        let idx = index.sample(t);
        assert!(!index.get(idx).is_zero(), "zero-weight element selected");
        let mut prefix: Vec<ScaledF64> = Vec::with_capacity(n);
        let mut acc = ScaledF64::ZERO;
        for &w in naive {
            acc += w;
            prefix.push(acc);
        }
        let naive_idx = prefix.partition_point(|p| *p <= t).min(n - 1);
        if idx != naive_idx {
            // Only a boundary-rounding disagreement is allowed: every
            // prefix boundary separating the two picks must sit within
            // 1e-9·W of the target.
            let ft = t.ratio(naive_total);
            for j in idx.min(naive_idx)..idx.max(naive_idx) {
                let boundary = prefix[j].ratio(naive_total);
                assert!(
                    (boundary - ft).abs() <= 1e-9,
                    "index picked {idx}, naive picked {naive_idx}, but the \
                     boundary after {j} ({boundary}) is not at the target ({ft})"
                );
            }
        }
    };

    // Probe the untouched (all-equal) state, then after every update.
    for p in [0.0, 0.5, 0.999] {
        check(&index, &naive, p);
    }
    for &(raw_i, factor, frac) in ops {
        let i = raw_i % n;
        index.multiply(i, factor);
        naive[i] *= ScaledF64::from_f64(factor);
        check(&index, &naive, frac);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleaved multiply/sample sequences agree with the naive
    /// rebuilt-prefix reference, from single-element up, starting from
    /// all-equal weights.
    #[test]
    fn prop_weight_index_matches_naive_prefix(
        n in 1usize..160,
        idxs in collection::vec(0usize..4096, 0..48),
        factors in collection::vec(1.0f64..32.0, 0..48),
        fracs in collection::vec(0.0f64..1.0, 0..48),
    ) {
        let ops: Vec<(usize, f64, f64)> = idxs
            .into_iter()
            .zip(factors)
            .zip(fracs)
            .map(|((i, f), p)| (i, f, p))
            .collect();
        weight_index_differential(n, 0, &ops);
    }

    /// The same differential with every weight starting at `2^e`,
    /// `e ≥ 1100` — past `f64::MAX` before the first update, so any raw
    /// `f64` shortcut inside the tree would saturate and diverge.
    #[test]
    fn prop_weight_index_survives_past_f64_overflow(
        n in 1usize..80,
        base_exp in 1100u32..1400,
        idxs in collection::vec(0usize..4096, 1..32),
        factors in collection::vec(1.0f64..1e6, 1..32),
        fracs in collection::vec(0.0f64..1.0, 1..32),
    ) {
        let ops: Vec<(usize, f64, f64)> = idxs
            .into_iter()
            .zip(factors)
            .zip(fracs)
            .map(|((i, f), p)| (i, f, p))
            .collect();
        weight_index_differential(n, base_exp, &ops);
    }
}

/// `draw_sorted(count)` against its scalar oracle: `count` calls of
/// `draw`, then sort and dedup. The index set and the RNG state after the
/// call must both match exactly.
fn draw_sorted_matches_oracle(index: &WeightIndex, count: usize, seed: u64) {
    use rand::RngCore;
    let mut r1 = StdRng::seed_from_u64(seed);
    let mut want: Vec<usize> = (0..count).map(|_| index.draw(&mut r1)).collect();
    want.sort_unstable();
    want.dedup();
    let mut r2 = StdRng::seed_from_u64(seed);
    let (mut targets, mut got) = (Vec::new(), vec![usize::MAX; 3]);
    index.draw_sorted(count, &mut r2, &mut targets, &mut got);
    assert_eq!(got, want, "count {count}, seed {seed}");
    assert_eq!(r1.next_u64(), r2.next_u64(), "RNG state, count {count}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched draw equals the scalar draws on indices of any
    /// (mostly non-power-of-two) size, with zero-weight plateaus
    /// (`kinds` 0), mixed weights, and a few elements reweighted by up to
    /// 1e6 many times over; for `count` 0, 1 and a random count.
    #[test]
    fn prop_draw_sorted_matches_scalar_draws(
        kinds in collection::vec(0u32..4, 1..300),
        weights in collection::vec(0.01f64..100.0, 300),
        boost_at in collection::vec(0usize..4096, 0..40),
        boosts in collection::vec(1.0f64..1e6, 40),
        count in 2usize..400,
        seed in 0u64..1_000_000,
    ) {
        let n = kinds.len();
        let mut ws: Vec<ScaledF64> = kinds
            .iter()
            .zip(&weights)
            .map(|(&k, &w)| if k == 0 { ScaledF64::ZERO } else { ScaledF64::from_f64(w) })
            .collect();
        if ws.iter().all(|w| w.is_zero()) {
            ws[n / 2] = ScaledF64::ONE;
        }
        let mut index = WeightIndex::from_weights(&ws);
        for (&i, &f) in boost_at.iter().zip(&boosts) {
            for _ in 0..8 {
                index.multiply(i % n, f);
            }
        }
        for c in [0, 1, count] {
            draw_sorted_matches_oracle(&index, c, seed);
        }
    }
}

#[test]
fn draw_sorted_on_an_all_zero_index_draws_nothing_for_count_zero() {
    let index = WeightIndex::from_weights(&[ScaledF64::ZERO; 5]);
    let mut rng = StdRng::seed_from_u64(5);
    let (mut targets, mut out) = (Vec::new(), vec![7]);
    index.draw_sorted(0, &mut rng, &mut targets, &mut out);
    assert!(out.is_empty());
}

// --------------------------------------------------------------------
// ScaledF64 against an exact Rat reference.
//
// Algorithm 1's weights are products of small rational factors and many
// doublings (`F^{a_i}` with F = n^{1/r}); these properties pin the scaled
// representation to exact rational arithmetic on exactly that shape. The
// reference keeps the power-of-two part of the chain in a separate
// integer exponent, so the `Rat` mantissa stays inside `i128` while the
// represented magnitude goes far beyond `f64::MAX`.
// --------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random multiplication chain of small rationals followed by a
    /// random number of doublings agrees with the exact `Rat × 2^k`
    /// reference to ~f64 precision in log-space.
    #[test]
    fn prop_scaled_mul_chain_matches_rat_reference(
        nums in collection::vec(1i128..=9, 1..24),
        dens in collection::vec(1i128..=9, 1..24),
        doublings in 0u32..3000,
    ) {
        let mut exact = Rat::ONE;
        let mut scaled = ScaledF64::ONE;
        for (&a, &b) in nums.iter().zip(dens.iter()) {
            exact = exact * Rat::new(a, b);
            scaled = scaled * ScaledF64::from_f64(a as f64) / ScaledF64::from_f64(b as f64);
        }
        let two = ScaledF64::from_f64(2.0);
        for _ in 0..doublings {
            scaled *= two;
        }
        let expect_log2 =
            (exact.num() as f64).log2() - (exact.den() as f64).log2() + f64::from(doublings);
        prop_assert!(
            (scaled.log2() - expect_log2).abs() <= 1e-6,
            "scaled log2 {} vs exact {} ({} factors, {} doublings)",
            scaled.log2(), expect_log2, nums.len().min(dens.len()), doublings
        );
    }

    /// Doubling is *exact*: k successive doublings equal one
    /// `powi(2, k)` multiplication bit-for-bit, and shift `log2` by
    /// exactly k (no rounding ever accumulates on the paper's weight
    /// doubling path).
    #[test]
    fn prop_scaled_doubling_is_exact(
        a in 1i128..=1000, b in 1i128..=1000, k in 0u32..5000,
    ) {
        let start = ScaledF64::from_f64(a as f64) / ScaledF64::from_f64(b as f64);
        let mut doubled = start;
        let two = ScaledF64::from_f64(2.0);
        for _ in 0..k {
            doubled *= two;
        }
        prop_assert_eq!(doubled, start * ScaledF64::powi(2.0, k));
        // (mantissa.log2() + exp) associates differently on the two sides,
        // so allow one ulp of slack on the log — the values themselves are
        // bit-identical above.
        prop_assert!((doubled.log2() - (start.log2() + f64::from(k))).abs() <= 1e-9);
    }

    /// Where the same chain overflows raw `f64` arithmetic to infinity,
    /// `ScaledF64` stays finite and still matches the exact reference.
    #[test]
    fn prop_scaled_survives_where_f64_overflows(
        nums in collection::vec(1i128..=9, 1..24),
        dens in collection::vec(1i128..=9, 1..24),
        doublings in 1101u32..4000,
    ) {
        let mut exact = Rat::ONE;
        let mut scaled = ScaledF64::ONE;
        let mut raw = 1f64;
        for (&a, &b) in nums.iter().zip(dens.iter()) {
            exact = exact * Rat::new(a, b);
            scaled = scaled * ScaledF64::from_f64(a as f64) / ScaledF64::from_f64(b as f64);
            raw *= a as f64 / b as f64;
        }
        let two = ScaledF64::from_f64(2.0);
        for _ in 0..doublings {
            scaled *= two;
            raw *= 2.0;
        }
        // ≥ 1101 doublings push even the smallest chain value (≥ 9^-23)
        // past f64::MAX: the raw path is ruined ...
        prop_assert!(raw.is_infinite());
        // ... while the scaled path still matches the exact reference.
        let expect_log2 =
            (exact.num() as f64).log2() - (exact.den() as f64).log2() + f64::from(doublings);
        prop_assert!(scaled.log2().is_finite());
        prop_assert!((scaled.log2() - expect_log2).abs() <= 1e-6);
        // And to_f64 saturates instead of poisoning downstream math.
        prop_assert_eq!(scaled.to_f64(), f64::MAX);
    }
}
