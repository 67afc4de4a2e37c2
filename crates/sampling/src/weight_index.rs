//! Incremental weight index: O(log n) multiplicative updates + weighted
//! sampling, correct past `f64` overflow.
//!
//! Algorithm 1 changes only the violators' weights between iterations
//! (Line 8), yet a prefix-sum table over the weights — the structure
//! Lemma 2.2 sampling inverts against — costs O(n) to rebuild. A
//! [`WeightIndex`] is a Fenwick (binary indexed) tree over [`ScaledF64`]
//! weights that closes that gap:
//!
//! * [`WeightIndex::multiply`] — reweight one element by a factor `F ≥ 1`
//!   in O(log n);
//! * [`WeightIndex::total`] — the current total weight `w(S)` in O(1);
//! * [`WeightIndex::sample`] — the first index whose weight prefix
//!   exceeds a target `t` (one inversion draw) by a single O(log n) tree
//!   descent, no materialized prefix array;
//! * [`WeightIndex::draw_sorted`] — a whole net's draws resolved by one
//!   shared descent over the sorted targets
//!   ([`WeightIndex::sample_sorted`]): each tree node is probed once per
//!   group of targets that reaches it, not once per target.
//!
//! A Clarkson iteration with `|V|` violators and `m` net draws therefore
//! costs `O(|V| log n + m log n)` instead of the `O(n + m log n)`
//! rebuild-and-search it replaces — the Section 3.2 bookkeeping made
//! concrete. Weights reach `F^{Θ(νr)} = n^{Θ(ν)}` over a run, far past
//! `f64::MAX` for realistic `n`, so every node stores a [`ScaledF64`].
//!
//! All operations are sequential and deterministic; the index never
//! touches the `llp_par` pool, so thread-count invariance of callers is
//! preserved by construction.

use llp_num::ScaledF64;
use rand::Rng;

/// A Fenwick-tree-backed dynamic weight table over `ScaledF64`.
///
/// Invariants: weights are non-negative (zero-weight elements are never
/// returned by [`sample`](Self::sample)); updates are multiplicative with
/// factors `≥ 1`, so node sums only grow — the saturating `ScaledF64`
/// subtraction never enters the tree.
#[derive(Clone, Debug)]
pub struct WeightIndex {
    /// Point weights `w_i` (the leaf values), kept exactly as the product
    /// of their update factors.
    weights: Vec<ScaledF64>,
    /// 1-indexed Fenwick array padded to a power of two; `tree[i]` holds
    /// the weight sum over `(i − lowbit(i), i]`. Padding slots weigh zero.
    tree: Vec<ScaledF64>,
    /// Power-of-two capacity (0 for an empty index). `tree[cap]` covers
    /// the whole range, making `total()` a single read.
    cap: usize,
}

impl WeightIndex {
    /// An index of `n` elements, all at weight 1 (Line 2 of Algorithm 1).
    pub fn uniform(n: usize) -> Self {
        Self::from_weights(&vec![ScaledF64::ONE; n])
    }

    /// Builds an index over explicit weights in O(n).
    pub fn from_weights(weights: &[ScaledF64]) -> Self {
        let n = weights.len();
        if n == 0 {
            return WeightIndex {
                weights: Vec::new(),
                tree: vec![ScaledF64::ZERO],
                cap: 0,
            };
        }
        let cap = n.next_power_of_two();
        let mut tree = vec![ScaledF64::ZERO; cap + 1];
        tree[1..=n].copy_from_slice(weights);
        for i in 1..cap {
            let parent = i + (i & i.wrapping_neg());
            if parent <= cap {
                let v = tree[i];
                tree[parent] += v;
            }
        }
        WeightIndex {
            weights: weights.to_vec(),
            tree,
            cap,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True iff the index holds no elements.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight of element `i`.
    pub fn get(&self, i: usize) -> ScaledF64 {
        self.weights[i]
    }

    /// The total weight `w(S)` — O(1): the tree root covers everything.
    pub fn total(&self) -> ScaledF64 {
        self.tree[self.cap]
    }

    /// Sum of the first `i` weights — O(log n). Diagnostic/test helper;
    /// the sampling path never materializes prefixes.
    pub fn prefix(&self, i: usize) -> ScaledF64 {
        assert!(i <= self.len(), "prefix({i}) out of bounds");
        let mut acc = ScaledF64::ZERO;
        let mut j = i;
        while j > 0 {
            acc += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        acc
    }

    /// Multiplies element `i`'s weight by `factor` in O(log n).
    ///
    /// Restricted to `factor ≥ 1`: Clarkson weights only grow, and the
    /// restriction keeps every tree update a non-negative addition
    /// (`ScaledF64` subtraction saturates and would silently decouple the
    /// nodes from the leaves).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or `factor` is not finite and `≥ 1`.
    pub fn multiply(&mut self, i: usize, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "weight factor must be finite and >= 1, got {factor}"
        );
        let old = self.weights[i];
        if old.is_zero() || factor == 1.0 {
            return;
        }
        self.weights[i] = old * ScaledF64::from_f64(factor);
        // The additive delta w·(F−1): exact in the same sense as the leaf
        // product, and non-negative by the factor restriction.
        let delta = old * ScaledF64::from_f64(factor - 1.0);
        if delta.is_zero() {
            return;
        }
        let mut j = i + 1;
        while j <= self.cap {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
    }

    /// The first index whose weight prefix strictly exceeds `t` — the
    /// inversion-sampling primitive of Lemma 2.2 — by one O(log n) tree
    /// descent. Targets at or beyond the total clamp to the last element;
    /// zero-weight elements are never returned (the nearest
    /// positive-weight element is, preferring the forward direction —
    /// mathematically a zero-weight landing is impossible, but descent
    /// rounding can produce one at a plateau boundary).
    ///
    /// # Panics
    /// Panics if the total weight is zero (nothing to sample).
    pub fn sample(&self, t: ScaledF64) -> usize {
        assert!(!self.total().is_zero(), "sampling from an all-zero index");
        self.resolve(self.descend_from(0, ScaledF64::ZERO, self.cap, t))
    }

    /// Binary descent for target `t` from node state (`pos`, `acc`,
    /// `half`); returns the end position. `pos` counts elements whose
    /// cumulative weight is ≤ t. Each probed node `pos + half` covers
    /// `(pos, pos + half]`, so `acc` stays an exact node-sum prefix — no
    /// subtraction.
    fn descend_from(
        &self,
        mut pos: usize,
        mut acc: ScaledF64,
        mut half: usize,
        t: ScaledF64,
    ) -> usize {
        while half > 0 {
            let next = pos + half;
            if next <= self.cap {
                let cand = acc + self.tree[next];
                if cand <= t {
                    pos = next;
                    acc = cand;
                }
            }
            half >>= 1;
        }
        pos
    }

    /// Maps a descent's end position to the element it selects: clamps
    /// past-the-end positions to the last element, then steps off a
    /// zero-weight landing onto the nearest positive-weight element,
    /// preferring the forward direction.
    fn resolve(&self, pos: usize) -> usize {
        let idx = pos.min(self.len() - 1);
        if !self.weights[idx].is_zero() {
            return idx;
        }
        match self.weights[idx + 1..].iter().position(|w| !w.is_zero()) {
            Some(off) => idx + 1 + off,
            None => self.weights[..idx]
                .iter()
                .rposition(|w| !w.is_zero())
                .expect("total weight is positive"),
        }
    }

    /// Draws one index i.i.d. proportional to weight: one uniform in
    /// `[0, 1)` scaled by the total, then [`sample`](Self::sample). The
    /// RNG consumption (one `f64` draw) matches the prefix-table sampler
    /// it replaces.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let t = self.total() * ScaledF64::from_f64(rng.random_range(0.0..1.0f64));
        self.sample(t)
    }

    /// Draws `count` indices i.i.d. proportional to weight and leaves them
    /// in `out` sorted ascending and deduplicated — exactly what `count`
    /// calls of [`draw`](Self::draw) followed by sort and dedup give, with
    /// the RNG left in the same state.
    ///
    /// All `count` uniforms are drawn first, in `draw`'s order and scaling
    /// (into `targets`, a reusable buffer); the targets are then sorted
    /// and resolved together by [`sample_sorted`](Self::sample_sorted).
    ///
    /// # Panics
    /// Panics if `count > 0` and the total weight is zero.
    pub fn draw_sorted<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        targets: &mut Vec<ScaledF64>,
        out: &mut Vec<usize>,
    ) {
        targets.clear();
        let total = self.total();
        for _ in 0..count {
            targets.push(total * ScaledF64::from_f64(rng.random_range(0.0..1.0f64)));
        }
        targets.sort_unstable_by(ScaledF64::total_cmp);
        self.sample_sorted(targets, out);
    }

    /// [`sample`](Self::sample) for a whole batch of ascending targets:
    /// leaves in `out` the sorted, deduplicated set of `sample(t)` over
    /// `targets`. The targets share one tree descent that splits them at
    /// each probed node, computing the candidate prefix `acc + tree[next]`
    /// once per group and applying `sample`'s `cand <= t` test to every
    /// target in it. `sample` is monotone in `t`, so the group results
    /// come out sorted and duplicates adjacent.
    ///
    /// # Panics
    /// Panics if `targets` is non-empty and the total weight is zero.
    pub fn sample_sorted(&self, targets: &[ScaledF64], out: &mut Vec<usize>) {
        out.clear();
        if targets.is_empty() {
            return;
        }
        assert!(!self.total().is_zero(), "sampling from an all-zero index");
        debug_assert!(targets.is_sorted_by(|a, b| a <= b), "targets must ascend");
        self.descend(0, ScaledF64::ZERO, self.cap, targets, out);
    }

    /// One step of [`sample_sorted`](Self::sample_sorted)'s shared descent:
    /// every target in the sorted, non-empty group `ts` has reached the
    /// node state (`pos`, `acc`, `half`) of [`sample`](Self::sample)'s
    /// loop. At `half == 0` the group's common end position is resolved
    /// and appended unless it repeats the last appended element.
    fn descend(
        &self,
        pos: usize,
        acc: ScaledF64,
        half: usize,
        ts: &[ScaledF64],
        out: &mut Vec<usize>,
    ) {
        let end = match ts {
            [] => return,
            // A lone target finishes on `sample`'s own loop.
            [t] => self.descend_from(pos, acc, half, *t),
            _ if half == 0 => pos,
            _ => return self.split(pos, acc, half, ts, out),
        };
        let idx = self.resolve(end);
        if out.last() != Some(&idx) {
            out.push(idx);
        }
    }

    /// Probes node `pos + half` once for the whole group `ts` (two or more
    /// targets, `half > 0`) and sends each part on down its side.
    fn split(
        &self,
        pos: usize,
        acc: ScaledF64,
        half: usize,
        ts: &[ScaledF64],
        out: &mut Vec<usize>,
    ) {
        let next = pos + half;
        if next > self.cap {
            return self.descend(pos, acc, half >> 1, ts, out);
        }
        let cand = acc + self.tree[next];
        // `sample` moves right iff `cand <= t`; `ScaledF64`'s order is
        // total, so exactly the targets below `cand` stay left.
        let split = ts.partition_point(|&t| t < cand);
        self.descend(pos, acc, half >> 1, &ts[..split], out);
        self.descend(next, cand, half >> 1, &ts[split..], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn from_f64s(ws: &[f64]) -> WeightIndex {
        let ws: Vec<ScaledF64> = ws.iter().map(|&w| ScaledF64::from_f64(w)).collect();
        WeightIndex::from_weights(&ws)
    }

    #[test]
    fn uniform_total_is_n() {
        for n in [1usize, 2, 3, 7, 64, 1000] {
            let idx = WeightIndex::uniform(n);
            assert_eq!(idx.len(), n);
            assert!((idx.total().to_f64() - n as f64).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn empty_index_is_inert() {
        let idx = WeightIndex::uniform(0);
        assert!(idx.is_empty());
        assert!(idx.total().is_zero());
        assert!(idx.prefix(0).is_zero());
    }

    #[test]
    fn prefix_matches_naive_fold() {
        let idx = from_f64s(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]);
        let mut acc = 0.0;
        for (i, w) in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0].iter().enumerate() {
            assert!((idx.prefix(i).to_f64() - acc).abs() < 1e-9, "prefix {i}");
            acc += w;
            assert!((idx.prefix(i + 1).to_f64() - acc).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_inverts_prefix_boundaries() {
        let idx = from_f64s(&[2.0, 3.0, 5.0]);
        let cases = [
            (0.0, 0),
            (1.999, 0),
            (2.0, 1), // boundary: prefix(1) == t selects the next element
            (4.999, 1),
            (5.0, 2),
            (9.999, 2),
            (10.0, 2), // t == total clamps to the last element
            (50.0, 2), // beyond-total clamps too
        ];
        for (t, expect) in cases {
            assert_eq!(idx.sample(ScaledF64::from_f64(t)), expect, "t={t}");
        }
    }

    /// `sample_sorted` over `ts` (ascending) against `sample` per target,
    /// sorted and deduplicated.
    fn assert_sample_sorted_matches_sample(idx: &WeightIndex, ts: &[f64]) {
        let targets: Vec<ScaledF64> = ts.iter().map(|&t| ScaledF64::from_f64(t)).collect();
        let mut want: Vec<usize> = targets.iter().map(|&t| idx.sample(t)).collect();
        want.sort_unstable();
        want.dedup();
        let mut got = vec![usize::MAX];
        idx.sample_sorted(&targets, &mut got);
        assert_eq!(got, want, "targets {ts:?}");
    }

    #[test]
    fn sample_sorted_matches_sample_at_boundaries_clamps_and_plateaus() {
        // Exact prefix boundaries, t == total and beyond-total clamps.
        let idx = from_f64s(&[2.0, 3.0, 5.0]);
        assert_sample_sorted_matches_sample(
            &idx,
            &[0.0, 1.999, 2.0, 4.999, 5.0, 9.999, 10.0, 50.0],
        );
        assert_sample_sorted_matches_sample(&idx, &[2.0, 2.0, 5.0]);
        assert_sample_sorted_matches_sample(&idx, &[10.0, 50.0]);
        // A zero tail: clamped landings step back onto the same element.
        let idx = from_f64s(&[1.0, 0.0]);
        assert_sample_sorted_matches_sample(&idx, &[0.0, 0.5, 0.999, 1.0, 2.0]);
        // A zero head and an interior plateau, at a non-power-of-two n.
        let idx = from_f64s(&[0.0, 1.0, 0.0, 0.0, 2.0, 0.0]);
        assert_sample_sorted_matches_sample(&idx, &[0.0, 0.5, 1.0, 1.5, 2.999, 3.0, 99.0]);
        // No targets: nothing drawn, even from an all-zero index.
        let mut out = vec![1];
        from_f64s(&[0.0, 0.0]).sample_sorted(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn sample_never_returns_zero_weight() {
        // Zero tail: the clamp would land on the trailing zero.
        let idx = from_f64s(&[1.0, 0.0]);
        for t in [0.0, 0.5, 0.999, 1.0, 2.0] {
            assert_eq!(idx.sample(ScaledF64::from_f64(t)), 0, "t={t}");
        }
        // Zero head and an interior plateau.
        let idx = from_f64s(&[0.0, 1.0, 0.0, 0.0, 2.0, 0.0]);
        for t in [0.0, 0.5, 1.0, 1.5, 2.999, 3.0, 99.0] {
            let got = idx.sample(ScaledF64::from_f64(t));
            assert!(got == 1 || got == 4, "t={t} selected zero-weight {got}");
        }
    }

    #[test]
    fn single_element_always_selected() {
        let mut idx = WeightIndex::uniform(1);
        idx.multiply(0, 1e6);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(idx.draw(&mut rng), 0);
        }
    }

    #[test]
    fn multiply_updates_total_and_prefixes() {
        let mut idx = WeightIndex::uniform(5);
        idx.multiply(2, 10.0);
        idx.multiply(2, 10.0);
        idx.multiply(4, 3.0);
        assert!((idx.total().to_f64() - (1.0 + 1.0 + 100.0 + 1.0 + 3.0)).abs() < 1e-9);
        assert!((idx.get(2).to_f64() - 100.0).abs() < 1e-9);
        assert!((idx.prefix(3).to_f64() - 102.0).abs() < 1e-9);
    }

    #[test]
    fn survives_magnitudes_past_f64_overflow() {
        // 600 doublings per element: weights near 2^600, totals past any
        // single f64 after a few multiplies of a 2^1000 base.
        let base: Vec<ScaledF64> = (0..8).map(|_| ScaledF64::powi(2.0, 1000)).collect();
        let mut idx = WeightIndex::from_weights(&base);
        for _ in 0..200 {
            idx.multiply(3, 4.0); // element 3 gains 2^400
        }
        assert!((idx.get(3).log2() - 1400.0).abs() < 1e-6);
        // Total ≈ 2^1400 (element 3 dominates); must stay finite & ordered.
        assert!((idx.total().log2() - 1400.0).abs() < 1e-3);
        // Sampling still lands on the dominating element for mid targets.
        let t = idx.total() * ScaledF64::from_f64(0.5);
        assert_eq!(idx.sample(t), 3);
    }

    #[test]
    fn draw_respects_weights() {
        let mut idx = WeightIndex::uniform(3);
        idx.multiply(2, 3.0);
        let mut rng = StdRng::seed_from_u64(31);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[idx.draw(&mut rng)] += 1;
        }
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "all-zero index")]
    fn sample_rejects_all_zero() {
        let idx = from_f64s(&[0.0, 0.0]);
        let _ = idx.sample(ScaledF64::ZERO);
    }

    #[test]
    #[should_panic(expected = "factor must be finite and >= 1")]
    fn multiply_rejects_shrinking_factor() {
        let mut idx = WeightIndex::uniform(2);
        idx.multiply(0, 0.5);
    }
}
