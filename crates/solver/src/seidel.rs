//! Seidel's randomized incremental algorithm for low-dimensional LP.
//!
//! Solves `min c·x` subject to halfspace constraints `a_j·x ≤ b_j`,
//! intersected with the regularization box `[-M, M]^d`. The box guarantees
//! a bounded subproblem at every recursion level; if the final optimum is
//! pinned to the box the caller receives [`LpResult::Unbounded`].
//!
//! The algorithm processes constraints in random order, maintaining the
//! optimum of the prefix. When the next constraint is violated, the new
//! optimum lies on its boundary hyperplane, so the problem recurses into
//! `d - 1` dimensions via exact variable elimination (`eliminate_row`).
//! Expected running time is `O(d! · m)` for `m` constraints — linear in
//! `m` for fixed `d`, which is the regime of the paper.
//!
//! # Flat layout
//!
//! Constraints live in one flat row-major `f64` buffer per dimension
//! level: a `k`-dimensional level holds rows `[a_0 … a_{k-1}, b]` of
//! stride `k + 1`. Normalization, elimination into the next level down,
//! the Fisher–Yates row shuffle and the lift back up all work on those
//! buffers in place. A solve allocates one buffer set (`SeidelScratch`)
//! and reuses it for every recursion.

use crate::LpResult;
use llp_geom::Halfspace;
use llp_num::linalg::{dot, norm};
use rand::Rng;

/// Configuration for the Seidel solver.
#[derive(Clone, Copy, Debug)]
pub struct SeidelConfig {
    /// Half-width of the regularization box `[-M, M]^d`.
    pub box_half_width: f64,
    /// Relative feasibility tolerance.
    pub eps: f64,
}

impl Default for SeidelConfig {
    fn default() -> Self {
        SeidelConfig {
            box_half_width: 1e9,
            eps: 1e-9,
        }
    }
}

/// Solves `min c·x : a_j·x ≤ b_j ∀j, x ∈ [-M, M]^d`.
///
/// Constraints of mismatched dimension cause a panic. The result point, if
/// optimal, satisfies every constraint to within the configured tolerance.
pub fn solve<R: Rng + ?Sized>(
    constraints: &[Halfspace],
    objective: &[f64],
    cfg: &SeidelConfig,
    rng: &mut R,
) -> LpResult {
    let d = objective.len();
    assert!(d >= 1, "objective in zero dimensions");
    for h in constraints {
        assert_eq!(h.dim(), d, "constraint dimension mismatch");
    }
    let mut scratch = SeidelScratch::default();
    let rows = scratch.load(d);
    rows.reserve_exact(constraints.len() * (d + 1));
    for h in constraints {
        rows.extend_from_slice(&h.a);
        rows.push(h.b);
    }
    match scratch.solve(objective, cfg, rng) {
        Verdict::Optimal => LpResult::Optimal(scratch.point(d).to_vec()),
        Verdict::Infeasible => LpResult::Infeasible,
        Verdict::Unbounded => LpResult::Unbounded,
    }
}

/// Outcome of a flat solve; an optimal point stays in the scratch
/// ([`SeidelScratch::point`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Verdict {
    Optimal,
    Infeasible,
    Unbounded,
}

/// One dimension level of the recursion.
#[derive(Debug, Default)]
struct Level {
    /// Rows `[a_0 … a_{k-1}, b]` of stride `k + 1` for a `k`-dimensional
    /// level.
    rows: Vec<f64>,
    /// The level's objective (length `k`).
    obj: Vec<f64>,
    /// The level's current optimum (length `k`).
    x: Vec<f64>,
    /// A box row `±e_var ≤ M` (stride `k + 1`), eliminated into the level
    /// below alongside the prefix.
    unit: Vec<f64>,
}

/// Per-level buffers of the Seidel recursion, `levels[k - 1]` serving
/// dimension `k`; reused by every recursion of a solve and, in
/// [`crate::lexico`], by every stage.
#[derive(Debug, Default)]
pub(crate) struct SeidelScratch {
    levels: Vec<Level>,
}

impl SeidelScratch {
    /// Clears the top level of a `d`-dimensional solve and returns its row
    /// buffer; the caller appends unnormalized rows `[a_0 … a_{d-1}, b]`.
    pub(crate) fn load(&mut self, d: usize) -> &mut Vec<f64> {
        if self.levels.len() < d {
            self.levels.resize_with(d, Level::default);
        }
        let rows = &mut self.levels[d - 1].rows;
        rows.clear();
        rows
    }

    /// Solves over the rows [`load`](Self::load)ed for
    /// `objective.len()` dimensions: normalizes and shuffles them in place,
    /// then runs the recursion.
    pub(crate) fn solve<R: Rng + ?Sized>(
        &mut self,
        objective: &[f64],
        cfg: &SeidelConfig,
        rng: &mut R,
    ) -> Verdict {
        let d = objective.len();
        let levels = &mut self.levels[..d];
        let top = &mut levels[d - 1];
        for row in top.rows.chunks_exact_mut(d + 1) {
            normalize_row(row);
        }
        shuffle_rows(&mut top.rows, d + 1, rng);
        top.obj.clear();
        top.obj.extend_from_slice(objective);
        if !solve_level(levels, cfg, rng) {
            Verdict::Infeasible
        } else if on_box(&levels[d - 1].x, cfg) {
            Verdict::Unbounded
        } else {
            Verdict::Optimal
        }
    }

    /// The optimum of the last `d`-dimensional [`solve`](Self::solve).
    pub(crate) fn point(&self, d: usize) -> &[f64] {
        &self.levels[d - 1].x
    }
}

fn on_box(x: &[f64], cfg: &SeidelConfig) -> bool {
    let m = cfg.box_half_width;
    x.iter().any(|v| v.abs() >= m * (1.0 - 1e-6))
}

/// Recursive core over `levels`, whose last entry is the current level
/// (dimension `levels.len()`). `false` means infeasible; otherwise the
/// current level's `x` is the optimum over its rows `∩ [-M, M]^d`.
fn solve_level<R: Rng + ?Sized>(levels: &mut [Level], cfg: &SeidelConfig, rng: &mut R) -> bool {
    let d = levels.len();
    let (lower, cur) = levels.split_at_mut(d - 1);
    let cur = &mut cur[0];
    if d == 1 {
        return solve_1d(cur, cfg);
    }

    // Start from the box vertex minimizing the objective (deterministic
    // tie-break toward -M).
    let m = cfg.box_half_width;
    cur.x.clear();
    cur.x.extend(cur.obj.iter().map(|&c| {
        if c > 0.0 {
            -m
        } else if c < 0.0 {
            m
        } else {
            -m
        }
    }));

    let stride = d + 1;
    for i in 0..cur.rows.len() / stride {
        let h = &cur.rows[i * stride..(i + 1) * stride];
        if row_contains_eps(h, &cur.x, cfg.eps) {
            continue;
        }
        // Zero-normal constraint that x fails is 0 ≤ b with b < 0.
        let (pivot_var, pivot_mag) = argmax_abs(&h[..d]);
        if pivot_mag <= 1e-12 {
            return false;
        }
        // New optimum lies on the boundary of h: eliminate pivot_var and
        // recurse on the prefix (plus the box constraints of the eliminated
        // variable, which become ordinary constraints after elimination).
        //
        // Each eliminated constraint is renormalized before the recursion:
        // near-parallel eliminations leave reduced normals with tiny
        // magnitude, and `solve_1d`'s `b / a` division amplifies their
        // absolute rounding error past any fixed relative tolerance —
        // which read as false `Infeasible` verdicts on near-tie inputs.
        // Normalizing restores ‖a‖ = 1 so the relative eps comparison in
        // the base case measures true geometric slack.
        let next = &mut lower[d - 2];
        next.rows.resize((i + 2) * d, 0.0);
        let (prefix, boxes) = next.rows.split_at_mut(i * d);
        for (g, out) in cur.rows[..i * stride]
            .chunks_exact(stride)
            .zip(prefix.chunks_exact_mut(d))
        {
            eliminate_row(h, g, pivot_var, out);
            normalize_row(out);
        }
        // Box for the eliminated variable: x_var ≤ M and -x_var ≤ M.
        let (hi, lo) = boxes.split_at_mut(d);
        cur.unit.clear();
        cur.unit.resize(stride, 0.0);
        cur.unit[d] = m;
        cur.unit[pivot_var] = 1.0;
        eliminate_row(h, &cur.unit, pivot_var, hi);
        normalize_row(hi);
        cur.unit[pivot_var] = -1.0;
        eliminate_row(h, &cur.unit, pivot_var, lo);
        normalize_row(lo);

        // Objective restricted to the hyperplane: substitute x_var.
        let scale = cur.obj[pivot_var] / h[pivot_var];
        next.obj.clear();
        for k in 0..d {
            if k != pivot_var {
                next.obj.push(cur.obj[k] - scale * h[k]);
            }
        }
        shuffle_rows(&mut next.rows, d, rng);
        if !solve_level(lower, cfg, rng) {
            return false;
        }
        lift_row(h, &lower[d - 2].x, pivot_var, &mut cur.x);
        // Clamp lift noise back into the box.
        for v in &mut cur.x {
            *v = v.clamp(-m, m);
        }
    }
    true
}

fn argmax_abs(a: &[f64]) -> (usize, f64) {
    let mut best = 0;
    let mut mag = a[0].abs();
    for (i, v) in a.iter().enumerate().skip(1) {
        if v.abs() > mag {
            best = i;
            mag = v.abs();
        }
    }
    (best, mag)
}

/// One-dimensional base case: intersect rays, pick the endpoint minimizing
/// `c·x` (tie-break toward the smaller endpoint so the result is
/// deterministic given the constraint set).
fn solve_1d(level: &mut Level, cfg: &SeidelConfig) -> bool {
    let m = cfg.box_half_width;
    let mut lo = -m;
    let mut hi = m;
    for row in level.rows.chunks_exact(2) {
        let (a, b) = (row[0], row[1]);
        if a.abs() <= 1e-12 {
            // 0·x ≤ b: infeasible iff b is definitely negative.
            if b < -cfg.eps {
                return false;
            }
            continue;
        }
        let bound = b / a;
        if a > 0.0 {
            hi = hi.min(bound);
        } else {
            lo = lo.max(bound);
        }
    }
    if lo > hi + cfg.eps * lo.abs().max(hi.abs()).max(1.0) {
        return false;
    }
    let hi = hi.max(lo); // collapse tolerance-sized inversions
    let c = level.obj[0];
    let x = if c > 0.0 {
        lo
    } else if c < 0.0 {
        hi
    } else {
        lo
    };
    level.x.clear();
    level.x.push(x);
    true
}

/// True iff `x` satisfies the row `[a, b]` up to relative tolerance `eps`
/// — the flat twin of [`Halfspace::contains_eps`], same operations.
#[inline]
fn row_contains_eps(row: &[f64], x: &[f64], eps: f64) -> bool {
    let (a, b) = row.split_at(row.len() - 1);
    let b = b[0];
    let ax = dot(a, x);
    ax <= b + eps * ax.abs().max(b.abs()).max(1.0)
}

/// Scales the row `[a, b]` in place so `‖a‖ = 1` (the halfspace is
/// unchanged). A zero normal is left verbatim so infeasibility (`b < 0`)
/// is still detected.
pub(crate) fn normalize_row(row: &mut [f64]) {
    let n = norm(&row[..row.len() - 1]);
    if n <= 1e-300 {
        return;
    }
    for v in row.iter_mut() {
        *v /= n;
    }
}

/// Eliminates variable `var` from the row `g = [a, b]` through the boundary
/// `plane·x = plane_b` of the row `plane`, writing the `(d-1)`-dimensional
/// row into `out` (stride one shorter, `var` removed, order kept).
///
/// The boundary gives `x_var = (plane_b - Σ_{i≠var} plane_i x_i) /
/// plane_var`; substituting it into `g` rewrites every entry, `b`
/// included, as `g_k - (g_var / plane_var) · plane_k`. The caller
/// guarantees `plane[var] != 0`.
pub(crate) fn eliminate_row(plane: &[f64], g: &[f64], var: usize, out: &mut [f64]) {
    debug_assert_eq!(plane.len(), g.len());
    debug_assert_eq!(out.len() + 1, g.len());
    let scale = g[var] / plane[var];
    let mut w = 0;
    for k in 0..g.len() {
        if k != var {
            out[w] = g[k] - scale * plane[k];
            w += 1;
        }
    }
}

/// Lifts a point `y` of the eliminated space back onto the boundary of the
/// row `plane = [a, b]`, restoring coordinate `var` — the inverse of
/// [`eliminate_row`]. Writes all `d` coordinates into `x`.
pub(crate) fn lift_row(plane: &[f64], y: &[f64], var: usize, x: &mut [f64]) {
    let d = plane.len() - 1;
    debug_assert_eq!(y.len() + 1, d);
    debug_assert_eq!(x.len(), d);
    let mut yi = 0;
    let mut partial = 0.0;
    for i in 0..d {
        if i != var {
            partial += plane[i] * y[yi];
            x[i] = y[yi];
            yi += 1;
        }
    }
    x[var] = (plane[d] - partial) / plane[var];
}

/// Fisher–Yates shuffle of the rows of stride `stride`, drawing exactly the
/// sequence `rand::seq::SliceRandom::shuffle` draws for a slice of that
/// many rows: one `random_range(0..=i)` per `i` from the last row down to
/// 1, then a swap of rows `i` and `j`.
pub(crate) fn shuffle_rows<R: Rng + ?Sized>(rows: &mut [f64], stride: usize, rng: &mut R) {
    let n = rows.len() / stride;
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        if j != i {
            let (head, tail) = rows.split_at_mut(i * stride);
            head[j * stride..(j + 1) * stride].swap_with_slice(&mut tail[..stride]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_num::linalg::dot;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Slack `b - a·x` of a row `[a, b]`.
    fn row_slack(row: &[f64], x: &[f64]) -> f64 {
        row[row.len() - 1] - dot(&row[..row.len() - 1], x)
    }

    #[test]
    fn eliminate_then_lift_roundtrip() {
        // Plane x0 + 2*x1 + x2 = 4; eliminate x1.
        let plane = [1.0, 2.0, 1.0, 4.0];
        let other = [3.0, 1.0, -1.0, 5.0];
        let mut reduced = [0.0; 3];
        eliminate_row(&plane, &other, 1, &mut reduced);
        // A point on the plane: pick y = (x0, x2) = (1, 1) -> x1 = (4-2)/2 = 1.
        let mut x = [0.0; 3];
        lift_row(&plane, &[1.0, 1.0], 1, &mut x);
        assert_eq!(x, [1.0, 1.0, 1.0]);
        // The reduced constraint at y must equal the original at the lifted x.
        assert!((row_slack(&reduced, &[1.0, 1.0]) - row_slack(&other, &x)).abs() < 1e-12);
    }

    /// `shuffle_rows` over `n` rows of stride 3 against the slice shuffle
    /// of `n` row ids from the same seed: same permutation, rows moved
    /// whole, same RNG state after.
    fn assert_shuffle_matches_slice_shuffle(n: usize) {
        use rand::seq::SliceRandom;
        use rand::RngCore;
        let ids: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut want = ids.clone();
        let mut r1 = StdRng::seed_from_u64(n as u64);
        want.shuffle(&mut r1);
        let mut rows: Vec<f64> = ids.iter().flat_map(|&v| [v, v, v]).collect();
        let mut r2 = StdRng::seed_from_u64(n as u64);
        shuffle_rows(&mut rows, 3, &mut r2);
        let got: Vec<f64> = rows.chunks_exact(3).map(|r| r[0]).collect();
        assert_eq!(got, want, "n = {n}");
        assert!(rows.chunks_exact(3).all(|r| r[0] == r[1] && r[1] == r[2]));
        assert_eq!(r1.next_u64(), r2.next_u64(), "RNG state after n = {n}");
    }

    #[test]
    fn shuffle_rows_draws_the_slice_shuffle_sequence() {
        for n in [0usize, 1, 2, 7, 33] {
            assert_shuffle_matches_slice_shuffle(n);
        }
    }

    proptest! {
        /// Eliminating a variable and lifting preserves constraint slack:
        /// for any point y of the reduced space, the reduced slack equals
        /// the original slack at the lifted point.
        #[test]
        fn prop_elimination_preserves_slack(
            pa in proptest::collection::vec(-5.0f64..5.0, 3),
            pb in -5.0f64..5.0,
            oa in proptest::collection::vec(-5.0f64..5.0, 3),
            ob in -5.0f64..5.0,
            y in proptest::collection::vec(-5.0f64..5.0, 2),
            var in 0usize..3,
        ) {
            prop_assume!(pa[var].abs() > 0.1);
            let plane = [pa[0], pa[1], pa[2], pb];
            let other = [oa[0], oa[1], oa[2], ob];
            let mut reduced = [0.0; 3];
            eliminate_row(&plane, &other, var, &mut reduced);
            let mut x = [0.0; 3];
            lift_row(&plane, &y, var, &mut x);
            // The lifted point is on the plane.
            prop_assert!(llp_num::float::approx_eq(dot(&plane[..3], &x), pb, 1e-7));
            prop_assert!((row_slack(&reduced, &y) - row_slack(&other, &x)).abs() < 1e-6);
        }
    }
}
