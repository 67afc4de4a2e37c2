//! Lexicographically smallest LP optimum (Proposition 4.1).
//!
//! The LP-type formulation of linear programming needs a *canonical*
//! `f(A)`: the paper picks the lexicographically smallest point among the
//! optima of the LP restricted to `A`. Proposition 4.1 computes it with
//! `d + 1` nested LP solves, each fixing one more coordinate. We implement
//! exactly that, with the equality constraints handled by exact variable
//! elimination instead of a pair of inequalities (numerically far more
//! robust): fixing `g·y = v` solves one variable out and rewrites every
//! remaining constraint and tracked coordinate expression into the reduced
//! space.
//!
//! The reduced system is one flat row-major buffer of rows
//! `[a_0 … a_{free-1}, b]` (the layout of [`crate::seidel`]), and the
//! coordinate expressions one `d × free` coefficient matrix; both shrink
//! in place by a column per fixed plane, and every stage's Seidel solve
//! reuses one set of level buffers.

use crate::seidel::{eliminate_row, SeidelConfig, SeidelScratch, Verdict};
use crate::LpResult;
use llp_geom::{Halfspace, Point};
use llp_num::linalg::{dot, norm};
use rand::Rng;

/// The flat working state of one [`lex_min_optimum`] call.
#[derive(Debug, Default)]
struct LexState {
    /// Reduced constraint rows, stride `free + 1`.
    rows: Vec<f64>,
    /// One eliminated row, before [`fix_plane`] compacts it into `rows`.
    row: Vec<f64>,
    /// `x_j = consts[j] + coefs[j·free ..][..free] · y`: every original
    /// coordinate as an affine expression in the free variables `y`.
    coefs: Vec<f64>,
    consts: Vec<f64>,
    /// The current stage objective `g`, then `[g, v]`: the plane being
    /// fixed, in row layout.
    plane: Vec<f64>,
    /// The optimum of the last successful stage, in the free variables
    /// that remain after its plane was fixed.
    current: Vec<f64>,
}

/// Solves `min c·x : a_j·x ≤ b_j` and returns the *lexicographically
/// smallest* optimal point, the canonical `f(A)` of Section 4.1.
///
/// The feasible region is intersected with the box `[-M, M]^d`
/// (`cfg.box_half_width`); if the canonical optimum is pinned to that box
/// the LP is reported [`LpResult::Unbounded`]. Constraints of mismatched
/// dimension cause a panic.
pub fn lex_min_optimum<R: Rng + ?Sized>(
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
    let mut lx = LexState::default();
    let mut seidel = SeidelScratch::default();
    let m_box = cfg.box_half_width;
    // Explicit box constraints participate in every reduced stage; Seidel's
    // internal box is pushed far out so it never binds before these.
    lx.rows.reserve_exact((constraints.len() + 2 * d) * (d + 1));
    for h in constraints {
        lx.rows.extend_from_slice(&h.a);
        lx.rows.push(h.b);
    }
    for i in 0..d {
        for sign in [1.0, -1.0] {
            let start = lx.rows.len();
            lx.rows.resize(start + d, 0.0);
            lx.rows[start + i] = sign;
            lx.rows.push(m_box);
        }
    }
    let inner_cfg = SeidelConfig {
        box_half_width: 16.0 * m_box,
        eps: cfg.eps,
    };

    // x_j = consts[j] + coefs[j] · y ; initially the identity.
    lx.coefs.resize(d * d, 0.0);
    for j in 0..d {
        lx.coefs[j * d + j] = 1.0;
    }
    lx.consts.resize(d, 0.0);

    // Stage 0 objective is `c`; stages 1..=d minimize the original
    // coordinates in order. `current` tracks the optimum of the last
    // successful stage in the current free coordinates: once stage 0 has
    // produced it, the subproblem is feasible by construction, so any
    // later-stage solver failure is numerical (tolerance-empty reduced
    // intervals on a degenerate face) and falls back to `current` instead
    // of propagating a wrong verdict.
    let mut has_current = false;
    let mut free = d;
    for stage in 0..=d {
        if free == 0 {
            break;
        }
        lx.plane.clear();
        if stage == 0 {
            // c expressed over the free variables.
            lx.plane.resize(free, 0.0);
            for j in 0..d {
                for k in 0..free {
                    lx.plane[k] += objective[j] * lx.coefs[j * free + k];
                }
            }
        } else {
            let row = (stage - 1) * free;
            lx.plane.extend_from_slice(&lx.coefs[row..row + free]);
        }
        if norm(&lx.plane) <= 1e-12 {
            // This stage's coordinate is already pinned by earlier planes.
            continue;
        }
        seidel.load(free).extend_from_slice(&lx.rows);
        match seidel.solve(&lx.plane, &inner_cfg, rng) {
            Verdict::Optimal => {}
            Verdict::Infeasible | Verdict::Unbounded if stage > 0 => {
                // Numerical failure on the (feasible) optimal face: keep
                // the refinement achieved so far.
                break;
            }
            Verdict::Infeasible => return LpResult::Infeasible,
            Verdict::Unbounded => return LpResult::Unbounded,
        }
        let y = seidel.point(free);
        let v = dot(&lx.plane, y);
        let pivot = fix_plane(&mut lx, v);
        lx.current.clear();
        for (k, &yk) in y.iter().enumerate() {
            if k != pivot {
                lx.current.push(yk);
            }
        }
        has_current = true;
        free -= 1;
    }

    // Reconstruct: coordinates still free take their values from the last
    // successful stage's optimum (zero only if no stage ever solved,
    // which stage 0 rules out).
    let mut x: Point = Vec::with_capacity(d);
    for j in 0..d {
        let mut v = lx.consts[j];
        if has_current {
            for (k, &c) in lx.coefs[j * free..(j + 1) * free].iter().enumerate() {
                v += c * lx.current[k];
            }
        }
        x.push(v);
    }
    if x.iter().any(|v| v.abs() >= m_box * (1.0 - 1e-6)) {
        return LpResult::Unbounded;
    }
    // Final sanity: the point must satisfy all original constraints.
    for h in constraints {
        if !h.contains_eps(&x, cfg.eps.max(1e-7) * 100.0) {
            // Accumulated elimination error; fall back to reporting
            // infeasible only if the violation is gross.
            if h.slack(&x) < -1e-3 * (1.0 + h.b.abs()) {
                return LpResult::Infeasible;
            }
        }
    }
    LpResult::Optimal(x)
}

/// Restricts the system to the plane `g·y = v` (`g` is `lx.plane`):
/// eliminates the free variable with the largest `|g|` coefficient from
/// every constraint row and every coordinate expression. Returns the
/// eliminated variable's index (in the pre-elimination free coordinates).
fn fix_plane(lx: &mut LexState, v: f64) -> usize {
    let free = lx.plane.len();
    debug_assert!(free >= 1);
    let g = &lx.plane;
    let mut pivot = 0;
    for k in 1..free {
        if g[k].abs() > g[pivot].abs() {
            pivot = k;
        }
    }
    let gp = g[pivot];
    debug_assert!(gp.abs() > 1e-12);

    // y_pivot = (v - Σ_{i≠pivot} g_i y_i) / g_pivot; substitute into every
    // coordinate expression and drop the pivot column, compacting the
    // matrix in place (row j's writes never pass its unread entries).
    let d = lx.consts.len();
    for j in 0..d {
        let (src, dst) = (j * free, j * (free - 1));
        let cp = lx.coefs[src + pivot];
        let mut w = 0;
        for i in 0..free {
            if i != pivot {
                lx.coefs[dst + w] = lx.coefs[src + i] - cp * g[i] / gp;
                w += 1;
            }
        }
        lx.consts[j] += cp * v / gp;
    }
    lx.coefs.truncate(d * (free - 1));

    // Rewrite every constraint row onto the plane, dropping those that
    // became trivial (zero normal, satisfied). Row `r` lands in slot
    // `kept ≤ r` of the narrower layout, which only covers rows already
    // read, so the compaction runs in place.
    lx.plane.push(v);
    lx.row.resize(free, 0.0);
    let mut kept = 0;
    for r in 0..lx.rows.len() / (free + 1) {
        let h = &lx.rows[r * (free + 1)..(r + 1) * (free + 1)];
        eliminate_row(&lx.plane, h, pivot, &mut lx.row);
        if norm(&lx.row[..free - 1]) <= 1e-12 && lx.row[free - 1] >= -1e-9 {
            continue;
        }
        lx.rows[kept * free..(kept + 1) * free].copy_from_slice(&lx.row);
        kept += 1;
    }
    lx.rows.truncate(kept * free);
    pivot
}
