//! Machinery shared by the three model implementations.
//!
//! The central trick of Section 3.2: the weight of a constraint is never
//! stored. After `t` successful iterations with stored basis solutions
//! `B_1, …, B_t`, constraint `c` has weight `F^{a(c)}` where
//! `a(c) = |{ j : c violates B_j }|`. Everyone who holds the basis history
//! (the streaming algorithm's memory, every coordinator site, every MPC
//! machine) can therefore recompute any weight in `O(t · d)` time.
//!
//! Where a holder is *not* space-bounded — every coordinator site and MPC
//! machine keeps its whole partition resident — per-round recomputation is
//! pure waste: only the violators of an accepted basis change weight. Such
//! holders are a [`SiteWeights`]: the partition's rows, held once as
//! [`ConstraintColumns`], plus a persistent Fenwick-backed [`WeightIndex`]
//! updated in `O(|V| log n)` from each round's violator list, with O(1)
//! totals and O(log n) sampling. Weights are derived state — they never
//! travel — so the communication meters are unaffected. The streaming
//! model stays on the [`WeightOracle`] recompute path: its space bound
//! forbids materializing per-element weights. The holders' chunk-parallel
//! scans run on the `llp_par` pool with fixed chunk boundaries and
//! ordered merges: results are bit-identical for any `LLP_THREADS`, and
//! the metered communication is untouched because the meters are charged
//! outside these scans.
//!
//! The coordinator and MPC models run one protocol — Lemma 3.7's, with
//! MPC's machine 0 as the coordinator — so they share one loop, `drive`,
//! over their holders. What differs is only the message pattern behind
//! the `Topology` trait: the coordinator's star (three rounds per
//! iteration, sums in site order) and MPC's `⌈n^δ⌉`-ary tree
//! (broadcasts, converge-casts and a hierarchical split of the draws).

use crate::BigDataError;
use llp_core::clarkson::FailurePolicy;
use llp_core::lptype::{ColumnarProblem, LpTypeProblem};
use llp_core::{ClarksonConfig, RunParams};
use llp_geom::ConstraintColumns;
use llp_num::ScaledF64;
use llp_sampling::weight_index::WeightIndex;
use rand::Rng;

/// The basis history of successful iterations plus the derived weight
/// accounting for one holder (streaming memory / a site / a machine).
#[derive(Clone, Debug)]
pub struct WeightOracle<P: LpTypeProblem> {
    /// Solutions of the accepted (successful) iterations, in order.
    bases: Vec<P::Solution>,
    /// The weight factor `F` (`n^{1/r}` or the ablation value).
    factor: f64,
}

impl<P: LpTypeProblem> WeightOracle<P> {
    /// An empty history with the given factor.
    pub fn new(factor: f64) -> Self {
        assert!(factor > 1.0, "weight factor must exceed 1");
        WeightOracle {
            bases: Vec::new(),
            factor,
        }
    }

    /// Records an accepted basis.
    pub fn push(&mut self, basis: P::Solution) {
        self.bases.push(basis);
    }

    /// The violation count `a(c)` of a constraint.
    pub fn exponent(&self, problem: &P, c: &P::Constraint) -> u32 {
        self.bases.iter().filter(|b| problem.violates(b, c)).count() as u32
    }

    /// The weight `F^{a(c)}` of a constraint.
    pub fn weight(&self, problem: &P, c: &P::Constraint) -> ScaledF64 {
        ScaledF64::powi(self.factor, self.exponent(problem, c))
    }
}

/// One holder of the coordinator or MPC model (a site or a machine):
/// its partition's rows, held exactly once as columns, plus the
/// persistent incremental weight state over them — a [`WeightIndex`]
/// updated from each round's violator list instead of recomputed from
/// the basis history.
///
/// Protocol shape: the verdict on a basis arrives one round *after* the
/// holder scanned for its violators, so the scan result is **staged**
/// ([`scan_and_stage`](Self::scan_and_stage)) and then either committed —
/// every staged index ×`F` — or discarded by
/// [`resolve`](Self::resolve). Weights are derived state and never
/// shipped; all metering stays in the callers.
#[derive(Clone, Debug)]
pub struct SiteWeights {
    columns: ConstraintColumns,
    index: WeightIndex,
    factor: f64,
    /// Local violator indices of the basis whose verdict is pending.
    staged: Vec<usize>,
    /// Reusable buffers of [`sample_rows`](Self::sample_rows): the draws'
    /// inversion targets and the picked row indices.
    targets: Vec<ScaledF64>,
    picked: Vec<usize>,
}

impl SiteWeights {
    /// Takes ownership of a partition's rows with all-ones weights
    /// (Line 2 of Algorithm 1).
    pub fn new(columns: ConstraintColumns, factor: f64) -> Self {
        assert!(factor > 1.0, "weight factor must exceed 1");
        SiteWeights {
            index: WeightIndex::uniform(columns.len()),
            columns,
            factor,
            staged: Vec::new(),
            targets: Vec::new(),
            picked: Vec::new(),
        }
    }

    /// Number of rows this holder keeps.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True iff the holder keeps no rows.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The holder's total local weight `w(S_i)` — O(1), no recompute.
    pub fn total(&self) -> ScaledF64 {
        self.index.total()
    }

    /// The weight of local constraint `i`.
    pub fn weight(&self, i: usize) -> ScaledF64 {
        self.index.get(i)
    }

    /// Finds the local violators of `solution` — one fused violation-test
    /// and weight scan over the holder's columns, chunk-parallel with an
    /// ordered merge (bit-identical for any thread count), with each
    /// weight an O(1) index read — stages their indices for the next
    /// verdict (refilling the staged buffer in place), and returns their
    /// weight `w(V_i)` and count.
    pub fn scan_and_stage<P: ColumnarProblem>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
    ) -> (ScaledF64, usize) {
        let w = llp_core::lptype::scan_violators_weighted_columnar(
            problem,
            solution,
            &self.columns,
            &self.index,
            &mut self.staged,
        );
        (w, self.staged.len())
    }

    /// Applies the coordinator's verdict on the staged basis: accepted ⇒
    /// every staged violator's weight ×`F` (`O(|V| log n)`); rejected ⇒
    /// weights unchanged. Either way the staged list is consumed.
    pub fn resolve(&mut self, accepted: bool) {
        if accepted {
            for &i in &self.staged {
                self.index.multiply(i, self.factor);
            }
        }
        self.staged.clear();
    }

    /// Draws `count` i.i.d. local rows proportional to weight — one
    /// shared descent of the index for all draws, deduplicated (net
    /// membership is a set) — and appends them in ascending row order to
    /// `net`, rebuilt through [`ColumnarProblem::from_row`]: the net
    /// contribution a site or machine ships upward. Appends nothing when
    /// the holder has no weight. Returns how many rows were appended.
    pub fn sample_rows<P: ColumnarProblem, R: Rng + ?Sized>(
        &mut self,
        problem: &P,
        count: usize,
        rng: &mut R,
        net: &mut Vec<P::Constraint>,
    ) -> usize {
        if count == 0 || self.index.total().is_zero() {
            return 0;
        }
        self.index
            .draw_sorted(count, rng, &mut self.targets, &mut self.picked);
        self.push_rows(problem, self.picked.iter().copied(), net)
    }

    /// Appends every row to `net` (the ε-net formula covers the whole
    /// input, so each holder ships its partition). Returns the row count.
    pub fn all_rows<P: ColumnarProblem>(&self, problem: &P, net: &mut Vec<P::Constraint>) -> usize {
        self.push_rows(problem, 0..self.len(), net)
    }

    fn push_rows<P: ColumnarProblem>(
        &self,
        problem: &P,
        rows: impl ExactSizeIterator<Item = usize>,
        net: &mut Vec<P::Constraint>,
    ) -> usize {
        let count = rows.len();
        net.reserve(count);
        let mut coords = Vec::with_capacity(self.columns.dim());
        for j in rows {
            let extra = self.columns.row(j, &mut coords);
            net.push(problem.from_row(&coords, extra));
        }
        count
    }
}

/// Cuts `data` into contiguous blocks of the given sizes, each
/// transposed into its own columns — the per-holder layout the
/// coordinator and MPC `solve_columns` entry points take, cut straight
/// from a borrowed slice without an intermediate copy of the rows.
///
/// # Panics
/// Panics if `sizes` does not sum to `data.len()`.
pub fn column_blocks<P: ColumnarProblem>(
    problem: &P,
    data: &[P::Constraint],
    sizes: &[usize],
) -> Vec<ConstraintColumns> {
    assert_eq!(
        sizes.iter().sum::<usize>(),
        data.len(),
        "block sizes must cover the input"
    );
    let mut start = 0;
    sizes
        .iter()
        .map(|&len| {
            let block = problem.to_columns(&data[start..start + len]);
            start += len;
            block
        })
        .collect()
}

/// The message pattern one distributed model runs Algorithm 1 over:
/// who talks to whom, in how many rounds, at what metered cost. [`drive`]
/// owns the algorithm; a topology only routes and meters its messages
/// and sums, in its own fixed order, what travels toward the coordinator.
/// Each method opens the rounds it needs.
pub(crate) trait Topology {
    /// Delivers the pending accept/reject verdict to every holder when
    /// `verdict` is set, then gathers the holders' total weights at the
    /// coordinator and returns `w(S)`. Keeps what the next split needs.
    fn gather_totals(&mut self, holders: &[SiteWeights], verdict: bool) -> ScaledF64;

    /// Tells every holder how many rows to ship to the coordinator:
    /// `Some(m)` splits `m` draws multinomially by the gathered weights
    /// (Lemma 3.7) into `counts`; `None` asks each holder for all of its
    /// rows. Leaves open the round in which the rows travel.
    fn split_draws<R: Rng>(&mut self, draws: Option<u64>, rng: &mut R, counts: &mut Vec<u64>);

    /// Meters holder `i` shipping `bits` bits of rows to the coordinator.
    fn ship_rows(&mut self, i: usize, bits: u64);

    /// Broadcasts the new basis, `bits` bits, to every holder.
    fn broadcast_basis(&mut self, bits: u64);

    /// Gathers the holders' violator weights `w(V_i)` and counts at the
    /// coordinator and returns `w(V)`.
    fn gather_violators(&mut self, local: &[ScaledF64]) -> ScaledF64;
}

/// Iteration counters of one [`drive`] run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Progress {
    /// Iterations of Algorithm 1.
    pub iterations: usize,
    /// Successful iterations.
    pub successful_iterations: usize,
    /// ε-net size `m`.
    pub net_size: usize,
}

/// Runs Algorithm 1 over holders that keep the given partitions, with
/// every message routed and metered by `topology`: the distributed
/// protocol of Lemma 3.7 that the coordinator (a star) and MPC (an
/// `⌈n^δ⌉`-ary tree) models share. Per iteration: verdict and totals,
/// the split of the `m` draws (or a take-all net when `m ≥ n`), the rows
/// to the coordinator, the basis of the net, the basis back down, and the
/// violator weights up for the success test.
///
/// # Panics
/// Panics if the partitions hold no rows overall.
pub(crate) fn drive<P: ColumnarProblem, T: Topology, R: Rng>(
    problem: &P,
    partitions: Vec<ConstraintColumns>,
    cfg: &ClarksonConfig,
    topology: &mut T,
    rng: &mut R,
) -> Result<(P::Solution, Progress), BigDataError> {
    let n: usize = partitions.iter().map(ConstraintColumns::len).sum();
    assert!(n > 0, "empty input");
    let params = RunParams::derive(problem, n, cfg);
    // Persistent per-holder weight state, updated incrementally from the
    // violator lists each holder scans anyway: the broadcast verdicts
    // keep every index in sync, and no round recomputes a weight.
    let mut holders: Vec<SiteWeights> = partitions
        .into_iter()
        .map(|cols| SiteWeights::new(cols, params.factor))
        .collect();
    // When the ε-net formula covers the whole input, every holder ships
    // its partition (a trivially valid net).
    let draws = (params.net_size < n).then_some(params.net_size as u64);
    let row_bits = problem.constraint_bits();
    let mut progress = Progress {
        iterations: 0,
        successful_iterations: 0,
        net_size: params.net_size,
    };
    // The accept/reject verdict the holders have not heard yet.
    let mut pending: Option<bool> = None;
    let mut counts: Vec<u64> = Vec::with_capacity(holders.len());
    let mut net: Vec<P::Constraint> = Vec::with_capacity(params.net_size.min(n));
    let mut violator_weights: Vec<ScaledF64> = Vec::with_capacity(holders.len());

    while progress.iterations < params.max_iterations {
        progress.iterations += 1;

        if let Some(accepted) = pending {
            for holder in holders.iter_mut() {
                holder.resolve(accepted);
            }
        }
        let total = topology.gather_totals(&holders, pending.take().is_some());

        // The net: each holder inverts its draws directly against its
        // index, in holder order.
        topology.split_draws(draws, rng, &mut counts);
        net.clear();
        for (i, holder) in holders.iter_mut().enumerate() {
            let rows = match draws {
                Some(_) => holder.sample_rows(problem, counts[i] as usize, rng, &mut net),
                None => holder.all_rows(problem, &mut net),
            };
            topology.ship_rows(i, rows as u64 * row_bits);
        }

        // The coordinator computes the basis locally.
        let solution = problem
            .solve_subset(&net, rng)
            .map_err(BigDataError::from)?;
        topology.broadcast_basis(problem.solution_bits());

        // Each holder's fused violation-test + weight scan; the violator
        // indices stay staged locally for the next verdict and never
        // travel.
        violator_weights.clear();
        let mut violator_count = 0usize;
        for holder in holders.iter_mut() {
            let (w, count) = holder.scan_and_stage(problem, &solution);
            violator_weights.push(w);
            violator_count += count;
        }
        let w_violators = topology.gather_violators(&violator_weights);

        if w_violators.ratio(total) <= params.eps {
            if violator_count == 0 {
                return Ok((solution, progress));
            }
            progress.successful_iterations += 1;
            pending = Some(true);
        } else if cfg.failure_policy == FailurePolicy::Abort {
            return Err(BigDataError::NetFailure);
        } else {
            pending = Some(false);
        }
    }
    Err(BigDataError::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::instances::lp::LpProblem;
    use llp_geom::Halfspace;

    #[test]
    fn exponent_counts_violated_bases() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        let mut oracle: WeightOracle<LpProblem> = WeightOracle::new(10.0);
        // Basis solutions are just points.
        oracle.push(vec![0.0, 0.0]);
        oracle.push(vec![5.0, 5.0]);
        // Constraint x + y ≤ 2 is satisfied by (0,0), violated by (5,5).
        let c = Halfspace::new(vec![1.0, 1.0], 2.0);
        assert_eq!(oracle.exponent(&p, &c), 1);
        let w = oracle.weight(&p, &c);
        assert!((w.to_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn site_weights_commit_and_discard() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        // Constraints x + y ≤ b for b = 0..10; basis point (4.5, 0)
        // violates exactly b ∈ {0..4}.
        let cs: Vec<Halfspace> = (0..10)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let mut site = SiteWeights::new(p.to_columns(&cs), 3.0);
        assert_eq!(site.len(), 10);
        assert!((site.total().to_f64() - 10.0).abs() < 1e-9);

        let probe = vec![4.5, 0.0];
        let (w, count) = site.scan_and_stage(&p, &probe);
        assert_eq!(count, 5);
        assert!((w.to_f64() - 5.0).abs() < 1e-9);

        // Rejected verdict: nothing changes.
        site.resolve(false);
        assert!((site.total().to_f64() - 10.0).abs() < 1e-9);

        // Accepted verdict: the five violators triple.
        let _ = site.scan_and_stage(&p, &probe);
        site.resolve(true);
        assert!((site.total().to_f64() - (5.0 * 3.0 + 5.0)).abs() < 1e-9);
        assert!((site.weight(0).to_f64() - 3.0).abs() < 1e-9);
        assert!((site.weight(9).to_f64() - 1.0).abs() < 1e-9);

        // A second accepted round compounds multiplicatively and the
        // staged list is consumed each time (idempotent resolve).
        let _ = site.scan_and_stage(&p, &probe);
        site.resolve(true);
        site.resolve(true);
        assert!((site.weight(0).to_f64() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn site_weights_sampling_prefers_heavy_rows_and_rebuilds_them() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = LpProblem::new(vec![1.0, 1.0]);
        let cs: Vec<Halfspace> = (0..4)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let mut site = SiteWeights::new(p.to_columns(&cs), 1000.0);
        // Make element 0 dominate: (0.5, 0) violates only b = 0.
        let probe = vec![0.5, 0.0];
        let _ = site.scan_and_stage(&p, &probe);
        site.resolve(true);
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Vec::new();
        let picked = site.sample_rows(&p, 64, &mut rng, &mut net);
        assert_eq!(picked, net.len());
        assert_eq!(
            net[0], cs[0],
            "dominant row missing or not rebuilt: {net:?}"
        );
        assert_eq!(site.sample_rows(&p, 0, &mut rng, &mut net), 0);
        // Shipping everything appends every row, bit-identical.
        let mut all = Vec::new();
        assert_eq!(site.all_rows(&p, &mut all), cs.len());
        assert_eq!(all, cs);
    }
}
