//! Theorem 3: Algorithm 1 in the MPC model.
//!
//! With load budget `Õ(n^δ)` the input needs `k = ⌈n^{1-δ}⌉` machines, so
//! the coordinator protocol cannot exchange even one bit with every
//! machine directly. Following \[23\] (and Section 3.4), machine 0 plays the
//! coordinator and all coordinator↔sites traffic flows over an
//! `f = ⌈n^δ⌉`-ary tree of depth `D = O(1/δ)`:
//!
//! * verdict of the previous basis: broadcast down the tree (D rounds);
//! * total weight: converge-cast of subtree sums (D rounds);
//! * sample counts: hierarchical multinomial split down the tree — each
//!   node splits its count among its own elements and its children's
//!   subtrees (D rounds, exact multinomial overall);
//! * sampled constraints: one direct round to machine 0 (`Õ(n^δ)` load);
//! * new basis: broadcast (D rounds); violator weights: converge-cast
//!   (D rounds).
//!
//! With `r = ⌈1/δ⌉` outer iterations parameter, the total is `O(ν/δ²)`
//! rounds at `Õ(λ n^δ ν²)·bit(S)` load, matching Theorem 3.
//!
//! The iteration loop is the coordinator model's (`common::drive`); this
//! module adds the tree topology that routes and meters its messages.

use crate::common::{column_blocks, drive, SiteWeights, Topology};
use crate::BigDataError;
use llp_core::clarkson::WeightFactor;
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::ConstraintColumns;
use llp_models::mpc::MpcMeter;
use llp_num::ScaledF64;
use rand::Rng;

/// Configuration of the MPC run: the load exponent δ, plus the net-size
/// constants of the [`ClarksonConfig`] preset it was built from.
#[derive(Clone, Copy, Debug)]
pub struct MpcConfig {
    /// Load exponent δ ∈ (0, 1): load `Õ(n^δ)`, machines `⌈n^{1-δ}⌉`.
    pub delta: f64,
    /// The preset's net constants, failure policy and iteration cap; its
    /// weight factor is always `n^{1/r}` with `r = ⌈1/δ⌉`.
    clarkson: ClarksonConfig,
}

impl MpcConfig {
    /// Calibrated configuration for a given δ (see
    /// `ClarksonConfig::calibrated`).
    pub fn calibrated(delta: f64) -> Self {
        Self::from_preset(delta, ClarksonConfig::calibrated)
    }

    /// The lean configuration (see `ClarksonConfig::lean`).
    pub fn lean(delta: f64) -> Self {
        Self::from_preset(delta, ClarksonConfig::lean)
    }

    fn from_preset(delta: f64, preset: fn(u32) -> ClarksonConfig) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let r = (1.0 / delta).ceil() as u32;
        MpcConfig {
            delta,
            clarkson: preset(r),
        }
    }

    /// The pass parameter `r = ⌈1/δ⌉` implied by δ.
    pub fn r(&self) -> u32 {
        (1.0 / self.delta).ceil() as u32
    }
}

/// Statistics of an MPC run (experiment T4). `PartialEq` backs the
/// parallel-determinism differential suite.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MpcStats {
    /// BSP rounds.
    pub rounds: u64,
    /// Maximum per-machine per-round load in bits.
    pub max_load_bits: u64,
    /// Sum over rounds of the per-round maximum load (critical-path
    /// traffic; congestion read-out for skewed partitions).
    pub total_load_bits: u64,
    /// Iterations of Algorithm 1.
    pub iterations: usize,
    /// Successful iterations.
    pub successful_iterations: usize,
    /// Machines used.
    pub k: usize,
    /// Tree fanout `⌈n^δ⌉`.
    pub fanout: usize,
    /// ε-net size.
    pub net_size: usize,
}

/// Tree helpers over machine ids 0..k with fanout f (root 0).
struct Tree {
    k: usize,
    fanout: usize,
}

impl Tree {
    fn parent(&self, i: usize) -> Option<usize> {
        (i > 0).then(|| (i - 1) / self.fanout)
    }

    /// The children of machine `i`: `i·f + 1 ..= i·f + f`, cut at `k`.
    fn children(&self, i: usize) -> std::ops::Range<usize> {
        let first = i * self.fanout + 1;
        first.min(self.k)..(first + self.fanout).min(self.k)
    }

    /// Depth of the tree (number of levels below the root).
    fn depth(&self) -> usize {
        let mut d = 0;
        let mut span = 1usize;
        let mut covered = 1usize;
        while covered < self.k {
            span *= self.fanout;
            covered += span;
            d += 1;
        }
        d
    }

    /// Machines at tree level `l` (root = level 0).
    fn level(&self, l: usize) -> std::ops::Range<usize> {
        // Level l starts at (f^l - 1)/(f - 1) for fanout f.
        let f = self.fanout;
        let start = (f.pow(l as u32) - 1) / (f - 1);
        let end = ((f.pow(l as u32 + 1) - 1) / (f - 1)).min(self.k);
        start.min(self.k)..end
    }
}

/// The machine count Theorem 3 prescribes for `n` constraints at load
/// exponent δ: `⌈n^{1-δ}⌉`, clamped to `[1, n]`. The single source of
/// truth for both [`solve`] and any caller building an explicit
/// partition for [`solve_partitioned`].
pub fn machine_count(n: usize, delta: f64) -> usize {
    ((n as f64).powf(1.0 - delta).ceil() as usize).clamp(1, n)
}

/// The machine layout [`solve`] uses for `n` constraints over `k`
/// machines: contiguous chunks of `⌈n/k⌉` rows in input order, so the
/// last machines may be short or empty.
pub fn chunk_sizes(n: usize, k: usize) -> Vec<usize> {
    let chunk = n.div_ceil(k).max(1);
    (0..k)
        .map(|i| n.saturating_sub(i * chunk).min(chunk))
        .collect()
}

/// Runs Algorithm 1 over constraints partitioned evenly across
/// `⌈n^{1-δ}⌉` machines ([`chunk_sizes`]).
///
/// # Panics
/// Panics if `data` is empty.
pub fn solve<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: Vec<P::Constraint>,
    cfg: &MpcConfig,
    rng: &mut R,
) -> Result<(P::Solution, MpcStats), BigDataError> {
    assert!(!data.is_empty(), "empty input");
    let sizes = chunk_sizes(data.len(), machine_count(data.len(), cfg.delta));
    let machines = column_blocks(problem, &data, &sizes);
    // The machines keep only their columns: free the rows before solving.
    drop(data);
    solve_columns(problem, machines, cfg, rng)
}

/// Runs Algorithm 1 over an explicit machine partition (machine count =
/// partition count; the `⌈n^δ⌉`-ary tree topology is unchanged). The
/// model allows arbitrary — e.g. geometrically skewed — layouts; the
/// protocol is partition-oblivious and only the load meter readings
/// change.
///
/// # Panics
/// Panics if the partition is empty or holds no constraints overall.
pub fn solve_partitioned<P: ColumnarProblem, R: Rng>(
    problem: &P,
    partitions: Vec<Vec<P::Constraint>>,
    cfg: &MpcConfig,
    rng: &mut R,
) -> Result<(P::Solution, MpcStats), BigDataError> {
    let machines = partitions.iter().map(|p| problem.to_columns(p)).collect();
    // The machines keep only their columns: free the rows before solving.
    drop(partitions);
    solve_columns(problem, machines, cfg, rng)
}

/// Runs Algorithm 1 with machine `i` holding the rows of `machines[i]`
/// — the entry point every other one funnels into. Each machine keeps
/// its rows exactly once, inside its [`SiteWeights`] holder; the
/// tree topology only meters the load.
///
/// # Panics
/// Panics if `machines` is empty or holds no rows overall.
pub fn solve_columns<P: ColumnarProblem, R: Rng>(
    problem: &P,
    machines: Vec<ConstraintColumns>,
    cfg: &MpcConfig,
    rng: &mut R,
) -> Result<(P::Solution, MpcStats), BigDataError> {
    let n: usize = machines.iter().map(ConstraintColumns::len).sum();
    assert!(n > 0, "empty input");
    let k = machines.len();
    let fanout = ((n as f64).powf(cfg.delta).ceil() as usize).max(2);
    let clarkson = ClarksonConfig {
        factor: WeightFactor::NthRoot { r: cfg.r() },
        ..cfg.clarkson
    };
    let mut topology = TreeTopology::new(Tree { k, fanout });
    let (solution, progress) = drive(problem, machines, &clarkson, &mut topology, rng)?;
    let meter = &topology.meter;
    let stats = MpcStats {
        rounds: meter.rounds(),
        max_load_bits: meter.max_load_bits(),
        total_load_bits: meter.total_load_bits(),
        iterations: progress.iterations,
        successful_iterations: progress.successful_iterations,
        k,
        fanout,
        net_size: progress.net_size,
    };
    Ok((solution, stats))
}

/// The MPC model's topology: machine 0 is the coordinator and every
/// message travels over the `f`-ary [`Tree`], one level per round —
/// except the sampled rows, which go straight to the root in one round.
struct TreeTopology {
    tree: Tree,
    depth: usize,
    meter: MpcMeter,
    /// Each machine's own total weight, from the latest gather.
    local: Vec<ScaledF64>,
    /// Per-machine subtree sums of the latest converge-cast.
    subtree: Vec<ScaledF64>,
    /// Draws assigned to each subtree while splitting down the tree.
    subtree_draws: Vec<u64>,
    /// Multinomial bins of one node's split, reused across nodes.
    bins: Vec<f64>,
}

impl TreeTopology {
    fn new(tree: Tree) -> Self {
        let k = tree.k;
        TreeTopology {
            depth: tree.depth(),
            meter: MpcMeter::new(k),
            local: vec![ScaledF64::ZERO; k],
            subtree: vec![ScaledF64::ZERO; k],
            subtree_draws: vec![0; k],
            bins: Vec::with_capacity(tree.fanout + 1),
            tree,
        }
    }

    /// Broadcasts a payload of `bits` from the root to every machine, one
    /// tree level per round.
    fn broadcast_down(&mut self, bits: u64) {
        for l in 0..self.depth {
            self.meter.begin_round();
            for node in self.tree.level(l) {
                for child in self.tree.children(node) {
                    self.meter.charge(node, child, bits);
                }
            }
        }
    }

    /// Converge-casts the values in `subtree` toward the root, one tree
    /// level per round, bottom-up: afterwards each entry holds the sum
    /// over that machine's whole subtree.
    fn converge_sum(&mut self, bits_per_msg: u64) {
        for l in (1..=self.depth).rev() {
            self.meter.begin_round();
            for node in self.tree.level(l) {
                if let Some(p) = self.tree.parent(node) {
                    self.meter.charge(node, p, bits_per_msg);
                    let v = self.subtree[node];
                    self.subtree[p] += v;
                }
            }
        }
    }
}

impl Topology for TreeTopology {
    /// The verdict (1 byte) broadcast down the tree, then the machines'
    /// weights converge-cast up (128 bits per edge).
    fn gather_totals(&mut self, machines: &[SiteWeights], verdict: bool) -> ScaledF64 {
        if verdict {
            self.broadcast_down(8);
        }
        for (i, machine) in machines.iter().enumerate() {
            self.local[i] = machine.total();
        }
        self.subtree.copy_from_slice(&self.local);
        self.converge_sum(128);
        self.subtree[0]
    }

    /// The hierarchical multinomial split of the `m` draws (`D` rounds,
    /// 64 bits per edge): each node receives its subtree's count from its
    /// parent and splits it among its own rows and its children's
    /// subtrees by weight — an exact multinomial overall. Then opens the
    /// round in which the rows go to the root.
    fn split_draws<R: Rng>(&mut self, draws: Option<u64>, rng: &mut R, counts: &mut Vec<u64>) {
        if let Some(m) = draws {
            counts.clear();
            counts.resize(self.tree.k, 0);
            self.subtree_draws.fill(0);
            self.subtree_draws[0] = m;
            for l in 0..=self.depth {
                if l < self.depth {
                    self.meter.begin_round();
                }
                for node in self.tree.level(l) {
                    let c = self.subtree_draws[node];
                    if c == 0 {
                        continue;
                    }
                    let children = self.tree.children(node);
                    let total = self.subtree[node];
                    if children.is_empty() || total.is_zero() {
                        counts[node] = c;
                        continue;
                    }
                    self.bins.clear();
                    self.bins.push(self.local[node].ratio(total));
                    for child in children.clone() {
                        self.bins.push(self.subtree[child].ratio(total));
                    }
                    let split = llp_sampling::discrete::multinomial(c, &self.bins, rng);
                    counts[node] = split[0];
                    for (child, &share) in children.zip(&split[1..]) {
                        self.subtree_draws[child] = share;
                        self.meter.charge(node, child, 64);
                    }
                }
            }
        }
        self.meter.begin_round();
    }

    /// Machine 0 is the root: its own rows never travel.
    fn ship_rows(&mut self, i: usize, bits: u64) {
        if i != 0 {
            self.meter.charge(i, 0, bits);
        }
    }

    fn broadcast_basis(&mut self, bits: u64) {
        self.broadcast_down(bits);
    }

    /// The violator weights converge-cast up: `w(V_i)` plus the count,
    /// 192 bits per edge.
    fn gather_violators(&mut self, local: &[ScaledF64]) -> ScaledF64 {
        self.subtree.copy_from_slice(local);
        self.converge_sum(192);
        self.subtree[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::lptype::{count_violations, LpTypeProblem};
    use llp_geom::Halfspace;
    use llp_workloads::lp::random_lp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tree_structure_sane() {
        let t = Tree { k: 14, fanout: 3 };
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(4), Some(1));
        let ch0: Vec<usize> = t.children(0).collect();
        assert_eq!(ch0, vec![1, 2, 3]);
        assert_eq!(t.depth(), 3); // 1 + 3 + 9 = 13 < 14
        assert_eq!(t.level(0), 0..1);
        assert_eq!(t.level(1), 1..4);
        assert_eq!(t.level(2), 4..13);
    }

    #[test]
    fn chunk_sizes_are_contiguous_ceil_blocks() {
        assert_eq!(chunk_sizes(10, 4), vec![3, 3, 3, 1]);
        // The last machines may be left empty.
        assert_eq!(chunk_sizes(9, 5), vec![2, 2, 2, 2, 1]);
        assert_eq!(chunk_sizes(4, 3), vec![2, 2, 0]);
        assert_eq!(chunk_sizes(1, 1), vec![1]);
    }

    #[test]
    fn solves_random_lp() {
        let (p, cs) = random_lp(5000, 2, 91);
        let mut rng = StdRng::seed_from_u64(92);
        let (sol, stats) = solve(&p, cs.clone(), &MpcConfig::calibrated(0.4), &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert!(stats.k > 1);
        assert!(stats.rounds > 0);
        assert!(stats.max_load_bits > 0);
    }

    #[test]
    fn smaller_delta_means_more_rounds_less_load() {
        let (p, cs) = random_lp(20_000, 2, 93);
        let mut rng = StdRng::seed_from_u64(94);
        let (_, tight) = solve(&p, cs.clone(), &MpcConfig::calibrated(0.25), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(94);
        let (_, loose) = solve(&p, cs.clone(), &MpcConfig::calibrated(0.55), &mut rng).unwrap();
        assert!(
            tight.rounds as f64 / tight.iterations as f64
                >= loose.rounds as f64 / loose.iterations as f64,
            "tight {tight:?} loose {loose:?}"
        );
        assert!(
            tight.max_load_bits <= loose.max_load_bits * 4,
            "{tight:?} vs {loose:?}"
        );
    }

    #[test]
    fn matches_ram_objective() {
        let (p, cs) = random_lp(4000, 3, 95);
        let mut rng = StdRng::seed_from_u64(96);
        let (sol, _) = solve(&p, cs.clone(), &MpcConfig::calibrated(0.4), &mut rng).unwrap();
        let (ram, _) =
            llp_core::clarkson_solve(&p, &cs, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let (v1, v2) = (p.objective_value(&sol), p.objective_value(&ram));
        assert!((v1 - v2).abs() < 1e-5 * v1.abs().max(1.0), "{v1} vs {v2}");
    }

    #[test]
    fn skewed_machines_agree_with_balanced() {
        let (p, cs) = random_lp(4000, 2, 99);
        let mut rng = StdRng::seed_from_u64(100);
        let cfg = MpcConfig::calibrated(0.4);
        let (balanced, _) = solve(&p, cs.clone(), &cfg, &mut rng).unwrap();
        // A deliberately lopsided layout: one machine holds half the data.
        let k = 16usize;
        let mut sizes = vec![2000usize];
        sizes.extend(std::iter::repeat_n(2000 / (k - 1), k - 1));
        let rem = 4000 - sizes.iter().sum::<usize>();
        sizes[k - 1] += rem;
        let mut it = cs.clone().into_iter();
        let parts: Vec<Vec<Halfspace>> = sizes
            .iter()
            .map(|&s| it.by_ref().take(s).collect())
            .collect();
        let (skewed, stats) = solve_partitioned(&p, parts, &cfg, &mut rng).unwrap();
        assert_eq!(count_violations(&p, &skewed, &cs), 0);
        assert!(
            (p.objective_value(&skewed) - p.objective_value(&balanced)).abs()
                < 1e-5 * p.objective_value(&balanced).abs().max(1.0)
        );
        assert_eq!(stats.k, k);
        assert!(stats.max_load_bits > 0);
        // The critical-path total dominates any single round's peak.
        assert!(stats.total_load_bits >= stats.max_load_bits);
        assert!(stats.total_load_bits <= stats.rounds * stats.max_load_bits);
    }

    #[test]
    fn single_machine_degenerates_gracefully() {
        let (p, cs) = random_lp(200, 2, 97);
        let mut rng = StdRng::seed_from_u64(98);
        // delta close to 1: k = n^{1-δ} small.
        let (sol, stats) = solve(&p, cs.clone(), &MpcConfig::calibrated(0.95), &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert!(stats.k >= 1);
    }
}
