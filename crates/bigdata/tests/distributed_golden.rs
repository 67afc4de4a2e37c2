//! Bit-level golden fixture for the coordinator and MPC solvers.
//!
//! Every case runs one distributed solve from a fixed seed and records
//! every field of its statistics, the objective value's bits (or the
//! error kind) and the solver RNG's next word after the call, so the
//! protocol's arithmetic, its RNG consumption and each meter reading are
//! pinned together. The fixture was captured once from a known-good tree;
//! it is never regenerated to make a change pass. On a mismatch the
//! actual output is written to the test binary's temporary directory for
//! diffing.

use llp_bigdata::coordinator;
use llp_bigdata::mpc::{self, MpcConfig};
use llp_bigdata::BigDataError;
use llp_core::clarkson::FailurePolicy;
use llp_core::instances::meb::MebProblem;
use llp_core::instances::svm::SvmProblem;
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::Halfspace;
use llp_workloads::{lp, meb, partition, svm};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt::{Debug, Write as _};

const FIXTURE: &str = include_str!("fixtures/distributed_golden.txt");

/// How a case lays its input out over sites or machines.
enum Layout {
    /// Round-robin over `k` sites (`coordinator::solve`).
    RoundRobin(usize),
    /// `⌈n^{1-δ}⌉` contiguous machines (`mpc::solve`).
    Balanced,
    /// Contiguous blocks of the given sizes (`solve_partitioned`).
    Sizes(Vec<usize>),
}

/// One input instance, run under several layouts and configurations.
struct Input<'a, P: ColumnarProblem> {
    tag: &'a str,
    problem: &'a P,
    data: &'a [P::Constraint],
}

fn input<'a, P: ColumnarProblem>(
    tag: &'a str,
    problem: &'a P,
    data: &'a [P::Constraint],
) -> Input<'a, P> {
    Input { tag, problem, data }
}

impl<P: ColumnarProblem> Input<'_, P> {
    fn parts(&self, sizes: &[usize]) -> Vec<Vec<P::Constraint>> {
        partition::partition_by_sizes(self.data.to_vec(), sizes)
    }

    fn coord(&self, out: &mut String, layout: Layout, cfg: &ClarksonConfig, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (shape, res) = match layout {
            Layout::RoundRobin(k) => (
                format!("rr k={k}"),
                coordinator::solve(self.problem, self.data.to_vec(), k, cfg, &mut rng),
            ),
            Layout::Sizes(s) => (
                format!("sizes {s:?}"),
                coordinator::solve_partitioned(self.problem, self.parts(&s), cfg, &mut rng),
            ),
            Layout::Balanced => unreachable!("the coordinator takes round-robin or sizes"),
        };
        let case = format!("coord {} {shape}", self.tag);
        self.record(out, &case, seed, res, &mut rng);
    }

    fn mpc(&self, out: &mut String, layout: Layout, cfg: &MpcConfig, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (shape, res) = match layout {
            Layout::Balanced => (
                "balanced".to_string(),
                mpc::solve(self.problem, self.data.to_vec(), cfg, &mut rng),
            ),
            Layout::Sizes(s) => (
                format!("sizes {s:?}"),
                mpc::solve_partitioned(self.problem, self.parts(&s), cfg, &mut rng),
            ),
            Layout::RoundRobin(_) => unreachable!("MPC takes balanced or sizes"),
        };
        let case = format!("mpc {} {shape} δ={}", self.tag, cfg.delta);
        self.record(out, &case, seed, res, &mut rng);
    }

    /// One fixture line: the objective's bits and every stats field (the
    /// derived `Debug`), or the error kind, then the RNG's next word.
    fn record<S: Debug>(
        &self,
        out: &mut String,
        case: &str,
        seed: u64,
        res: Result<(P::Solution, S), BigDataError>,
        rng: &mut StdRng,
    ) {
        let result = match res {
            Ok((sol, stats)) => format!(
                "obj {:016x} | {stats:?}",
                self.problem.objective_value(&sol).to_bits()
            ),
            Err(e) => format!("err {e:?}"),
        };
        writeln!(
            out,
            "{case} | seed {seed} | {result} | {:016x}",
            rng.next_u64()
        )
        .unwrap();
    }
}

fn fingerprint() -> String {
    let mut out = String::from(
        "# model case layout | seed | objective bits + stats, or error | next rng word\n",
    );
    let o = &mut out;
    let lean5 = ClarksonConfig::lean(5);
    let cal2 = ClarksonConfig::calibrated(2);

    // ---- LP: round-robin, skewed and single-site layouts, sampled nets
    // over several iterations. ----
    let (p, cs) = lp::random_lp(20_000, 2, 11);
    let lp2 = input("lp2", &p, &cs);
    for (k, seed) in [(1, 101), (3, 103), (16, 116)] {
        lp2.coord(o, Layout::RoundRobin(k), &lean5, seed);
    }
    lp2.coord(o, Layout::RoundRobin(8), &ClarksonConfig::lean(3), 120);
    let skew8 = partition::skewed_sizes(cs.len(), 8, 2.0);
    lp2.coord(o, Layout::Sizes(skew8.clone()), &lean5, 121);
    for (delta, seed) in [(0.2, 130), (0.3, 131), (0.5, 132)] {
        lp2.mpc(o, Layout::Balanced, &MpcConfig::lean(delta), seed);
    }
    lp2.mpc(o, Layout::Balanced, &MpcConfig::calibrated(0.25), 133);
    let skew40 = partition::skewed_sizes(cs.len(), 40, 1.15);
    lp2.mpc(o, Layout::Sizes(skew40), &MpcConfig::lean(0.2), 134);
    lp2.mpc(o, Layout::Sizes(skew8), &MpcConfig::lean(0.25), 135);

    let (p3, cs3) = lp::random_lp(12_000, 3, 12);
    let lp3 = input("lp3", &p3, &cs3);
    lp3.coord(o, Layout::RoundRobin(5), &lean5, 140);
    lp3.mpc(o, Layout::Balanced, &MpcConfig::lean(0.25), 141);

    // ---- Take-all nets: n below the net size, so every holder ships
    // its whole partition. ----
    let (ps, css) = lp::random_lp(150, 2, 13);
    let small = input("lp2-takeall", &ps, &css);
    small.coord(o, Layout::RoundRobin(4), &cal2, 150);
    small.coord(o, Layout::RoundRobin(1), &cal2, 151);
    small.mpc(o, Layout::Balanced, &MpcConfig::calibrated(0.5), 152);
    let one_block = Layout::Sizes(vec![css.len()]);
    small.mpc(o, one_block, &MpcConfig::calibrated(0.95), 153);

    // ---- A single MPC machine: δ = 0.95 over the default layout and an
    // explicit one-block layout. ----
    lp2.mpc(o, Layout::Balanced, &MpcConfig::calibrated(0.95), 160);
    lp2.mpc(
        o,
        Layout::Sizes(vec![cs.len()]),
        &MpcConfig::lean(0.95),
        161,
    );

    // ---- Iteration cap, Monte-Carlo abort and an infeasible input. ----
    let capped = ClarksonConfig {
        max_iterations: 1,
        ..lean5
    };
    lp2.coord(o, Layout::RoundRobin(4), &capped, 170);
    let abort = ClarksonConfig {
        failure_policy: FailurePolicy::Abort,
        net_multiplier: 1e-6,
        net_floor_coeff: 0.05,
        ..lean5
    };
    lp2.coord(o, Layout::RoundRobin(4), &abort, 171);
    let mut bad = cs[..3000].to_vec();
    bad.push(Halfspace::new(vec![1.0, 0.0], -5.0));
    bad.push(Halfspace::new(vec![-1.0, 0.0], -5.0));
    let infeasible = input("lp2-infeasible", &p, &bad);
    infeasible.coord(o, Layout::RoundRobin(4), &lean5, 172);
    infeasible.mpc(o, Layout::Balanced, &MpcConfig::lean(0.3), 173);

    // ---- SVM. ----
    let sp = SvmProblem::new(2);
    let (pts, _) = svm::separable_clouds(15_000, 2, 0.5, 21);
    let sep = input("svm-separable", &sp, &pts);
    sep.coord(o, Layout::RoundRobin(6), &lean5, 200);
    let skew6 = partition::skewed_sizes(pts.len(), 6, 3.0);
    sep.coord(o, Layout::Sizes(skew6), &lean5, 201);
    sep.mpc(o, Layout::Balanced, &MpcConfig::lean(0.25), 202);
    let (hpts, _) = svm::heavy_tailed_clouds(12_000, 2, 0.5, 22);
    let heavy = input("svm-heavy", &sp, &hpts);
    heavy.coord(o, Layout::RoundRobin(4), &lean5, 203);
    heavy.mpc(o, Layout::Balanced, &MpcConfig::lean(0.3), 204);

    // ---- MEB. ----
    let mp = MebProblem::new(2);
    let ball = meb::ball_cloud(15_000, 2, 3.0, 31);
    let cloud = input("meb-ball", &mp, &ball);
    cloud.coord(o, Layout::RoundRobin(7), &lean5, 300);
    let skew7 = partition::skewed_sizes(ball.len(), 7, 2.5);
    cloud.coord(o, Layout::Sizes(skew7.clone()), &lean5, 301);
    cloud.mpc(o, Layout::Balanced, &MpcConfig::lean(0.2), 302);
    cloud.mpc(o, Layout::Sizes(skew7), &MpcConfig::lean(0.3), 303);
    let mp3 = MebProblem::new(3);
    let shell = meb::sphere_shell(9000, 3, 2.0, 32);
    let shell3 = input("meb3-shell", &mp3, &shell);
    shell3.coord(o, Layout::RoundRobin(3), &lean5, 304);
    shell3.mpc(o, Layout::Balanced, &MpcConfig::lean(0.3), 305);
    out
}

#[test]
fn distributed_solvers_match_golden_fixture() {
    let actual = fingerprint();
    if actual != FIXTURE {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("distributed_golden.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .find(|(a, f)| a != f)
            .map(|(a, f)| format!("\n  got:  {a}\n  want: {f}"))
            .unwrap_or_else(|| "line count differs".to_string());
        panic!(
            "distributed solvers drifted from the golden fixture (actual written to {}):{first}",
            path.display()
        );
    }
}
