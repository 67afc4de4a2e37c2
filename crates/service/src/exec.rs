//! One-shot model dispatch: solve an LP-type instance under any of the
//! four compute models and collect the solver statistics and meter
//! readings into a [`ResponseBody`].
//!
//! This is the single solve path shared by the service workers and the
//! `llp_bench` report grid — the grid's `run_cell` is a thin wrapper, so
//! a scenario solved through the service is *the same computation* as its
//! report cell (same partition layout, same meter charges, same
//! determinism contract via `llp_par`). Harness work (transposing the
//! borrowed input into columns, cut per site or machine for the
//! coordinator and MPC legs) happens before the timer starts: the
//! returned `wall_ms` is solve time only, comparable across models.

use crate::request::{Model, ResponseBody};
use llp_bigdata::common::column_blocks;
use llp_bigdata::coordinator as coord_impl;
use llp_bigdata::mpc::{self as mpc_impl, MpcConfig};
use llp_bigdata::streaming::{self as stream_impl, SamplingMode};
use llp_core::clarkson::ClarksonConfig;
use llp_core::lptype::{count_violations, ColumnarProblem};
use llp_core::SolveScratch;
use llp_workloads::partition::prescribed_sizes;
use rand::Rng;

/// Model-independent execution parameters (the registry defaults match
/// the report grid's constants).
#[derive(Clone, Debug)]
pub struct ExecParams {
    /// Pass/round parameter `r` of Algorithm 1.
    pub r: u32,
    /// Sites used by the coordinator leg.
    pub coord_sites: usize,
    /// Load exponent δ used by the MPC leg.
    pub mpc_delta: f64,
    /// Geometric partition skew for the coordinator/MPC legs
    /// (`None` = balanced/round-robin).
    pub skew: Option<f64>,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            r: 3,
            coord_sites: 8,
            mpc_delta: 0.4,
            skew: None,
        }
    }
}

/// The partition sizes the grid prescribes for `k` parts over `n`
/// elements — one shared implementation with `Scenario::partition_sizes`
/// (`llp_workloads::partition::prescribed_sizes`), so served scenarios
/// and report-grid cells cannot drift apart.
pub fn partition_sizes(n: usize, k: usize, skew: Option<f64>) -> Vec<usize> {
    prescribed_sizes(n, k, skew)
}

/// A completed solve: the deterministic body plus its wall-clock.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The response body (bit-identical for fixed inputs + seed).
    pub body: ResponseBody,
    /// Wall-clock time of the solve, milliseconds.
    pub wall_ms: f64,
}

/// Solves `data` under `model` and meters the run. Returns an error
/// string (deterministic, derived from the solver error) when the basis
/// solver reports the instance infeasible/unbounded.
pub fn solve_model<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    model: Model,
    params: &ExecParams,
    rng: &mut R,
) -> Result<ExecOutcome, String> {
    let cfg = ClarksonConfig::lean(params.r);
    let mut body = ResponseBody {
        n: data.len() as u64,
        objective: 0.0,
        violations: 0,
        iterations: 0,
        passes: 0,
        rounds: 0,
        space_bits: 0,
        comm_bits: 0,
        max_round_bits: 0,
        load_bits: 0,
        total_load_bits: 0,
    };
    let err = |e: String| format!("{}: {e}", model.name());
    let wall_ms;
    let solution = match model {
        Model::Ram => {
            // Columnar mirror + scratch arena are harness work: built
            // before the timer so wall_ms meters the solve loop alone.
            let columns = problem.to_columns(data);
            let mut scratch = SolveScratch::new();
            // llp-analyzer: allow(wall-clock) -- wall_ms meters the solve; the reading never feeds solver state
            let start = std::time::Instant::now();
            let (sol, stats) = llp_core::clarkson_solve_with_scratch(
                problem,
                data,
                &columns,
                &cfg,
                &mut scratch,
                rng,
            )
            .map_err(|e| err(format!("{:?}", e.0)))?;
            wall_ms = start.elapsed().as_secs_f64() * 1000.0;
            body.iterations = stats.iterations as u64;
            sol
        }
        Model::Streaming => {
            // llp-analyzer: allow(wall-clock) -- wall_ms meters the solve; the reading never feeds solver state
            let start = std::time::Instant::now();
            let (sol, stats) =
                stream_impl::solve(problem, data, &cfg, SamplingMode::TwoPassIid, rng)
                    .map_err(|e| err(format!("{e:?}")))?;
            wall_ms = start.elapsed().as_secs_f64() * 1000.0;
            body.iterations = stats.iterations as u64;
            body.passes = stats.passes;
            body.space_bits = stats.peak_space_bits;
            sol
        }
        Model::Coordinator => {
            let sizes = partition_sizes(data.len(), params.coord_sites, params.skew);
            let sites = column_blocks(problem, data, &sizes);
            // llp-analyzer: allow(wall-clock) -- wall_ms meters the solve; the reading never feeds solver state
            let start = std::time::Instant::now();
            let (sol, stats) = coord_impl::solve_columns(problem, sites, &cfg, rng)
                .map_err(|e| err(format!("{e:?}")))?;
            wall_ms = start.elapsed().as_secs_f64() * 1000.0;
            body.iterations = stats.iterations as u64;
            body.rounds = stats.rounds;
            body.comm_bits = stats.total_bits;
            body.max_round_bits = stats.max_round_bits;
            sol
        }
        Model::Mpc => {
            let mpc_cfg = MpcConfig::lean(params.mpc_delta);
            // Skewed layouts cut the same machine count mpc::solve
            // would use, just with geometric sizes.
            let k = mpc_impl::machine_count(data.len(), params.mpc_delta);
            let sizes = match params.skew {
                Some(_) => partition_sizes(data.len(), k, params.skew),
                None => mpc_impl::chunk_sizes(data.len(), k),
            };
            let machines = column_blocks(problem, data, &sizes);
            // llp-analyzer: allow(wall-clock) -- wall_ms meters the solve; the reading never feeds solver state
            let start = std::time::Instant::now();
            let (sol, stats) = mpc_impl::solve_columns(problem, machines, &mpc_cfg, rng)
                .map_err(|e| err(format!("{e:?}")))?;
            wall_ms = start.elapsed().as_secs_f64() * 1000.0;
            body.iterations = stats.iterations as u64;
            body.rounds = stats.rounds;
            body.load_bits = stats.max_load_bits;
            body.total_load_bits = stats.total_load_bits;
            sol
        }
    };
    body.objective = problem.objective_value(&solution);
    body.violations = count_violations(problem, &solution, data) as u64;
    Ok(ExecOutcome { body, wall_ms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_workloads::random_lp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_models_agree_on_a_benign_lp() {
        let (p, cs) = random_lp(6_000, 3, 99);
        let params = ExecParams::default();
        let mut objectives = Vec::new();
        for &m in Model::ALL {
            let mut rng = StdRng::seed_from_u64(1234);
            let out = solve_model(&p, &cs, m, &params, &mut rng).expect("benign LP solves");
            assert_eq!(out.body.violations, 0, "{}", m.name());
            assert_eq!(out.body.n, cs.len() as u64);
            objectives.push(out.body.objective);
        }
        for o in &objectives[1..] {
            let scale = objectives[0].abs().max(o.abs()).max(1.0);
            assert!(
                (o - objectives[0]).abs() <= 1e-5 * scale,
                "objectives diverged: {objectives:?}"
            );
        }
    }

    #[test]
    fn solve_is_seed_deterministic() {
        let (p, cs) = random_lp(5_000, 2, 5);
        let params = ExecParams::default();
        let run = || {
            let mut rng = StdRng::seed_from_u64(77);
            solve_model(&p, &cs, Model::Ram, &params, &mut rng)
                .unwrap()
                .body
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn partition_sizes_match_scenario_contract() {
        assert_eq!(partition_sizes(10, 4, None), vec![3, 3, 2, 2]);
        let skewed = partition_sizes(1000, 4, Some(4.0));
        assert_eq!(skewed.iter().sum::<usize>(), 1000);
        assert!(skewed[3] > skewed[0], "skew missing: {skewed:?}");
    }
}
