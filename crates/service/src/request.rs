//! Request and response types of the solve service.
//!
//! A [`SolveRequest`] names *what* to solve (a registry scenario or an
//! inline LP), *how* (the compute model and run budget), and the solver
//! seed. Two requests with the same [`SolveRequest::fingerprint`] are
//! guaranteed to produce bit-identical [`ResponseBody`]s, which is what
//! makes batching and caching sound: the fingerprint covers the instance
//! identity, the model, the budget, *and* the seed, so a cached or
//! coalesced response is indistinguishable from a fresh solve.

use llp_core::instances::lp::LpProblem;
use llp_geom::Halfspace;
use llp_workloads::scenario::RunBudget;

/// The compute model a request is solved under (same four legs as the
/// scenario grid of `llp_bench::report`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// Algorithm 1 directly in RAM.
    Ram,
    /// Multi-pass streaming (Theorem 1).
    Streaming,
    /// Coordinator model (Theorem 2).
    Coordinator,
    /// MPC model (Theorem 3).
    Mpc,
}

impl Model {
    /// Every model, in grid order.
    pub const ALL: &'static [Model] =
        &[Model::Ram, Model::Streaming, Model::Coordinator, Model::Mpc];

    /// The model's wire name (matches `llp_bench::report::MODELS`).
    pub fn name(self) -> &'static str {
        match self {
            Model::Ram => "ram",
            Model::Streaming => "streaming",
            Model::Coordinator => "coordinator",
            Model::Mpc => "mpc",
        }
    }

    /// Parses a wire name back into a model.
    pub fn parse(s: &str) -> Option<Model> {
        Model::ALL.iter().copied().find(|m| m.name() == s)
    }
}

/// What a request solves: a named registry scenario (regenerated from its
/// own seed inside the worker) or an inline LP carried in the request.
#[derive(Clone, Debug)]
pub enum RequestInput {
    /// A scenario from `llp_workloads::scenario::registry`, by name.
    /// Resolved (and validated) at admission time against the request's
    /// budget.
    Scenario(String),
    /// An inline linear program: the problem plus its constraint set.
    InlineLp(LpProblem, Vec<Halfspace>),
}

/// One solve job.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The instance to solve.
    pub input: RequestInput,
    /// The compute model to solve it under.
    pub model: Model,
    /// Budget used to resolve scenario sizes (ignored for inline inputs).
    pub budget: RunBudget,
    /// Solver seed: the only source of randomness in the response body.
    pub seed: u64,
}

impl SolveRequest {
    /// A scenario request.
    pub fn scenario(name: &str, model: Model, budget: RunBudget, seed: u64) -> Self {
        SolveRequest {
            input: RequestInput::Scenario(name.to_string()),
            model,
            budget,
            seed,
        }
    }

    /// Checks an inline LP's shape: at least one dimension, at least one
    /// constraint, and every row in the objective's dimension. Scenario
    /// inputs are generated by the registry and always pass. The
    /// service refuses a failing request at admission, before any
    /// worker could trip over it.
    pub fn validate(&self) -> Result<(), InvalidInput> {
        let RequestInput::InlineLp(p, cs) = &self.input else {
            return Ok(());
        };
        let expected = p.objective.len();
        if expected == 0 {
            return Err(InvalidInput::ZeroDimension);
        }
        if cs.is_empty() {
            return Err(InvalidInput::NoConstraints);
        }
        match cs.iter().position(|h| h.dim() != expected) {
            Some(row) => Err(InvalidInput::RowDimension {
                row,
                got: cs[row].dim(),
                expected,
            }),
            None => Ok(()),
        }
    }

    /// The batching/caching key: a 128-bit FNV-1a digest of the instance
    /// identity, model, budget, and seed. Everything that can change the
    /// response body feeds the digest — see the module docs. 128 bits
    /// make an accidental collision (which would silently serve one
    /// request another's result) negligible at any realistic cache size;
    /// adversarially *constructed* collisions are out of scope — this is
    /// an in-process service whose callers are trusted code, not a
    /// network boundary.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fnv::new();
        match &self.input {
            RequestInput::Scenario(name) => {
                h.byte(1);
                h.bytes(name.as_bytes());
            }
            RequestInput::InlineLp(p, cs) => {
                h.byte(2);
                for &c in &p.objective {
                    h.f64(c);
                }
                h.u64(cs.len() as u64);
                for hs in cs {
                    for &a in &hs.a {
                        h.f64(a);
                    }
                    h.f64(hs.b);
                }
            }
        }
        h.bytes(self.model.name().as_bytes());
        h.bytes(self.budget.name().as_bytes());
        h.u64(self.seed);
        h.finish()
    }
}

/// Why an inline LP was refused at admission ([`SolveRequest::validate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvalidInput {
    /// The objective is empty: an LP in zero dimensions.
    ZeroDimension,
    /// The LP carries no constraints.
    NoConstraints,
    /// Constraint `row` has `got` coefficients; the objective has
    /// `expected`.
    RowDimension {
        /// Index of the first offending constraint.
        row: usize,
        /// Its coefficient count.
        got: usize,
        /// The objective's dimension.
        expected: usize,
    },
}

impl std::fmt::Display for InvalidInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidInput::ZeroDimension => write!(f, "inline LP in zero dimensions"),
            InvalidInput::NoConstraints => write!(f, "inline LP has no constraints"),
            InvalidInput::RowDimension { row, got, expected } => write!(
                f,
                "inline LP constraint {row} has {got} coefficients, objective has {expected}"
            ),
        }
    }
}

/// The deterministic part of a response: bit-identical for a fixed
/// request fingerprint at any worker count, any solver thread count, and
/// whether it was solved fresh, coalesced into a batch, or served from
/// the cache. Mirrors the meter columns of `llp_bench::report::Cell`.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseBody {
    /// Materialized constraint/point count.
    pub n: u64,
    /// Objective value of the returned solution.
    pub objective: f64,
    /// Violations of the solution over the full input.
    pub violations: u64,
    /// Iterations of Algorithm 1.
    pub iterations: u64,
    /// Stream passes (streaming model only).
    pub passes: u64,
    /// Model rounds (coordinator/MPC only).
    pub rounds: u64,
    /// Peak retained space in bits (streaming only).
    pub space_bits: u64,
    /// Total communication in bits (coordinator only).
    pub comm_bits: u64,
    /// Heaviest single round in bits (coordinator only).
    pub max_round_bits: u64,
    /// Max per-machine per-round load in bits (MPC only).
    pub load_bits: u64,
    /// Sum over rounds of the per-round max load (MPC only).
    pub total_load_bits: u64,
}

/// How a response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedFrom {
    /// This request triggered the solve.
    Solve,
    /// Coalesced into another request's in-flight batch.
    Batch,
    /// Served from the LRU result cache at admission.
    Cache,
}

/// A completed request: the deterministic body plus per-request timing.
/// Only the timing fields may differ across worker counts.
#[derive(Clone, Debug)]
pub struct SolveResponse {
    /// Solve result, or the solver error rendered as text. Errors are
    /// deterministic too (they depend only on the fingerprint) but are
    /// never cached.
    pub body: Result<ResponseBody, String>,
    /// Where the response came from.
    pub served_from: ServedFrom,
    /// Time from admission to a worker popping the batch, milliseconds
    /// (0 for cache hits and late batch joiners).
    pub queue_wait_ms: f64,
    /// Solve wall-clock of the batch that produced the body, milliseconds
    /// (0 for cache hits).
    pub solve_ms: f64,
    /// End-to-end latency from admission to delivery, milliseconds.
    pub total_ms: f64,
}

/// Minimal 128-bit FNV-1a hasher (the workspace has no external hash
/// crates). Parameters are the standard FNV-128 offset basis and prime.
struct Fnv(u128);

impl Fnv {
    fn new() -> Self {
        Fnv(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_roundtrip() {
        for &m in Model::ALL {
            assert_eq!(Model::parse(m.name()), Some(m));
        }
        assert_eq!(Model::parse("warp"), None);
    }

    #[test]
    fn fingerprint_separates_every_key_component() {
        let base = SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, 7);
        let fp = base.fingerprint();
        assert_eq!(fp, base.clone().fingerprint(), "fingerprint is stable");

        let mut other = base.clone();
        other.input = RequestInput::Scenario("lp_near_tie".into());
        assert_ne!(fp, other.fingerprint(), "scenario name must distinguish");
        let mut other = base.clone();
        other.model = Model::Streaming;
        assert_ne!(fp, other.fingerprint(), "model must distinguish");
        let mut other = base.clone();
        other.budget = RunBudget::Full;
        assert_ne!(fp, other.fingerprint(), "budget must distinguish");
        let mut other = base.clone();
        other.seed = 8;
        assert_ne!(fp, other.fingerprint(), "seed must distinguish");
    }

    #[test]
    fn validate_refuses_malformed_inline_lps() {
        let req = |objective: Vec<f64>, cs: Vec<Halfspace>| SolveRequest {
            input: RequestInput::InlineLp(
                LpProblem {
                    objective,
                    ..LpProblem::new(vec![1.0])
                },
                cs,
            ),
            model: Model::Ram,
            budget: RunBudget::Quick,
            seed: 3,
        };
        let row = |d: usize| Halfspace::new(vec![1.0; d], 1.0);
        assert_eq!(req(vec![1.0, 1.0], vec![row(2)]).validate(), Ok(()));
        assert_eq!(
            req(vec![1.0, 1.0], Vec::new()).validate(),
            Err(InvalidInput::NoConstraints)
        );
        assert_eq!(
            req(Vec::new(), vec![row(2)]).validate(),
            Err(InvalidInput::ZeroDimension)
        );
        assert_eq!(
            req(vec![1.0, 1.0], vec![row(2), row(3)]).validate(),
            Err(InvalidInput::RowDimension {
                row: 1,
                got: 3,
                expected: 2
            })
        );
        let scenario = SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, 1);
        assert_eq!(scenario.validate(), Ok(()));
    }

    #[test]
    fn inline_fingerprint_covers_constraint_bytes() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        let cs = vec![
            Halfspace::new(vec![1.0, 0.0], 1.0),
            Halfspace::new(vec![0.0, 1.0], 1.0),
        ];
        let req = |cs: Vec<Halfspace>| SolveRequest {
            input: RequestInput::InlineLp(p.clone(), cs),
            model: Model::Ram,
            budget: RunBudget::Quick,
            seed: 3,
        };
        let fp = req(cs.clone()).fingerprint();
        let mut bumped = cs.clone();
        bumped[1].b = 2.0;
        assert_ne!(fp, req(bumped).fingerprint(), "rhs must distinguish");
        let mut swapped = cs;
        swapped.swap(0, 1);
        assert_ne!(fp, req(swapped).fingerprint(), "order must distinguish");
    }
}
