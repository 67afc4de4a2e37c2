//! `solve_lp` and `solve_svm_meb`: one caller runs
//! `llp_service::solve_model` in a closed loop over a pool of registry
//! instances, regenerated from the workload seed, under all four
//! models. Latency is the whole public call, transposition, partition
//! copies and the violation certificate included.
//!
//! The traced run composes each model's dispatch from the same public
//! calls `solve_model` makes, with a span around each, and checks that
//! the composed body equals `solve_model`'s bit for bit.

use crate::trace::Tracer;
use crate::{
    end_to_end, instance_seed, median, mix, net_draws, objectives_agree, probe, Config, Layers,
    Phase, Report, Solved, Tally, Workload, SETUP_REPEATS,
};
use llp_bigdata::coordinator as coord_impl;
use llp_bigdata::mpc::{self as mpc_impl, MpcConfig};
use llp_bigdata::streaming::{self as stream_impl, SamplingMode};
use llp_core::lptype::{count_violations, ColumnarProblem};
use llp_core::{ClarksonConfig, SolveScratch};
use llp_service::exec::partition_sizes;
use llp_service::{solve_model, ExecParams, Model, ResponseBody};
use llp_workloads::partition_by_sizes;
use llp_workloads::scenario::{registry, RunBudget, Scenario, ScenarioData};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const LP_SCENARIOS: &[&str] = &[
    "lp_uniform",
    "lp_chebyshev",
    "lp_degenerate_dup",
    "lp_near_tie",
    "lp_weight_explosion",
    "lp_binding_last",
    "lp_skewed_sites",
];

const SVM_MEB_SCENARIOS: &[&str] = &[
    "svm_separable",
    "svm_heavy_tail",
    "meb_sphere_shell",
    "meb_clustered",
];

/// Instances per scenario in the pool. More than one spreads a run over
/// more seeds of each family, which keeps its medians steady from one
/// workload seed to the next.
const COPIES: u64 = 4;

/// Runs `$body` with `$p`/`$cs` bound to the problem and constraints of
/// whichever family `$data` holds.
macro_rules! with_data {
    ($data:expr, |$p:ident, $cs:ident| $body:expr) => {
        match $data {
            ScenarioData::Lp($p, $cs) => $body,
            ScenarioData::Svm($p, $cs) => $body,
            ScenarioData::Meb($p, $cs) => $body,
        }
    };
}

pub(crate) struct Instance {
    pub sc: Scenario,
    pub data: ScenarioData,
    pub params: ExecParams,
    pub solver_seed: u64,
}

/// Fingerprint of generated constraints: FNV-1a over the first rows.
pub(crate) fn fingerprint_rows<C: std::fmt::Debug>(name: &str, rows: &[C]) -> u128 {
    let mut bytes = format!("{name}/{}", rows.len()).into_bytes();
    for c in rows.iter().take(16) {
        bytes.extend_from_slice(format!("{c:?}").as_bytes());
    }
    (u128::from(llp_store::fnv1a64(&bytes)) << 64) | rows.len() as u128
}

/// The instance pool: `COPIES` regenerations of each named scenario.
/// Copy 0 of scenario `s` gets instance seed `s.seed ^ seed·0x9e3779b9`
/// and solver seed `seed`.
pub(crate) fn generate(cfg: &Config, names: &[&str]) -> Vec<Instance> {
    let mut pool = Vec::new();
    for k in 0..COPIES {
        for base in registry(RunBudget::Full) {
            if !names.contains(&base.name) {
                continue;
            }
            let mut sc = base.clone();
            sc.n = cfg.rows(base.n);
            sc.seed = instance_seed(base.seed, cfg.seed, k);
            let params = ExecParams {
                r: sc.r,
                skew: sc.skew,
                ..ExecParams::default()
            };
            pool.push(Instance {
                data: sc.generate(),
                sc,
                params,
                solver_seed: if k == 0 { cfg.seed } else { mix(cfg.seed, k) },
            });
        }
    }
    pool
}

fn solve_direct(inst: &Instance, model: Model) -> Result<ResponseBody, String> {
    let mut rng = StdRng::seed_from_u64(inst.solver_seed);
    with_data!(&inst.data, |p, cs| solve_model(
        p,
        cs,
        model,
        &inst.params,
        &mut rng
    ))
    .map(|o| o.body)
}

fn solve_composed(
    inst: &Instance,
    model: Model,
    tracer: &Tracer,
    req: u64,
    parent: Option<u64>,
) -> Result<ResponseBody, String> {
    let mut rng = StdRng::seed_from_u64(inst.solver_seed);
    with_data!(&inst.data, |p, cs| composed(
        p,
        cs,
        model,
        &inst.params,
        &mut rng,
        tracer,
        req,
        parent
    ))
}

/// `llp_service::exec::solve_model` rebuilt from its public calls, with
/// a span around each call into a layer. Must return the same body.
#[allow(clippy::too_many_arguments)]
fn composed<P: ColumnarProblem>(
    problem: &P,
    data: &[P::Constraint],
    model: Model,
    params: &ExecParams,
    rng: &mut StdRng,
    tracer: &Tracer,
    req: u64,
    parent: Option<u64>,
) -> Result<ResponseBody, String> {
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
    let solution = match model {
        Model::Ram => {
            let columns = tracer.span("geom.to_columns", req, parent, |_| problem.to_columns(data));
            let mut scratch = SolveScratch::new();
            let (sol, stats) = tracer
                .span("core.solve", req, parent, |_| {
                    llp_core::clarkson_solve_with_scratch(
                        problem,
                        data,
                        &columns,
                        &cfg,
                        &mut scratch,
                        rng,
                    )
                })
                .map_err(|e| err(format!("{:?}", e.0)))?;
            body.iterations = stats.iterations as u64;
            sol
        }
        Model::Streaming => {
            let (sol, stats) = tracer
                .span("bigdata.streaming", req, parent, |_| {
                    stream_impl::solve(problem, data, &cfg, SamplingMode::TwoPassIid, rng)
                })
                .map_err(|e| err(format!("{e:?}")))?;
            body.iterations = stats.iterations as u64;
            body.passes = stats.passes;
            body.space_bits = stats.peak_space_bits;
            sol
        }
        Model::Coordinator => {
            let sizes = partition_sizes(data.len(), params.coord_sites, params.skew);
            let parts = tracer.span("workloads.partition", req, parent, |_| {
                partition_by_sizes(data.to_vec(), &sizes)
            });
            let (sol, stats) = tracer
                .span("bigdata.coordinator", req, parent, |_| {
                    coord_impl::solve_partitioned(problem, parts, &cfg, rng)
                })
                .map_err(|e| err(format!("{e:?}")))?;
            body.iterations = stats.iterations as u64;
            body.rounds = stats.rounds;
            body.comm_bits = stats.total_bits;
            body.max_round_bits = stats.max_round_bits;
            sol
        }
        Model::Mpc => {
            let mpc_cfg = MpcConfig::lean(params.mpc_delta);
            let (sol, stats) = match params.skew {
                Some(_) => {
                    let k = mpc_impl::machine_count(data.len(), params.mpc_delta);
                    let sizes = partition_sizes(data.len(), k, params.skew);
                    let parts = tracer.span("workloads.partition", req, parent, |_| {
                        partition_by_sizes(data.to_vec(), &sizes)
                    });
                    tracer.span("bigdata.mpc", req, parent, |_| {
                        mpc_impl::solve_partitioned(problem, parts, &mpc_cfg, rng)
                    })
                }
                None => {
                    let owned = tracer.span("workloads.partition", req, parent, |_| data.to_vec());
                    tracer.span("bigdata.mpc", req, parent, |_| {
                        mpc_impl::solve(problem, owned, &mpc_cfg, rng)
                    })
                }
            }
            .map_err(|e| err(format!("{e:?}")))?;
            body.iterations = stats.iterations as u64;
            body.rounds = stats.rounds;
            body.load_bits = stats.max_load_bits;
            body.total_load_bits = stats.total_load_bits;
            sol
        }
    };
    body.objective = problem.objective_value(&solution);
    body.violations = tracer.span("core.verify", req, parent, |_| {
        count_violations(problem, &solution, data) as u64
    });
    Ok(body)
}

type Outcome = Option<Result<ResponseBody, String>>;

pub(crate) fn run(cfg: &Config, tracer: &Tracer) -> Report {
    let names = match cfg.workload {
        Workload::SolveLp => LP_SCENARIOS,
        _ => SVM_MEB_SCENARIOS,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    llp_par::set_threads(Some(nproc));

    let mut setup_s = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut pool));
        let t = Instant::now();
        pool = generate(cfg, names);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut requests: Vec<(usize, Model)> = (0..pool.len())
        .flat_map(|i| Model::ALL.iter().map(move |&m| (i, m)))
        .collect();
    requests.shuffle(&mut StdRng::seed_from_u64(mix(cfg.seed, 0x0de7)));

    let keys = requests.len();
    let mut direct: Vec<Outcome> = vec![None; keys];
    let mut traced: Vec<Outcome> = vec![None; keys];
    // Per key: latencies of untraced and traced calls, for trace.overhead.
    let mut lat: Vec<[Vec<f64>; 2]> = vec![[Vec::new(), Vec::new()]; keys];
    let mut span_key: BTreeMap<u64, usize> = BTreeMap::new();
    let mut tally = Tally::default();
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let phase = Phase::start();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < seconds {
        let key = i % keys;
        i += 1;
        let (inst_i, model) = requests[key];
        let inst = &pool[inst_i];
        let on = cfg.trace && start.elapsed() >= seconds / 2;
        tracer.set_enabled(on);
        let req = i as u64;
        let t = Instant::now();
        let out = if on {
            span_key.insert(req, key);
            tracer.span("request", req, None, |id| {
                solve_composed(inst, model, tracer, req, id)
            })
        } else {
            solve_direct(inst, model)
        };
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        let slot = if on {
            &mut traced[key]
        } else {
            &mut direct[key]
        };
        match check(slot, out, inst, model) {
            Ok(()) => {
                tally.ok(ms, inst.data.len());
                lat[key][usize::from(on)].push(ms);
            }
            Err(Some(wrong)) => tally.wrong(wrong),
            Err(None) => tally.fail(),
        }
    }
    tracer.set_enabled(false);
    let (wall_s, cpu_ms) = phase.finish();

    // Every key is solved at least once, outside the timed phase if the
    // phase did not reach it, so the checks and counts cover the whole
    // request set.
    for key in 0..keys {
        let (inst_i, model) = requests[key];
        let inst = &pool[inst_i];
        if direct[key].is_none() {
            let out = solve_direct(inst, model);
            untimed(&mut tally, check(&mut direct[key], out, inst, model));
        }
        if cfg.trace && traced[key].is_none() {
            let out = solve_composed(inst, model, tracer, 0, None);
            untimed(&mut tally, check(&mut traced[key], out, inst, model));
        }
        if cfg.trace && direct[key] != traced[key] {
            tally.wrong(format!(
                "{}/{}: traced composition drifted from solve_model: {:?} vs {:?}",
                inst.sc.name,
                model.name(),
                traced[key],
                direct[key]
            ));
        }
    }
    for (inst_i, inst) in pool.iter().enumerate() {
        let bodies: Vec<(Model, f64)> = (0..keys)
            .filter(|&k| requests[k].0 == inst_i)
            .filter_map(|k| match &direct[k] {
                Some(Ok(b)) => Some((requests[k].1, b.objective)),
                _ => None,
            })
            .collect();
        for &(m, obj) in bodies.iter().skip(1) {
            if !objectives_agree(bodies[0].1, obj) {
                tally.wrong(format!(
                    "{} (seed {}): objective {} under {} vs {} under {}",
                    inst.sc.name,
                    inst.sc.seed,
                    bodies[0].1,
                    bodies[0].0.name(),
                    obj,
                    m.name()
                ));
            }
        }
    }

    let mut report = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        fingerprints: pool
            .iter()
            .map(|inst| with_data!(&inst.data, |_p, cs| fingerprint_rows(inst.sc.name, cs)))
            .collect(),
        ..Report::default()
    };
    let setup = median(&setup_s);
    if cfg.trace {
        let mut layers = Layers::default();
        layers.set("workloads.generate_ms", setup * 1000.0);
        let traced_requests: usize = lat.iter().map(|l| l[1].len()).sum();
        layers.spans(tracer, traced_requests);
        layer_estimates(
            &mut layers,
            &pool,
            &requests,
            &direct,
            tracer,
            &span_key,
            cfg.seed,
        );
        layers.set("trace.overhead", per_key_overhead(&lat));
        let (metrics, counts) = layers.into_metrics();
        report.per_layer = metrics;
        report.counts = counts;
    } else {
        let (metrics, tail) = end_to_end(setup, &tally, wall_s, cpu_ms);
        report.end_to_end = metrics;
        report.tail = tail;
    }
    report.problems = tally.problems;
    report
}

/// Classifies one outcome and keeps the first body seen for its key.
/// `Err(None)` is a failed request (a solver error), `Err(Some(msg))` a
/// wrong answer.
fn check(
    slot: &mut Outcome,
    out: Result<ResponseBody, String>,
    inst: &Instance,
    model: Model,
) -> Result<(), Option<String>> {
    let what = || {
        format!(
            "{} (seed {}) under {}",
            inst.sc.name,
            inst.sc.seed,
            model.name()
        )
    };
    let verdict = match &out {
        Err(_) => Err(None),
        Ok(b) if b.violations != 0 => Err(Some(format!("{}: {} violations", what(), b.violations))),
        Ok(_) => match slot {
            Some(prev) if *prev != out => Err(Some(format!("{}: repeat solve differs", what()))),
            _ => Ok(()),
        },
    };
    if slot.is_none() {
        *slot = Some(out);
    }
    verdict
}

/// Counts a solve made outside the timed phase: attempted, and failed
/// unless it passed its checks.
fn untimed(tally: &mut Tally, verdict: Result<(), Option<String>>) {
    match verdict {
        Ok(()) => tally.attempted += 1,
        Err(Some(wrong)) => tally.wrong(wrong),
        Err(None) => tally.fail(),
    }
}

/// `Σ traced / Σ untraced − 1` over the per-key mean latencies of keys
/// that ran both ways.
fn per_key_overhead(lat: &[[Vec<f64>; 2]]) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mut off, mut on) = (0.0, 0.0);
    for l in lat.iter().filter(|l| !l[0].is_empty() && !l[1].is_empty()) {
        off += mean(&l[0]);
        on += mean(&l[1]);
    }
    if off > 0.0 {
        on / off - 1.0
    } else {
        0.0
    }
}

/// Logical counts, probe estimates of the inner Clarkson phases, and
/// `core.explained_share`: the estimates over the measured `core.solve`
/// spans of the same keys.
fn layer_estimates(
    layers: &mut Layers,
    pool: &[Instance],
    requests: &[(usize, Model)],
    bodies: &[Outcome],
    tracer: &Tracer,
    span_key: &BTreeMap<u64, usize>,
    seed: u64,
) {
    let probes: Vec<_> = pool
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            with_data!(&inst.data, |p, cs| probe(
                p,
                cs,
                mix(seed, 0x9b0e + i as u64)
            ))
        })
        .collect();
    let mut solve_ms: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in tracer.spans().iter().filter(|s| s.name == "core.solve") {
        if let Some(&k) = span_key.get(&s.request) {
            solve_ms
                .entry(k)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e6);
        }
    }
    let mut keys = Vec::new();
    let mut solved = Vec::new();
    for (key, &(inst_i, _)) in requests.iter().enumerate() {
        if let Some(Ok(body)) = &bodies[key] {
            let inst = &pool[inst_i];
            keys.push(key);
            solved.push(Solved {
                scenario: inst.sc.name,
                m: with_data!(&inst.data, |p, cs| net_draws(p, cs.len())),
                body,
                probe: probes[inst_i],
            });
        }
    }
    let estimates = layers.add_solves(&solved);
    let (mut explained, mut measured) = (0.0, 0.0);
    for (key, est) in keys.iter().zip(estimates) {
        if let Some(v) = solve_ms.get(key) {
            explained += est;
            measured += v.iter().sum::<f64>() / v.len() as f64;
        }
    }
    layers.set(
        "core.explained_share",
        if measured > 0.0 {
            explained / measured
        } else {
            0.0
        },
    );
}
