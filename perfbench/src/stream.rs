//! `stream_file`: lp_uniform-family instances written to chunked store
//! files during set-up, solved again and again with
//! `streaming::solve_chunked` over a `FileSource`, each solve followed by
//! the file-side violation sweep. The files stay in the page cache, so
//! this measures decode and checksum, not the disk.

use crate::solve::fingerprint_rows;
use crate::trace::Tracer;
use crate::{
    end_to_end, instance_seed, median, mix, net_draws, probe, time_median_ms, Config, Layers,
    Phase, Report, Solved, Tally, SETUP_REPEATS,
};
use llp_bigdata::ooc::{ChunkSource, FileSource};
use llp_bigdata::streaming::{self, SamplingMode, StreamingStats};
use llp_core::instances::lp::LpProblem;
use llp_core::lptype::ColumnarProblem;
use llp_core::{ClarksonConfig, LpTypeProblem};
use llp_service::ResponseBody;
use llp_workloads::scenario::{registry, RunBudget, Scenario, ScenarioProblem};
use llp_workloads::{write_scenario, ScenarioStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rows per file: large enough that the store's read and checksum take
/// the largest share of a solve, small enough for some seventy solves
/// in a 20 s run (clear of the 40 and 100 samples at which
/// `latency_tail_ms` moves to another percentile).
const STREAM_ROWS: usize = 350_000;

/// Files (instances) the requests cycle through. A solve takes 2 or 3
/// iterations, and how often each depends on the instance, so one
/// instance per run would let the workload seed move the median.
const FILES: usize = 4;
const CHUNK_LEN: u32 = 65_536;

type Solution = <LpProblem as LpTypeProblem>::Solution;

/// One solve over the file plus its verification sweep.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    solution: Solution,
    stats: StreamingStats,
    violations: u64,
    bytes_read: u64,
}

/// Counts the rows of the file that violate `sol`, reading it chunk by
/// chunk through the store's checksummed reader.
fn sweep(problem: &LpProblem, sol: &Solution, path: &Path) -> Result<u64, String> {
    let mut reader = llp_store::open_file(path).map_err(|e| e.to_string())?;
    let mut violators = Vec::new();
    let mut count = 0;
    while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
        violators.clear();
        problem.scan_columns(sol, &chunk.full_view(), &mut violators);
        count += violators.len() as u64;
    }
    Ok(count)
}

fn solve_file(
    problem: &LpProblem,
    path: &Path,
    seed: u64,
    tracer: &Tracer,
    req: u64,
) -> Result<Outcome, String> {
    tracer.span("request", req, None, |parent| {
        let mut source = FileSource::open(path).map_err(|e| format!("{e:?}"))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (solution, stats) = tracer
            .span("bigdata.streaming", req, parent, |_| {
                streaming::solve_chunked(
                    problem,
                    &mut source,
                    &ClarksonConfig::lean(crate::R),
                    &mut rng,
                )
            })
            .map_err(|e| format!("{e:?}"))?;
        let violations = tracer.span("core.verify", req, parent, |_| {
            sweep(problem, &solution, path)
        })?;
        Ok(Outcome {
            solution,
            stats,
            violations,
            bytes_read: source.bytes_read(),
        })
    })
}

pub(crate) fn run(cfg: &Config, tracer: &Tracer) -> Report {
    let base = registry(RunBudget::Full)
        .into_iter()
        .find(|s| s.name == "lp_uniform")
        .expect("lp_uniform is in the registry");
    let files: Vec<(Scenario, LpProblem, PathBuf)> = (0..FILES)
        .map(|f| {
            let mut sc = base.clone();
            sc.n = cfg.rows(STREAM_ROWS);
            sc.seed = instance_seed(base.seed, cfg.seed, f as u64);
            let ScenarioProblem::Lp(problem) = sc.problem() else {
                unreachable!("lp_uniform is an LP family")
            };
            let path = cfg.out_dir.join(format!("stream-{}-{f}.llps", cfg.seed));
            (sc, problem, path)
        })
        .collect();
    let (sc, problem, path) = &files[0];
    let mut problems = Vec::new();

    let mut setup_s = Vec::new();
    let mut file_bytes = 0;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        for (sc, _, path) in &files {
            match write_scenario(sc, path, CHUNK_LEN) {
                Ok((header, bytes)) => {
                    file_bytes = bytes;
                    if !llp_workloads::matches_scenario(&header, sc) {
                        problems.push("written header does not match the scenario".to_string());
                    }
                }
                Err(e) => problems.push(format!("writing {}: {e}", path.display())),
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = median(&setup_s);

    let solver_seed = |i: u64| mix(cfg.seed, 0x5eed_0000 + i);
    let mut reference: Option<Result<Outcome, String>> = None;
    let mut tally = Tally::default();
    let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced_passes = 0;
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let phase = Phase::start();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < seconds {
        let on = cfg.trace && start.elapsed() >= seconds / 2;
        tracer.set_enabled(on);
        let (_, problem_i, path_i) = &files[i as usize % FILES];
        let t = Instant::now();
        let out = solve_file(problem_i, path_i, solver_seed(i), tracer, i);
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        match &out {
            Ok(o) if o.violations != 0 => tally.wrong(format!(
                "request {i}: {} violations in the file sweep",
                o.violations
            )),
            Ok(o) => {
                tally.ok(ms, sc.n);
                lat[usize::from(on)].push(ms);
                if on {
                    traced_passes += o.stats.passes;
                }
            }
            Err(_) => tally.fail(),
        }
        if i == 0 {
            reference = Some(out);
        }
        i += 1;
    }
    tracer.set_enabled(false);
    let (wall_s, cpu_ms) = phase.finish();
    // Peak RSS is read here, before the in-RAM check loads the rows.
    let (e2e, tail) = end_to_end(setup, &tally, wall_s, cpu_ms);

    // Once per run: the file-backed solve must equal an in-RAM streaming
    // solve of the same rows, bit for bit.
    let reference =
        reference.unwrap_or_else(|| solve_file(problem, path, solver_seed(0), tracer, 0));
    let data = match llp_store::read_all(path, problem) {
        Ok((data, _, _)) => data,
        Err(e) => {
            problems.push(format!("reading {} back: {e}", path.display()));
            Vec::new()
        }
    };
    let mut fingerprints = Vec::new();
    match &reference {
        Ok(r) if !data.is_empty() => {
            let mut rng = StdRng::seed_from_u64(solver_seed(0));
            let ram = streaming::solve(
                problem,
                &data,
                &ClarksonConfig::lean(crate::R),
                SamplingMode::TwoPassIid,
                &mut rng,
            );
            match ram {
                Ok((sol, stats)) if sol == r.solution && stats == r.stats => {}
                other => tally.wrong(format!(
                    "file-backed solve {:?} differs from the in-RAM solve {other:?}",
                    (&r.solution, &r.stats)
                )),
            }
            fingerprints.push(fingerprint_rows("lp_uniform", &data));
        }
        Ok(_) => {}
        Err(e) => problems.push(format!("request 0 failed: {e}")),
    }

    let mut report = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        fingerprints,
        ..Report::default()
    };
    if cfg.trace {
        let mut layers = Layers::default();
        layers.spans(tracer, lat[1].len());
        layers.set("workloads.store_write_ms", setup * 1000.0);
        layers.set(
            "workloads.generate_ms",
            time_median_ms(1, || {
                let mut coords = Vec::new();
                let mut acc = 0.0;
                for (sc, _, _) in &files {
                    let mut stream = ScenarioStream::new(sc);
                    while stream.remaining() > 0 {
                        acc += stream.next_row(&mut coords).unwrap_or(0.0);
                    }
                }
                acc
            }),
        );
        let pass_ms = time_median_ms(3, || {
            let mut rows = 0;
            if let Ok(mut reader) = llp_store::open_file(path) {
                while let Ok(Some(chunk)) = reader.next_chunk() {
                    rows += chunk.len();
                }
            }
            rows
        });
        layers.set("store.pass_ms", pass_ms);
        layers.set(
            "store.read_mb_per_s",
            file_bytes as f64 / 1e6 / (pass_ms / 1e3),
        );
        if let Ok(r) = &reference {
            layers.count("store.bytes_read", r.bytes_read);
            let body = ResponseBody {
                n: sc.n as u64,
                objective: problem.objective_value(&r.solution),
                violations: r.violations,
                iterations: r.stats.iterations as u64,
                passes: r.stats.passes,
                rounds: 0,
                space_bits: r.stats.peak_space_bits,
                comm_bits: 0,
                max_round_bits: 0,
                load_bits: 0,
                total_load_bits: 0,
            };
            let streaming_ms: f64 = tracer
                .spans()
                .iter()
                .filter(|s| s.name == "bigdata.streaming")
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .sum();
            if streaming_ms > 0.0 {
                layers.set("store.share", traced_passes as f64 * pass_ms / streaming_ms);
            }
            if !data.is_empty() {
                layers.add_solves(&[Solved {
                    scenario: "lp_uniform",
                    m: net_draws(problem, data.len()),
                    body: &body,
                    probe: probe(problem, &data, mix(cfg.seed, 0x9b0e)),
                }]);
            }
        }
        layers.set("trace.overhead", crate::overhead(&lat[0], &lat[1]));
        let (metrics, counts) = layers.into_metrics();
        report.per_layer = metrics;
        report.counts = counts;
    } else {
        report.end_to_end = e2e;
        report.tail = tail;
    }
    for (_, _, path) in &files {
        if let Err(e) = std::fs::remove_file(path) {
            problems.push(format!("removing {}: {e}", path.display()));
        }
    }
    problems.extend(tally.problems);
    report.problems = problems;
    report
}
