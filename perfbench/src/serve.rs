//! `serve_fresh` and `serve_repeat`: two closed-loop client connections
//! against an in-process loopback `NetServer`. Latency is the
//! `NetClient::solve` round trip.
//!
//! * `serve_fresh` sends a distinct inline LP every time (LP generator
//!   families, a fixed ladder of sizes over 10^4–10^5 rows, all four
//!   models), so the result cache is never hit.
//! * `serve_repeat` draws requests with Zipf popularity from a pool of
//!   inline LPs solved during set-up, so nearly every request is a cache
//!   hit and the solve is bypassed.

use crate::solve::fingerprint_rows;
use crate::trace::Tracer;
use crate::{
    end_to_end, median, mix, net_draws, objectives_agree, probe, Config, Layers, Phase, Probe,
    Report, Solved, Tally, Workload, REQUEST_DEADLINE, SETUP_REPEATS,
};
use llp_core::instances::lp::LpProblem;
use llp_geom::Halfspace;
use llp_serve::codec::{decode_payload, encode_frame, Frame, FLEET_SHARD};
use llp_serve::{ClientError, NetClient, NetServer, ServeConfig};
use llp_service::{
    solve_model, ExecParams, Model, RequestInput, ResponseBody, ServedFrom, ServiceConfig,
    ServiceStats, SolveRequest, SolveResponse,
};
use llp_workloads::scenario::RunBudget;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Shards × workers per shard stays within the two cores the benchmark
/// is sized for; the two load threads are the two client connections.
const SHARDS: usize = 2;
const WORKERS: usize = 1;
const CLIENTS: usize = 2;

/// `serve_fresh`: requests of the first slots are re-solved in process
/// after the timed phase and compared with their wire bodies.
const SAMPLES: u64 = 6;

/// `serve_fresh`: requests solved during set-up.
const WARM_REQUESTS: u64 = 8;

/// `serve_repeat`: inline LPs in the popularity pool (each under all
/// four models), their size, and the Zipf exponent.
const POOL_LPS: usize = 8;
const POOL_ROWS: usize = 20_000;
const ZIPF_S: f64 = 1.1;

/// How long the run waits for `NetServer::shutdown` before giving up on
/// it and reporting anyway.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(20);

const FAMILIES: &[&str] = &[
    "random_lp",
    "chebyshev_regression",
    "degenerate_box_lp",
    "near_tie_lp",
    "needle_lp",
];

fn inline_lp(family: usize, n: usize, seed: u64) -> (LpProblem, Vec<Halfspace>) {
    use llp_workloads::lp;
    match family {
        0 => lp::random_lp(n, 3, seed),
        1 => {
            let (p, cs, _) = lp::chebyshev_regression(n / 2, 2, 0.05, seed);
            (p, cs)
        }
        2 => lp::degenerate_box_lp(n, 3, seed),
        3 => lp::near_tie_lp(n, 3, seed),
        _ => lp::needle_lp(n, 2, 4, seed),
    }
}

fn request(family: usize, n: usize, model: Model, instance: u64, solver: u64) -> SolveRequest {
    let (p, cs) = inline_lp(family, n, instance);
    SolveRequest {
        input: RequestInput::InlineLp(p, cs),
        model,
        budget: RunBudget::Full,
        seed: solver,
    }
}

fn inline(req: &SolveRequest) -> (&LpProblem, &[Halfspace]) {
    match &req.input {
        RequestInput::InlineLp(p, cs) => (p, cs),
        RequestInput::Scenario(_) => unreachable!("the benchmark sends inline LPs only"),
    }
}

/// Request `slot` of `serve_fresh`: each cycle of 20 slots covers every
/// (family, model) pair once in a seeded order, and sizes step through
/// ten log-spaced values from 10^4 to 10^5 rows.
fn fresh_request(cfg: &Config, slot: u64) -> (usize, SolveRequest) {
    let mut pairs: Vec<usize> = (0..FAMILIES.len() * 4).collect();
    pairs.shuffle(&mut StdRng::seed_from_u64(mix(
        cfg.seed,
        0xf2e5_0000 + slot / 20,
    )));
    let pair = pairs[(slot % 20) as usize];
    let n = cfg.rows((10f64.powf(4.0 + (slot % 10) as f64 / 9.0)).round() as usize);
    let family = pair / 4;
    let model = Model::ALL[pair % 4];
    let req = request(
        family,
        n,
        model,
        mix(cfg.seed, 0x1000_0000 + slot),
        mix(cfg.seed, 0x2000_0000 + slot),
    );
    (family, req)
}

/// `serve_repeat`'s pool: `POOL_LPS` LPs × four models.
fn repeat_pool(cfg: &Config) -> Vec<(usize, SolveRequest)> {
    let mut pool = Vec::new();
    for j in 0..POOL_LPS {
        let family = j % FAMILIES.len();
        let (p, cs) = inline_lp(
            family,
            cfg.rows(POOL_ROWS),
            mix(cfg.seed, 0x4000 + j as u64),
        );
        for (mi, &model) in Model::ALL.iter().enumerate() {
            let req = SolveRequest {
                input: RequestInput::InlineLp(p.clone(), cs.clone()),
                model,
                budget: RunBudget::Full,
                seed: mix(cfg.seed, 0x4100 + (4 * j + mi) as u64),
            };
            pool.push((family, req));
        }
    }
    pool
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        service: ServiceConfig {
            workers: WORKERS,
            solver_threads: 1,
            ..ServiceConfig::default()
        },
    }
}

/// One client connection with bounded waits. A transport error drops
/// the connection; the next request reconnects.
struct Client {
    addr: SocketAddr,
    conn: Option<NetClient>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    fn solve(&mut self, req: &SolveRequest) -> Result<SolveResponse, String> {
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => connect(self.addr)?,
        };
        match conn.solve(req) {
            Ok(resp) => {
                self.conn = Some(conn);
                Ok(resp)
            }
            Err(e @ ClientError::Server { .. }) => {
                self.conn = Some(conn);
                Err(e.to_string())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn stats(&mut self) -> Result<llp_serve::StatsReply, String> {
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => connect(self.addr)?,
        };
        let out = conn.stats().map_err(|e| e.to_string());
        self.conn = Some(conn);
        out
    }
}

fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    let mut c = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let s = c.stream();
    s.set_read_timeout(Some(REQUEST_DEADLINE))
        .and_then(|()| s.set_write_timeout(Some(REQUEST_DEADLINE)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    Ok(c)
}

/// Shuts the server down on a helper thread and waits at most
/// `SHUTDOWN_WAIT`. A shutdown that hangs is reported, and the helper
/// is left behind; the process exit ends it.
fn shutdown(server: NetServer) -> bool {
    let (tx, rx) = mpsc::channel();
    let _detached = std::thread::spawn(move || {
        let mut server = server;
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(SHUTDOWN_WAIT).is_ok()
}

/// Per-response server-side timings, kept for the traced metrics.
#[derive(Clone, Copy)]
struct Obs {
    rtt_ms: f64,
    total_ms: f64,
    queue_ms: f64,
    solve_ms: f64,
    traced: bool,
}

/// What one client thread saw in the timed phase.
#[derive(Default)]
struct ClientRun {
    tally: Tally,
    obs: Vec<Obs>,
    /// serve_fresh samples: slot, family, request and wire body.
    samples: Vec<(u64, usize, SolveRequest, Result<ResponseBody, String>)>,
}

fn fleet(stats: &llp_serve::StatsReply) -> (ServiceStats, Vec<u64>) {
    let mut total = ServiceStats::default();
    let mut shards = Vec::new();
    for row in &stats.rows {
        if row.shard == FLEET_SHARD {
            total = row.stats;
        } else {
            shards.push(row.stats.submitted);
        }
    }
    (total, shards)
}

pub(crate) fn run(cfg: &Config, tracer: &Tracer) -> Report {
    let fresh = cfg.workload == Workload::ServeFresh;
    let mut problems = Vec::new();

    // Set-up: instance generation, server boot, connections and cache
    // warm-up, repeated; the last server carries the timed phase.
    let mut setup_s = Vec::new();
    let mut current: Option<(NetServer, Vec<Client>)> = None;
    let mut pool: Vec<(usize, SolveRequest)> = Vec::new();
    let mut warm: Vec<Result<ResponseBody, String>> = Vec::new();
    let mut generate_ms = Vec::new();
    for rep in 0..SETUP_REPEATS {
        if let Some((server, clients)) = current.take() {
            drop(clients);
            if !shutdown(server) {
                problems.push("NetServer::shutdown did not return during set-up".to_string());
            }
        }
        let t = Instant::now();
        let warm_set: Vec<(usize, SolveRequest)> = if fresh {
            // Mid-sized requests outside the timed slots, every family and
            // model, so the server's first solves are not timed.
            (0..WARM_REQUESTS)
                .map(|j| {
                    let (family, model) = (j as usize % FAMILIES.len(), Model::ALL[j as usize % 4]);
                    let (inst, solver) = (mix(cfg.seed, 0x3000 + j), mix(cfg.seed, 0x3100 + j));
                    (
                        family,
                        request(family, cfg.rows(POOL_ROWS), model, inst, solver),
                    )
                })
                .collect()
        } else {
            repeat_pool(cfg)
        };
        generate_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        let server = match NetServer::bind("127.0.0.1:0", serve_config()) {
            Ok(s) => s,
            Err(e) => {
                problems.push(format!("binding the server: {e}"));
                return Report {
                    problems,
                    attempted: 1,
                    failed: 1,
                    ..Report::default()
                };
            }
        };
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::new(server.local_addr()))
            .collect();
        let bodies: Vec<Result<ResponseBody, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let set = &warm_set;
                    s.spawn(move || {
                        (c..set.len())
                            .step_by(CLIENTS)
                            .map(|i| (i, client.solve(&set[i].1).and_then(|r| r.body)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<(usize, Result<ResponseBody, String>)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("warm-up client thread panicked"))
                .collect();
            all.sort_by_key(|(i, _)| *i);
            all.into_iter().map(|(_, b)| b).collect()
        });
        setup_s.push(t.elapsed().as_secs_f64());
        if rep > 0 && bodies != warm {
            problems.push("warm-up bodies differ between set-up repeats".to_string());
        }
        warm = bodies;
        pool = warm_set;
        current = Some((server, clients));
    }
    let (server, mut clients) = current.expect("at least one set-up");
    let before = clients[0].stats();

    // Timed phase.
    let zipf_cdf = zipf_cdf(pool.len(), cfg.seed);
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let phase = Phase::start();
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (pool, warm, zipf_cdf) = (&pool, &warm, &zipf_cdf);
                s.spawn(move || {
                    let mut out = ClientRun::default();
                    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 0x5000 + c as u64));
                    let mut i = 0u64;
                    while start.elapsed() < seconds {
                        let on = cfg.trace && start.elapsed() >= seconds / 2;
                        if on {
                            tracer.set_enabled(true);
                        }
                        let rid = (c as u64) << 32 | i;
                        tracer.span("request", rid, None, |id| {
                            if fresh {
                                let slot = i * CLIENTS as u64 + c as u64;
                                let (family, req) =
                                    tracer.span("workloads.generate", rid, id, |_| fresh_request(cfg, slot));
                                let resp = send(client, &req, on, &mut out, |b| {
                                    (b.violations != 0).then(|| format!("{} violations", b.violations))
                                });
                                if slot < SAMPLES {
                                    out.samples.push((slot, family, req, resp));
                                }
                            } else {
                                let u: f64 = rng.random_range(0.0..1.0);
                                let entry = zipf_cdf.partition_point(|&p| p <= u).min(pool.len() - 1);
                                let _ = send(client, &pool[entry].1, on, &mut out, |b| {
                                    (Ok(b) != warm[entry].as_ref()).then(|| {
                                        format!("pool entry {entry}: body differs from its warm-up solve")
                                    })
                                });
                            }
                        });
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    tracer.set_enabled(false);
    let (wall_s, cpu_ms) = phase.finish();
    let after = clients[0].stats();

    let mut tally = Tally::default();
    let mut obs = Vec::new();
    let mut samples = Vec::new();
    for r in runs {
        tally.merge(r.tally);
        obs.extend(r.obs);
        samples.extend(r.samples);
    }
    // Sample slots the timed phase did not reach are sent now, untimed,
    // so every run checks the same requests.
    if fresh {
        for slot in 0..SAMPLES {
            if !samples.iter().any(|s| s.0 == slot) {
                let (family, req) = fresh_request(cfg, slot);
                let body = clients[0].solve(&req).and_then(|r| r.body);
                samples.push((slot, family, req, body));
            }
        }
        samples.sort_by_key(|s| s.0);
    }
    drop(clients);
    if !shutdown(server) {
        problems.push("NetServer::shutdown did not return within 20 s".to_string());
    }

    // Checks outside the timed phase: wire bodies against in-process
    // solve_model, and four-model objective agreement per LP.
    let checked: Vec<(usize, SolveRequest, Result<ResponseBody, String>)> = if fresh {
        samples
            .into_iter()
            .map(|(_, f, req, b)| (f, req, b))
            .collect()
    } else {
        pool.iter()
            .zip(&warm)
            .map(|((f, req), b)| (*f, req.clone(), b.clone()))
            .collect()
    };
    let mut solved_bodies: Vec<(usize, &SolveRequest, ResponseBody)> = Vec::new();
    for group in checked.chunks(if fresh { 1 } else { 4 }) {
        let mut objectives: Vec<(Model, f64)> = Vec::new();
        for (family, req, wire) in group {
            let (p, cs) = inline(req);
            let direct = solve_inline(p, cs, req.model, req.seed);
            if &direct != wire {
                tally.wrong(format!(
                    "{} n={} {}: wire body {wire:?} differs from in-process {direct:?}",
                    FAMILIES[*family],
                    cs.len(),
                    req.model.name()
                ));
            }
            if let Ok(b) = direct {
                objectives.push((req.model, b.objective));
                solved_bodies.push((*family, req, b));
            }
            if fresh {
                // The other three models of the same LP, in process.
                for &m in Model::ALL.iter().filter(|&&m| m != req.model) {
                    if let Ok(b) = solve_inline(p, cs, m, req.seed) {
                        objectives.push((m, b.objective));
                    }
                }
            }
        }
        for &(m, o) in objectives.iter().skip(1) {
            if !objectives_agree(objectives[0].1, o) {
                tally.wrong(format!(
                    "objective {} under {} vs {o} under {}",
                    objectives[0].1,
                    objectives[0].0.name(),
                    m.name()
                ));
            }
        }
    }

    let mut report = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        fingerprints: checked
            .iter()
            .map(|(f, req, _)| fingerprint_rows(FAMILIES[*f], inline(req).1))
            .collect(),
        ..Report::default()
    };
    let setup = median(&setup_s);
    if cfg.trace {
        let mut layers = Layers::default();
        let traced = obs.iter().filter(|o| o.traced).count();
        layers.spans(tracer, traced);
        if !fresh {
            layers.set("workloads.generate_ms", median(&generate_ms));
        }
        let probes: Vec<Probe> = solved_bodies
            .iter()
            .enumerate()
            .map(|(i, (_, req, _))| {
                let (p, cs) = inline(req);
                probe(p, cs, mix(cfg.seed, 0x9b0e + i as u64))
            })
            .collect();
        let solved: Vec<Solved<'_>> = solved_bodies
            .iter()
            .zip(&probes)
            .map(|((f, req, body), pr)| Solved {
                scenario: FAMILIES[*f],
                m: net_draws(inline(req).0, inline(req).1.len()),
                body,
                probe: *pr,
            })
            .collect();
        layers.add_solves(&solved);
        let mean = |f: &dyn Fn(&Probe) -> f64| {
            probes.iter().map(f).sum::<f64>() / probes.len().max(1) as f64
        };
        layers.set("geom.to_columns_ms", mean(&|p| p.to_columns_ms));
        layers.set("core.verify_ms", mean(&|p| p.verify_ms));
        codec_layers(&mut layers, &checked);
        let p50 = |f: &dyn Fn(&Obs) -> f64| median(&obs.iter().map(f).collect::<Vec<_>>());
        layers.set("service.queue_wait_ms", p50(&|o| o.queue_ms));
        layers.set("service.solve_ms", p50(&|o| o.solve_ms));
        layers.set("service.server_ms", p50(&|o| o.total_ms));
        layers.set("serve.wire_ms", p50(&|o| o.rtt_ms - o.total_ms));
        match (&before, &after) {
            (Ok(b), Ok(a)) => stats_layers(&mut layers, b, a),
            (Err(e), _) | (_, Err(e)) => problems.push(format!("stats frame: {e}")),
        }
        let rtt = |on: bool| -> Vec<f64> {
            obs.iter()
                .filter(|o| o.traced == on)
                .map(|o| o.rtt_ms)
                .collect()
        };
        layers.set("trace.overhead", crate::overhead(&rtt(false), &rtt(true)));
        let (metrics, counts) = layers.into_metrics();
        report.per_layer = metrics;
        report.counts = counts;
    } else {
        let (metrics, tail) = end_to_end(setup, &tally, wall_s, cpu_ms);
        report.end_to_end = metrics;
        report.tail = tail;
    }
    problems.extend(tally.problems);
    report.problems = problems;
    report
}

/// Sends one request, times the round trip and classifies the answer.
/// `wrong` returns a message when a delivered body is incorrect.
fn send(
    client: &mut Client,
    req: &SolveRequest,
    traced: bool,
    out: &mut ClientRun,
    wrong: impl Fn(&ResponseBody) -> Option<String>,
) -> Result<ResponseBody, String> {
    let t = Instant::now();
    let resp = client.solve(req);
    let rtt_ms = t.elapsed().as_secs_f64() * 1000.0;
    let n = inline(req).1.len();
    match resp {
        Ok(r) => {
            match &r.body {
                Ok(b) => match wrong(b) {
                    Some(msg) => out.tally.wrong(msg),
                    None => out.tally.ok(rtt_ms, n),
                },
                Err(_) => out.tally.fail(),
            }
            out.obs.push(Obs {
                rtt_ms,
                total_ms: r.total_ms,
                queue_ms: r.queue_wait_ms,
                solve_ms: r.solve_ms,
                traced,
            });
            r.body
        }
        Err(e) => {
            out.tally.fail();
            Err(e)
        }
    }
}

fn solve_inline(
    p: &LpProblem,
    cs: &[Halfspace],
    model: Model,
    seed: u64,
) -> Result<ResponseBody, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    solve_model(p, cs, model, &ExecParams::default(), &mut rng).map(|o| o.body)
}

/// Cumulative Zipf(`ZIPF_S`) popularity over `n` entries, with the
/// popularity ranks assigned to entries in a seeded order.
fn zipf_cdf(n: usize, seed: u64) -> Vec<f64> {
    let mut rank: Vec<usize> = (0..n).collect();
    rank.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0x21bf)));
    let w: Vec<f64> = rank
        .iter()
        .map(|&r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

/// Codec and fingerprint probes on the workload's own frames.
fn codec_layers(
    layers: &mut Layers,
    checked: &[(usize, SolveRequest, Result<ResponseBody, String>)],
) {
    let (mut enc, mut dec, mut fp, mut kb) = (0.0, 0.0, 0.0, 0.0);
    for (_, req, body) in checked {
        let fingerprint = req.fingerprint();
        let solve = Frame::Solve {
            fingerprint,
            request: req.clone(),
        };
        let reply = Frame::SolveResponse {
            fingerprint,
            response: SolveResponse {
                body: body.clone(),
                served_from: ServedFrom::Solve,
                queue_wait_ms: 0.0,
                solve_ms: 0.0,
                total_ms: 0.0,
            },
        };
        let (sb, rb) = (encode_frame(&solve), encode_frame(&reply));
        enc += crate::time_median_ms(3, || encode_frame(&solve))
            + crate::time_median_ms(3, || encode_frame(&reply));
        dec += crate::time_median_ms(3, || decode_payload(sb[5], &sb[6..]).is_ok())
            + crate::time_median_ms(3, || decode_payload(rb[5], &rb[6..]).is_ok());
        // Client, server frame check, ShardRouter::submit, Service::submit.
        fp += 4.0 * crate::time_median_ms(3, || req.fingerprint());
        kb += sb.len() as f64 / 1024.0;
    }
    let per = checked.len().max(1) as f64;
    layers.set("serve.encode_ms", enc / per);
    layers.set("serve.decode_ms", dec / per);
    layers.set("service.fingerprint_ms", fp / per);
    layers.set("serve.frame_kb", kb / per);
}

/// Service counters over the timed phase, from two `Stats` frames.
fn stats_layers(
    layers: &mut Layers,
    before: &llp_serve::StatsReply,
    after: &llp_serve::StatsReply,
) {
    let (b, b_shards) = fleet(before);
    let (a, a_shards) = fleet(after);
    let completed = (a.completed - b.completed).max(1) as f64;
    layers.set(
        "service.cache_hit_ratio",
        (a.cache_hits - b.cache_hits) as f64 / completed,
    );
    layers.set(
        "service.batch_join_ratio",
        (a.batched - b.batched) as f64 / completed,
    );
    layers.set("service.shed", (a.shed - b.shed) as f64);
    layers.set("service.rejected", (a.rejected - b.rejected) as f64);
    layers.set(
        "service.failed_solves",
        (a.failed_solves - b.failed_solves) as f64,
    );
    let submitted: Vec<f64> = a_shards
        .iter()
        .zip(&b_shards)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let mean = submitted.iter().sum::<f64>() / submitted.len().max(1) as f64;
    let max = submitted.iter().copied().fold(0.0, f64::max);
    layers.set(
        "service.shard_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}
