//! The repository benchmark: named workloads that drive the `llp_*`
//! crates through their public functions, check every answer, and
//! report client-observed end-to-end metrics (untraced run) or
//! per-layer metrics from spans, probes and the crates' own meters
//! (traced run).
//!
//! Every input is generated from the workload seed: instance seeds,
//! solver seeds, request order and popularity draws. The program under
//! test receives only the generated inputs.

#![forbid(unsafe_code)]

mod serve;
mod solve;
mod stream;
mod trace;

use llp_core::lptype::{count_violations, scan_violators_weighted_columnar, ColumnarProblem};
use llp_core::ClarksonConfig;
use llp_sampling::weight_index::WeightIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Relative objective tolerance for cross-model agreement (the report
/// grid's `OBJECTIVE_TOL`).
pub(crate) const OBJECTIVE_TOL: f64 = 1e-5;

/// A request that takes longer than this counts as failed; client
/// connections also use it as their read and write timeout.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Set-up is repeated this many times per run and its median reported.
pub(crate) const SETUP_REPEATS: usize = 5;

/// Pass parameter `r` of every instance the benchmark builds (the
/// registry's value for all eleven scenarios).
pub(crate) const R: u32 = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SolveLp,
    SolveSvmMeb,
    ServeFresh,
    ServeRepeat,
    StreamFile,
}

impl Workload {
    pub const ALL: &'static [Workload] = &[
        Workload::SolveLp,
        Workload::SolveSvmMeb,
        Workload::ServeFresh,
        Workload::ServeRepeat,
        Workload::StreamFile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLp => "solve_lp",
            Workload::SolveSvmMeb => "solve_svm_meb",
            Workload::ServeFresh => "serve_fresh",
            Workload::ServeRepeat => "serve_repeat",
            Workload::StreamFile => "stream_file",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.iter().copied().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: spans and probes on, per-layer metrics out.
    pub trace: bool,
    /// Divides every instance size; 1 for benchmark runs. Tests use a
    /// larger value to run the same code paths on small inputs.
    pub shrink: usize,
    /// Where trace files and the stream file go.
    pub out_dir: PathBuf,
}

impl Config {
    pub fn rows(&self, full: usize) -> usize {
        (full / self.shrink).max(64)
    }
}

/// A named metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and check failures; empty iff the run is correct.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// The tail percentile reported as `latency_tail_ms`, the number of
    /// samples beyond it, and the sample count.
    pub tail: (f64, u64, u64),
    /// Deterministic logical counts (traced run only).
    pub counts: BTreeMap<String, u64>,
    /// Fingerprints of the generated instances.
    pub fingerprints: Vec<u128>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

pub fn run(cfg: &Config) -> Report {
    std::fs::create_dir_all(&cfg.out_dir).expect("cannot create the benchmark output directory");
    let tracer = Tracer::new();
    let mut report = match cfg.workload {
        Workload::SolveLp | Workload::SolveSvmMeb => solve::run(cfg, &tracer),
        Workload::ServeFresh | Workload::ServeRepeat => serve::run(cfg, &tracer),
        Workload::StreamFile => stream::run(cfg, &tracer),
    };
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            report
                .problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    report
}

// ---------------------------------------------------------------- seeds

/// SplitMix64 finaliser: derives independent seeds from the workload seed.
pub(crate) fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Instance seed of registry scenario `registry_seed` under workload
/// seed `seed` (copy `k` of the scenario in the instance pool).
pub(crate) fn instance_seed(registry_seed: u64, seed: u64, k: u64) -> u64 {
    let base = registry_seed ^ seed.wrapping_mul(0x9e37_79b9);
    if k == 0 {
        base
    } else {
        mix(base, k)
    }
}

// ------------------------------------------------------------- timing

/// The timed-phase tally of one load thread.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tally {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub rows: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, ms: f64, rows: usize) {
        self.attempted += 1;
        if Duration::from_secs_f64(ms / 1000.0) > REQUEST_DEADLINE {
            self.failed += 1;
            return;
        }
        self.latencies_ms.push(ms);
        self.rows += rows as u64;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// A wrong answer: counted as failed and recorded as a problem.
    pub fn wrong(&mut self, msg: String) {
        self.fail();
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rows += other.rows;
        self.problems.extend(other.problems);
    }
}

/// Wall clock and process CPU time over a phase.
pub(crate) struct Phase {
    start: Instant,
    cpu_ms: f64,
}

impl Phase {
    pub fn start() -> Self {
        Phase {
            start: Instant::now(),
            cpu_ms: process_cpu_ms(),
        }
    }

    /// `(wall seconds, CPU milliseconds)` since `start`.
    pub fn finish(&self) -> (f64, f64) {
        (
            self.start.elapsed().as_secs_f64(),
            process_cpu_ms() - self.cpu_ms,
        )
    }
}

/// User + system CPU time of this process, from `/proc/self/stat`.
pub(crate) fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 (1-based), in clock ticks of 1/100 s.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 10.0
}

/// `VmHWM` (peak resident set) of this process in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles `latency_tail_ms` may report, highest last. The ladder
/// stops at p95: above it, client and server threads sharing two cores
/// measure scheduling jitter that follows the load other tenants put on
/// the machine (p99 on `serve_repeat` moved from 10 to 15 ms between
/// runs).
const TAIL_LADDER: &[f64] = &[50.0, 75.0, 90.0, 95.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it: `(value, percentile, samples beyond)`. Below twenty
/// samples none qualifies, and the maximum is reported.
pub(crate) fn tail(values: &[f64]) -> (f64, f64, u64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for &p in TAIL_LADDER.iter().rev() {
        // Nearest rank: the sample at index ceil(p·n) − 1.
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        if n - rank >= 10 {
            return (v[rank - 1], p, (n - rank) as u64);
        }
    }
    (v.last().copied().unwrap_or(0.0), 100.0, 0)
}

/// Times `f` `reps` times and returns the median in milliseconds.
pub(crate) fn time_median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    median(&ms)
}

/// The eight end-to-end metrics of a timed phase.
pub(crate) fn end_to_end(
    setup_s: f64,
    tally: &Tally,
    wall_s: f64,
    cpu_ms: f64,
) -> (Vec<Metric>, (f64, u64, u64)) {
    let done = tally.latencies_ms.len() as f64;
    let (tail_ms, pct, beyond) = tail(&tally.latencies_ms);
    let m = |name: &str, value: f64, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let metrics = vec![
        m("setup_s", setup_s, "s"),
        m("throughput_rps", done / wall_s, "1/s"),
        m("latency_p50_ms", median(&tally.latencies_ms), "ms"),
        m("latency_tail_ms", tail_ms, "ms"),
        m("rows_per_s", tally.rows as f64 / wall_s, "1/s"),
        m("cpu_ms_per_req", cpu_ms / done.max(1.0), "ms"),
        m(
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    (metrics, (pct, beyond, tally.latencies_ms.len() as u64))
}

/// `trace.overhead`: mean traced latency over mean untraced latency, − 1.
pub(crate) fn overhead(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let off = mean(untraced_ms);
    if off > 0.0 && !traced_ms.is_empty() {
        mean(traced_ms) / off - 1.0
    } else {
        0.0
    }
}

/// True iff two objectives agree within [`OBJECTIVE_TOL`] (relative).
pub(crate) fn objectives_agree(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= OBJECTIVE_TOL * scale
}

// ------------------------------------------------------- per-layer metrics

/// Every per-layer metric, in output order, with its unit. A traced run
/// prints all of them; one that does not apply to the workload reads 0.
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("workloads.store_write_ms", "ms"),
    ("workloads.partition_ms", "ms"),
    ("geom.to_columns_ms", "ms"),
    ("sampling.draws", "count"),
    ("sampling.draw_ns", "ns"),
    ("solver.basis_calls", "count"),
    ("solver.basis_ms", "ms"),
    ("core.iterations", "count"),
    ("core.solve_ms", "ms"),
    ("core.scan_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.explained_share", "ratio"),
    ("bigdata.streaming_ms", "ms"),
    ("bigdata.coordinator_ms", "ms"),
    ("bigdata.mpc_ms", "ms"),
    ("bigdata.passes", "count"),
    ("bigdata.rounds", "count"),
    ("bigdata.comm_bits", "count"),
    ("bigdata.load_bits", "count"),
    ("bigdata.space_bits", "count"),
    ("store.bytes_read", "count"),
    ("store.pass_ms", "ms"),
    ("store.read_mb_per_s", "MB/s"),
    ("store.share", "ratio"),
    ("service.fingerprint_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.server_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.batch_join_ratio", "ratio"),
    ("service.shed", "count"),
    ("service.rejected", "count"),
    ("service.failed_solves", "count"),
    ("service.shard_imbalance", "ratio"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.frame_kb", "KB"),
    ("serve.wire_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Registry scenarios, for the `core.iterations.<scenario>` counts.
pub(crate) fn scenario_names() -> Vec<&'static str> {
    llp_workloads::registry(llp_workloads::RunBudget::Full)
        .iter()
        .map(|s| s.name)
        .collect()
}

/// The per-layer values of a traced run, keyed by metric name.
#[derive(Debug, Default)]
pub(crate) struct Layers {
    values: BTreeMap<String, f64>,
    /// Logical counts: deterministic for a fixed seed.
    pub counts: BTreeMap<String, u64>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn count(&mut self, name: &str, value: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += value;
    }

    /// Adds a solve's meter readings to the logical counts.
    /// `m` is the solve's ε-net size ([`net_draws`]).
    pub fn add_body(&mut self, scenario: &str, m: u64, body: &llp_service::ResponseBody) {
        self.count("core.iterations", body.iterations);
        self.count(&format!("core.iterations.{scenario}"), body.iterations);
        self.count("solver.basis_calls", body.iterations);
        self.count("sampling.draws", body.iterations * m);
        self.count("bigdata.passes", body.passes);
        self.count("bigdata.rounds", body.rounds);
        self.count("bigdata.comm_bits", body.comm_bits);
        self.count("bigdata.load_bits", body.load_bits);
        self.count("bigdata.space_bits", body.space_bits);
    }

    /// Adds the logical counts of `solved` and the probe estimates of
    /// their draw, basis and scan time: each probe time multiplied by the
    /// solve's own counts, averaged over the solves. Returns each solve's
    /// estimate in ms.
    pub fn add_solves(&mut self, solved: &[Solved<'_>]) -> Vec<f64> {
        let (mut draw_ms, mut draws, mut basis_ms, mut scan_ms) = (0.0, 0.0, 0.0, 0.0);
        let mut estimates = Vec::with_capacity(solved.len());
        for s in solved {
            self.add_body(s.scenario, s.m, s.body);
            let it = s.body.iterations as f64;
            let d = it * s.m as f64;
            let (dm, bm, sm) = (
                d * s.probe.draw_ns / 1e6,
                it * s.probe.basis_ms,
                it * s.probe.scan_ms,
            );
            draw_ms += dm;
            draws += d;
            basis_ms += bm;
            scan_ms += sm;
            estimates.push(dm + bm + sm);
        }
        let per = solved.len().max(1) as f64;
        self.set(
            "sampling.draw_ns",
            if draws > 0.0 {
                draw_ms * 1e6 / draws
            } else {
                0.0
            },
        );
        self.set("solver.basis_ms", basis_ms / per);
        self.set("core.scan_ms", scan_ms / per);
        estimates
    }

    /// Sets the span-derived metrics: self time per request, in ms.
    pub fn spans(&mut self, tracer: &Tracer, requests: usize) {
        let per = requests.max(1) as f64;
        for (name, (ms, _)) in trace::self_times(&tracer.spans()) {
            let metric = format!("{name}_ms");
            if PER_LAYER.iter().any(|(n, _)| *n == metric) {
                self.set(&metric, ms / per);
            }
        }
    }

    pub fn into_metrics(self) -> (Vec<Metric>, BTreeMap<String, u64>) {
        let mut out = Vec::new();
        for &(name, unit) in PER_LAYER {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None => self.counts.get(name).copied().unwrap_or(0) as f64,
            };
            out.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        }
        for sc in scenario_names() {
            let name = format!("core.iterations.{sc}");
            let value = self.counts.get(&name).copied().unwrap_or(0) as f64;
            out.push(Metric {
                name,
                value,
                unit: "count",
            });
        }
        (out, self.counts)
    }
}

/// ε-net size `m` drawn per iteration of a solve over `n` rows (0 when
/// the net is the whole input). The MPC leg runs with `r = ⌈1/δ⌉ = 3 =
/// R`, so all four models share this size.
pub(crate) fn net_draws<P: llp_core::LpTypeProblem>(problem: &P, n: usize) -> u64 {
    let m = ClarksonConfig::lean(R).net_size(n, problem.combinatorial_dim(), problem.vc_dim());
    if m < n {
        m as u64
    } else {
        0
    }
}

/// A completed solve with the probe of its instance.
pub(crate) struct Solved<'a> {
    pub scenario: &'a str,
    /// ε-net size ([`net_draws`]).
    pub m: u64,
    pub body: &'a llp_service::ResponseBody,
    pub probe: Probe,
}

/// Probe timings of the inner Clarkson phases at one instance's size.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Probe {
    pub draw_ns: f64,
    pub basis_ms: f64,
    pub scan_ms: f64,
    pub to_columns_ms: f64,
    pub verify_ms: f64,
}

/// Times the public functions behind one Clarkson iteration at the
/// sizes a solve of `data` uses: `m` weighted draws, one basis solve of
/// the drawn net, one weighted violation scan and one transposition.
pub(crate) fn probe<P: ColumnarProblem>(problem: &P, data: &[P::Constraint], seed: u64) -> Probe {
    let n = data.len();
    let nu = llp_core::LpTypeProblem::combinatorial_dim(problem);
    let lambda = llp_core::LpTypeProblem::vc_dim(problem);
    let m = ClarksonConfig::lean(R).net_size(n, nu, lambda);
    let index = WeightIndex::uniform(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let draw_ms = time_median_ms(3, || {
        let mut acc = 0usize;
        for _ in 0..m {
            acc ^= index.draw(&mut rng);
        }
        acc
    });
    let mut idx: Vec<usize> = (0..m).map(|_| index.draw(&mut rng)).collect();
    idx.sort_unstable();
    idx.dedup();
    let net: Vec<P::Constraint> = idx.iter().map(|&i| data[i].clone()).collect();
    let basis_ms = time_median_ms(3, || problem.solve_subset(&net, &mut rng));
    let columns = problem.to_columns(data);
    let to_columns_ms = time_median_ms(3, || problem.to_columns(data));
    let (scan_ms, verify_ms) = match problem.solve_subset(&net, &mut rng) {
        Ok(sol) => {
            let mut out = Vec::new();
            let scan = time_median_ms(3, || {
                scan_violators_weighted_columnar(problem, &sol, &columns, &index, &mut out)
            });
            let verify = time_median_ms(3, || count_violations(problem, &sol, data));
            (scan, verify)
        }
        Err(_) => (0.0, 0.0),
    };
    Probe {
        draw_ns: draw_ms * 1e6 / m.max(1) as f64,
        basis_ms,
        scan_ms,
        to_columns_ms,
        verify_ms,
    }
}
