//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! The line before it carries the detail that does not fit there: all
//! eight end-to-end metrics including `error_rate`, the tail percentile
//! and its sample counts, and the logical counts.

#![forbid(unsafe_code)]

use llp_perfbench::{run, Config, Metric, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const OUT_DIR: &str = ".perfbench_out";

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid --workload, --seed, --seconds or --trace");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        shrink: 1,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let report = run(&cfg);
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let mut detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace}",
        workload.name()
    );
    if !trace {
        let (pct, beyond, samples) = report.tail;
        detail += &format!(
            ",\"latency_tail\":{{\"percentile\":{pct},\"samples_beyond\":{beyond},\"samples\":{samples}}},\"end_to_end\":{}",
            metrics_json(&report.end_to_end)
        );
    } else {
        let counts: Vec<String> = report
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        detail += &format!(",\"counts\":{{{}}}", counts.join(","));
    }
    println!("{detail}}}");

    // error_rate reads 0 in a clean run, and no result-line metric may
    // read 0; `attempted` and `failed` carry it, so the line leaves it out.
    let shown: Vec<Metric> = if trace {
        report.per_layer.clone()
    } else {
        report
            .end_to_end
            .iter()
            .filter(|m| m.name != "error_rate")
            .cloned()
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics_json(&shown)
    );
    ExitCode::SUCCESS
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", items.join(","))
}
