//! The workload seed alone fixes every generated input: the same seed
//! gives identical logical counts, and different seeds give different
//! instances. Runs every workload on shrunken inputs with a short timed
//! phase; the counts come from request sets that do not depend on how
//! many requests the timed phase completed.

use llp_perfbench::{run, Config, Report, Workload};

fn traced(workload: Workload, seed: u64) -> Report {
    run(&Config {
        workload,
        seed,
        seconds: 0.2,
        trace: true,
        shrink: 4,
        out_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name()),
    })
}

/// Two runs with seed 7 repeat every logical count; seed 8 changes the
/// instances. Returns the first run.
fn check_seeds(w: Workload) -> Report {
    let a = traced(w, 7);
    let b = traced(w, 7);
    assert!(a.correct(), "{}: {:?}", w.name(), a.problems);
    assert!(b.correct(), "{}: {:?}", w.name(), b.problems);
    assert!(a.counts.get("core.iterations").copied().unwrap_or(0) > 0);
    assert_eq!(a.counts, b.counts, "{}: logical counts differ", w.name());
    assert_eq!(a.fingerprints, b.fingerprints);
    assert!(!a.fingerprints.is_empty());
    let c = traced(w, 8);
    assert_ne!(
        a.fingerprints,
        c.fingerprints,
        "{}: seed did not change the instances",
        w.name()
    );
    a
}

#[test]
fn solve_lp_is_seed_deterministic() {
    check_seeds(Workload::SolveLp);
}

#[test]
fn solve_svm_meb_is_seed_deterministic() {
    check_seeds(Workload::SolveSvmMeb);
}

#[test]
fn serve_fresh_is_seed_deterministic() {
    check_seeds(Workload::ServeFresh);
}

#[test]
fn serve_repeat_is_seed_deterministic() {
    check_seeds(Workload::ServeRepeat);
}

#[test]
fn stream_file_is_seed_deterministic_and_counts_store_bytes() {
    let r = check_seeds(Workload::StreamFile);
    assert!(r.counts["bigdata.passes"] > 0);
    assert!(r.counts["store.bytes_read"] > 0);
}
