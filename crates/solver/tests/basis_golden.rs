//! Bit-level golden fixture for the basis solvers.
//!
//! Every case runs [`seidel::solve`] and [`lex_min_optimum`] from a fixed
//! seed and records the exact result bits plus the next RNG word after the
//! call, so both the arithmetic and the RNG consumption are pinned. The
//! fixture was captured once from a known-good tree; it is never
//! regenerated to make a change pass. On a mismatch the actual output is
//! written next to the test binary's temporary directory for diffing.

use llp_geom::Halfspace;
use llp_num::linalg::norm;
use llp_solver::lexico::lex_min_optimum;
use llp_solver::seidel::{self, SeidelConfig};
use llp_solver::LpResult;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/basis_golden.txt");

/// A named net: constraints, objective and solver configuration.
struct Case {
    name: String,
    cs: Vec<Halfspace>,
    c: Vec<f64>,
    cfg: SeidelConfig,
}

fn unit(r: &mut StdRng, d: usize) -> Vec<f64> {
    loop {
        let a: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
        let n = norm(&a);
        if n > 1e-3 {
            return a.into_iter().map(|v| v / n).collect();
        }
    }
}

fn box_rows(d: usize, half: f64) -> Vec<Halfspace> {
    let mut out = Vec::with_capacity(2 * d);
    for j in 0..d {
        let mut hi = vec![0.0; d];
        hi[j] = 1.0;
        let mut lo = vec![0.0; d];
        lo[j] = -1.0;
        out.push(Halfspace::new(hi, half));
        out.push(Halfspace::new(lo, half));
    }
    out
}

fn cases() -> Vec<Case> {
    let mut r = StdRng::seed_from_u64(20190701);
    let dflt = SeidelConfig::default();
    let mut out = Vec::new();
    for d in 1..=4usize {
        // Random nets tangent to the unit sphere, in several sizes, with
        // unnormalized rows (scaled by a random factor) so normalization
        // is exercised.
        for &m in &[1usize, 3, 8, 25, 60] {
            for rep in 0..3 {
                let cs: Vec<Halfspace> = (0..m)
                    .map(|_| {
                        let s = r.random_range(0.1..10.0);
                        let a: Vec<f64> = unit(&mut r, d).into_iter().map(|v| v * s).collect();
                        Halfspace::new(a, s * r.random_range(0.5..2.0))
                    })
                    .collect();
                let c = unit(&mut r, d);
                out.push(Case {
                    name: format!("tangent d={d} m={m} rep={rep}"),
                    cs,
                    c,
                    cfg: dflt,
                });
            }
        }
        // Random offsets: a·x ≤ b with b of either sign (often infeasible
        // or unbounded), plus the box so most are bounded.
        for rep in 0..4 {
            let mut cs: Vec<Halfspace> = (0..20)
                .map(|_| Halfspace::new(unit(&mut r, d), r.random_range(-1.0..1.0)))
                .collect();
            if rep % 2 == 0 {
                cs.extend(box_rows(d, 3.0));
            }
            let c = unit(&mut r, d);
            out.push(Case {
                name: format!("offset d={d} rep={rep}"),
                cs,
                c,
                cfg: dflt,
            });
        }
        // Near-tie cluster through a planted point.
        for rep in 0..3 {
            let c = unit(&mut r, d);
            let x_star: Vec<f64> = c.iter().map(|v| -v).collect();
            let mut cs: Vec<Halfspace> = (0..40)
                .map(|_| {
                    let raw: Vec<f64> = (0..d)
                        .map(|j| -c[j] + 1e-3 * r.random_range(-1.0..1.0))
                        .collect();
                    let nn = norm(&raw);
                    let a: Vec<f64> = raw.into_iter().map(|v| v / nn).collect();
                    let b = llp_num::linalg::dot(&a, &x_star) + r.random_range(0.0..1e-9);
                    Halfspace::new(a, b)
                })
                .collect();
            cs.extend(box_rows(d, 2.0));
            out.push(Case {
                name: format!("near-tie d={d} rep={rep}"),
                cs,
                c,
                cfg: dflt,
            });
        }
        // Duplicates and a degenerate optimal face: the unit cube, every
        // row repeated, objective on the first coordinate only.
        {
            let mut cs = Vec::new();
            for h in box_rows(d, 1.0) {
                cs.push(h.clone());
                cs.push(h.clone());
                let a: Vec<f64> = h.a.iter().map(|v| 3.0 * v).collect();
                cs.push(Halfspace::new(a, 3.0 * h.b));
            }
            let mut c = vec![0.0; d];
            c[0] = 1.0;
            out.push(Case {
                name: format!("dup-face d={d}"),
                cs: cs.clone(),
                c,
                cfg: dflt,
            });
            out.push(Case {
                name: format!("dup-zero-obj d={d}"),
                cs,
                c: vec![0.0; d],
                cfg: dflt,
            });
        }
        // Infeasible: x0 ≤ 0 and x0 ≥ 1 buried among tangent rows.
        {
            let mut cs: Vec<Halfspace> = (0..10)
                .map(|_| Halfspace::new(unit(&mut r, d), 1.0))
                .collect();
            let mut hi = vec![0.0; d];
            hi[0] = 1.0;
            let mut lo = vec![0.0; d];
            lo[0] = -1.0;
            cs.insert(3, Halfspace::new(hi, 0.0));
            cs.push(Halfspace::new(lo, -1.0));
            out.push(Case {
                name: format!("infeasible d={d}"),
                c: unit(&mut r, d),
                cs,
                cfg: dflt,
            });
        }
        // Unbounded: a single halfspace.
        out.push(Case {
            name: format!("unbounded d={d}"),
            cs: vec![Halfspace::new(unit(&mut r, d), 0.5)],
            c: unit(&mut r, d),
            cfg: dflt,
        });
        // Zero-normal rows: a satisfied `0 ≤ 1` among a bounded net, and an
        // unsatisfiable `0 ≤ -1`.
        for (tag, b0) in [("sat", 1.0), ("unsat", -1.0)] {
            let mut cs: Vec<Halfspace> = (0..12)
                .map(|_| Halfspace::new(unit(&mut r, d), 1.0))
                .collect();
            cs.insert(5, Halfspace::new(vec![0.0; d], b0));
            cs.extend(box_rows(d, 4.0));
            out.push(Case {
                name: format!("zero-normal-{tag} d={d}"),
                c: unit(&mut r, d),
                cs,
                cfg: dflt,
            });
        }
        // A small regularization box that binds.
        {
            let cs: Vec<Halfspace> = (0..6)
                .map(|_| Halfspace::new(unit(&mut r, d), r.random_range(0.5..20.0)))
                .collect();
            out.push(Case {
                name: format!("small-box d={d}"),
                c: unit(&mut r, d),
                cs,
                cfg: SeidelConfig {
                    box_half_width: 10.0,
                    eps: 1e-9,
                },
            });
        }
    }
    out
}

fn fmt_result(out: &mut String, res: &LpResult) {
    match res {
        LpResult::Optimal(x) => {
            out.push_str("opt");
            for v in x {
                write!(out, " {:016x}", v.to_bits()).unwrap();
            }
        }
        LpResult::Infeasible => out.push_str("infeasible"),
        LpResult::Unbounded => out.push_str("unbounded"),
    }
}

fn fingerprint() -> String {
    let mut out = String::from("# case | solver seed | result bits | next rng word\n");
    for (k, case) in cases().iter().enumerate() {
        for solver in ["seidel", "lex"] {
            let seed = 1000 + k as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let res = match solver {
                "seidel" => seidel::solve(&case.cs, &case.c, &case.cfg, &mut rng),
                _ => lex_min_optimum(&case.cs, &case.c, &case.cfg, &mut rng),
            };
            write!(out, "{} | {solver} {seed} | ", case.name).unwrap();
            fmt_result(&mut out, &res);
            writeln!(out, " | {:016x}", rng.next_u64()).unwrap();
        }
    }
    out
}

#[test]
fn basis_solvers_match_golden_fixture() {
    let actual = fingerprint();
    if actual != FIXTURE {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("basis_golden.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .find(|(a, f)| a != f)
            .map(|(a, f)| format!("\n  got:  {a}\n  want: {f}"))
            .unwrap_or_else(|| "line count differs".to_string());
        panic!(
            "basis solver drifted from the golden fixture (actual written to {}):{first}",
            path.display()
        );
    }
}
