//! Naive baselines: optimal passes/rounds, worst-case space/communication.
//!
//! * Streaming: read everything into memory in one pass and solve — the
//!   `O(n)`-space point every sublinear algorithm is measured against.
//! * Coordinator: every site ships its whole partition in one round —
//!   `n·bit(S)` communication.

use llp_core::lptype::{LpTypeProblem, SolveError};
use llp_models::coordinator::CoordMeter;
use llp_models::streaming::StreamSession;
use rand::Rng;

/// One-pass, store-everything streaming solve. Returns the solution plus
/// (passes, peak bits).
pub fn streaming_store_all<P: LpTypeProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    rng: &mut R,
) -> Result<(P::Solution, u64, u64), SolveError> {
    let mut session = StreamSession::new(data);
    let mut stored: Vec<P::Constraint> = Vec::with_capacity(data.len());
    for c in session.pass() {
        session.space.alloc(problem.constraint_bits(), 1);
        stored.push(c.clone());
    }
    let sol = problem.solve_subset(&stored, rng)?;
    Ok((sol, session.passes(), session.space.peak_bits()))
}

/// One-round, ship-everything coordinator solve. Returns the solution
/// plus (rounds, total bits).
pub fn coordinator_ship_all<P: LpTypeProblem, R: Rng>(
    problem: &P,
    data: Vec<P::Constraint>,
    k: usize,
    rng: &mut R,
) -> Result<(P::Solution, u64, u64), SolveError> {
    assert!(k >= 1, "need at least one site");
    let mut meter = CoordMeter::default();
    meter.begin_round();
    // Site `i` holds the round-robin share `data[i], data[i + k], …`.
    let mut all: Vec<P::Constraint> = Vec::with_capacity(data.len());
    for i in 0..k {
        let site = data.iter().skip(i).step_by(k);
        meter.charge_up(site.len() as u64 * problem.constraint_bits());
        all.extend(site.cloned());
    }
    let sol = problem.solve_subset(&all, rng)?;
    Ok((sol, meter.rounds(), meter.total_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::instances::lp::LpProblem;
    use llp_geom::Halfspace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lp() -> (LpProblem, Vec<Halfspace>) {
        let p = LpProblem::new(vec![-1.0, -1.0]);
        let cs = vec![
            Halfspace::new(vec![1.0, 2.0], 4.0),
            Halfspace::new(vec![3.0, 1.0], 6.0),
            Halfspace::new(vec![1.0, 0.0], 3.0),
        ];
        (p, cs)
    }

    #[test]
    fn store_all_uses_one_pass_and_linear_space() {
        let (p, cs) = lp();
        let mut rng = StdRng::seed_from_u64(1);
        let (sol, passes, bits) = streaming_store_all(&p, &cs, &mut rng).unwrap();
        assert_eq!(passes, 1);
        assert_eq!(bits, 3 * 64 * 3);
        assert!((p.objective_value(&sol) + 2.8).abs() < 1e-6);
    }

    #[test]
    fn ship_all_uses_one_round_and_linear_communication() {
        let (p, cs) = lp();
        let mut rng = StdRng::seed_from_u64(2);
        let (sol, rounds, bits) = coordinator_ship_all(&p, cs, 2, &mut rng).unwrap();
        assert_eq!(rounds, 1);
        assert_eq!(bits, 3 * 64 * 3);
        assert!((p.objective_value(&sol) + 2.8).abs() < 1e-6);
    }
}
