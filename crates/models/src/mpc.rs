//! The massively parallel computation model (Section 3.4).
//!
//! `k` machines hold partitions; computation proceeds in BSP rounds; the
//! figure of merit is the *load* — the maximum bits any machine sends or
//! receives in a round. [`MpcSim`] meters exactly that. The `n^δ`-ary
//! broadcast / converge-cast trees of Goodrich–Sitchinava–Zhang \[23\]
//! that Theorem 3 routes its traffic over live with the algorithm
//! (`llp_bigdata::mpc`), which charges each tree edge here.

use crate::cost::BitCost;

/// Load statistics of an MPC run.
#[derive(Clone, Debug, Default)]
pub struct MpcMeter {
    rounds: u64,
    /// Max over machines of bits sent+received, per round.
    per_round_max_load: Vec<u64>,
    /// Current round's per-machine load.
    current: Vec<u64>,
}

impl MpcMeter {
    /// Completed round count (including the one in progress).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The model's cost: the maximum per-machine load over all rounds.
    pub fn max_load_bits(&self) -> u64 {
        self.per_round_max_load
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.current.iter().copied().max().unwrap_or(0))
    }

    /// Per-round maximum loads (completed rounds).
    pub fn per_round_max_load(&self) -> &[u64] {
        &self.per_round_max_load
    }

    /// Sum over rounds of the per-round maximum load: the aggregate
    /// critical-path traffic of the run, surfaced as
    /// `MpcStats::total_load_bits` next to
    /// [`max_load_bits`](Self::max_load_bits).
    pub fn total_load_bits(&self) -> u64 {
        self.per_round_max_load.iter().sum::<u64>()
            + self.current.iter().copied().max().unwrap_or(0)
    }
}

/// The MPC simulator: a load meter over `k` machines. It holds no
/// constraint data — each machine's partition lives with the algorithm
/// that runs on it — and sees only the messages between machines.
#[derive(Debug)]
pub struct MpcSim {
    k: usize,
    /// Load meter.
    pub meter: MpcMeter,
}

impl MpcSim {
    /// A meter over `k` machines.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one machine");
        MpcSim {
            k,
            meter: MpcMeter::default(),
        }
    }

    /// Number of machines.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Starts a BSP round.
    pub fn begin_round(&mut self) {
        if !self.meter.current.is_empty() {
            let max = self.meter.current.iter().copied().max().unwrap_or(0);
            self.meter.per_round_max_load.push(max);
        }
        self.meter.rounds += 1;
        self.meter.current = vec![0; self.k];
    }

    /// Finalizes the last round (optional; `begin_round` also rolls over).
    pub fn end_round(&mut self) {
        if !self.meter.current.is_empty() {
            let max = self.meter.current.iter().copied().max().unwrap_or(0);
            self.meter.per_round_max_load.push(max);
            self.meter.current = vec![0; self.k];
        }
    }

    /// Charges a point-to-point message of `payload` from machine `from`
    /// to machine `to` in the current round.
    ///
    /// # Panics
    /// Panics if called before `begin_round` or with out-of-range ids.
    pub fn charge<T: BitCost + ?Sized>(&mut self, from: usize, to: usize, payload: &T) {
        assert!(!self.meter.current.is_empty(), "charge outside a round");
        let b = payload.bits();
        self.meter.current[from] += b;
        self.meter.current[to] += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_totals_span_rounds() {
        let mut sim = MpcSim::new(2);
        assert_eq!(sim.k(), 2);
        sim.begin_round();
        sim.charge(0, 1, &1u64); // 64 bits on both
        sim.end_round();
        sim.begin_round();
        sim.charge(1, 0, &1u32); // 32 bits
        sim.end_round();
        assert_eq!(sim.meter.max_load_bits(), 64);
        assert_eq!(sim.meter.total_load_bits(), 96);
    }

    #[test]
    fn load_is_max_over_machines() {
        let mut sim = MpcSim::new(4);
        sim.begin_round();
        sim.charge(0, 1, &vec![0.0f64; 10]); // 640 bits on 0 and 1
        sim.charge(2, 1, &1u64); // 64 more on 1
        sim.end_round();
        assert_eq!(sim.meter.max_load_bits(), 704);
        assert_eq!(sim.meter.per_round_max_load(), &[704]);
    }
}
