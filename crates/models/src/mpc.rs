//! The massively parallel computation model (Section 3.4).
//!
//! `k` machines hold partitions; computation proceeds in BSP rounds; the
//! figure of merit is the *load* — the maximum bits any machine sends or
//! receives in a round. [`MpcMeter`] meters exactly that. The `n^δ`-ary
//! broadcast / converge-cast trees of Goodrich–Sitchinava–Zhang \[23\]
//! that Theorem 3 routes its traffic over live with the algorithm
//! (`llp_bigdata::mpc`), which charges each tree edge here.

/// Load meter of an MPC run over `k` machines.
#[derive(Clone, Debug)]
pub struct MpcMeter {
    rounds: u64,
    /// Max per-machine load over the closed rounds.
    max_load: u64,
    /// Sum over the closed rounds of each round's max per-machine load.
    total_load: u64,
    /// The open round's per-machine load (bits sent + received).
    current: Vec<u64>,
}

impl MpcMeter {
    /// A meter over `k` machines.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one machine");
        MpcMeter {
            rounds: 0,
            max_load: 0,
            total_load: 0,
            current: vec![0; k],
        }
    }

    /// Starts a BSP round, closing the previous one.
    pub fn begin_round(&mut self) {
        let load = self.current_load();
        self.max_load = self.max_load.max(load);
        self.total_load += load;
        self.current.fill(0);
        self.rounds += 1;
    }

    /// Charges a point-to-point message of `bits` bits from machine
    /// `from` to machine `to` in the current round.
    ///
    /// # Panics
    /// Panics if called before any [`begin_round`](Self::begin_round) or
    /// with out-of-range ids.
    pub fn charge(&mut self, from: usize, to: usize, bits: u64) {
        assert!(self.rounds > 0, "charge outside a round");
        self.current[from] += bits;
        self.current[to] += bits;
    }

    fn current_load(&self) -> u64 {
        self.current.iter().copied().max().unwrap_or(0)
    }

    /// Round count (including the one in progress).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The model's cost: the maximum per-machine load over all rounds.
    pub fn max_load_bits(&self) -> u64 {
        self.max_load.max(self.current_load())
    }

    /// Sum over rounds of the per-round maximum load: the aggregate
    /// critical-path traffic of the run, surfaced as
    /// `MpcStats::total_load_bits` next to
    /// [`max_load_bits`](Self::max_load_bits).
    pub fn total_load_bits(&self) -> u64 {
        self.total_load + self.current_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_totals_span_rounds() {
        let mut meter = MpcMeter::new(2);
        meter.begin_round();
        meter.charge(0, 1, 64); // 64 bits on both
        meter.begin_round();
        meter.charge(1, 0, 32);
        assert_eq!(meter.rounds(), 2);
        assert_eq!(meter.max_load_bits(), 64);
        assert_eq!(meter.total_load_bits(), 96);
    }

    #[test]
    fn load_is_max_over_machines() {
        let mut meter = MpcMeter::new(4);
        meter.begin_round();
        meter.charge(0, 1, 640); // on 0 and 1
        meter.charge(2, 1, 64); // 64 more on 1
        assert_eq!(meter.max_load_bits(), 704);
        assert_eq!(meter.total_load_bits(), 704);
    }

    #[test]
    #[should_panic(expected = "charge outside a round")]
    fn charging_outside_round_panics() {
        MpcMeter::new(1).charge(0, 0, 8);
    }
}
