//! The coordinator model (Section 3.3).
//!
//! `k` sites each hold a partition of the constraints; a coordinator
//! exchanges messages with the sites in rounds. [`CoordSim`] meters
//! every transfer: a *round* is one
//! coordinator→sites + sites→coordinator exchange (matching the model
//! definition), and the meter records total bits, per-round bits, and the
//! up/down split.
//!
//! The simulator neither holds nor interprets data — each site's rows
//! live with the algorithm's per-site state, and algorithms move real
//! Rust values between sites and coordinator and charge their
//! [`BitCost`] here.

use crate::cost::BitCost;

/// Communication statistics of a coordinator-model run.
#[derive(Clone, Debug, Default)]
pub struct CoordMeter {
    rounds: u64,
    bits_down: u64,
    bits_up: u64,
    per_round_bits: Vec<u64>,
}

impl CoordMeter {
    /// Completed (or in-progress) round count.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total bits sent in either direction.
    pub fn total_bits(&self) -> u64 {
        self.bits_down + self.bits_up
    }

    /// Bits from coordinator to sites.
    pub fn bits_down(&self) -> u64 {
        self.bits_down
    }

    /// Bits from sites to coordinator.
    pub fn bits_up(&self) -> u64 {
        self.bits_up
    }

    /// Bits exchanged per round.
    pub fn per_round_bits(&self) -> &[u64] {
        &self.per_round_bits
    }

    /// The heaviest single round, in bits — the round-granular congestion
    /// figure skewed-partition experiments read out (total bits hide a
    /// single overloaded exchange).
    pub fn max_round_bits(&self) -> u64 {
        self.per_round_bits.iter().copied().max().unwrap_or(0)
    }
}

/// The coordinator-model simulator: a meter over `k` sites. It holds
/// no constraint data — each site's partition lives with the algorithm
/// that runs on it (local computation is free in the model), and only
/// the messages between sites and coordinator pass through here.
#[derive(Debug)]
pub struct CoordSim {
    k: usize,
    /// Communication meter.
    pub meter: CoordMeter,
}

impl CoordSim {
    /// A meter over `k` sites.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one site");
        CoordSim {
            k,
            meter: CoordMeter::default(),
        }
    }

    /// Number of sites `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Starts a new round.
    pub fn begin_round(&mut self) {
        self.meter.rounds += 1;
        self.meter.per_round_bits.push(0);
    }

    /// Charges a coordinator→site message.
    ///
    /// # Panics
    /// Panics if called before any [`begin_round`](Self::begin_round).
    pub fn charge_down<T: BitCost + ?Sized>(&mut self, payload: &T) {
        let b = payload.bits();
        self.meter.bits_down += b;
        *self
            .meter
            .per_round_bits
            .last_mut()
            .expect("charge outside a round") += b;
    }

    /// Charges a site→coordinator message.
    pub fn charge_up<T: BitCost + ?Sized>(&mut self, payload: &T) {
        let b = payload.bits();
        self.meter.bits_up += b;
        *self
            .meter
            .per_round_bits
            .last_mut()
            .expect("charge outside a round") += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metering() {
        let mut sim = CoordSim::new(2);
        assert_eq!(sim.k(), 2);
        sim.begin_round();
        sim.charge_down(&7u64); // 64 bits
        sim.charge_up(&vec![1.0f64, 2.0]); // 128 bits
        sim.begin_round();
        sim.charge_up(&1u32); // 32 bits
        assert_eq!(sim.meter.rounds(), 2);
        assert_eq!(sim.meter.bits_down(), 64);
        assert_eq!(sim.meter.bits_up(), 160);
        assert_eq!(sim.meter.total_bits(), 224);
        assert_eq!(sim.meter.per_round_bits(), &[192, 32]);
    }

    #[test]
    #[should_panic(expected = "charge outside a round")]
    fn charging_outside_round_panics() {
        let mut sim = CoordSim::new(1);
        sim.charge_up(&1u32);
    }
}
