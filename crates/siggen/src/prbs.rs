//! Maximal-length LFSR pseudo-random bit sequences.
//!
//! PRBS patterns are the standard stimulus for serial-link eye measurements
//! (the paper's Figs. 12–13 use the generator's pseudo-random NRZ data).
//! Each [`PrbsOrder`] selects a primitive polynomial; the resulting sequence
//! repeats with period `2^n − 1` and is *balanced*: it contains every
//! non-zero n-bit word exactly once per period.

/// The supported PRBS polynomial orders with their ITU-T standard taps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrbsOrder {
    /// x⁷ + x⁶ + 1, period 127.
    Prbs7,
    /// x⁹ + x⁵ + 1, period 511.
    Prbs9,
    /// x¹¹ + x⁹ + 1, period 2047.
    Prbs11,
    /// x¹⁵ + x¹⁴ + 1, period 32767.
    Prbs15,
    /// x²³ + x¹⁸ + 1, period 8388607.
    Prbs23,
    /// x³¹ + x²⁸ + 1, period 2³¹−1.
    Prbs31,
}

impl PrbsOrder {
    /// Returns the register length `n`.
    pub const fn order(self) -> u32 {
        match self {
            PrbsOrder::Prbs7 => 7,
            PrbsOrder::Prbs9 => 9,
            PrbsOrder::Prbs11 => 11,
            PrbsOrder::Prbs15 => 15,
            PrbsOrder::Prbs23 => 23,
            PrbsOrder::Prbs31 => 31,
        }
    }

    /// Returns the feedback tap pair `(a, b)` for x^a + x^b + 1.
    pub const fn taps(self) -> (u32, u32) {
        match self {
            PrbsOrder::Prbs7 => (7, 6),
            PrbsOrder::Prbs9 => (9, 5),
            PrbsOrder::Prbs11 => (11, 9),
            PrbsOrder::Prbs15 => (15, 14),
            PrbsOrder::Prbs23 => (23, 18),
            PrbsOrder::Prbs31 => (31, 28),
        }
    }

    /// Returns the sequence period `2^n − 1`.
    pub const fn period(self) -> u64 {
        (1u64 << self.order()) - 1
    }
}

impl core::fmt::Display for PrbsOrder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PRBS{}", self.order())
    }
}

/// A running PRBS generator (Fibonacci LFSR). Implements [`Iterator`] over
/// bits and never terminates.
///
/// # Examples
///
/// ```
/// use vardelay_siggen::{Prbs, PrbsOrder};
///
/// let bits: Vec<bool> = Prbs::new(PrbsOrder::Prbs7, 1).take(127).collect();
/// let ones = bits.iter().filter(|&&b| b).count();
/// assert_eq!(ones, 64); // maximal-length sequences have 2^(n-1) ones
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prbs {
    order: PrbsOrder,
    state: u64,
}

impl Prbs {
    /// Creates a generator with the given non-zero starting state.
    ///
    /// The state is masked to `n` bits; if the masked value would be zero
    /// (the LFSR's single fixed point), the all-ones state is used instead
    /// so the generator always produces a maximal-length sequence.
    pub fn new(order: PrbsOrder, seed: u64) -> Self {
        let mask = (1u64 << order.order()) - 1;
        let mut state = seed & mask;
        if state == 0 {
            state = mask;
        }
        Prbs { order, state }
    }

    /// Returns the polynomial order of this generator.
    pub fn order(&self) -> PrbsOrder {
        self.order
    }

    /// Advances the register one step and returns the output bit.
    pub fn next_bit(&mut self) -> bool {
        let (a, b) = self.order.taps();
        let out = (self.state >> (a - 1)) & 1;
        let fb = out ^ ((self.state >> (b - 1)) & 1);
        let mask = (1u64 << self.order.order()) - 1;
        self.state = ((self.state << 1) | fb) & mask;
        out == 1
    }
}

impl Iterator for Prbs {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        Some(self.next_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_period(order: PrbsOrder) -> Vec<bool> {
        Prbs::new(order, 1).take(order.period() as usize).collect()
    }

    #[test]
    fn prbs7_has_maximal_period() {
        // The state must revisit its start after exactly 2^7-1 steps and at
        // no earlier point.
        let start = Prbs::new(PrbsOrder::Prbs7, 1);
        let mut gen = start.clone();
        for step in 1..=127u32 {
            gen.next_bit();
            if gen == start {
                assert_eq!(step, 127, "period shorter than maximal");
                return;
            }
        }
        panic!("state never recurred within one period");
    }

    #[test]
    fn prbs9_and_prbs11_periods() {
        for order in [PrbsOrder::Prbs9, PrbsOrder::Prbs11] {
            let start = Prbs::new(order, 3);
            let mut gen = start.clone();
            let mut steps = 0u64;
            loop {
                gen.next_bit();
                steps += 1;
                if gen == start {
                    break;
                }
                assert!(steps <= order.period(), "period exceeds maximal");
            }
            assert_eq!(steps, order.period());
        }
    }

    #[test]
    fn balance_one_extra_one() {
        // A maximal-length sequence of period 2^n-1 has 2^(n-1) ones and
        // 2^(n-1)-1 zeros.
        for order in [PrbsOrder::Prbs7, PrbsOrder::Prbs9, PrbsOrder::Prbs11] {
            let bits = full_period(order);
            let ones = bits.iter().filter(|&&b| b).count() as u64;
            assert_eq!(ones, order.period().div_ceil(2), "{order}");
        }
    }

    #[test]
    fn longest_run_is_n() {
        // The longest run of ones in a maximal-length sequence is n, of
        // zeros n-1.
        let bits = full_period(PrbsOrder::Prbs7);
        let mut longest_ones = 0;
        let mut longest_zeros = 0;
        let mut run = 0usize;
        let mut last = bits[0];
        // Scan doubled sequence to catch a run wrapping the period boundary.
        for &b in bits.iter().chain(bits.iter()) {
            if b == last {
                run += 1;
            } else {
                if last {
                    longest_ones = longest_ones.max(run);
                } else {
                    longest_zeros = longest_zeros.max(run);
                }
                run = 1;
                last = b;
            }
        }
        assert_eq!(longest_ones, 7);
        assert_eq!(longest_zeros, 6);
    }

    #[test]
    fn zero_seed_is_coerced() {
        let mut gen = Prbs::new(PrbsOrder::Prbs7, 0);
        // All-zero state would lock up (output constant 0); coercion must
        // prevent that.
        let bits: Vec<bool> = (0..20).map(|_| gen.next_bit()).collect();
        assert!(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b));
    }

    #[test]
    fn seeds_shift_phase_only() {
        // Different seeds must generate the same cyclic sequence, just
        // phase-shifted.
        let a = full_period(PrbsOrder::Prbs7);
        let b: Vec<bool> = Prbs::new(PrbsOrder::Prbs7, 0x55).take(127).collect();
        let doubled: Vec<bool> = a.iter().chain(a.iter()).copied().collect();
        let found = (0..127).any(|off| doubled[off..off + 127] == b[..]);
        assert!(found, "seeded sequence is not a rotation of the base one");
    }

    #[test]
    fn display_names() {
        assert_eq!(PrbsOrder::Prbs23.to_string(), "PRBS23");
        assert_eq!(PrbsOrder::Prbs31.period(), (1u64 << 31) - 1);
    }
}
