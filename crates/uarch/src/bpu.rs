//! Branch prediction: a pattern-history table of 2-bit saturating counters.
//!
//! This is the structure the ISpectre attack mistrains (SMaCk §5.4): the
//! conditional bounds check in the victim is trained with in-bounds indices
//! until the PHT confidently predicts the in-bounds direction, after which
//! an out-of-bounds call speculatively executes the indirect-call gadget.

/// Pattern-history-table predictor with 2-bit saturating counters indexed by
/// (hashed) branch PC.
///
/// ```
/// use smack_uarch::bpu::BranchPredictor;
/// let mut b = BranchPredictor::new(1024);
/// for _ in 0..4 { b.update(0x400, true); }
/// assert!(b.predict(0x400));
/// ```
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    mask: usize,
}

impl BranchPredictor {
    /// Create a predictor with `entries` PHT slots (power of two).
    ///
    /// Counters start weakly-taken (2), matching the common reset state.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> BranchPredictor {
        assert!(entries.is_power_of_two(), "PHT entries must be a power of two");
        BranchPredictor { counters: vec![2; entries], mask: entries - 1 }
    }

    fn index(&self, pc: u64) -> usize {
        // Mix the PC a little so nearby branches do not trivially alias.
        let h = pc ^ (pc >> 7) ^ (pc >> 13);
        (h as usize) & self.mask
    }

    /// Predicted direction for the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Whether the branch at `pc` is strongly predicted not taken: its
    /// counter sits at 0, so a not-taken outcome is predicted correctly
    /// and leaves the counter where it is.
    #[inline]
    pub fn strongly_not_taken(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] == 0
    }

    /// Train the predictor with the resolved direction of the branch at
    /// `pc`.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Reset every counter to weakly-taken.
    pub fn reset(&mut self) {
        self.counters.fill(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_not_taken() {
        let mut b = BranchPredictor::new(64);
        for _ in 0..3 {
            b.update(0x10, false);
        }
        assert!(!b.predict(0x10));
    }

    #[test]
    fn saturates_and_recovers() {
        let mut b = BranchPredictor::new(64);
        for _ in 0..10 {
            b.update(0x10, true);
        }
        assert!(b.predict(0x10));
        b.update(0x10, false);
        // One not-taken from saturated-taken stays predicted-taken.
        assert!(b.predict(0x10));
        b.update(0x10, false);
        assert!(!b.predict(0x10));
    }

    #[test]
    fn distinct_branches_distinct_state() {
        let mut b = BranchPredictor::new(1024);
        for _ in 0..4 {
            b.update(0x1000, false);
            b.update(0x2000, true);
        }
        assert!(!b.predict(0x1000));
        assert!(b.predict(0x2000));
    }

    #[test]
    fn mistraining_scenario() {
        // The ISpectre pattern: train not-taken (in-bounds falls through),
        // then the first out-of-bounds run is predicted not-taken.
        let mut b = BranchPredictor::new(1024);
        let branch_pc = 0x40_1234;
        for _ in 0..8 {
            b.update(branch_pc, false);
        }
        assert!(!b.predict(branch_pc), "bounds check predicted to fall through");
    }
}
