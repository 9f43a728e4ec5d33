//! Gshare branch predictor.

/// A gshare predictor: global history XOR PC indexes a table of 2-bit
/// saturating counters.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    table: Vec<u8>,
    history: u64,
    index_bits: u32,
    predictions: u64,
    mispredictions: u64,
}

impl BranchPredictor {
    /// A predictor with `2^index_bits` counters.
    pub fn new(index_bits: u32) -> BranchPredictor {
        assert!(
            index_bits > 0 && index_bits <= 24,
            "unreasonable table size"
        );
        BranchPredictor {
            table: vec![1; 1 << index_bits], // weakly not-taken
            history: 0,
            index_bits,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Record a branch with the given outcome; returns true if the
    /// prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let mask = (1u64 << self.index_bits) - 1;
        let idx = ((pc >> 2) ^ self.history) & mask;
        let ctr = &mut self.table[idx as usize];
        let predicted_taken = *ctr >= 2;
        let correct = predicted_taken == taken;
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u64) & mask;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// (total predictions, mispredictions).
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken_branch() {
        let mut bp = BranchPredictor::new(10);
        // Warm up: the global history register needs to saturate before
        // the indexed counter stabilizes.
        for _ in 0..40 {
            bp.predict_and_update(0x400, true);
        }
        let correct = bp.predict_and_update(0x400, true);
        assert!(correct);
        let (p, m) = bp.stats();
        assert!(m < p / 2, "should learn quickly: {m}/{p}");
    }

    #[test]
    fn learns_loop_pattern() {
        let mut bp = BranchPredictor::new(12);
        // A loop branch: taken 63 times, not-taken once, repeated.
        let mut miss = 0;
        for _round in 0..16 {
            for i in 0..64 {
                let taken = i != 63;
                if !bp.predict_and_update(0x1000, taken) {
                    miss += 1;
                }
            }
        }
        // Total 1024 branches; a gshare should mispredict only the loop
        // exits plus warmup, which is well under 10%.
        assert!(miss < 102, "miss={miss}");
    }

    #[test]
    fn random_pattern_misses_often() {
        let mut bp = BranchPredictor::new(10);
        // Deterministic pseudo-random outcomes.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut miss = 0;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !bp.predict_and_update(0x2000, x & 1 == 1) {
                miss += 1;
            }
        }
        assert!(miss > 250, "random outcomes can't be predicted: {miss}");
    }
}
