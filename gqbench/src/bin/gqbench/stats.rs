//! Order statistics and outcome counting, kept free of I/O so the
//! benchmark's own arithmetic is unit-tested.

/// Samples a percentile must leave above it before the benchmark reports it.
pub const MIN_SAMPLES_ABOVE: usize = 10;

/// Percentiles, in per-mille, the benchmark may report.
pub const CANDIDATE_PERMILLE: [u32; 5] = [500, 900, 950, 990, 999];

/// One-based nearest rank of the `permille` percentile among `n` samples:
/// the smallest rank whose share of samples at or below it reaches the
/// percentile. Integer arithmetic, so 0.9 × 100 is exactly rank 90.
pub fn nearest_rank(n: usize, permille: u32) -> usize {
    let permille = permille.min(1000) as usize;
    (n * permille).div_ceil(1000).max(1)
}

/// Samples strictly above the `permille` percentile of `n` samples.
pub fn samples_above(n: usize, permille: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, permille).min(n)
}

/// The highest candidate percentile that leaves at least
/// [`MIN_SAMPLES_ABOVE`] samples above it, or `None` when even the median
/// does not.
pub fn highest_supported_permille(n: usize) -> Option<u32> {
    CANDIDATE_PERMILLE
        .iter()
        .copied()
        .filter(|&p| samples_above(n, p) >= MIN_SAMPLES_ABOVE)
        .max()
}

/// The smallest sample count at which `permille` is supported.
pub fn min_samples_for(permille: u32) -> usize {
    (1..=1_000_000)
        .find(|&n| samples_above(n, permille) >= MIN_SAMPLES_ABOVE)
        .expect("every candidate percentile is supported by a million samples")
}

/// The `permille` percentile of `values` by nearest rank; `0.0` when empty.
pub fn percentile(values: &[f64], permille: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), permille).min(sorted.len()) - 1]
}

/// The median (nearest rank); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 500)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What became of one attempted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed, and its result multiset matched the reference.
    Correct,
    /// Completed with a result that differs from the reference (or with a
    /// failed recovery-log audit or a delivery gap).
    Wrong,
    /// The program returned an error.
    Failed,
    /// Refused at admission.
    Rejected,
}

/// Outcome counts over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries attempted.
    pub attempted: u64,
    /// Completed with the reference result.
    pub correct: u64,
    /// Completed with a wrong result.
    pub wrong: u64,
    /// Returned an error.
    pub failed: u64,
    /// Refused at admission.
    pub rejected: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn add(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Correct => self.correct += 1,
            Outcome::Wrong => self.wrong += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Rejected => self.rejected += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.wrong += other.wrong;
        self.failed += other.failed;
        self.rejected += other.rejected;
    }

    /// Queries that did not deliver a correct result.
    pub fn not_ok(&self) -> u64 {
        self.failed + self.rejected + self.wrong
    }

    /// (failed + rejected + wrong) / attempted; `1.0` when nothing was
    /// attempted, since a run that completes no query has failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.not_ok() as f64 / self.attempted as f64
        }
    }

    /// True when every attempted query returned the reference result and at
    /// least one was attempted.
    pub fn all_correct(&self) -> bool {
        self.attempted > 0 && self.not_ok() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        assert_eq!(nearest_rank(100, 900), 90);
        assert_eq!(nearest_rank(100, 500), 50);
        assert_eq!(nearest_rank(101, 900), 91);
        assert_eq!(nearest_rank(1, 999), 1);
        assert_eq!(samples_above(100, 900), 10);
        assert_eq!(samples_above(99, 900), 9);
        assert_eq!(samples_above(0, 500), 0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_samples_above() {
        assert_eq!(highest_supported_permille(0), None);
        assert_eq!(highest_supported_permille(19), None);
        assert_eq!(highest_supported_permille(20), Some(500));
        assert_eq!(highest_supported_permille(99), Some(500));
        assert_eq!(highest_supported_permille(100), Some(900));
        assert_eq!(highest_supported_permille(199), Some(900));
        assert_eq!(highest_supported_permille(200), Some(950));
        assert_eq!(highest_supported_permille(1000), Some(990));
        assert_eq!(highest_supported_permille(10_000), Some(999));
        assert_eq!(min_samples_for(900), 100);
        assert_eq!(min_samples_for(500), 20);
    }

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 500), 50.0);
        assert_eq!(percentile(&values, 900), 90.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn failed_frac_counts_failed_rejected_and_wrong() {
        let mut t = Tally::default();
        for o in [
            Outcome::Correct,
            Outcome::Correct,
            Outcome::Correct,
            Outcome::Correct,
            Outcome::Correct,
            Outcome::Wrong,
            Outcome::Failed,
            Outcome::Rejected,
        ] {
            t.add(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.not_ok(), 3);
        assert_eq!(t.failed_frac(), 3.0 / 8.0);
        assert!(!t.all_correct());

        let mut clean = Tally::default();
        clean.add(Outcome::Correct);
        assert_eq!(clean.failed_frac(), 0.0);
        assert!(clean.all_correct());
        assert_eq!(Tally::default().failed_frac(), 1.0);
        assert!(!Tally::default().all_correct());
    }
}
