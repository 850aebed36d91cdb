//! Sample reductions: nearest-rank percentiles with the ten-beyond rule.

/// A percentile is only reported as measured when at least this many
/// samples lie beyond it; with fewer, the value is one of the few largest
/// samples and says little about the tail.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of quantile `q` among `len` samples: the smallest
/// rank whose share of samples at or below it reaches `q`.
#[must_use]
pub fn nearest_rank(len: usize, q: f64) -> usize {
    if len == 0 {
        return 0;
    }
    // The epsilon keeps `0.99 * 1000` at rank 990 despite binary rounding.
    ((q * len as f64 - 1e-9).ceil() as usize).clamp(1, len)
}

/// Samples strictly beyond the nearest-rank `q` percentile.
#[must_use]
pub fn beyond(len: usize, q: f64) -> usize {
    len - nearest_rank(len, q)
}

/// An ascending sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; 0 for an empty set.
    #[must_use]
    pub fn pct(&self, q: f64) -> f64 {
        match nearest_rank(self.sorted.len(), q) {
            0 => 0.0,
            rank => self.sorted[rank - 1],
        }
    }

    #[must_use]
    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }

    /// Whether the `q` percentile has [`TAIL_SAMPLES`] samples beyond it.
    #[must_use]
    pub fn tail_ok(&self, q: f64) -> bool {
        beyond(self.sorted.len(), q) >= TAIL_SAMPLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest sample count for which the `q` percentile has at least
    /// [`TAIL_SAMPLES`] samples beyond it.
    fn samples_for_tail(q: f64) -> usize {
        (1..)
            .find(|&n| beyond(n, q) >= TAIL_SAMPLES)
            .expect("q < 1")
    }

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.pct(0.5), 50.0);
        assert_eq!(s.pct(0.99), 99.0);
        assert_eq!(s.pct(1.0), 100.0);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(Samples::new(vec![7.0]).pct(0.99), 7.0);
        assert_eq!(Samples::default().pct(0.5), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert!(Samples::new(vec![1.0; 1000]).tail_ok(0.99));
        assert!(!Samples::new(vec![1.0; 999]).tail_ok(0.99));
        assert_eq!(samples_for_tail(0.5), 20);
    }
}
