//! Accuracy boosting: means over `k1` atomic estimates, median over `k2`
//! means (Section 2.3, Figure 1 of the paper).
//!
//! Averaging drives the variance down by `k1` (Chebyshev gives the ε bound);
//! taking the median of `k2` independent means drives the failure probability
//! down exponentially (Chernoff gives the `lg(1/φ)` bound) — Lemma 1.

/// Median of a slice (averaging the two middle elements for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mid = values.len() / 2;
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// The mean-then-median combiner of Figure 1.
///
/// `atomic[row * k1 + col]` holds the atomic estimate `Z_{col,row}`; rows are
/// averaged and the median of the `k2` row-means is returned along with the
/// row means themselves (useful for diagnostics and confidence reporting).
pub fn mean_median(atomic: &[f64], k1: usize, k2: usize) -> (f64, Vec<f64>) {
    let mut row_means = Vec::with_capacity(k2);
    let mut scratch = Vec::with_capacity(k2);
    let med = mean_median_with(atomic, k1, k2, &mut row_means, &mut scratch);
    (med, row_means)
}

/// Allocation-free core of [`mean_median`]: row means are written into
/// `row_means` (cleared and refilled) and the median is taken over `scratch`
/// (likewise reused), so a caller boosting many estimates — the blocked
/// query kernels in particular — pays no per-estimate allocation once the
/// buffers have grown to `k2` entries.
pub fn mean_median_with(
    atomic: &[f64],
    k1: usize,
    k2: usize,
    row_means: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) -> f64 {
    assert_eq!(atomic.len(), k1 * k2, "estimate grid shape mismatch");
    row_means.clear();
    for row in 0..k2 {
        let sum: f64 = atomic[row * k1..(row + 1) * k1].iter().sum();
        row_means.push(sum / k1 as f64);
    }
    scratch.clear();
    scratch.extend_from_slice(row_means);
    median(scratch)
}

/// A boosted estimate with its per-row means, for diagnostics.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The median-of-means estimate.
    pub value: f64,
    /// The `k2` row means the median was taken over.
    pub row_means: Vec<f64>,
}

impl Estimate {
    /// Builds from the atomic estimate grid.
    pub fn from_grid(atomic: &[f64], k1: usize, k2: usize) -> Self {
        let (value, row_means) = mean_median(atomic, k1, k2);
        Self { value, row_means }
    }

    /// Spread of the row means (max - min), a cheap dispersion diagnostic.
    pub fn row_spread(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &m in &self.row_means {
            min = min.min(m);
            max = max.max(m);
        }
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_empty_panics() {
        let _ = median(&mut []);
    }

    #[test]
    fn mean_median_grid() {
        // k1 = 2, k2 = 3: rows are [1,3] -> 2, [10,10] -> 10, [4,6] -> 5.
        let grid = [1.0, 3.0, 10.0, 10.0, 4.0, 6.0];
        let (med, rows) = mean_median(&grid, 2, 3);
        assert_eq!(rows, vec![2.0, 10.0, 5.0]);
        assert_eq!(med, 5.0);
    }

    #[test]
    fn median_robust_to_outlier_rows() {
        // One wild row must not move the estimate (the whole point of the
        // median step).
        let grid = [5.0, 5.0, 5.0, 5.0, 1e12, 1e12];
        let (med, _) = mean_median(&grid, 2, 3);
        assert_eq!(med, 5.0);
    }

    #[test]
    fn estimate_diagnostics() {
        let est = Estimate::from_grid(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(est.value, 2.5);
        assert_eq!(est.row_spread(), 2.0);
    }

    #[test]
    fn mean_median_with_reuses_buffers() {
        let mut rows = vec![99.0; 7]; // stale content must be discarded
        let mut scratch = vec![-1.0; 2];
        let grid = [1.0, 3.0, 10.0, 10.0, 4.0, 6.0];
        let med = mean_median_with(&grid, 2, 3, &mut rows, &mut scratch);
        assert_eq!(med, 5.0);
        assert_eq!(rows, vec![2.0, 10.0, 5.0]);
        // Row means stay in grid order; only the scratch is sorted.
        let med2 = mean_median_with(&grid, 3, 2, &mut rows, &mut scratch);
        assert_eq!(rows.len(), 2);
        assert!(med2.is_finite());
    }
}
