//! Order statistics over host-time samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail sample: the highest order statistic that still has at least
/// `beyond` samples above it. Returns `(value, percentile, n)` where
/// `percentile` is the share of samples at or below the chosen one. With
/// `beyond` or fewer samples no such order statistic exists, and the maximum
/// is reported (at the 100th percentile).
pub fn tail(xs: &[f64], beyond: usize) -> (f64, f64, usize) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let idx = if n > beyond { n - 1 - beyond } else { n - 1 };
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// Smallest sample (infinity for none).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `stat` of each column, summed over columns. Rows are repeats of an op
/// whose parts (columns) run one after another, so with `min` this is the op
/// with every part at its fastest.
pub fn sum_over_columns(rows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..cols)
        .map(|j| {
            let column: Vec<f64> = rows.iter().filter_map(|r| r.get(j).copied()).collect();
            stat(&column)
        })
        .sum()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn column_stats_take_each_part_separately() {
        let rows = vec![
            vec![1.0, 5.0, 2.0],
            vec![2.0, 4.0, 3.0],
            vec![9.0, 6.0, 1.0],
        ];
        assert_eq!(sum_over_columns(&rows, min), 1.0 + 4.0 + 1.0);
        assert_eq!(sum_over_columns(&rows, median), 2.0 + 5.0 + 2.0);
        assert_eq!(sum_over_columns(&[], min), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 40 samples 1..=40: the 30th value has 10 above it (p75).
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let (v, p, n) = tail(&xs, 10);
        assert_eq!((v, p, n), (30.0, 75.0, 40));
        let above = xs.iter().filter(|&&x| x > v).count();
        assert_eq!(above, 10);
    }

    #[test]
    fn tail_with_eleven_samples_is_the_minimum() {
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let (v, p, n) = tail(&xs, 10);
        assert_eq!(v, 0.0);
        assert_eq!(n, 11);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_without_enough_samples_falls_back_to_the_maximum() {
        let (v, p, n) = tail(&[2.0, 5.0, 3.0], 10);
        assert_eq!((v, p, n), (5.0, 100.0, 3));
    }
}
