//! Sample summaries: exact quantiles over recorded samples, with the
//! sample count that backs them.

/// Exact quantile of `sorted` (ascending) by the nearest-rank rule: the
/// smallest sample with at least `q · n` samples at or below it.
/// `None` when there are no samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of unsorted values (lower middle for even counts, so the result
/// is always one of the measured values). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Arithmetic mean. `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// A latency sample set summarized for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Samples recorded.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples strictly above the reported p99: a p99 is only trustworthy
    /// with at least ten of them.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = quantile_sorted(&v, 0.50)?;
        let p99 = quantile_sorted(&v, 0.99)?;
        let beyond_p99 = v.len() - v.partition_point(|&x| x <= p99);
        Some(Summary {
            count: v.len(),
            p50,
            p99,
            beyond_p99,
        })
    }

    /// Whether the p99 has at least ten samples beyond it.
    pub fn p99_supported(&self) -> bool {
        self.beyond_p99 >= 10
    }
}

/// Samples per window of [`windowed_p99`]: enough that each window's p99
/// has ten samples beyond it.
pub const WINDOW: usize = 1000;

/// The median over consecutive windows of `window` samples (in the order
/// given, a trailing partial window folded into the one before) of each
/// window's p99, and the number of windows. One stalled window moves the
/// whole-sample p99 but not this median. `None` with fewer than `window`
/// samples.
pub fn windowed_p99(samples: &[f64], window: usize) -> Option<(f64, usize)> {
    let n = samples.len() / window.max(1);
    if n == 0 {
        return None;
    }
    let p99s: Vec<f64> = (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                samples.len()
            } else {
                (i + 1) * window
            };
            Summary::of(&samples[i * window..end]).map_or(f64::NAN, |s| s.p99)
        })
        .collect();
    Some((median(&p99s)?, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn summary_reports_count_and_tail_support() {
        // 2000 samples 1..=2000: p99 is 1980, twenty samples beyond it.
        let v: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.count, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.p99, 1980.0);
        assert_eq!(s.beyond_p99, 20);
        assert!(s.p99_supported());

        // 500 samples cannot support a p99: only five lie beyond it.
        let small: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = Summary::of(&small).unwrap();
        assert_eq!(s.beyond_p99, 5);
        assert!(!s.p99_supported());
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn windowed_p99_is_the_median_window_and_ignores_one_stall() {
        // Five windows of 1000 samples, p99 of each = 990 + 10·w; window 2
        // additionally holds a 500-sample stall at 10 000.
        let mut v = Vec::new();
        for w in 0..5 {
            for i in 1..=1000 {
                let x = f64::from(i) + f64::from(10 * w);
                v.push(if w == 2 && i > 500 { 10_000.0 } else { x });
            }
        }
        let (p99, windows) = windowed_p99(&v, 1000).unwrap();
        assert_eq!(windows, 5);
        assert_eq!(p99, 1020.0); // window p99s 990, 1000, 10000, 1020, 1030
        assert_eq!(Summary::of(&v).unwrap().p99, 10_000.0);

        // A trailing partial window folds into the last full one.
        let (p99, windows) = windowed_p99(&v[..2500], 1000).unwrap();
        assert_eq!(windows, 2);
        assert_eq!(p99, 990.0); // window p99s 990 and 995 (1500 samples)
        assert!(windowed_p99(&v[..999], 1000).is_none());
    }

    #[test]
    fn ties_at_the_p99_are_not_counted_beyond_it() {
        let mut v = vec![1.0; 985];
        v.extend(std::iter::repeat_n(5.0, 15));
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.p99, 5.0);
        assert_eq!(s.beyond_p99, 0);
    }
}
