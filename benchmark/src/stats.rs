//! The benchmark's one noise policy: every reported number is the median of
//! its samples, with quartiles and the sample count beside it.

use crate::json::Json;

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise samples. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), which is
    /// what the driver computes over runs, so a spread printed here and one
    /// computed there mean the same thing. With one sample all three
    /// coincide; with none the summary is all zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        if n == 0 {
            return Summary { median: 0.0, q1: 0.0, q3: 0.0, n: 0 };
        }
        Summary {
            median: exclusive_quantile(&sorted, 2, 4),
            q1: exclusive_quantile(&sorted, 1, 4),
            q3: exclusive_quantile(&sorted, 3, 4),
            n,
        }
    }

    /// A value measured once (counts, sizes).
    pub fn single(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, n: 1 }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj(vec![
            ("value", Json::Num(self.median)),
            ("unit", Json::str(unit)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}

/// The `i`-th of `parts` quantiles of sorted data, exclusive method:
/// position `i·(n+1)/parts` (1-based), clamped into the data, linearly
/// interpolated.
fn exclusive_quantile(sorted: &[f64], i: usize, parts: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = i * (n + 1);
    let j = (pos / parts).clamp(1, n - 1);
    let delta = pos as f64 / parts as f64 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// Median of samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Nearest-rank percentile `p` in (0, 100] of unsorted samples (0 when
/// empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — a p99 over 200 samples rests on two points, so it is
/// not reported. `None` below 20 samples (not even a p50 has ten beyond it).
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(Summary::of(&[f64::NAN, 4.0]), Summary::single(4.0));
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }
}
