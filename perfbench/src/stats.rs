//! Order statistics shared by every workload: nearest-rank percentiles
//! for latency tails, and quartiles by the rule the run-to-run spread
//! check uses (Python's `statistics.quantiles(values, n=4)`, exclusive
//! method).

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct`% of the samples at or below it. `0.0` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile of an ascending slice by the
/// exclusive method of Python's `statistics.quantiles(data, n=4)`, so a
/// spread printed here equals the one computed from the printed values.
/// Needs at least two samples; a single sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    out
}

/// A latency-style summary: median, a tail percentile and the sample
/// counts behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples strictly above the p99 value (the tail the p99 rests on).
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarise unsorted samples.
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let p99 = percentile(&v, 99.0);
        Summary {
            n: v.len(),
            p50: percentile(&v, 50.0),
            p99,
            beyond_p99: v.iter().filter(|&&x| x > p99).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Rank ceil(0.5 * 5) = 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(
            quartiles(&sorted(&[3.0, 1.0, 4.0, 1.0, 5.0])),
            [1.0, 3.0, 4.5]
        );
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_counts_the_tail_beyond_p99() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.p50, s.p99, s.beyond_p99), (1000, 500.0, 990.0, 10));
    }
}
