//! Snapshots of the process-wide `sww_obs` registry, parsed from its
//! Prometheus text rendering, so a run can read counter deltas over its
//! timed phase through the public `sww_obs::render()`.

use std::collections::BTreeMap;

/// Every sample line of one rendering: `name{labels}` → value.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    samples: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Render the registry and parse it.
    pub fn take() -> Snapshot {
        Snapshot::parse(&sww_obs::render())
    }

    /// Parse Prometheus text: `#` lines are skipped, every other line is
    /// `<series> <value>`.
    pub fn parse(text: &str) -> Snapshot {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect();
        Snapshot { samples }
    }

    /// Number of sample lines (series, histogram buckets included).
    pub fn series(&self) -> usize {
        self.samples.len()
    }

    /// Sum of every sample of metric `name` carrying all of `labels`.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|(series, _)| {
                let metric = series.split('{').next().unwrap_or("");
                metric == name
                    && labels
                        .iter()
                        .all(|(k, v)| series.contains(&format!("{k}=\"{v}\"")))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `self.sum(..) - before.sum(..)`.
    pub fn delta(&self, before: &Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.sum(name, labels) - before.sum(name, labels)
    }

    /// Total counter increments since `before`: the summed growth of
    /// every `*_total` series and every histogram `*_count`.
    pub fn increments_since(&self, before: &Snapshot) -> f64 {
        self.samples
            .iter()
            .filter(|(series, _)| {
                let metric = series.split('{').next().unwrap_or("");
                metric.ends_with("_total") || metric.ends_with("_count")
            })
            .map(|(series, v)| v - before.samples.get(series).copied().unwrap_or(0.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_and_deltas_by_label() {
        let a = Snapshot::parse(
            "# TYPE x_total counter\nx_total{outcome=\"alloc\",pool=\"a\"} 3\nx_total{outcome=\"reuse\",pool=\"a\"} 5\nx_total{outcome=\"alloc\",pool=\"b\"} 1\ny 2.5\n",
        );
        let b = Snapshot::parse(
            "x_total{outcome=\"alloc\",pool=\"a\"} 4\nx_total{outcome=\"reuse\",pool=\"a\"} 9\nx_total{outcome=\"alloc\",pool=\"b\"} 1\ny 7\nz_count 3\n",
        );
        assert_eq!(a.series(), 4);
        assert_eq!(a.sum("x_total", &[("outcome", "alloc")]), 4.0);
        assert_eq!(b.delta(&a, "x_total", &[("outcome", "alloc")]), 1.0);
        assert_eq!(b.delta(&a, "x_total", &[]), 5.0);
        assert_eq!(b.increments_since(&a), 8.0);
    }
}
