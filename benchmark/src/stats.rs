//! Order statistics: nearest-rank percentiles that carry their sample
//! count, and the quartile spread the noise calibration reports.

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank. choosing-metrics asks for
    /// at least [`MIN_BEYOND`] before a tail is trusted.
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile's rank for it to count as
/// supported.
pub const MIN_BEYOND: usize = 10;

impl Percentile {
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median as the mean of the two middle samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / samples.len() as f64)
        .exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the calibration matches the
/// driver's arithmetic. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let mid = median(samples);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 0.99).unwrap().value, 99.0);
        assert_eq!(percentile(&v, 1.0).unwrap().value, 100.0);
        let four = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&four, 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&four, 0.75).unwrap().value, 3.0);
        assert_eq!(percentile(&four, 0.01).unwrap().value, 1.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn sample_count_guards() {
        let v: Vec<f64> = (1..=800).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.samples, p99.beyond), (800, 8));
        assert!(!p99.supported(), "8 samples beyond are too few for a p99");
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.beyond, 10);
        assert!(p99.supported());
        assert!(percentile(&v, 0.5).unwrap().supported());
        assert!(!percentile(&[1.0, 2.0, 3.0], 0.5).unwrap().supported());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((1.5, 4.5)));
        assert_eq!(relative_spread(&v), Some(1.0));
        assert!(quartiles(&[1.0]).is_none());
    }
}
