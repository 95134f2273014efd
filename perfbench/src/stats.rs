//! Order statistics over latency samples.

/// Latency samples of one op kind, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (nearest rank), or `None` when fewer than ten
    /// samples lie beyond it: a p99 needs at least 1,000 samples, a
    /// median at least 20.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        percentile_sorted(&sorted, q)
    }
}

/// [`Samples::percentile`] over an ascending slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n - rank;
    if beyond < 10 {
        return None;
    }
    Some(sorted[rank - 1] as f64)
}

/// The median of a handful of repeated measurements (set-up times);
/// unlike [`Samples::percentile`] it accepts any non-empty input.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `k`-th quartile (1, 2 or 3) of `values`, interpolated as
/// Python's `statistics.quantiles(values, n=4)` does; the median for
/// fewer than two values.
pub fn quartile(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return median(&v);
    }
    // Exclusive method: position k * (n + 1) / 4, 1-based.
    let pos = (k * (n + 1)) as f64 / 4.0;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        for i in (1..=n).rev() {
            s.push(i);
        }
        s
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples(999).percentile(0.99), None);
        assert_eq!(samples(1000).percentile(0.99), Some(990.0));
        assert_eq!(samples(5000).percentile(0.99), Some(4950.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(samples(19).percentile(0.5), None);
        assert_eq!(samples(20).percentile(0.5), Some(10.0));
        assert_eq!(samples(21).percentile(0.5), Some(11.0));
    }

    #[test]
    fn empty_and_out_of_range_refuse() {
        assert_eq!(Samples::default().percentile(0.5), None);
        assert_eq!(samples(100).percentile(1.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile(&v, 1), 2.75);
        assert_eq!(quartile(&v, 2), 5.5);
        assert_eq!(quartile(&v, 3), 8.25);
        assert_eq!(quartile(&[4.0], 1), 4.0);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
