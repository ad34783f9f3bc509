//! Fixed-size log-bucket histograms and the order statistics the
//! benchmark reports.

/// Growth factor between bucket bounds. A bucket's representative (its
/// geometric midpoint) is within 1% of every value in it.
const GROWTH: f64 = 1.02;

/// Buckets: `[0, 1)` plus `GROWTH^(i-1) ..GROWTH^i` up to about 5e13,
/// enough for nanosecond latencies of hours and cycle counts of minutes.
const BUCKETS: usize = 1600;

/// A histogram whose memory does not grow with the number of samples, so
/// recording stays out of the peak-RSS metric it sits beside.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: f64) -> usize {
        if v < 1.0 {
            return 0;
        }
        let i = (v.ln() / GROWTH.ln()).floor() as usize + 1;
        i.min(BUCKETS - 1)
    }

    fn representative(i: usize) -> f64 {
        if i == 0 {
            return 0.5;
        }
        GROWTH.powf(i as f64 - 0.5)
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile (0..=1): the representative of the bucket holding
    /// the sample of rank `ceil(q * count)`. 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::representative(i);
            }
        }
        Self::representative(BUCKETS - 1)
    }
}

/// The median of `values` (mean of the middle two for even counts), as
/// Python's `statistics.median` computes it. 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    median_mut(&mut values.to_vec())
}

/// [`median`] without a copy: sorts `v` in place.
pub fn median_mut(v: &mut [f64]) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Fewer than two values give the
/// single value (or 0) for both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_one_percent() {
        let mut h = Histogram::default();
        for v in 1..=10_000u32 {
            h.record(f64::from(v));
        }
        for (q, want) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
