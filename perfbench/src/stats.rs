//! Sample statistics: medians and tail percentiles that refuse to report
//! a percentile the sample cannot support.

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond it; otherwise the run has too few samples for it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p < 1) in a sorted sample
/// of `n` values.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many samples a sample of `n` has strictly beyond its nearest-rank
/// `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The smallest sample size whose `p` percentile has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// Nearest-rank percentile `p` of `samples`, or an error naming the
/// shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if beyond(n, p) < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {} beyond it, need {MIN_BEYOND} (at least {} samples)",
            p * 100.0,
            beyond(n, p),
            min_samples(p)
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank(n, p)])
}

/// Median (mean of the two middle values for even counts); `NaN` for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(min_samples(0.90), 100);
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(99, 0.90), 9);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.90), Ok(90.0));
        assert!(percentile(&s[..99], 0.90).is_err());
    }

    #[test]
    fn p99_needs_one_thousand_samples() {
        assert_eq!(min_samples(0.99), 1000);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Ok(990.0));
        assert!(percentile(&s[..999], 0.99).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let s: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.90), Ok(180.0));
        assert_eq!(median(&s), 100.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
