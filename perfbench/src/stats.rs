//! Order statistics for the benchmark's samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`. Returns 0 for an
/// empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Does a sample of `n` values leave at least ten of them beyond
/// percentile `p`? A tail percentile is only reported when it does.
pub fn supports(n: usize, p: f64) -> bool {
    // In tenths of a percent, so that 100 samples do support p90.
    let beyond_tenths = 1000 - (p * 10.0).round() as u64;
    n as u64 * beyond_tenths >= 10 * 1000
}

/// Percentile `p` (0–100) of `xs`, refusing a percentile the sample
/// cannot support.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    if !supports(xs.len(), p) {
        return Err(format!(
            "p{p} needs at least {} samples, have {}",
            (10.0 / (1.0 - p / 100.0)).ceil(),
            xs.len()
        ));
    }
    Ok(quantile(xs, p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        for (p, least) in [(50.0, 20), (90.0, 100), (99.0, 1000), (99.9, 10_000)] {
            assert!(!supports(least - 1, p), "p{p} from {}", least - 1);
            assert!(supports(least, p), "p{p} from {least}");
        }
    }

    #[test]
    fn percentile_refuses_unsupported_tails() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&xs, 99.0).is_err());
        assert_eq!(percentile(&xs, 90.0).unwrap(), quantile(&xs, 0.9));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((percentile(&xs, 99.0).unwrap() - 989.01).abs() < 1e-9);
    }
}
