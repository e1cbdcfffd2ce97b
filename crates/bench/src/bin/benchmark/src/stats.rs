//! Order statistics over timing samples.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice so an unexercised layer reads as zero, not NaN.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: how far the windows of one run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// The highest percentile that still has at least ten samples beyond
/// it, and which percentile that is. With fewer than twenty samples no
/// percentile above the median qualifies, so the median is returned.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.len() < 20 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - 11;
    (v[idx], 100.0 * idx as f64 / v.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 989.0);
        assert!((pct - 98.9).abs() < 1e-9);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (2.0, 50.0));
    }
}
