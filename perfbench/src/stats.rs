//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
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

/// First and third quartiles of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() as f64 + 1.0;
    let at = |q: f64| {
        // Position j + delta/4 (1-based) with j clamped into [1, n-1],
        // interpolated between neighbours, as in CPython.
        let pos = q * m;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(0.25), at(0.75)))
}

/// Arithmetic mean, `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Largest value, `NaN` for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past the sample range.
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn max_and_mean() {
        assert_eq!(max(&[1.0, 9.0, 3.0]), 9.0);
        assert!(max(&[]).is_nan());
        assert_eq!(mean(&[1.0, 9.0, 2.0]), 4.0);
        assert!(mean(&[]).is_nan());
    }
}
