//! Order statistics and means used for every reported number.

/// Sort a sample set ascending under `total_cmp` (host timings are finite,
/// but a NaN must not panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` of an ascending sample set, interpolating
/// linearly between the two closest ranks. `NaN` for an empty set.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample set.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Geometric mean of positive values. `NaN` for an empty set.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Arithmetic mean; `0.0` for an empty set (a layer that did no work).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// The acceptance spread of the benchmark contract: the distance between
/// the first and third quartile as a share of the median, with the
/// quartiles Python's `statistics.quantiles(values, n=4)` gives (exclusive
/// method). Needs at least two values.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return f64::NAN;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / quantile(&s, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }
}
