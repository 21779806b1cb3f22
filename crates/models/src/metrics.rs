//! Regression metrics.

/// Coefficient of determination R² — the accuracy metric of Table 3
/// ("R² ranges from 0.0 to 1.0, where 1.0 means the prediction is exactly
/// the same as the measurement"). Can be negative for models worse than
/// predicting the mean.
pub fn r2_score(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    assert!(!y_true.is_empty());
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p).powi(2))
        .sum();
    let ss_tot: f64 = y_true.iter().map(|t| (t - mean).powi(2)).sum();
    if ss_tot <= 0.0 {
        if ss_res <= 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Mean prediction accuracy `1 − |pred − true| / true` clamped at 0 — the
/// "accuracy" the paper reports for the whole performance model (Table 4).
pub fn mean_relative_accuracy(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    assert!(!y_true.is_empty());
    y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| {
            if *t <= 0.0 {
                0.0
            } else {
                (1.0 - (p - t).abs() / t).max(0.0)
            }
        })
        .sum::<f64>()
        / y_true.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(r2_score(&y, &y), 1.0);
        assert_eq!(mean_relative_accuracy(&y, &y), 1.0);
    }

    #[test]
    fn mean_prediction_r2_zero() {
        let y = [1.0, 2.0, 3.0];
        let pred = [2.0, 2.0, 2.0];
        assert!(r2_score(&y, &pred).abs() < 1e-12);
    }

    #[test]
    fn bad_prediction_negative_r2() {
        let y = [1.0, 2.0, 3.0];
        let pred = [30.0, -10.0, 8.0];
        assert!(r2_score(&y, &pred) < 0.0);
    }

    #[test]
    fn constant_targets() {
        let y = [5.0, 5.0];
        assert_eq!(r2_score(&y, &[5.0, 5.0]), 1.0);
        assert_eq!(r2_score(&y, &[4.0, 6.0]), 0.0);
    }

    #[test]
    fn relative_accuracy_clamped() {
        let y = [10.0];
        assert_eq!(mean_relative_accuracy(&y, &[40.0]), 0.0);
        assert!((mean_relative_accuracy(&y, &[9.0]) - 0.9).abs() < 1e-12);
    }
}
