//! Box-plot statistics for Figure 5.

/// Quartile summary of a sample (the boxplot Figure 5 draws: interquartile
/// box, median line, whiskers, outliers).
#[derive(Debug, Clone)]
pub struct BoxStats {
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Lower whisker (smallest sample ≥ q1 − 1.5·IQR).
    pub lo_whisker: f64,
    /// Upper whisker (largest sample ≤ q3 + 1.5·IQR).
    pub hi_whisker: f64,
    /// Samples outside the whiskers.
    pub outliers: Vec<f64>,
    /// Sample mean.
    pub mean: f64,
}

/// Linear-interpolated percentile of a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - lo as f64)
    }
}

impl BoxStats {
    /// Compute from a sample.
    pub fn from(samples: &[f64]) -> BoxStats {
        assert!(!samples.is_empty(), "boxplot of an empty sample");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let q1 = percentile(&s, 0.25);
        let median = percentile(&s, 0.5);
        let q3 = percentile(&s, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let lo_whisker = s.iter().copied().find(|&x| x >= lo_fence).unwrap_or(q1);
        let hi_whisker = s
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(q3);
        let outliers = s
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        BoxStats {
            q1,
            median,
            q3,
            lo_whisker,
            hi_whisker,
            outliers,
            mean,
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_uniform_sequence() {
        let s: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        let b = BoxStats::from(&s);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert!(b.outliers.is_empty());
        assert_eq!(b.lo_whisker, 1.0);
        assert_eq!(b.hi_whisker, 9.0);
    }

    #[test]
    fn outlier_detection() {
        let mut s: Vec<f64> = vec![10.0; 20];
        s.push(100.0);
        let b = BoxStats::from(&s);
        assert_eq!(b.outliers, vec![100.0]);
        assert_eq!(b.hi_whisker, 10.0);
    }

    #[test]
    fn single_sample() {
        let b = BoxStats::from(&[3.0]);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.iqr(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        BoxStats::from(&[]);
    }
}
