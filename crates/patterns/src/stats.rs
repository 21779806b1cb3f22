//! Kernel-level pattern statistics.
//!
//! Summarises a classified kernel the way the paper's Table 2 footnote
//! reasons about coverage ("these patterns exist in major data objects
//! accounting for at least 98 % of memory consumption"): given the object
//! sizes, how much of the footprint falls under each pattern, and how
//! irregular the kernel is overall.

use std::collections::BTreeMap;

use crate::classify::{lookup_pattern, ObjectPatternMap};
use crate::pattern::AccessPattern;

/// Footprint shares per pattern label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PatternStats {
    /// Bytes classified per pattern label.
    pub bytes_by_label: BTreeMap<&'static str, u64>,
    /// Bytes whose objects had no classification (treated as random at
    /// runtime).
    pub unclassified_bytes: u64,
    /// Total bytes considered.
    pub total_bytes: u64,
}

impl PatternStats {
    /// Compute the stats for a pattern map over `(object name, size)` pairs.
    pub fn compute(map: &ObjectPatternMap, sizes: &[(String, u64)]) -> Self {
        let mut s = PatternStats::default();
        for (name, size) in sizes {
            s.total_bytes += size;
            match lookup_pattern(map, name) {
                Some(p) => *s.bytes_by_label.entry(p.label()).or_insert(0) += size,
                None => s.unclassified_bytes += size,
            }
        }
        s
    }

    /// Fraction of the footprint covered by a classification (the paper's
    /// ≥ 98 % coverage claim).
    pub fn coverage(&self) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        1.0 - self.unclassified_bytes as f64 / self.total_bytes as f64
    }
}

/// Irregularity of an access-pattern *mix* weighted by access counts rather
/// than footprint (used when counts are available).
pub fn irregular_access_share<'a>(
    accesses: impl IntoIterator<Item = (&'a AccessPattern, f64)>,
) -> f64 {
    let mut total = 0.0;
    let mut random = 0.0;
    for (p, n) in accesses {
        total += n;
        if matches!(p, AccessPattern::Random) {
            random += n;
        }
    }
    if total > 0.0 {
        random / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ObjectPatternMap {
        let mut m = ObjectPatternMap::new();
        m.insert("A".into(), AccessPattern::Stream);
        m.insert("B".into(), AccessPattern::Random);
        m
    }

    #[test]
    fn footprint_shares_and_coverage() {
        let sizes = vec![
            ("A_bin0".to_string(), 600u64),
            ("B".to_string(), 300),
            ("mystery".to_string(), 100),
        ];
        let s = PatternStats::compute(&map(), &sizes);
        assert_eq!(s.total_bytes, 1000);
        assert_eq!(s.bytes_by_label["stream"], 600);
        assert_eq!(s.bytes_by_label["random"], 300);
        assert_eq!(s.unclassified_bytes, 100);
        assert!((s.coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let s = PatternStats::compute(&map(), &[]);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(irregular_access_share(std::iter::empty()), 0.0);
    }

    #[test]
    fn access_weighted_irregularity() {
        let pats = [
            (AccessPattern::Stream, 900.0),
            (AccessPattern::Random, 100.0),
        ];
        let share = irregular_access_share(pats.iter().map(|(p, n)| (p, *n)));
        assert!((share - 0.1).abs() < 1e-12);
    }
}
