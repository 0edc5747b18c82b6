//! Recall evaluation against exact ground truth.
//!
//! §4.2 of the paper notes ("due to the limit of space") that hybrid
//! search achieves *higher* recall than LSH-based search because the
//! linear arm is exact on hard queries. This module provides the
//! measurement machinery; the benchmark's paper workloads check mean
//! Hybrid recall per radius.

use hlsh_vec::PointId;

/// Recall statistics of a reported result set against ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecallReport {
    /// `|reported ∩ truth|`.
    pub true_positives: usize,
    /// `|truth|` (the exact output size).
    pub truth_size: usize,
    /// `|reported|`.
    pub reported_size: usize,
}

impl RecallReport {
    /// `recall = |reported ∩ truth| / |truth|`; defined as 1 when the
    /// truth is empty (nothing to miss).
    pub fn recall(&self) -> f64 {
        if self.truth_size == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.truth_size as f64
        }
    }

    /// `precision = |reported ∩ truth| / |reported|`; defined as 1 when
    /// nothing was reported. For exact-filtering LSH this is always 1 —
    /// a useful invariant to assert in tests.
    pub fn precision(&self) -> f64 {
        if self.reported_size == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.reported_size as f64
        }
    }
}

/// Compares a reported id set against the exact truth for one query.
///
/// Neither slice needs to be sorted; duplicates are counted once.
pub fn evaluate_recall(reported: &[PointId], truth: &[PointId]) -> RecallReport {
    let truth_set: std::collections::HashSet<PointId> = truth.iter().copied().collect();
    let mut seen: std::collections::HashSet<PointId> = std::collections::HashSet::new();
    let mut tp = 0usize;
    for &id in reported {
        if seen.insert(id) && truth_set.contains(&id) {
            tp += 1;
        }
    }
    RecallReport { true_positives: tp, truth_size: truth_set.len(), reported_size: seen.len() }
}

/// Averages recall over many queries (macro-average, the paper's
/// convention of averaging per-query metrics over the query set).
pub fn mean_recall(reports: &[RecallReport]) -> f64 {
    if reports.is_empty() {
        return 1.0;
    }
    reports.iter().map(RecallReport::recall).sum::<f64>() / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_recall() {
        let r = evaluate_recall(&[1, 2, 3], &[1, 2, 3]);
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.precision(), 1.0);
        assert_eq!(r.true_positives, 3);
    }

    #[test]
    fn partial_recall() {
        let r = evaluate_recall(&[1, 2], &[1, 2, 3, 4]);
        assert_eq!(r.recall(), 0.5);
        assert_eq!(r.precision(), 1.0);
    }

    #[test]
    fn false_positives_hit_precision() {
        let r = evaluate_recall(&[1, 9], &[1, 2]);
        assert_eq!(r.recall(), 0.5);
        assert_eq!(r.precision(), 0.5);
    }

    #[test]
    fn empty_truth_is_full_recall() {
        let r = evaluate_recall(&[], &[]);
        assert_eq!(r.recall(), 1.0);
        assert_eq!(r.precision(), 1.0);
    }

    #[test]
    fn duplicates_in_reported_count_once() {
        let r = evaluate_recall(&[1, 1, 1, 2], &[1, 2]);
        assert_eq!(r.reported_size, 2);
        assert_eq!(r.recall(), 1.0);
    }

    #[test]
    fn mean_recall_averages() {
        let a = evaluate_recall(&[1], &[1, 2]); // 0.5
        let b = evaluate_recall(&[1, 2], &[1, 2]); // 1.0
        assert!((mean_recall(&[a, b]) - 0.75).abs() < 1e-12);
        assert_eq!(mean_recall(&[]), 1.0);
    }
}
