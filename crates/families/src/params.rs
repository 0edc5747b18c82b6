//! LSH parameter selection, including the paper's rule for `k`.
//!
//! The paper fixes the number of tables `L` and derives the
//! concatenation width `k` from the target failure probability `δ`
//! (footnote 1, the E2LSH practical setting):
//!
//! ```text
//! k = ⌈ log(1 − δ^{1/L}) / log p₁ ⌉
//! ```
//!
//! Rationale: a near neighbor collides in one table with probability
//! `p₁^k`, is missed by all `L` tables with probability
//! `(1 − p₁^k)^L`, and we need that to be at most `δ`; solving gives
//! `p₁^k ≥ 1 − δ^{1/L}`. Note the *ceiling* makes `k` one step too
//! aggressive when the bound is not integral (larger `k` reduces
//! per-table collision probability), so we also provide the
//! guarantee-preserving *floor* variant [`k_safe`].

use hlsh_vec::MetricKind;

/// The paper's `k` rule (ceiling variant, default everywhere).
///
/// # Panics
/// Panics unless `0 < δ < 1`, `L ≥ 1` and `0 < p₁ < 1`.
pub fn k_paper(delta: f64, l: usize, p1: f64) -> usize {
    let bound = k_bound(delta, l, p1);
    (bound.ceil() as usize).max(1)
}

/// Guarantee-preserving variant: the largest `k` with
/// `p₁^k ≥ 1 − δ^{1/L}`, i.e. the floor of the same bound (min 1).
pub fn k_safe(delta: f64, l: usize, p1: f64) -> usize {
    let bound = k_bound(delta, l, p1);
    (bound.floor() as usize).max(1)
}

fn k_bound(delta: f64, l: usize, p1: f64) -> f64 {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1), got {delta}");
    assert!(l >= 1, "need at least one table");
    assert!(p1 > 0.0 && p1 < 1.0, "p1 must be in (0,1), got {p1}");
    let per_table = 1.0 - delta.powf(1.0 / l as f64);
    per_table.ln() / p1.ln()
}

/// Probability that a point at single-atom collision probability `p`
/// is reported by at least one of `L` tables with `k`-atom keys:
/// `1 − (1 − p^k)^L`. This is the per-point recall lower bound for
/// points exactly at the query radius.
pub fn recall_lower_bound(p: f64, k: usize, l: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    1.0 - (1.0 - p.powi(k as i32)).powi(l as i32)
}

/// The four evaluation data sets of the paper (§4), with their published
/// shapes and per-dataset tuning constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// Corel Images: n = 68,040, d = 32, L2.
    Corel,
    /// CoverType: n = 581,012, d = 54, L1.
    CoverType,
    /// Webspam: n = 350,000, d = 254, cosine.
    Webspam,
    /// MNIST: n = 60,000, d = 780 → 64-bit fingerprints, Hamming.
    Mnist,
}

impl PaperDataset {
    /// All four data sets in the paper's presentation order.
    pub const ALL: [PaperDataset; 4] =
        [PaperDataset::Webspam, PaperDataset::CoverType, PaperDataset::Corel, PaperDataset::Mnist];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PaperDataset::Corel => "Corel",
            PaperDataset::CoverType => "CoverType",
            PaperDataset::Webspam => "Webspam",
            PaperDataset::Mnist => "MNIST",
        }
    }

    /// Published point count `n`.
    pub fn paper_n(&self) -> usize {
        match self {
            PaperDataset::Corel => 68_040,
            PaperDataset::CoverType => 581_012,
            PaperDataset::Webspam => 350_000,
            PaperDataset::Mnist => 60_000,
        }
    }

    /// Published dimensionality `d` (raw; MNIST is fingerprinted to 64
    /// bits before indexing).
    pub fn paper_dim(&self) -> usize {
        match self {
            PaperDataset::Corel => 32,
            PaperDataset::CoverType => 54,
            PaperDataset::Webspam => 254,
            PaperDataset::Mnist => 780,
        }
    }

    /// The metric the paper pairs with this data set.
    pub fn metric(&self) -> MetricKind {
        match self {
            PaperDataset::Corel => MetricKind::L2,
            PaperDataset::CoverType => MetricKind::L1,
            PaperDataset::Webspam => MetricKind::Cosine,
            PaperDataset::Mnist => MetricKind::Hamming,
        }
    }

    /// The radii swept in Figure 2, in presentation order.
    pub fn figure2_radii(&self) -> Vec<f64> {
        match self {
            PaperDataset::Mnist => (12..=17).map(|r| r as f64).collect(),
            PaperDataset::Webspam => (5..=10).map(|r| r as f64 / 100.0).collect(),
            PaperDataset::CoverType => (0..=5).map(|i| 3000.0 + 200.0 * i as f64).collect(),
            PaperDataset::Corel => (0..=5).map(|i| 0.35 + 0.05 * i as f64).collect(),
        }
    }

    /// The paper's calibrated `β/α` cost ratio for this data set
    /// (§4.2: 10, 10, 6, 1 for Webspam, CoverType, Corel, MNIST).
    pub fn beta_over_alpha(&self) -> f64 {
        match self {
            PaperDataset::Webspam => 10.0,
            PaperDataset::CoverType => 10.0,
            PaperDataset::Corel => 6.0,
            PaperDataset::Mnist => 1.0,
        }
    }
}

/// The shared experimental constants of §4.1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperParams {
    /// Number of hash tables (`L = 50`).
    pub l: usize,
    /// Failure probability (`δ = 0.1`).
    pub delta: f64,
    /// HLL register-count exponent (`m = 128` → precision 7).
    pub hll_precision: u8,
    /// Query-set size (100 random points removed from the data set).
    pub queries: usize,
    /// Number of repeated runs averaged (5).
    pub runs: usize,
}

impl Default for PaperParams {
    fn default() -> Self {
        Self { l: 50, delta: 0.1, hll_precision: 7, queries: 100, runs: 5 }
    }
}

impl PaperParams {
    /// `k` for a sign-bit family at single-atom collision probability
    /// `p1`, per the paper rule.
    pub fn k_for(&self, p1: f64) -> usize {
        k_paper(self.delta, self.l, p1)
    }

    /// Fixed `k` and `w` for the p-stable experiments: the paper adjusts
    /// `k = 8, w = 4r` for L1 and `k = 7, w = 2r` for L2 to hit δ = 10%.
    pub fn pstable_k_w(&self, metric: MetricKind, r: f64) -> (usize, f64) {
        match metric {
            MetricKind::L1 => (8, 4.0 * r),
            MetricKind::L2 => (7, 2.0 * r),
            other => panic!("pstable_k_w is only defined for L1/L2, got {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_paper_matches_hand_computation() {
        // δ = 0.1, L = 50: per-table target 1 − 0.1^{0.02} ≈ 0.0450.
        // p1 = 0.9 → k = ⌈ln(0.0450)/ln(0.9)⌉ = ⌈29.44⌉ = 30.
        assert_eq!(k_paper(0.1, 50, 0.9), 30);
        assert_eq!(k_safe(0.1, 50, 0.9), 29);
    }

    #[test]
    fn k_safe_preserves_recall_bound() {
        for &p1 in &[0.5, 0.7, 0.9, 0.95, 0.99] {
            for &l in &[10usize, 50, 100] {
                let delta = 0.1;
                let k = k_safe(delta, l, p1);
                let recall = recall_lower_bound(p1, k, l);
                assert!(recall >= 1.0 - delta - 1e-9, "p1={p1} L={l} k={k} recall={recall}");
            }
        }
    }

    #[test]
    fn k_paper_is_within_one_of_k_safe() {
        for &p1 in &[0.5, 0.66, 0.8, 0.9, 0.99] {
            let kp = k_paper(0.1, 50, p1);
            let ks = k_safe(0.1, 50, p1);
            assert!(kp == ks || kp == ks + 1, "p1={p1}: {kp} vs {ks}");
        }
    }

    #[test]
    fn higher_p1_allows_larger_k() {
        assert!(k_paper(0.1, 50, 0.95) > k_paper(0.1, 50, 0.7));
    }

    #[test]
    fn recall_bound_endpoints() {
        assert!((recall_lower_bound(1.0, 5, 3) - 1.0).abs() < 1e-12);
        assert_eq!(recall_lower_bound(0.0, 5, 3), 0.0);
        // Single table, single atom: recall = p.
        assert!((recall_lower_bound(0.3, 1, 1) - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0,1)")]
    fn k_paper_rejects_bad_delta() {
        let _ = k_paper(0.0, 50, 0.9);
    }

    #[test]
    #[should_panic(expected = "p1 must be in (0,1)")]
    fn k_paper_rejects_bad_p1() {
        let _ = k_paper(0.1, 50, 1.0);
    }

    #[test]
    fn paper_dataset_metadata() {
        assert_eq!(PaperDataset::Webspam.paper_n(), 350_000);
        assert_eq!(PaperDataset::Mnist.paper_dim(), 780);
        assert_eq!(PaperDataset::Corel.metric(), MetricKind::L2);
        assert_eq!(PaperDataset::CoverType.beta_over_alpha(), 10.0);
        assert_eq!(PaperDataset::Mnist.beta_over_alpha(), 1.0);
        assert_eq!(PaperDataset::ALL.len(), 4);
    }

    #[test]
    fn figure2_radii_match_paper_axes() {
        assert_eq!(PaperDataset::Mnist.figure2_radii(), vec![12.0, 13.0, 14.0, 15.0, 16.0, 17.0]);
        let ws = PaperDataset::Webspam.figure2_radii();
        assert_eq!(ws.first().copied(), Some(0.05));
        assert_eq!(ws.last().copied(), Some(0.10));
        let ct = PaperDataset::CoverType.figure2_radii();
        assert_eq!(ct.first().copied(), Some(3000.0));
        assert_eq!(ct.last().copied(), Some(4000.0));
        let co = PaperDataset::Corel.figure2_radii();
        assert!((co[0] - 0.35).abs() < 1e-9);
        assert!((co[5] - 0.60).abs() < 1e-9);
    }

    #[test]
    fn paper_params_defaults() {
        let p = PaperParams::default();
        assert_eq!(p.l, 50);
        assert_eq!(p.delta, 0.1);
        assert_eq!(1usize << p.hll_precision, 128);
        assert_eq!(p.pstable_k_w(MetricKind::L1, 1000.0), (8, 4000.0));
        assert_eq!(p.pstable_k_w(MetricKind::L2, 0.5), (7, 1.0));
    }

    #[test]
    #[should_panic(expected = "only defined for L1/L2")]
    fn pstable_k_w_rejects_other_metrics() {
        let _ = PaperParams::default().pstable_k_w(MetricKind::Cosine, 1.0);
    }
}
