//! Geometric radius schedules for the top-k ⇒ rNNR reduction.
//!
//! Classic LSH answers k-nearest-neighbor queries by solving a sequence
//! of r-near-neighbor-reporting problems at geometrically increasing
//! radii `r, cr, c²r, …` (Indyk & Motwani's reduction): stop at the
//! first radius whose answer set already contains the k nearest
//! neighbors. [`RadiusSchedule`] captures that ladder; the
//! [top-k engine](crate::topk) walks it level by level.

/// A geometric ladder of query radii `base · ratio^level`.
///
/// The schedule is the shared contract between index construction (one
/// index per level, each tuned for its radius — e.g. a p-stable family
/// with width `w ∝ r_level`) and query execution (run levels in order,
/// stop early once the heap of verified neighbors is provably — up to
/// LSH's probabilistic guarantee — complete).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadiusSchedule {
    base: f64,
    ratio: f64,
    levels: usize,
}

impl RadiusSchedule {
    /// Creates a schedule of `levels` radii `base · ratio^i`,
    /// `i = 0 .. levels`.
    ///
    /// # Panics
    /// Panics unless `base > 0`, `ratio > 1` and `levels ≥ 1` — a
    /// non-increasing ladder would make every level redundant.
    pub fn new(base: f64, ratio: f64, levels: usize) -> Self {
        assert!(base > 0.0 && base.is_finite(), "base radius must be positive and finite");
        assert!(ratio > 1.0 && ratio.is_finite(), "radius ratio must exceed 1");
        assert!(levels >= 1, "schedule needs at least one level");
        Self { base, ratio, levels }
    }

    /// The conventional doubling schedule (`ratio = 2`).
    pub fn doubling(base: f64, levels: usize) -> Self {
        Self::new(base, 2.0, levels)
    }

    /// Smallest (first) radius.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Geometric growth factor `c`.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The radius of one level.
    ///
    /// # Panics
    /// Panics if `level >= self.levels()`.
    pub fn radius(&self, level: usize) -> f64 {
        assert!(level < self.levels, "level {level} out of range ({} levels)", self.levels);
        self.base * self.ratio.powi(level as i32)
    }

    /// Largest (last) radius — the schedule's coverage horizon; beyond
    /// it the top-k engine falls back to an exact scan.
    pub fn max_radius(&self) -> f64 {
        self.radius(self.levels - 1)
    }

    /// Iterates the radii in ascending order.
    pub fn radii(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.levels).map(|i| self.radius(i))
    }
}

/// Sealed layouts of a structure's rungs: `()` (one rNNR rung), a
/// [`RadiusSchedule`] (rung `li` is ladder level `li`) and
/// `Option<RadiusSchedule>` (the rNNR rung, then the levels of the
/// ladder served with it, if any). A layout that converts into
/// `Option<RadiusSchedule>` holds a ladder in its last rungs.
pub(crate) mod layout {
    /// A layout whose rung 0 is an rNNR index.
    pub trait RnnrRung {}

    impl RnnrRung for () {}
    impl RnnrRung for Option<super::RadiusSchedule> {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_ladder() {
        let s = RadiusSchedule::doubling(1.5, 4);
        let radii: Vec<f64> = s.radii().collect();
        assert_eq!(radii, vec![1.5, 3.0, 6.0, 12.0]);
        assert_eq!(s.base(), 1.5);
        assert_eq!(s.ratio(), 2.0);
        assert_eq!(s.levels(), 4);
        assert_eq!(s.max_radius(), 12.0);
    }

    #[test]
    fn custom_ratio() {
        let s = RadiusSchedule::new(2.0, 1.5, 3);
        assert_eq!(s.radius(0), 2.0);
        assert_eq!(s.radius(1), 3.0);
        assert_eq!(s.radius(2), 4.5);
    }

    #[test]
    fn single_level_schedule() {
        let s = RadiusSchedule::new(0.25, 4.0, 1);
        assert_eq!(s.radii().collect::<Vec<_>>(), vec![0.25]);
        assert_eq!(s.max_radius(), 0.25);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_base_rejected() {
        let _ = RadiusSchedule::new(0.0, 2.0, 3);
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn flat_ratio_rejected() {
        let _ = RadiusSchedule::new(1.0, 1.0, 3);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_schedule_rejected() {
        let _ = RadiusSchedule::new(1.0, 2.0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_level_rejected() {
        let _ = RadiusSchedule::doubling(1.0, 2).radius(2);
    }
}
