//! Search strategies (Algorithm 2's two arms plus the adaptive choice).

use hlsh_vec::{Distance, Hit, PointId, PointSet};

/// Which search strategy to run for a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Algorithm 2: estimate costs per query and pick the cheaper arm.
    #[default]
    Hybrid,
    /// Always LSH-based search (the classic baseline of Figure 2).
    LshOnly,
    /// Always linear scan (the brute-force baseline of Figure 2).
    LinearOnly,
}

impl Strategy {
    /// The strategies compared in Figure 2, in the paper's legend order.
    pub const ALL: [Strategy; 3] = [Strategy::Hybrid, Strategy::LshOnly, Strategy::LinearOnly];

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Hybrid => "Hybrid",
            Strategy::LshOnly => "LSH",
            Strategy::LinearOnly => "Linear",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the S3 distance filter (and the linear arm) evaluate distances.
///
/// The engine defaults to [`Kernel`](VerifyMode::Kernel): candidates
/// are deduplicated first and then verified as one batched
/// [`verify_hits`](hlsh_vec::Distance::verify_hits) call, which on
/// dense and packed binary data dispatches to the one-to-many kernels
/// in `hlsh_vec::kernels`. [`Scalar`](VerifyMode::Scalar) forces the
/// per-candidate `distance()` loop — the pre-kernel behaviour, kept as
/// a benchmark baseline and a cross-check in equivalence tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum VerifyMode {
    /// Batched kernel verification (default).
    #[default]
    Kernel,
    /// Per-candidate virtual `distance()` calls.
    Scalar,
}

impl VerifyMode {
    /// Step S3 of the LSH arm: appends a hit for every id in `ids`
    /// within `r` of `q`, in the order of `ids` — through the metric's
    /// batched [`verify_hits`](Distance::verify_hits) or the per-id
    /// [`verify_scalar`](hlsh_vec::metric::verify_scalar) loop.
    pub fn verify<S, D, H>(
        self,
        distance: &D,
        data: &S,
        ids: &[PointId],
        q: &S::Point,
        r: f64,
        out: &mut Vec<H>,
    ) where
        S: PointSet + ?Sized,
        D: Distance<S::Point>,
        H: Hit,
    {
        match self {
            VerifyMode::Kernel => distance.verify_hits(data, ids, q, r, out),
            VerifyMode::Scalar => hlsh_vec::metric::verify_scalar(distance, data, ids, q, r, out),
        }
    }

    /// The linear arm: appends a hit for every point of `data` within
    /// `r` of `q`, in ascending id order; same dispatch as
    /// [`verify`](Self::verify).
    pub fn scan<S, D, H>(self, distance: &D, data: &S, q: &S::Point, r: f64, out: &mut Vec<H>)
    where
        S: PointSet + ?Sized,
        D: Distance<S::Point>,
        H: Hit,
    {
        match self {
            VerifyMode::Kernel => distance.scan_hits(data, q, r, out),
            VerifyMode::Scalar => hlsh_vec::metric::scan_scalar(distance, data, q, r, out),
        }
    }

    /// Display label for reports and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            VerifyMode::Kernel => "kernel",
            VerifyMode::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a query actually executed after the hybrid decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecutedArm {
    /// Bucket probing + dedup + distance filter.
    Lsh,
    /// Full scan.
    Linear,
}

impl ExecutedArm {
    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutedArm::Lsh => "lsh",
            ExecutedArm::Linear => "linear",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(Strategy::Hybrid.label(), "Hybrid");
        assert_eq!(Strategy::LshOnly.label(), "LSH");
        assert_eq!(Strategy::LinearOnly.label(), "Linear");
        assert_eq!(Strategy::Hybrid.to_string(), "Hybrid");
    }

    #[test]
    fn default_is_hybrid() {
        assert_eq!(Strategy::default(), Strategy::Hybrid);
    }

    #[test]
    fn executed_arm_labels() {
        assert_eq!(ExecutedArm::Lsh.label(), "lsh");
        assert_eq!(ExecutedArm::Linear.label(), "linear");
    }

    #[test]
    fn verify_mode_defaults_to_kernel() {
        assert_eq!(VerifyMode::default(), VerifyMode::Kernel);
        assert_eq!(VerifyMode::Kernel.to_string(), "kernel");
        assert_eq!(VerifyMode::Scalar.label(), "scalar");
    }
}
