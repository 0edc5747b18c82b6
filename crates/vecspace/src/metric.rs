//! Distance metrics as zero-sized strategy types.
//!
//! The rNNR problem (Definition 1 in the paper) is parameterised by an
//! arbitrary distance function `f`. We model `f` as the [`Distance`]
//! trait so the index is generic over both metric and point
//! representation, mirroring the paper's claim that the hybrid strategy
//! works "in an arbitrary high-dimensional space and distance measure
//! that allows LSH".

use crate::binary;
use crate::dataset::{PointId, PointSet};
use crate::hit::Hit;
use crate::kernels::{self, DOT_ROWS};
use crate::parallel::fan_out_hits;

/// A distance function over borrowed points of type `P`.
pub trait Distance<P: ?Sized>: Clone + Send + Sync {
    /// Computes the distance between two points.
    fn distance(&self, a: &P, b: &P) -> f64;

    /// A short human-readable name ("L2", "cosine", ...).
    fn name(&self) -> &'static str;

    /// Batched candidate verification (step S3 of the query pipeline):
    /// appends a [`Hit`] for every id in `ids` whose point lies within
    /// `r` of `q`, preserving the order (and any repeats) of `ids`. An
    /// `(id, distance)` hit carries the distance the filter computed,
    /// bit-identical to `self.distance(data.point(id), q)`, so rankers
    /// (the top-k engine) never recompute it.
    ///
    /// The default is the per-id [`distance`](Self::distance) loop;
    /// dense metrics override it to score the whole candidate list with
    /// a one-to-many kernel straight out of the dataset's flat storage,
    /// and [`Hamming`] with a popcount kernel over the packed binary
    /// storage (see [`crate::kernels`]). A list long enough to pay for
    /// threads is split into contiguous ranges verified on every core
    /// ([`crate::parallel::fan_out_ways`]), with the same hits in the
    /// same order as one inline call. Overrides must preserve ordering
    /// and may differ from the default only within the kernel accuracy
    /// envelope documented in [`crate::kernels`] (the binary kernels
    /// are exact).
    fn verify_hits<S, H>(&self, data: &S, ids: &[PointId], q: &P, r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = P> + ?Sized,
        H: Hit,
        Self: Sized,
    {
        verify_scalar(self, data, ids, q, r, out);
    }

    /// Full linear scan: appends a [`Hit`] for every point of `data`
    /// within `r` of `q`, in ascending id order. Same contract and
    /// kernel dispatch and fan-out over row ranges as
    /// [`verify_hits`](Self::verify_hits), walking all points;
    /// `r = f64::INFINITY` yields the full distance table in one pass —
    /// the top-k exact fallback's shape.
    fn scan_hits<S, H>(&self, data: &S, q: &P, r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = P> + ?Sized,
        H: Hit,
        Self: Sized,
    {
        scan_scalar(self, data, q, r, out);
    }

    /// [`verify_hits`](Self::verify_hits) keeping only the ids.
    fn verify_many<S>(&self, data: &S, ids: &[PointId], q: &P, r: f64, out: &mut Vec<PointId>)
    where
        S: PointSet<Point = P> + ?Sized,
        Self: Sized,
    {
        self.verify_hits(data, ids, q, r, out);
    }

    /// [`scan_hits`](Self::scan_hits) keeping only the ids.
    fn scan_within<S>(&self, data: &S, q: &P, r: f64, out: &mut Vec<PointId>)
    where
        S: PointSet<Point = P> + ?Sized,
        Self: Sized,
    {
        self.scan_hits(data, q, r, out);
    }
}

/// Enumeration of the metrics used in the paper's evaluation, for
/// configuration and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Manhattan distance (CoverType experiment).
    L1,
    /// Euclidean distance (Corel experiment).
    L2,
    /// Cosine distance `1 − cos` (Webspam experiment).
    Cosine,
    /// Hamming distance on packed bits (MNIST experiment).
    Hamming,
    /// Jaccard distance on set bits (MinHash extension).
    Jaccard,
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MetricKind::L1 => "L1",
            MetricKind::L2 => "L2",
            MetricKind::Cosine => "cosine",
            MetricKind::Hamming => "Hamming",
            MetricKind::Jaccard => "Jaccard",
        };
        f.write_str(s)
    }
}

/// The canonical per-id verification loop: backs the trait's provided
/// `verify_hits` default, the dense metrics' non-dense fallback arms (a
/// metric override cannot call the default it replaced), and the query
/// engine's forced-scalar mode, so "scalar baseline" means one loop
/// everywhere.
pub fn verify_scalar<P, S, D, H>(d: &D, data: &S, ids: &[PointId], q: &P, r: f64, out: &mut Vec<H>)
where
    P: ?Sized,
    S: PointSet<Point = P> + ?Sized,
    D: Distance<P>,
    H: Hit,
{
    for &id in ids {
        let dist = d.distance(data.point(id as usize), q);
        if dist <= r {
            out.push(H::new(id, dist));
        }
    }
}

/// The canonical full-scan loop backing the trait's provided
/// `scan_hits` default; see [`verify_scalar`].
pub fn scan_scalar<P, S, D, H>(d: &D, data: &S, q: &P, r: f64, out: &mut Vec<H>)
where
    P: ?Sized,
    S: PointSet<Point = P> + ?Sized,
    D: Distance<P>,
    H: Hit,
{
    for id in 0..data.len() {
        let dist = d.distance(data.point(id), q);
        if dist <= r {
            out.push(H::new(id as PointId, dist));
        }
    }
}

/// Splits a full scan of the row-major slab `flat` (`row_len`
/// elements per row) over row ranges through [`fan_out_hits`]:
/// `scan(block, hits)` filters a contiguous block of rows with
/// block-local ids, which are relabelled to slab ids here.
fn fan_out_scan<T: Sync, H: Hit>(
    flat: &[T],
    row_len: usize,
    out: &mut Vec<H>,
    scan: impl Fn(&[T], &mut Vec<H>) + Sync,
) {
    let row_bytes = row_len * size_of::<T>();
    fan_out_hits(flat.len() / row_len, row_bytes, out, |rows, out| {
        let first = out.len();
        scan(&flat[rows.start * row_len..rows.end * row_len], out);
        if rows.start > 0 {
            let base = rows.start as PointId;
            for hit in &mut out[first..] {
                *hit = hit.with_id(base + hit.id());
            }
        }
    });
}

/// Splits a candidate verification over ranges of `ids` through
/// [`fan_out_hits`]; each candidate reads one `row_bytes`-byte row.
fn fan_out_verify<H: Hit>(
    ids: &[PointId],
    row_bytes: usize,
    out: &mut Vec<H>,
    verify: impl Fn(&[PointId], &mut Vec<H>) + Sync,
) {
    fan_out_hits(ids.len(), row_bytes, out, |range, out| verify(&ids[range], out));
}

/// Per-row dense filter over listed candidates for metrics without a
/// dedicated one-to-many kernel: accepts id iff `row_dist(row) <= r`,
/// where `row_dist` must compute exactly what the metric's
/// `distance()` would on the same row.
fn verify_dense_rows<H: Hit>(
    flat: &[f32],
    dim: usize,
    ids: &[PointId],
    r: f64,
    row_dist: impl Fn(&[f32]) -> f64,
    out: &mut Vec<H>,
) {
    for &id in ids {
        let start = id as usize * dim;
        let dist = row_dist(&flat[start..start + dim]);
        if dist <= r {
            out.push(H::new(id, dist));
        }
    }
}

/// Full-scan counterpart of [`verify_dense_rows`], in row order.
fn scan_dense_rows<H: Hit>(
    flat: &[f32],
    dim: usize,
    r: f64,
    row_dist: impl Fn(&[f32]) -> f64,
    out: &mut Vec<H>,
) {
    for (id, row) in flat.chunks_exact(dim).enumerate() {
        let dist = row_dist(row);
        if dist <= r {
            out.push(H::new(id as PointId, dist));
        }
    }
}

/// [`UnitCosine`]'s dense filter over `n` rows, the `i`-th given by
/// `row(i) = (id, row)`: accepts iff `1 − dot(row, q) <= r`. Groups of
/// [`DOT_ROWS`] rows go through [`kernels::dot_rows`] and the tail
/// through [`kernels::dot`], so every distance equals `distance()` bit
/// for bit.
fn unit_cosine_rows<'a, H: Hit>(
    n: usize,
    row: impl Fn(usize) -> (PointId, &'a [f32]),
    q: &[f32],
    r: f64,
    out: &mut Vec<H>,
) {
    let mut push = |id, dot: f64| {
        let dist = 1.0 - dot;
        if dist <= r {
            out.push(H::new(id, dist));
        }
    };
    let whole = n - n % DOT_ROWS;
    for first in (0..whole).step_by(DOT_ROWS) {
        let group: [(PointId, &[f32]); DOT_ROWS] = std::array::from_fn(|j| row(first + j));
        let dots = kernels::dot_rows(group.map(|(_, row)| row), q);
        for ((id, _), dot) in group.into_iter().zip(dots) {
            push(id, dot);
        }
    }
    for i in whole..n {
        let (id, row) = row(i);
        push(id, kernels::dot(row, q));
    }
}

/// Manhattan distance over dense vectors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1;

impl Distance<[f32]> for L1 {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f64 {
        kernels::l1(a, b)
    }

    fn name(&self) -> &'static str {
        "L1"
    }

    fn verify_hits<S, H>(&self, data: &S, ids: &[PointId], q: &[f32], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [f32]> + ?Sized,
        H: Hit,
    {
        match data.dense_view() {
            Some((flat, dim)) => fan_out_verify(ids, dim * size_of::<f32>(), out, |ids, out| {
                kernels::l1_one_to_many(flat, dim, ids, q, r, out)
            }),
            None => verify_scalar(self, data, ids, q, r, out),
        }
    }

    fn scan_hits<S, H>(&self, data: &S, q: &[f32], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [f32]> + ?Sized,
        H: Hit,
    {
        match data.dense_view() {
            Some((flat, dim)) => {
                fan_out_scan(flat, dim, out, |rows, out| kernels::l1_scan(rows, dim, q, r, out))
            }
            None => scan_scalar(self, data, q, r, out),
        }
    }
}

/// Euclidean distance over dense vectors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L2;

impl Distance<[f32]> for L2 {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f64 {
        kernels::l2(a, b)
    }

    fn name(&self) -> &'static str {
        "L2"
    }

    // The unsquared-radius kernels share the scalar path's exact
    // predicate (`sqrt(l2_sq) <= r` on identical floats), so Kernel and
    // Scalar verification can never disagree, even at the boundary or
    // for r < 0.
    fn verify_hits<S, H>(&self, data: &S, ids: &[PointId], q: &[f32], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [f32]> + ?Sized,
        H: Hit,
    {
        match data.dense_view() {
            Some((flat, dim)) => fan_out_verify(ids, dim * size_of::<f32>(), out, |ids, out| {
                kernels::l2_one_to_many(flat, dim, ids, q, r, out)
            }),
            None => verify_scalar(self, data, ids, q, r, out),
        }
    }

    fn scan_hits<S, H>(&self, data: &S, q: &[f32], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [f32]> + ?Sized,
        H: Hit,
    {
        match data.dense_view() {
            Some((flat, dim)) => {
                fan_out_scan(flat, dim, out, |rows, out| kernels::l2_scan(rows, dim, q, r, out))
            }
            None => scan_scalar(self, data, q, r, out),
        }
    }
}

/// Cosine distance `1 − cos(a, b)` over dense vectors, range `[0, 2]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cosine;

impl Distance<[f32]> for Cosine {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f64 {
        kernels::cosine_distance(a, b)
    }

    fn name(&self) -> &'static str {
        "cosine"
    }

    // Cosine needs both norms, so there is no monotone early-exit
    // bound; the win is the single-pass chunked kernel per row, with
    // the exact `distance()` predicate.
    fn verify_hits<S, H>(&self, data: &S, ids: &[PointId], q: &[f32], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [f32]> + ?Sized,
        H: Hit,
    {
        match data.dense_view() {
            Some((flat, dim)) => fan_out_verify(ids, dim * size_of::<f32>(), out, |ids, out| {
                verify_dense_rows(flat, dim, ids, r, |row| kernels::cosine_distance(row, q), out)
            }),
            None => verify_scalar(self, data, ids, q, r, out),
        }
    }

    fn scan_hits<S, H>(&self, data: &S, q: &[f32], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [f32]> + ?Sized,
        H: Hit,
    {
        match data.dense_view() {
            Some((flat, dim)) => fan_out_scan(flat, dim, out, |rows, out| {
                scan_dense_rows(rows, dim, r, |row| kernels::cosine_distance(row, q), out)
            }),
            None => scan_scalar(self, data, q, r, out),
        }
    }
}

/// Cosine distance `1 − a·b` for vectors **already scaled to unit L2
/// norm** (one dot product instead of three passes).
///
/// This is the production-realistic cosine metric: normalise once at
/// ingest, then every distance is a single dot product. Results equal
/// [`Cosine`] on unit inputs; on non-unit inputs they differ — the
/// caller owns the invariant (e.g. via
/// [`crate::DenseDataset::normalize_l2`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnitCosine;

impl Distance<[f32]> for UnitCosine {
    #[inline]
    fn distance(&self, a: &[f32], b: &[f32]) -> f64 {
        1.0 - kernels::dot(a, b)
    }

    fn name(&self) -> &'static str {
        "cosine(unit)"
    }

    fn verify_hits<S, H>(&self, data: &S, ids: &[PointId], q: &[f32], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [f32]> + ?Sized,
        H: Hit,
    {
        match data.dense_view() {
            Some((flat, dim)) => fan_out_verify(ids, dim * size_of::<f32>(), out, |ids, out| {
                let row = |i: usize| {
                    let start = ids[i] as usize * dim;
                    (ids[i], &flat[start..start + dim])
                };
                unit_cosine_rows(ids.len(), row, q, r, out)
            }),
            None => verify_scalar(self, data, ids, q, r, out),
        }
    }

    fn scan_hits<S, H>(&self, data: &S, q: &[f32], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [f32]> + ?Sized,
        H: Hit,
    {
        match data.dense_view() {
            Some((flat, dim)) => fan_out_scan(flat, dim, out, |rows, out| {
                let row = |i: usize| (i as PointId, &rows[i * dim..(i + 1) * dim]);
                unit_cosine_rows(rows.len() / dim, row, q, r, out)
            }),
            None => scan_scalar(self, data, q, r, out),
        }
    }
}

/// Hamming distance over packed binary vectors, returned as `f64` so all
/// metrics share one signature.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hamming;

impl Distance<[u64]> for Hamming {
    #[inline]
    fn distance(&self, a: &[u64], b: &[u64]) -> f64 {
        binary::hamming_words(a, b) as f64
    }

    fn name(&self) -> &'static str {
        "Hamming"
    }

    // Integer distances make the popcount kernels exact: every override
    // equals its scalar loop bit for bit (see `crate::kernels`).
    fn verify_hits<S, H>(&self, data: &S, ids: &[PointId], q: &[u64], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [u64]> + ?Sized,
        H: Hit,
    {
        match data.binary_view() {
            Some((words, wpr)) => fan_out_verify(ids, wpr * size_of::<u64>(), out, |ids, out| {
                kernels::hamming_one_to_many(words, wpr, ids, q, r, out)
            }),
            None => verify_scalar(self, data, ids, q, r, out),
        }
    }

    fn scan_hits<S, H>(&self, data: &S, q: &[u64], r: f64, out: &mut Vec<H>)
    where
        S: PointSet<Point = [u64]> + ?Sized,
        H: Hit,
    {
        match data.binary_view() {
            Some((words, wpr)) => fan_out_scan(words, wpr, out, |rows, out| {
                kernels::hamming_scan(rows, wpr, q, r, out)
            }),
            None => scan_scalar(self, data, q, r, out),
        }
    }
}

/// Jaccard distance over packed binary vectors interpreted as sets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Jaccard;

impl Distance<[u64]> for Jaccard {
    fn distance(&self, a: &[u64], b: &[u64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut inter = 0u64;
        let mut union = 0u64;
        for (x, y) in a.iter().zip(b) {
            inter += (x & y).count_ones() as u64;
            union += (x | y).count_ones() as u64;
        }
        if union == 0 {
            0.0
        } else {
            1.0 - inter as f64 / union as f64
        }
    }

    fn name(&self) -> &'static str {
        "Jaccard"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_l2_agree_with_free_functions() {
        let a = [0.0f32, 3.0];
        let b = [4.0f32, 0.0];
        assert_eq!(L1.distance(&a, &b), 7.0);
        assert_eq!(L2.distance(&a, &b), 5.0);
    }

    #[test]
    fn cosine_identity_is_zero() {
        let a = [0.3f32, 0.4, 0.5];
        assert!(Cosine.distance(&a, &a).abs() < 1e-9);
    }

    #[test]
    fn unit_cosine_matches_cosine_on_unit_vectors() {
        let a = [0.6f32, 0.8];
        let b = [1.0f32, 0.0];
        assert!((UnitCosine.distance(&a, &b) - Cosine.distance(&a, &b)).abs() < 1e-6);
        assert!(UnitCosine.distance(&a, &a).abs() < 1e-6);
        assert_eq!(UnitCosine.name(), "cosine(unit)");
    }

    #[test]
    fn hamming_on_words() {
        assert_eq!(Hamming.distance(&[0b111u64], &[0b010u64]), 2.0);
    }

    #[test]
    fn jaccard_on_words() {
        assert!((Jaccard.distance(&[0b0111u64], &[0b1110u64]) - 0.5).abs() < 1e-12);
        assert_eq!(Jaccard.distance(&[0u64], &[0u64]), 0.0);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(L1.name(), "L1");
        assert_eq!(L2.name(), "L2");
        assert_eq!(Cosine.name(), "cosine");
        assert_eq!(Hamming.name(), "Hamming");
        assert_eq!(Jaccard.name(), "Jaccard");
        assert_eq!(MetricKind::Cosine.to_string(), "cosine");
        assert_eq!(MetricKind::L1.to_string(), "L1");
    }

    #[test]
    fn dist_verification_matches_id_verification_for_every_metric() {
        use crate::DenseDataset;
        let dim = 12;
        let data = DenseDataset::from_rows(
            dim,
            (0..60).map(|i| {
                (0..dim).map(|j| ((i * dim + j) as f32 * 0.31).sin()).collect::<Vec<f32>>()
            }),
        );
        let q: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.7).cos()).collect();
        let ids: Vec<PointId> = (0..60).collect();

        fn check<D: Distance<[f32]>>(
            d: &D,
            data: &crate::DenseDataset,
            ids: &[PointId],
            q: &[f32],
        ) {
            // Median distance as the radius: both accepts and rejects.
            let mut dists: Vec<f64> =
                ids.iter().map(|&id| d.distance(data.row(id as usize), q)).collect();
            dists.sort_by(|a, b| a.total_cmp(b));
            let r = dists[dists.len() / 2];
            let mut ids_only = Vec::new();
            d.verify_many(data, ids, q, r, &mut ids_only);
            let mut pairs: Vec<(PointId, f64)> = Vec::new();
            d.verify_hits(data, ids, q, r, &mut pairs);
            assert_eq!(
                pairs.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                ids_only,
                "{} verify ids",
                d.name()
            );
            for &(id, dist) in &pairs {
                assert_eq!(
                    dist.to_bits(),
                    d.distance(data.row(id as usize), q).to_bits(),
                    "{} dist of id {id}",
                    d.name()
                );
            }
            let mut scan_ids = Vec::new();
            d.scan_within(data, q, r, &mut scan_ids);
            let mut scan_pairs: Vec<(PointId, f64)> = Vec::new();
            d.scan_hits(data, q, r, &mut scan_pairs);
            assert_eq!(
                scan_pairs.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                scan_ids,
                "{} scan ids",
                d.name()
            );
            // r = ∞ covers every row with its exact distance.
            let mut all: Vec<(PointId, f64)> = Vec::new();
            d.scan_hits(data, q, f64::INFINITY, &mut all);
            assert_eq!(all.len(), data.len(), "{} full table", d.name());
        }
        check(&L1, &data, &ids, &q);
        check(&L2, &data, &ids, &q);
        check(&Cosine, &data, &ids, &q);
        check(&UnitCosine, &data, &ids, &q);
    }

    #[test]
    fn dist_defaults_cover_non_dense_metrics() {
        use crate::BinaryDataset;
        let data = BinaryDataset::from_fingerprints(&[0b0001, 0b0011, 0b1111, 0b1000]);
        let q = [0b0001u64];
        let ids: Vec<PointId> = vec![0, 1, 2, 3];
        let mut pairs: Vec<(PointId, f64)> = Vec::new();
        Hamming.verify_hits(&data, &ids, &q[..], 1.0, &mut pairs);
        assert_eq!(pairs, vec![(0, 0.0), (1, 1.0)]);
        let mut scan: Vec<(PointId, f64)> = Vec::new();
        Hamming.scan_hits(&data, &q[..], 2.0, &mut scan);
        assert_eq!(scan, vec![(0, 0.0), (1, 1.0), (3, 2.0)]);
    }

    /// Triangle inequality spot checks: metric axioms on random-ish data.
    #[test]
    fn triangle_inequality_holds() {
        let pts: Vec<[f32; 4]> =
            vec![[0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 0.0, -2.0], [5.0, -3.0, 2.5, 0.5]];
        for a in &pts {
            for b in &pts {
                for c in &pts {
                    assert!(L1.distance(a, c) <= L1.distance(a, b) + L1.distance(b, c) + 1e-9);
                    assert!(L2.distance(a, c) <= L2.distance(a, b) + L2.distance(b, c) + 1e-9);
                }
            }
        }
    }
}
