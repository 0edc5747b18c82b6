//! Property-based tests of the vector substrate: metric axioms,
//! bit-vector round trips, parser totality, and chunked-kernel parity
//! against the scalar reference implementations.

use hlsh_vec::binary::{hamming, jaccard_distance};
use hlsh_vec::dense::{cosine_distance, dot, l1, l2, norm};
use hlsh_vec::metric::{scan_scalar, verify_scalar};
use hlsh_vec::{
    kernels, BinaryDataset, BinaryVec, Cosine, DenseDataset, Distance, GrowablePointSet, Hamming,
    Jaccard, PointId, PointSet, UnitCosine, L1, L2,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Tolerance for one chunked kernel result against its `f64` scalar
/// reference: lane accumulation rounds in `f32`, so the error grows
/// with the element count `n` and the magnitude of the accumulated
/// terms (see the accuracy contract in `hlsh_vec::kernels`). `scale`
/// must be the sum of the absolute values of the accumulated terms —
/// for `dot` that is `Σ|aᵢ·bᵢ|`, NOT `|Σ aᵢ·bᵢ|`, because cancellation
/// shrinks the result without shrinking the rounding error.
fn kernel_tolerance(n: usize, scale: f64) -> f64 {
    // 2⁻²⁴ per f32 rounding step, n/8 steps per lane, with headroom.
    let eps = (n as f64) * 8.0 * f32::EPSILON as f64;
    scale * eps + 1e-9
}

proptest! {
    #[test]
    fn l1_l2_metric_axioms(
        a in vec(-100.0f32..100.0, 8),
        b in vec(-100.0f32..100.0, 8),
        c in vec(-100.0f32..100.0, 8),
    ) {
        // Symmetry.
        prop_assert!((l1(&a, &b) - l1(&b, &a)).abs() < 1e-9);
        prop_assert!((l2(&a, &b) - l2(&b, &a)).abs() < 1e-9);
        // Identity.
        prop_assert!(l1(&a, &a).abs() < 1e-9);
        prop_assert!(l2(&a, &a).abs() < 1e-9);
        // Non-negativity.
        prop_assert!(l1(&a, &b) >= 0.0);
        prop_assert!(l2(&a, &b) >= 0.0);
        // Triangle inequality (with fp slack).
        prop_assert!(l1(&a, &c) <= l1(&a, &b) + l1(&b, &c) + 1e-6);
        prop_assert!(l2(&a, &c) <= l2(&a, &b) + l2(&b, &c) + 1e-6);
    }

    #[test]
    fn l2_dominated_by_l1(a in vec(-50.0f32..50.0, 12), b in vec(-50.0f32..50.0, 12)) {
        prop_assert!(l2(&a, &b) <= l1(&a, &b) + 1e-6);
    }

    #[test]
    fn dot_cauchy_schwarz(a in vec(-10.0f32..10.0, 6), b in vec(-10.0f32..10.0, 6)) {
        prop_assert!(dot(&a, &b).abs() <= norm(&a) * norm(&b) + 1e-6);
    }

    #[test]
    fn cosine_distance_range(a in vec(-10.0f32..10.0, 5), b in vec(-10.0f32..10.0, 5)) {
        let d = cosine_distance(&a, &b);
        prop_assert!((-1e-9..=2.0 + 1e-9).contains(&d));
        prop_assert!((cosine_distance(&a, &b) - cosine_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn binaryvec_set_get_round_trip(bits in vec(any::<bool>(), 1..200)) {
        let v = BinaryVec::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(i), b);
        }
        prop_assert_eq!(v.count_ones() as usize, bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn hamming_is_a_metric(
        a in vec(any::<bool>(), 64),
        b in vec(any::<bool>(), 64),
        c in vec(any::<bool>(), 64),
    ) {
        let (va, vb, vc) = (
            BinaryVec::from_bools(&a),
            BinaryVec::from_bools(&b),
            BinaryVec::from_bools(&c),
        );
        prop_assert_eq!(hamming(&va, &vb), hamming(&vb, &va));
        prop_assert_eq!(hamming(&va, &va), 0);
        prop_assert!(hamming(&va, &vc) <= hamming(&va, &vb) + hamming(&vb, &vc));
    }

    #[test]
    fn jaccard_range_and_symmetry(a in vec(any::<bool>(), 96), b in vec(any::<bool>(), 96)) {
        let (va, vb) = (BinaryVec::from_bools(&a), BinaryVec::from_bools(&b));
        let d = jaccard_distance(&va, &vb);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert_eq!(d, jaccard_distance(&vb, &va));
        prop_assert_eq!(jaccard_distance(&va, &va), 0.0);
    }

    #[test]
    fn split_off_rows_preserves_all_points(
        rows in vec(vec(-5.0f32..5.0, 3), 2..50),
        pick_seed in 0usize..1000,
    ) {
        let mut ds = DenseDataset::from_rows(3, rows.iter().map(|r| {
            let mut a = [0.0f32; 3];
            a.copy_from_slice(r);
            a
        }));
        let take = (pick_seed % rows.len()).max(1);
        let idx: Vec<usize> = (0..take).map(|i| i * rows.len() / take).collect();
        let mut uniq = idx.clone();
        uniq.dedup();
        let removed = ds.split_off_rows(&uniq);
        prop_assert_eq!(removed.len() + ds.len(), rows.len());
        // Every original row appears exactly once across both sets.
        let mut all: Vec<Vec<u32>> = removed
            .rows()
            .chain(ds.rows())
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        all.sort();
        let mut orig: Vec<Vec<u32>> =
            rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect();
        orig.sort();
        prop_assert_eq!(all, orig);
    }

    /// Chunked kernels vs. scalar references, any length (covers the
    /// pure-tail, exact-chunk, and mixed cases) — the documented
    /// epsilon envelope of `hlsh_vec::kernels`.
    #[test]
    fn kernels_agree_with_scalar_references(
        pairs in vec((-100.0f32..100.0, -100.0f32..100.0), 0..200),
    ) {
        let (a, b): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let n = a.len();

        let dot_scale: f64 = a.iter().zip(&b).map(|(x, y)| (*x as f64 * *y as f64).abs()).sum();
        prop_assert!((kernels::dot(&a, &b) - dot(&a, &b)).abs()
            <= kernel_tolerance(n, dot_scale));

        let l2s_ref = l2(&a, &b).powi(2);
        prop_assert!((kernels::l2_sq(&a, &b) - l2s_ref).abs()
            <= kernel_tolerance(n, l2s_ref));

        let l1_ref = l1(&a, &b);
        prop_assert!((kernels::l1(&a, &b) - l1_ref).abs() <= kernel_tolerance(n, l1_ref));

        let norm_ref = norm(&a);
        prop_assert!((kernels::norm(&a) - norm_ref).abs()
            <= kernel_tolerance(n, norm_ref.powi(2)).sqrt());

        // Cosine is scale-free: both implementations clamp into [0, 2].
        let cos_k = kernels::cosine_distance(&a, &b);
        let cos_s = cosine_distance(&a, &b);
        prop_assert!((-1e-9..=2.0 + 1e-9).contains(&cos_k));
        // Tiny norms amplify the quotient's relative error; below the
        // noise floor both values are fuzz around an ill-conditioned
        // angle, so bound the comparison away from it.
        if norm_ref > 1e-3 && norm(&b) > 1e-3 {
            prop_assert!((cos_k - cos_s).abs() <= 1e-3, "cosine {cos_k} vs {cos_s}");
        }
    }

    /// The one-to-many verification kernels agree with a per-candidate
    /// scalar filter: membership may differ only for candidates whose
    /// scalar distance sits inside the kernel accuracy envelope around
    /// the radius, and everything reported is genuinely within the
    /// (fuzzed) radius.
    #[test]
    fn one_to_many_filters_agree_with_scalar_filter(
        flat in vec(-20.0f32..20.0, 64..64 * 40),
        q_seed in vec(-20.0f32..20.0, 16),
        r_frac in 0.05f64..0.95,
    ) {
        let dim = 16;
        let n = flat.len() / dim;
        let flat = &flat[..n * dim];
        let ids: Vec<u32> = (0..n as u32).collect();
        let q: &[f32] = &q_seed;

        // Radius as a quantile of the actual distance distribution so
        // both accept and reject paths are exercised.
        let mut d1: Vec<f64> = (0..n).map(|i| l1(&flat[i * dim..(i + 1) * dim], q)).collect();
        d1.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let r = d1[((n - 1) as f64 * r_frac) as usize].max(1e-6);
        let mut got = Vec::new();
        kernels::l1_one_to_many(flat, dim, &ids, q, r, &mut got);
        let slack = kernel_tolerance(dim, r.max(1.0));
        let got_set: std::collections::HashSet<u32> = got.iter().copied().collect();
        for i in 0..n {
            let d = l1(&flat[i * dim..(i + 1) * dim], q);
            let reported = got_set.contains(&(i as u32));
            if d <= r - slack {
                prop_assert!(reported, "missed candidate {i}: {d} <= {r}");
            } else if d > r + slack {
                prop_assert!(!reported, "false positive {i}: {d} > {r}");
            }
        }
    }

    /// `matvec` rows are bit-identical to the chunked `dot` on every
    /// row (block path and remainder path alike).
    #[test]
    fn matvec_is_bitwise_dot_per_row(
        mat in vec(-10.0f32..10.0, 1..400),
        rows in 1usize..12,
    ) {
        let dim = (mat.len() / rows).max(1);
        let mat = &mat[..dim * (mat.len() / dim).min(rows).max(1)];
        let nrows = mat.len() / dim;
        let x: Vec<f32> = (0..dim).map(|i| ((i * 37) % 17) as f32 - 8.0).collect();
        let mut out = vec![0.0f64; nrows];
        kernels::matvec(mat, dim, &x, &mut out);
        for (j, &v) in out.iter().enumerate() {
            let d = kernels::dot(&mat[j * dim..(j + 1) * dim], &x);
            prop_assert_eq!(v.to_bits(), d.to_bits(), "row {}", j);
        }
    }

    /// The Hamming kernels behind `Hamming`'s `scan_hits` /
    /// `verify_hits`, in both `Hit` instantiations, equal the scalar loops
    /// exactly — same ids, same order (repeats and unsorted ids kept),
    /// same distance bits — on one- and multi-word rows and at every
    /// kind of radius: exact integer boundaries and their neighbours,
    /// zero, negative, `NaN` and infinite.
    #[test]
    fn hamming_kernels_equal_scalar_loops_exactly(
        wpr in 1usize..4,
        q in vec(any::<u64>(), 3),
        masks in vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..1200),
        raw_ids in vec(any::<u32>(), 0..400),
        pick in any::<u64>(),
    ) {
        let q = &q[..wpr];
        // Rows near q (each bit flipped with probability 1/8), so the
        // distances spread over a range the radii below cut through;
        // row 0 is q itself.
        let mut data = BinaryDataset::new(64 * wpr);
        for row in masks.chunks_exact(wpr) {
            let words: Vec<u64> =
                row.iter().zip(q).map(|(&(a, b, c), &w)| w ^ (a & b & c)).collect();
            data.push_point(&words);
        }
        data.push_point(q);
        prop_assert!(data.binary_view().is_some(), "the kernel path must be the one tested");
        let n = data.len() as u32;
        let ids: Vec<PointId> = raw_ids.iter().map(|&id| id % n).collect();

        let boundary = Hamming.distance(data.point((pick % n as u64) as usize), q);
        let mut radii = vec![
            boundary,
            boundary + 0.5,
            boundary - 0.5,
            f64::from_bits(boundary.to_bits().saturating_sub(1)),
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        radii.push((64 * wpr) as f64);
        for r in radii {
            let (mut got, mut want): (Vec<PointId>, Vec<PointId>) = (Vec::new(), Vec::new());
            Hamming.scan_within(&data, q, r, &mut got);
            scan_scalar(&Hamming, &data, q, r, &mut want);
            prop_assert_eq!(&got, &want, "scan, wpr {} r {}", wpr, r);

            let (mut got, mut want): (Vec<PointId>, Vec<PointId>) = (Vec::new(), Vec::new());
            Hamming.verify_many(&data, &ids, q, r, &mut got);
            verify_scalar(&Hamming, &data, &ids, q, r, &mut want);
            prop_assert_eq!(&got, &want, "verify, wpr {} r {}", wpr, r);

            let (mut got, mut want): (Vec<Pair>, Vec<Pair>) = (Vec::new(), Vec::new());
            Hamming.scan_hits(&data, q, r, &mut got);
            scan_scalar(&Hamming, &data, q, r, &mut want);
            prop_assert_eq!(bits(&got), bits(&want), "scan_dist, wpr {} r {}", wpr, r);

            let (mut got, mut want): (Vec<Pair>, Vec<Pair>) = (Vec::new(), Vec::new());
            Hamming.verify_hits(&data, &ids, q, r, &mut got);
            verify_scalar(&Hamming, &data, &ids, q, r, &mut want);
            prop_assert_eq!(bits(&got), bits(&want), "verify_dist, wpr {} r {}", wpr, r);
        }
    }

    /// Every metric's S3 filters, through the storage views (dense
    /// kernels, popcount kernels) and through a point set with no view
    /// (the trait's scalar default): the `(id, distance)` instantiation
    /// of `verify_hits` / `scan_hits` reports exactly the ids of the
    /// `PointId` one — order and repeats included — with every distance
    /// bit-identical to `distance()`, at radii on an exact distance,
    /// 0, negative, `NaN` and `∞`.
    #[test]
    fn hit_instantiations_agree_on_every_metric(
        dim in 1usize..20,
        dense_pool in vec(-10.0f32..10.0, 20..400),
        wpr in 1usize..3,
        word_pool in vec(any::<u64>(), 2..200),
        raw_ids in vec(any::<u32>(), 0..120),
        pick in any::<u64>(),
    ) {
        let rows: Vec<Vec<f32>> = dense_pool.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        let dense = DenseDataset::from_rows(dim, rows.iter().cloned());
        let q_dense: Vec<f32> = rows[0].iter().map(|x| x * 0.5 + 0.25).collect();
        let dense_ids: Vec<PointId> = raw_ids.iter().map(|&id| id % rows.len() as u32).collect();
        let dense_plain = RowsOnly(rows);
        prop_assert!(dense.dense_view().is_some() && dense_plain.dense_view().is_none());
        check_metric(&L1, &dense, &dense_plain, &dense_ids, &q_dense, pick);
        check_metric(&L2, &dense, &dense_plain, &dense_ids, &q_dense, pick);
        check_metric(&Cosine, &dense, &dense_plain, &dense_ids, &q_dense, pick);
        check_metric(&UnitCosine, &dense, &dense_plain, &dense_ids, &q_dense, pick);

        let words: Vec<Vec<u64>> = word_pool.chunks_exact(wpr).map(<[u64]>::to_vec).collect();
        let mut binary = BinaryDataset::new(64 * wpr);
        for row in &words {
            binary.push_point(row);
        }
        let q_bits: Vec<u64> = words[0].iter().map(|w| w ^ 0b1011).collect();
        let bit_ids: Vec<PointId> = raw_ids.iter().map(|&id| id % words.len() as u32).collect();
        let binary_plain = RowsOnly(words);
        prop_assert!(binary.binary_view().is_some() && binary_plain.binary_view().is_none());
        check_metric(&Hamming, &binary, &binary_plain, &bit_ids, &q_bits, pick);
        check_metric(&Jaccard, &binary, &binary_plain, &bit_ids, &q_bits, pick);
    }

    #[test]
    fn libsvm_parser_never_panics(text in "[ -~\\n]{0,300}") {
        // Totality: arbitrary printable input either parses or errors,
        // never panics.
        let _ = hlsh_vec::io::parse_libsvm(text.as_bytes(), 8);
        let _ = hlsh_vec::io::parse_dense(text.as_bytes(), 4);
    }
}

/// The distance-keeping [`hlsh_vec::Hit`].
type Pair = (PointId, f64);

/// `(id, distance bits)` — exact comparison of distance-returning
/// kernel output.
fn bits(pairs: &[Pair]) -> Vec<(PointId, u64)> {
    pairs.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

/// A point set over owned rows with neither a dense nor a binary view,
/// so every metric runs the `Distance` trait's scalar default.
struct RowsOnly<T>(Vec<Vec<T>>);

impl<T> PointSet for RowsOnly<T> {
    type Point = [T];

    fn len(&self) -> usize {
        self.0.len()
    }

    fn point(&self, i: usize) -> &[T] {
        &self.0[i]
    }
}

/// Runs [`check_hits`] for one metric on both point sets (the same
/// rows, with and without a storage view) at every radius kind.
fn check_metric<P, V, W, D>(d: &D, viewed: &V, plain: &W, ids: &[PointId], q: &P, pick: u64)
where
    P: ?Sized,
    V: PointSet<Point = P>,
    W: PointSet<Point = P>,
    D: Distance<P>,
{
    let exact = d.distance(viewed.point((pick % viewed.len() as u64) as usize), q);
    for r in [exact, 0.0, -1.0, f64::NAN, f64::INFINITY] {
        let on_view = check_hits(d, viewed, ids, q, r);
        let on_plain = check_hits(d, plain, ids, q, r);
        // The binary metrics are exact (Hamming's popcount kernels,
        // Jaccard's one scalar loop), so their two paths agree bit for
        // bit too; the dense kernels agree only within their envelope.
        if d.name() == "Hamming" || d.name() == "Jaccard" {
            assert_eq!(bits(&on_view), bits(&on_plain), "{} view vs no view, r {r}", d.name());
        }
    }
}

/// The generic S3 contract of `d` on `data` at radius `r`: both `Hit`
/// instantiations of `verify_hits` and of `scan_hits` report the same
/// id sequence, every kept distance equals `distance()` bit for bit,
/// and the ids-only wrappers `verify_many` / `scan_within` match.
/// Returns the verified pairs.
fn check_hits<P, S, D>(d: &D, data: &S, ids: &[PointId], q: &P, r: f64) -> Vec<Pair>
where
    P: ?Sized,
    S: PointSet<Point = P>,
    D: Distance<P>,
{
    let name = d.name();
    let exact = |pairs: &[Pair]| {
        for &(id, dist) in pairs {
            let want = d.distance(data.point(id as usize), q);
            assert_eq!(dist.to_bits(), want.to_bits(), "{name} distance of {id}, r {r}");
        }
    };

    let (mut id_hits, mut pairs, mut wrapped): (Vec<PointId>, Vec<Pair>, Vec<PointId>) =
        (Vec::new(), Vec::new(), Vec::new());
    d.verify_hits(data, ids, q, r, &mut id_hits);
    d.verify_hits(data, ids, q, r, &mut pairs);
    d.verify_many(data, ids, q, r, &mut wrapped);
    assert_eq!(pairs.iter().map(|p| p.0).collect::<Vec<_>>(), id_hits, "{name} verify, r {r}");
    assert_eq!(wrapped, id_hits, "{name} verify_many, r {r}");
    exact(&pairs);

    let (mut id_scan, mut scan_pairs, mut wrapped): (Vec<PointId>, Vec<Pair>, Vec<PointId>) =
        (Vec::new(), Vec::new(), Vec::new());
    d.scan_hits(data, q, r, &mut id_scan);
    d.scan_hits(data, q, r, &mut scan_pairs);
    d.scan_within(data, q, r, &mut wrapped);
    assert_eq!(scan_pairs.iter().map(|p| p.0).collect::<Vec<_>>(), id_scan, "{name} scan, r {r}");
    assert_eq!(wrapped, id_scan, "{name} scan_within, r {r}");
    exact(&scan_pairs);
    if r == f64::INFINITY {
        // Only a NaN distance fails `d <= ∞`; none arise from finite rows.
        assert_eq!(scan_pairs.len(), data.len(), "{name} full table");
    }
    pairs
}
