//! Covering LSH for Hamming space (Pagh, SODA'16): LSH *without false
//! negatives*.
//!
//! The paper's §5 names covering LSH, alongside multi-probe, as a
//! scheme the hybrid strategy fits because it "typically require\[s\] a
//! large number of probes".
//!
//! # Construction
//!
//! For radius `r` over `d ≤ 64` bits, draw a random map
//! `a : [d] → F₂^{r+1}` and build one table per nonzero dual vector
//! `v ∈ F₂^{r+1}`, hashing each point by the bit mask
//! `{i : ⟨a(i), v⟩ = 1 (mod 2)}`. For any difference set `D` with
//! `|D| ≤ r`, the span of `{a(i) : i ∈ D}` has dimension at most
//! `r < r+1`, so a nonzero `v` orthogonal to all of them exists; that
//! table ignores every differing coordinate and the pair collides —
//! deterministically, for **every** pair within distance `r`.
//!
//! The table count `2^{r+1} − 1` explodes at the paper's MNIST radii
//! (r = 12–17), so we also implement the standard dimension-splitting
//! reduction: split the `d` bits into `c` chunks; by pigeonhole a pair
//! within distance `r` matches some chunk within `⌊r/c⌋`, so covering
//! structures of radius `⌊r/c⌋` per chunk preserve the guarantee with
//! `c · (2^{⌊r/c⌋+1} − 1)` tables (e.g. r = 12, c = 4 → 60 tables).
//!
//! Every bucket carries the same lazy HLL sketch as the core index, so
//! Algorithm 2's cost decision applies unchanged.

use std::sync::Arc;

use hlsh_families::sampling::{rng_stream, uniform_below};
use hlsh_families::GFunction;
use hlsh_hll::{HllConfig, MergeAccumulator};
use hlsh_vec::{Distance, Hit, PointId, PointSet};

use crate::bucket::BucketRef;
use crate::cost::CostModel;
use crate::dedup::Dedup;
use crate::engine::{Level, LevelEngine};
use crate::report::QueryOutput;
use crate::search::{Strategy, VerifyMode};
use crate::store::{BucketStore, FrozenStore, MapStore};
use crate::table::HashTable;

/// A covering g-function: projection onto a fixed bit mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoveringGFn {
    mask: u64,
}

impl CoveringGFn {
    /// The projection mask.
    pub fn mask(&self) -> u64 {
        self.mask
    }
}

impl GFunction<[u64]> for CoveringGFn {
    #[inline]
    fn bucket_key(&self, p: &[u64]) -> u64 {
        debug_assert_eq!(p.len(), 1, "covering LSH operates on ≤64-bit points");
        p[0] & self.mask
    }

    fn k(&self) -> usize {
        self.mask.count_ones() as usize
    }
}

/// A covering-LSH index over `≤ 64`-bit binary points with zero false
/// negatives within the construction radius. Generic over the bucket
/// store like the core index: built on [`MapStore`], convertible to
/// the read-optimised [`FrozenStore`] with [`freeze`](Self::freeze).
pub struct CoveringLshIndex<S, D, B = MapStore>
where
    S: PointSet<Point = [u64]>,
    D: Distance<[u64]>,
    B: BucketStore,
{
    data: S,
    distance: D,
    tables: Vec<HashTable<CoveringGFn, B>>,
    radius: u32,
    hll_config: HllConfig,
    cost: CostModel,
}

impl<S, D> CoveringLshIndex<S, D, MapStore>
where
    S: PointSet<Point = [u64]>,
    D: Distance<[u64]>,
{
    /// Builds the index.
    ///
    /// * `dim` — bit width of the points (≤ 64);
    /// * `radius` — the no-false-negative guarantee radius;
    /// * `parts` — dimension-splitting chunk count (`1` = pure Pagh
    ///   construction); table count is `parts · (2^{⌊radius/parts⌋+1} − 1)`.
    ///
    /// # Panics
    /// Panics if `dim == 0`, `dim > 64`, `parts == 0`, `parts > dim`,
    /// or the table count would exceed 4096 (pick more `parts`).
    pub fn build(
        data: S,
        distance: D,
        dim: usize,
        radius: u32,
        parts: usize,
        seed: u64,
        cost: CostModel,
    ) -> Self {
        assert!(dim > 0 && dim <= 64, "covering LSH supports 1..=64 bits, got {dim}");
        assert!(parts > 0 && parts <= dim, "parts must be in 1..={dim}");
        let chunk_radius = radius as usize / parts;
        let tables_per_chunk = (1usize << (chunk_radius + 1)) - 1;
        let total_tables = parts * tables_per_chunk;
        assert!(total_tables <= 4096, "table count {total_tables} too large; increase `parts`");

        let mut rng = rng_stream(seed, 0x434F_5645);
        let mut tables = Vec::with_capacity(total_tables);
        for part in 0..parts {
            // Contiguous chunk of bit positions.
            let lo = part * dim / parts;
            let hi = (part + 1) * dim / parts;
            let chunk_mask: u64 = ((1u128 << hi) - (1u128 << lo)) as u64;
            let m = chunk_radius + 1;
            if chunk_radius == 0 {
                // Exact-match chunk: strictly more selective than a
                // random projection and equally correct (an empty
                // difference set is avoided by any mask).
                tables.push(HashTable::new(Arc::new(CoveringGFn { mask: chunk_mask })));
                continue;
            }
            // Random map a : chunk bits → F₂^m.
            let a: Vec<u32> = (lo..hi).map(|_| uniform_below(&mut rng, 1 << m)).collect();
            for v in 1u32..(1 << m) {
                let mut mask = 0u64;
                for (offset, &ai) in a.iter().enumerate() {
                    if ((ai & v).count_ones() & 1) == 1 {
                        mask |= 1u64 << (lo + offset);
                    }
                }
                tables.push(HashTable::new(Arc::new(CoveringGFn { mask })));
            }
        }

        let hll_config = HllConfig::new(7, seed ^ 0x4356);
        let lazy_threshold = hll_config.registers();
        let mut index = Self { data, distance, tables, radius, hll_config, cost };
        for id in 0..index.data.len() {
            let point = index.data.point(id);
            // Single-word points only (asserted in bucket_key).
            let word = point[0];
            for table in &mut index.tables {
                table.insert(id as PointId, &[word][..], hll_config, lazy_threshold);
            }
        }
        index
    }

    /// Converts every table into the read-optimised frozen arena.
    /// Query answers are byte-identical before and after.
    pub fn freeze(self) -> CoveringLshIndex<S, D, FrozenStore> {
        CoveringLshIndex {
            data: self.data,
            distance: self.distance,
            tables: self.tables.into_iter().map(HashTable::freeze).collect(),
            radius: self.radius,
            hll_config: self.hll_config,
            cost: self.cost,
        }
    }
}

impl<S, D, B> CoveringLshIndex<S, D, B>
where
    S: PointSet<Point = [u64]>,
    D: Distance<[u64]>,
    B: BucketStore,
{
    /// The guarantee radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Number of tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Queries for all points within distance `r` of `q`.
    ///
    /// For `r ≤ self.radius()` the result is **exact** under the LSH
    /// arm (no false negatives, and the distance filter removes false
    /// positives); the hybrid decision only changes *how fast* the
    /// answer is produced, never *what* it is.
    pub fn query(&self, q: &[u64], r: f64, strategy: Strategy) -> QueryOutput {
        LevelEngine::default().query(self, q, r, strategy)
    }
}

/// The covering tables as one Algorithm 2 source: S1 looks up one
/// bucket per table, the arms run over the index's own data.
impl<S, D, B> Level for CoveringLshIndex<S, D, B>
where
    S: PointSet<Point = [u64]>,
    D: Distance<[u64]>,
    B: BucketStore,
{
    type Point = [u64];
    type Probe<'a>
        = Vec<BucketRef<'a>>
    where
        Self: 'a;

    fn n(&self) -> usize {
        self.len()
    }

    fn hll_config(&self) -> HllConfig {
        self.hll_config
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn probe(&self, q: &[u64]) -> (Vec<BucketRef<'_>>, usize) {
        let mut buckets = Vec::with_capacity(self.tables.len());
        let mut collisions = 0usize;
        for table in &self.tables {
            if let Some(b) = table.bucket(q) {
                collisions += b.len();
                buckets.push(b);
            }
        }
        (buckets, collisions)
    }

    fn contribute(&self, probe: &Vec<BucketRef<'_>>, acc: &mut MergeAccumulator) {
        for b in probe {
            b.contribute_to(acc);
        }
    }

    fn lsh_into<H: Hit>(
        &self,
        probe: &Vec<BucketRef<'_>>,
        q: &[u64],
        r: f64,
        verify: VerifyMode,
        Dedup { bitmap, cands, .. }: &mut Dedup,
        out: &mut Vec<H>,
    ) -> usize {
        cands.clear();
        bitmap.dedup_into(self.len(), probe.iter().map(BucketRef::members), cands);
        verify.verify(&self.distance, &self.data, cands, q, r, out);
        cands.len()
    }

    fn scan_into<H: Hit>(&self, q: &[u64], r: f64, verify: VerifyMode, out: &mut Vec<H>) {
        verify.scan(&self.distance, &self.data, q, r, out);
    }

    fn fallback_pairs(&self, q: &[u64], verify: VerifyMode) -> Vec<(PointId, f64)> {
        crate::topk::fallback_scan_pairs(&self.data, &self.distance, q, verify)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::ExecutedArm;
    use hlsh_vec::{BinaryDataset, Hamming};

    fn random_fps(n: usize, seed: u64) -> Vec<u64> {
        (0..n as u64).map(|i| hlsh_hll::hash::hash_id(seed, i)).collect()
    }

    #[test]
    fn table_count_formula() {
        let data = BinaryDataset::from_fingerprints(&random_fps(10, 1));
        // r = 3, parts = 1 → 2^4 − 1 = 15 tables.
        let idx = CoveringLshIndex::build(data, Hamming, 64, 3, 1, 0, CostModel::from_ratio(1.0));
        assert_eq!(idx.tables(), 15);

        let data2 = BinaryDataset::from_fingerprints(&random_fps(10, 1));
        // r = 12, parts = 4 → 4·(2^4 − 1) = 60 tables.
        let idx2 =
            CoveringLshIndex::build(data2, Hamming, 64, 12, 4, 0, CostModel::from_ratio(1.0));
        assert_eq!(idx2.tables(), 60);
    }

    #[test]
    fn no_false_negatives_within_radius() {
        // The defining property: every pair within r collides in some
        // table, so LSH-arm queries are exact.
        let n = 300;
        let mut fps = random_fps(n, 7);
        // Plant neighbors of fps[0] at distances 1..=4.
        for d in 1..=4u32 {
            let mut v = fps[0];
            for b in 0..d {
                v ^= 1u64 << (b * 13);
            }
            fps.push(v);
        }
        let data = BinaryDataset::from_fingerprints(&fps);
        let q = fps[0];
        let idx = CoveringLshIndex::build(data, Hamming, 64, 4, 1, 3, CostModel::from_ratio(1e12));
        let out = idx.query(&[q][..], 4.0, Strategy::LshOnly);
        // Exact answer by brute force:
        let expected: Vec<u32> = fps
            .iter()
            .enumerate()
            .filter(|(_, &v)| (v ^ q).count_ones() <= 4)
            .map(|(i, _)| i as u32)
            .collect();
        let mut got = out.ids.clone();
        got.sort_unstable();
        assert_eq!(got, expected, "covering LSH missed a near neighbor");
    }

    #[test]
    fn no_false_negatives_with_dimension_splitting() {
        let n = 200;
        let mut fps = random_fps(n, 11);
        for d in 1..=8u32 {
            let mut v = fps[5];
            for b in 0..d {
                v ^= 1u64 << (b * 7 + 3);
            }
            fps.push(v);
        }
        let data = BinaryDataset::from_fingerprints(&fps);
        let q = fps[5];
        // r = 8 with 4 parts → chunk radius 2 → 4·7 = 28 tables.
        let idx = CoveringLshIndex::build(data, Hamming, 64, 8, 4, 13, CostModel::from_ratio(1e12));
        assert_eq!(idx.tables(), 28);
        let out = idx.query(&[q][..], 8.0, Strategy::LshOnly);
        let expected: Vec<u32> = fps
            .iter()
            .enumerate()
            .filter(|(_, &v)| (v ^ q).count_ones() <= 8)
            .map(|(i, _)| i as u32)
            .collect();
        let mut got = out.ids.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn hybrid_matches_lsh_and_linear_results() {
        let fps = random_fps(500, 23);
        let q = fps[17];
        let make = |ratio: f64| {
            CoveringLshIndex::build(
                BinaryDataset::from_fingerprints(&fps),
                Hamming,
                64,
                3,
                1,
                2,
                CostModel::from_ratio(ratio),
            )
        };
        let idx = make(10.0);
        let mut hybrid = idx.query(&[q][..], 3.0, Strategy::Hybrid).ids;
        let mut lsh = idx.query(&[q][..], 3.0, Strategy::LshOnly).ids;
        let mut linear = idx.query(&[q][..], 3.0, Strategy::LinearOnly).ids;
        hybrid.sort_unstable();
        lsh.sort_unstable();
        linear.sort_unstable();
        assert_eq!(lsh, linear, "covering LSH arm must be exact");
        assert_eq!(hybrid, linear, "hybrid must be exact too");
    }

    #[test]
    fn duplicate_heavy_data_triggers_linear_arm() {
        // Every point identical: all buckets hold everything, candSize
        // ≈ n → hybrid must scan.
        let fps = vec![0xABCDu64; 400];
        let idx = CoveringLshIndex::build(
            BinaryDataset::from_fingerprints(&fps),
            Hamming,
            64,
            2,
            1,
            5,
            CostModel::from_ratio(2.0),
        );
        let out = idx.query(&[0xABCDu64][..], 2.0, Strategy::Hybrid);
        assert_eq!(out.report.executed, ExecutedArm::Linear);
        assert_eq!(out.ids.len(), 400);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_table_count_rejected() {
        let data = BinaryDataset::from_fingerprints(&[0u64]);
        let _ = CoveringLshIndex::build(data, Hamming, 64, 16, 1, 0, CostModel::from_ratio(1.0));
    }

    #[test]
    #[should_panic(expected = "1..=64 bits")]
    fn oversized_dim_rejected() {
        let data = BinaryDataset::from_fingerprints(&[0u64]);
        let _ = CoveringLshIndex::build(data, Hamming, 65, 2, 1, 0, CostModel::from_ratio(1.0));
    }
}
