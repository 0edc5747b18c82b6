//! Multi-probe LSH on top of the hybrid index.
//!
//! Implements Lv et al.'s query-directed probing for the three
//! g-function types of the workspace. A multi-probe query is the level
//! query over a [`Probed`] view of the index: step S1 walks the probe
//! sequence of every table, so `#collisions` sums every probed bucket,
//! `candSize` merges every probed bucket's sketch, and the one Algorithm
//! 2 decision chooses between probing and scanning.

use hlsh_families::bitsampling::BitSamplingGFn;
use hlsh_families::pstable::PStableGFn;
use hlsh_families::simhash::SimHashGFn;
use hlsh_families::{GFunction, LshFamily};
use hlsh_hll::{HllConfig, MergeAccumulator};
use hlsh_vec::{Distance, Hit, PointId, PointSet};

use crate::bucket::BucketRef;
use crate::cost::CostModel;
use crate::dedup::Dedup;
use crate::engine::{Level, LevelEngine};
use crate::index::HybridLshIndex;
use crate::perturb::{PerturbationGenerator, ProbeOption};
use crate::report::QueryOutput;
use crate::search::{Strategy, VerifyMode};
use crate::store::BucketStore;

/// A g-function that can enumerate a query-directed probing sequence.
///
/// `probe_keys` returns up to `t` bucket keys, starting with the base
/// bucket `g(q)` and continuing in decreasing estimated success
/// probability (Lv et al.'s perturbation ordering).
pub trait ProbeSequence<P: ?Sized>: GFunction<P> {
    /// The first `t` probe keys for query `q`.
    fn probe_keys(&self, q: &P, t: usize) -> Vec<u64>;
}

impl ProbeSequence<[f32]> for PStableGFn {
    fn probe_keys(&self, q: &[f32], t: usize) -> Vec<u64> {
        let base = self.atom_values(q);
        let mut keys = Vec::with_capacity(t);
        keys.push(self.key_from_atoms(&base));
        if t <= 1 {
            return keys;
        }
        // Option (j, −1): the projection sits `offset` above the lower
        // boundary; option (j, +1): `w − offset` below the upper one.
        let w = self.w();
        let mut options = Vec::with_capacity(2 * self.k());
        for j in 0..self.k() {
            let off = self.boundary_offset(j, q);
            options.push(ProbeOption {
                score: off * off,
                group: j as u32,
                payload: (j as u64) << 1,
            });
            let up = w - off;
            options.push(ProbeOption {
                score: up * up,
                group: j as u32,
                payload: ((j as u64) << 1) | 1,
            });
        }
        let mut scratch = base.clone();
        for set in PerturbationGenerator::new(options).take(t - 1) {
            scratch.copy_from_slice(&base);
            for payload in set {
                let j = (payload >> 1) as usize;
                let delta = if payload & 1 == 1 { 1 } else { -1 };
                scratch[j] += delta;
            }
            keys.push(self.key_from_atoms(&scratch));
        }
        keys
    }
}

impl ProbeSequence<[f32]> for SimHashGFn {
    fn probe_keys(&self, q: &[f32], t: usize) -> Vec<u64> {
        let base = self.bucket_key(q);
        let mut keys = Vec::with_capacity(t);
        keys.push(base);
        if t <= 1 {
            return keys;
        }
        // Flipping bit j crosses hyperplane j; the smaller the margin,
        // the likelier a near neighbor lies on the other side.
        let options: Vec<ProbeOption> = (0..self.k())
            .map(|j| {
                let m = self.margin(j, q);
                ProbeOption { score: m * m, group: j as u32, payload: j as u64 }
            })
            .collect();
        for set in PerturbationGenerator::new(options).take(t - 1) {
            let mut key = base;
            for bit in set {
                key ^= 1u64 << bit;
            }
            keys.push(key);
        }
        keys
    }
}

impl ProbeSequence<[u64]> for BitSamplingGFn {
    fn probe_keys(&self, q: &[u64], t: usize) -> Vec<u64> {
        let base = self.bucket_key(q);
        let mut keys = Vec::with_capacity(t);
        keys.push(base);
        if t <= 1 {
            return keys;
        }
        // Every sampled bit is equally likely to differ (probability
        // r/d each), so all single-bit flips score identically and the
        // generator enumerates by flip count.
        let options: Vec<ProbeOption> = (0..self.k())
            .map(|j| ProbeOption { score: 1.0, group: j as u32, payload: j as u64 })
            .collect();
        for set in PerturbationGenerator::new(options).take(t - 1) {
            let mut key = base;
            for bit in set {
                key ^= 1u64 << bit;
            }
            keys.push(key);
        }
        keys
    }
}

/// A multi-probe view of an index: the index's level with S1 walking
/// the `probes` best buckets of every table instead of one.
struct Probed<'a, S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    index: &'a HybridLshIndex<S, F, D, B>,
    probes: usize,
}

impl<S, F, D, B> Level for Probed<'_, S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    F::GFn: ProbeSequence<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    type Point = S::Point;
    type Probe<'b>
        = Vec<BucketRef<'b>>
    where
        Self: 'b;

    fn n(&self) -> usize {
        self.index.len()
    }

    fn hll_config(&self) -> HllConfig {
        self.index.hll_config()
    }

    fn cost_model(&self) -> CostModel {
        self.index.cost_model()
    }

    /// Looks up every probe key of every table (through the
    /// `BucketStore` trait, so map and frozen backends answer alike).
    fn probe(&self, q: &S::Point) -> (Vec<BucketRef<'_>>, usize) {
        let mut buckets = Vec::new();
        let mut collisions = 0usize;
        for table in self.index.raw_tables() {
            for key in table.g().probe_keys(q, self.probes) {
                if let Some(b) = table.bucket_for_key(key) {
                    collisions += b.len();
                    buckets.push(b);
                }
            }
        }
        (buckets, collisions)
    }

    fn contribute(&self, probe: &Vec<BucketRef<'_>>, acc: &mut MergeAccumulator) {
        self.index.contribute(probe, acc);
    }

    fn lsh_into<H: Hit>(
        &self,
        probe: &Vec<BucketRef<'_>>,
        q: &S::Point,
        r: f64,
        verify: VerifyMode,
        dedup: &mut Dedup,
        out: &mut Vec<H>,
    ) -> usize {
        self.index.lsh_into(probe, q, r, verify, dedup, out)
    }

    fn scan_into<H: Hit>(&self, q: &S::Point, r: f64, verify: VerifyMode, out: &mut Vec<H>) {
        self.index.scan_into(q, r, verify, out);
    }

    fn fallback_pairs(&self, q: &S::Point, verify: VerifyMode) -> Vec<(PointId, f64)> {
        self.index.fallback_pairs(q, verify)
    }
}

/// Multi-probe query with the hybrid cost decision.
///
/// Probes the `probes_per_table` best buckets in each of the `L`
/// tables. Under [`Strategy::Hybrid`] the probed buckets' sizes and
/// sketches drive the Algorithm 2 decision exactly as in single-probe
/// hybrid search; [`Strategy::LshOnly`] always collects candidates;
/// [`Strategy::LinearOnly`] always scans. With one probe per table the
/// output equals [`Engine::query_with_strategy`](crate::Engine::query_with_strategy)'s.
///
/// # Panics
/// Panics if `probes_per_table == 0`.
pub fn multiprobe_query<S, F, D, B>(
    index: &HybridLshIndex<S, F, D, B>,
    q: &S::Point,
    r: f64,
    probes_per_table: usize,
    strategy: Strategy,
) -> QueryOutput
where
    S: PointSet,
    F: LshFamily<S::Point>,
    F::GFn: ProbeSequence<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    assert!(probes_per_table > 0, "need at least one probe per table");
    let level = Probed { index, probes: probes_per_table };
    LevelEngine::default().query(&level, q, r, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::search::ExecutedArm;
    use hlsh_families::sampling::rng_stream;
    use hlsh_families::{BitSampling, PStableL2, SimHash};
    use hlsh_vec::{BinaryDataset, DenseDataset, Hamming, L2};

    #[test]
    fn pstable_probe_keys_start_with_base_and_are_distinct() {
        let family = PStableL2::new(6, 2.0);
        let g = family.sample(5, &mut rng_stream(1, 0));
        let q = [0.3f32, -1.0, 0.7, 2.0, 0.0, -0.4];
        let keys = g.probe_keys(&q, 10);
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], g.bucket_key(&q));
        let set: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(set.len(), keys.len(), "duplicate probe keys");
    }

    #[test]
    fn simhash_probe_flips_smallest_margin_first() {
        let family = SimHash::new(4);
        let g = family.sample(10, &mut rng_stream(2, 0));
        let q = [0.5f32, -0.2, 0.9, 0.1];
        let keys = g.probe_keys(&q, 3);
        let base = keys[0];
        // First perturbation must be a single-bit flip of the
        // minimal-margin bit.
        let margins: Vec<f64> = (0..10).map(|j| g.margin(j, &q).abs()).collect();
        let jmin = (0..10).min_by(|&a, &b| margins[a].partial_cmp(&margins[b]).unwrap()).unwrap();
        assert_eq!(keys[1], base ^ (1u64 << jmin));
    }

    #[test]
    fn bitsampling_probes_enumerate_by_flip_count() {
        let family = BitSampling::new(64);
        let g = family.sample(6, &mut rng_stream(3, 0));
        let q = [0xF0F0_F0F0_F0F0_F0F0u64];
        let keys = g.probe_keys(&q[..], 8);
        let base = keys[0];
        // Probes 1..=6 are the single flips; probe 7 flips two bits.
        for key in &keys[1..7] {
            assert_eq!((key ^ base).count_ones(), 1);
        }
        assert_eq!((keys[7] ^ base).count_ones(), 2);
    }

    #[test]
    fn multiprobe_recovers_more_neighbors_than_single_probe() {
        // A small index with few tables: single-probe misses some
        // neighbors; adding probes raises recall.
        let n = 2_000;
        let fps: Vec<u64> = (0..n as u64)
            .map(|i| hlsh_hll::hash::splitmix64(i / 4)) // groups of 4 duplicates
            .collect();
        let data = BinaryDataset::from_fingerprints(&fps);
        let index = IndexBuilder::new(BitSampling::new(64), Hamming)
            .tables(2)
            .hash_len(12)
            .seed(5)
            .cost_model(CostModel::from_ratio(1e9)) // force LSH arm
            .build(data);
        // Query: a fingerprint at distance 2 from a group of 4.
        let mut q = hlsh_hll::hash::splitmix64(100);
        q ^= 0b101;
        let single = multiprobe_query(&index, &[q][..], 3.0, 1, Strategy::LshOnly);
        let multi = multiprobe_query(&index, &[q][..], 3.0, 40, Strategy::LshOnly);
        assert!(
            multi.ids.len() >= single.ids.len(),
            "multi {} < single {}",
            multi.ids.len(),
            single.ids.len()
        );
        assert!(multi.report.collisions >= single.report.collisions);
    }

    #[test]
    fn hybrid_multiprobe_falls_back_to_linear_on_hard_queries() {
        // All points identical → every probe bucket is the whole data
        // set → candSize ≈ n → linear must win.
        let data = DenseDataset::from_rows(4, (0..500).map(|_| [1.0f32, 2.0, 3.0, 4.0]));
        let index = IndexBuilder::new(PStableL2::new(4, 1.0), L2)
            .tables(6)
            .hash_len(4)
            .seed(9)
            .cost_model(CostModel::from_ratio(2.0))
            .build(data);
        let out = multiprobe_query(&index, &[1.0f32, 2.0, 3.0, 4.0][..], 0.5, 4, Strategy::Hybrid);
        assert_eq!(out.report.executed, ExecutedArm::Linear);
        assert_eq!(out.ids.len(), 500);
    }

    #[test]
    fn linear_only_strategy_scans() {
        let data = DenseDataset::from_rows(2, (0..50).map(|i| [i as f32, 0.0]));
        let index = IndexBuilder::new(PStableL2::new(2, 1.0), L2)
            .tables(2)
            .hash_len(2)
            .seed(1)
            .cost_model(CostModel::from_ratio(1.0))
            .build(data);
        let out = multiprobe_query(&index, &[10.0f32, 0.0][..], 1.5, 5, Strategy::LinearOnly);
        assert_eq!(out.report.executed, ExecutedArm::Linear);
        assert_eq!(out.ids, vec![9, 10, 11]);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_rejected() {
        let data = DenseDataset::from_rows(2, [[0.0f32, 0.0]]);
        let index = IndexBuilder::new(PStableL2::new(2, 1.0), L2)
            .tables(1)
            .hash_len(1)
            .seed(1)
            .cost_model(CostModel::from_ratio(1.0))
            .build(data);
        let _ = multiprobe_query(&index, &[0.0f32, 0.0][..], 1.0, 0, Strategy::Hybrid);
    }
}
