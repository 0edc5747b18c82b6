//! The query execution engine: reusable per-thread scratch state and
//! the parallel batch API.
//!
//! A single Algorithm 2 query needs three pieces of transient state —
//! the probed bucket list, the HLL merge accumulator, and the
//! candidate-dedup bitmap. Allocating them per query is fine for one
//! call but wasteful under batch load, where the dedup bitmap alone
//! spans all `n` ids. [`QueryEngine`] owns that scratch and reuses it
//! across queries; [`HybridLshIndex::query_batch`] shards a query slice
//! over scoped threads, one engine per thread, and returns outputs in
//! input order — byte-identical ids to a sequential loop.

use std::time::Instant;

use hlsh_families::LshFamily;
use hlsh_hll::MergeAccumulator;
use hlsh_vec::{Distance, Hit, PointId, PointSet};

use crate::dedup::SeenBitmap;
use crate::index::HybridLshIndex;
use crate::report::{QueryOutput, QueryReport};
use crate::search::{ExecutedArm, Strategy, VerifyMode};
use crate::store::BucketStore;

/// Reusable scratch state for running queries.
///
/// One engine serves one thread: methods take `&mut self` and recycle
/// the dedup bitmap, candidate list and merge accumulator between
/// calls. Results are identical to the allocate-per-query path.
#[derive(Debug, Default)]
pub struct QueryEngine {
    seen: SeenBitmap,
    cands: Vec<PointId>,
    acc: Option<MergeAccumulator>,
    verify: VerifyMode,
}

impl QueryEngine {
    /// Creates an engine with empty scratch and the default
    /// [`VerifyMode::Kernel`] distance filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with an explicit S3 verification mode
    /// ([`VerifyMode::Scalar`] forces per-candidate `distance()` calls;
    /// useful as a benchmark baseline).
    pub fn with_verify_mode(verify: VerifyMode) -> Self {
        Self { verify, ..Self::default() }
    }

    /// The S3 verification mode in force.
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify
    }

    /// Hybrid query (Algorithm 2) with reused scratch.
    pub fn query<S, F, D, B>(
        &mut self,
        index: &HybridLshIndex<S, F, D, B>,
        q: &S::Point,
        r: f64,
    ) -> QueryOutput
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
    {
        self.query_with_strategy(index, q, r, Strategy::Hybrid)
    }

    /// Runs a query under an explicit strategy with reused scratch.
    pub fn query_with_strategy<S, F, D, B>(
        &mut self,
        index: &HybridLshIndex<S, F, D, B>,
        q: &S::Point,
        r: f64,
        strategy: Strategy,
    ) -> QueryOutput
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
    {
        let (ids, report) = self
            .query_hits(index, q, r, strategy, None)
            .expect("a query without a skip threshold always runs");
        QueryOutput { ids, report }
    }

    /// One Algorithm 2 query, generic over what step S3 emits: ids
    /// ([`PointId`], the rNNR answer) or `(id, distance)` pairs (the
    /// top-k driver's level query, which ranks by the distances the
    /// filter already computed). Both instantiations report the same
    /// ids in the same order with the same [`QueryReport`].
    ///
    /// With `skip_at_most = Some(t)` the query probes and estimates
    /// once, and runs neither arm — returning `None` — when the
    /// estimated distinct-candidate count is at most `t`. This is the
    /// top-k driver's level filter: a schedule level whose predicted
    /// candidates are all already verified cannot improve the heap, and
    /// deciding that from the sketches costs `O(mL)` — the same probe +
    /// merge work the executed query needs anyway, done once here.
    /// Under [`Strategy::LinearOnly`] the filter does not apply (a scan
    /// forms no candidate set) and the query always runs. Under
    /// [`Strategy::LshOnly`] the sketches are merged only when a
    /// threshold needs the estimate, and the report's
    /// `cand_size_estimate` then carries it; without one it carries the
    /// exact candidate count.
    pub(crate) fn query_hits<S, F, D, B, H>(
        &mut self,
        index: &HybridLshIndex<S, F, D, B>,
        q: &S::Point,
        r: f64,
        strategy: Strategy,
        skip_at_most: Option<f64>,
    ) -> Option<(Vec<H>, QueryReport)>
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
        H: Hit,
    {
        let t_start = Instant::now();
        if matches!(strategy, Strategy::LinearOnly) {
            let hits = linear_arm(index, q, r, self.verify);
            let report = QueryReport {
                executed: ExecutedArm::Linear,
                collisions: 0,
                cand_size_estimate: 0.0,
                cand_size_actual: None,
                output_size: hits.len(),
                hash_nanos: 0,
                hll_nanos: 0,
                total_nanos: t_start.elapsed().as_nanos() as u64,
            };
            return Some((hits, report));
        }

        // Algorithm 2 lines 1–2: collisions + candSize estimate.
        let (buckets, collisions, hash_nanos) = index.probe(q);
        let (estimate, hll_nanos) =
            if matches!(strategy, Strategy::LshOnly) && skip_at_most.is_none() {
                (None, 0)
            } else {
                let t_hll = Instant::now();
                let acc = self.accumulator(index);
                for b in &buckets {
                    b.contribute_to(acc);
                }
                let estimate = acc.estimate();
                (Some(estimate), t_hll.elapsed().as_nanos() as u64)
            };
        if let (Some(estimate), Some(at_most)) = (estimate, skip_at_most) {
            if estimate <= at_most {
                return None;
            }
        }

        // Lines 3–4: compare costs, run the cheaper arm.
        let prefer_lsh = match (strategy, estimate) {
            (Strategy::Hybrid, Some(estimate)) => {
                index.cost_model().prefer_lsh(collisions, estimate, index.len())
            }
            _ => true,
        };
        let (executed, hits, cand_actual) = if prefer_lsh {
            let (hits, cand) = self.lsh_arm(index, q, r, &buckets);
            (ExecutedArm::Lsh, hits, Some(cand))
        } else {
            (ExecutedArm::Linear, linear_arm(index, q, r, self.verify), None)
        };
        let report = QueryReport {
            executed,
            collisions,
            // Only LshOnly skips the estimate, and its arm always
            // counts the candidates exactly.
            cand_size_estimate: estimate.unwrap_or(cand_actual.unwrap_or_default() as f64),
            cand_size_actual: cand_actual,
            output_size: hits.len(),
            hash_nanos,
            hll_nanos,
            total_nanos: t_start.elapsed().as_nanos() as u64,
        };
        Some((hits, report))
    }

    /// The merge accumulator for `index`'s HLL config, cleared and
    /// ready (recreated only when the config changes between indexes).
    fn accumulator<S, F, D, B>(
        &mut self,
        index: &HybridLshIndex<S, F, D, B>,
    ) -> &mut MergeAccumulator
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
    {
        let config = index.hll_config();
        match &mut self.acc {
            Some(acc) if acc.config() == config => acc.clear(),
            slot => *slot = Some(MergeAccumulator::new(config)),
        }
        self.acc.as_mut().expect("accumulator just ensured")
    }

    /// Step S2 + S3: dedup the colliding points, then verify the whole
    /// candidate list in one batched distance-filter call (under
    /// [`VerifyMode::Kernel`], a one-to-many kernel straight over the
    /// dataset's flat storage on dense and packed binary data). Returns
    /// (reported hits, distinct candidate count). Output order equals
    /// the interleaved per-candidate loop: first-collision order,
    /// filtered.
    fn lsh_arm<S, F, D, B, H>(
        &mut self,
        index: &HybridLshIndex<S, F, D, B>,
        q: &S::Point,
        r: f64,
        buckets: &[crate::bucket::BucketRef<'_>],
    ) -> (Vec<H>, usize)
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
        H: Hit,
    {
        self.cands.clear();
        self.seen.dedup_into(
            index.len(),
            buckets.iter().map(crate::bucket::BucketRef::members),
            &mut self.cands,
        );
        let mut out = Vec::new();
        self.verify.verify(index.distance(), index.data(), &self.cands, q, r, &mut out);
        (out, self.cands.len())
    }
}

/// The brute-force arm: scan every point (batched through the metric's
/// [`scan_hits`](Distance::scan_hits) kernel unless scalar mode is
/// forced).
fn linear_arm<S, F, D, B, H>(
    index: &HybridLshIndex<S, F, D, B>,
    q: &S::Point,
    r: f64,
    verify: VerifyMode,
) -> Vec<H>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
    H: Hit,
{
    let mut out = Vec::new();
    verify.scan(index.distance(), index.data(), q, r, &mut out);
    out
}

/// Adapter presenting a slice of `AsRef<P>` values as a [`PointSet`].
/// (The `fn() -> &P` phantom keeps the adapter `Sync` regardless of
/// `P`'s own `Sync`-ness; only `&Q` is ever shared across threads.)
struct SliceSet<'a, Q, P: ?Sized>(&'a [Q], std::marker::PhantomData<fn() -> &'a P>);

impl<Q, P> PointSet for SliceSet<'_, Q, P>
where
    Q: AsRef<P>,
    P: ?Sized,
{
    type Point = P;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn point(&self, i: usize) -> &P {
        self.0[i].as_ref()
    }
}

impl<S, F, D, B> HybridLshIndex<S, F, D, B>
where
    S: PointSet + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// Answers a batch of hybrid queries, sharded across all available
    /// cores. Outputs are in input order and their ids are
    /// byte-identical to a sequential `query` loop.
    pub fn query_batch<Q>(&self, queries: &[Q], r: f64) -> Vec<QueryOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.query_batch_with_strategy(queries, r, Strategy::Hybrid, None)
    }

    /// Batch querying under an explicit strategy and optional thread
    /// count (`None` = all available cores).
    pub fn query_batch_with_strategy<Q>(
        &self,
        queries: &[Q],
        r: f64,
        strategy: Strategy,
        threads: Option<usize>,
    ) -> Vec<QueryOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.query_batch_set(&SliceSet(queries, std::marker::PhantomData), r, strategy, threads)
    }

    /// Batch querying over any [`PointSet`] of queries (the natural
    /// shape for the experiment harness, whose held-out query sets are
    /// themselves datasets).
    pub fn query_batch_set<Q>(
        &self,
        queries: &Q,
        r: f64,
        strategy: Strategy,
        threads: Option<usize>,
    ) -> Vec<QueryOutput>
    where
        Q: PointSet<Point = S::Point> + Sync,
    {
        hlsh_vec::parallel::par_map_with(queries.len(), threads, QueryEngine::new, |engine, qi| {
            engine.query_with_strategy(self, queries.point(qi), r, strategy)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::cost::CostModel;
    use hlsh_families::BitSampling;
    use hlsh_vec::{BinaryDataset, Hamming};

    fn fingerprints(n: u64, seed: u64) -> Vec<u64> {
        (0..n).map(|i| hlsh_hll::hash::hash_id(seed, i / 3)).collect()
    }

    fn build_index(fps: &[u64]) -> HybridLshIndex<BinaryDataset, BitSampling, Hamming> {
        IndexBuilder::new(BitSampling::new(64), Hamming)
            .tables(8)
            .hash_len(10)
            .seed(42)
            .cost_model(CostModel::from_ratio(4.0))
            .build(BinaryDataset::from_fingerprints(fps))
    }

    #[test]
    fn engine_reuse_matches_fresh_engines() {
        let fps = fingerprints(600, 9);
        let index = build_index(&fps);
        let mut engine = QueryEngine::new();
        for qi in (0..fps.len()).step_by(37) {
            let q = [fps[qi]];
            let reused = engine.query(&index, &q[..], 6.0);
            let fresh = index.query(&q[..], 6.0);
            assert_eq!(reused.ids, fresh.ids);
            assert_eq!(reused.report.executed, fresh.report.executed);
            assert_eq!(reused.report.collisions, fresh.report.collisions);
            assert_eq!(reused.report.cand_size_estimate, fresh.report.cand_size_estimate);
        }
    }

    #[test]
    fn batch_matches_sequential_loop_all_strategies() {
        let fps = fingerprints(500, 4);
        let index = build_index(&fps);
        let queries: Vec<Vec<u64>> =
            (0..40).map(|i| vec![fps[i * 12] ^ (i as u64 & 0b11)]).collect();
        for strategy in Strategy::ALL {
            for threads in [Some(1), Some(3), Some(7), None] {
                let batch = index.query_batch_with_strategy(&queries, 5.0, strategy, threads);
                assert_eq!(batch.len(), queries.len());
                for (qi, out) in batch.iter().enumerate() {
                    let seq = index.query_with_strategy(&queries[qi], 5.0, strategy);
                    assert_eq!(out.ids, seq.ids, "strategy {strategy} query {qi}");
                    assert_eq!(out.report.executed, seq.report.executed);
                }
            }
        }
    }

    #[test]
    fn batch_on_empty_query_set() {
        let index = build_index(&fingerprints(50, 1));
        let queries: Vec<Vec<u64>> = Vec::new();
        assert!(index.query_batch(&queries, 2.0).is_empty());
    }

    #[test]
    fn batch_with_more_threads_than_queries() {
        let fps = fingerprints(80, 2);
        let index = build_index(&fps);
        let queries = vec![vec![fps[0]], vec![fps[40]]];
        let out = index.query_batch_with_strategy(&queries, 3.0, Strategy::Hybrid, Some(16));
        assert_eq!(out.len(), 2);
        for (qi, o) in out.iter().enumerate() {
            assert_eq!(o.ids, index.query(&queries[qi], 3.0).ids);
        }
    }

    #[test]
    fn frozen_batch_matches_map_batch() {
        let fps = fingerprints(400, 7);
        let queries: Vec<Vec<u64>> = (0..25).map(|i| vec![fps[i * 16]]).collect();
        let map_index = build_index(&fps);
        let map_out = map_index.query_batch(&queries, 4.0);
        let frozen = map_index.freeze();
        let frozen_out = frozen.query_batch(&queries, 4.0);
        for (a, b) in map_out.iter().zip(&frozen_out) {
            assert_eq!(a.ids, b.ids);
            assert_eq!(a.report.executed, b.report.executed);
            assert_eq!(a.report.collisions, b.report.collisions);
            assert_eq!(a.report.cand_size_estimate, b.report.cand_size_estimate);
        }
    }
}
