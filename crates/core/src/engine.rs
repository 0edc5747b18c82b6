//! The query execution engine: the one Algorithm 2 level query, the
//! one public [`Engine`] every deployment is queried through, and the
//! one parallel batch path.
//!
//! Algorithm 2 is one rule whatever the deployment: probe the tables
//! (S1) and sum the collisions, merge the probed sketches into one
//! candSize estimate (S2), compare `α·#collisions + β·candSize` against
//! `β·n`, and run the cheaper arm (S3). A `Level` is one source that
//! rule runs over — the single index (or one rung of a top-k ladder), a
//! sharded view, a segmented view, a multi-probe view of an index, or a
//! covering-LSH index — and `LevelEngine::query_hits` runs the rule,
//! written once for all of them; the comparison itself is [`decide`],
//! which the distributed coordinator calls on merged shard statistics
//! too. Each source merges its parts' statistics before the decision,
//! so a sharded or segmented query decides exactly as one index over
//! the same points would.
//!
//! A query also needs transient state — the probed buckets, the HLL
//! merge accumulator and the candidate-dedup scratch. Allocating it per
//! query is fine for one call but wasteful under batch load, where the
//! dedup bitmap alone spans all `n` ids. [`Engine`] owns that scratch
//! plus the top-k [`TopKWalk`](crate::TopKWalk) and reuses both across
//! queries and across index types: it answers any [`RnnrIndex`] (the
//! single, sharded and segmented rNNR indexes) and any [`TopKLadder`]
//! (their top-k ladders).
//! The six engine names of earlier releases ([`QueryEngine`],
//! [`TopKEngine`](crate::TopKEngine) and the sharded and segmented
//! ones) are aliases of it. Every batch entry point — the indexes'
//! `query_batch*` / `query_topk_batch*` and the services built on them —
//! shards a query slice over scoped threads, one engine per thread, and
//! returns outputs in input order, byte-identical to a sequential loop.

use std::time::Instant;

use hlsh_families::LshFamily;
use hlsh_hll::{HllConfig, MergeAccumulator};
use hlsh_vec::parallel::par_map_with;
use hlsh_vec::{Distance, Hit, PointId, PointSet};

use crate::bucket::BucketRef;
use crate::cost::CostModel;
use crate::dedup::Dedup;
use crate::index::HybridLshIndex;
use crate::report::{QueryOutput, QueryReport};
use crate::search::{ExecutedArm, Strategy, VerifyMode};
use crate::store::BucketStore;
use crate::topk::TopKOutput;

/// One Algorithm 2 source: what the level query needs to probe,
/// estimate, decide and run either arm.
///
/// Sources made of several parts (shards, memtables, segments) sum their
/// parts' collisions, feed every part's probed buckets into the one
/// accumulator, dedup each part separately (live ids are disjoint across
/// parts) and report hits under global ids.
pub(crate) trait Level {
    /// The point type of queries and data.
    type Point: ?Sized;
    /// The probed buckets (S1), kept for S2 and the LSH arm.
    type Probe<'a>
    where
        Self: 'a;

    /// The live point count `n` the linear arm's cost is charged on.
    fn n(&self) -> usize;

    /// The HLL configuration every part's sketches share.
    fn hll_config(&self) -> HllConfig;

    /// The cost model the arm decision runs on.
    fn cost_model(&self) -> CostModel;

    /// S1: the probed buckets and the collision count (live members
    /// only).
    fn probe(&self, q: &Self::Point) -> (Self::Probe<'_>, usize);

    /// S2: merges the probed buckets into `acc`.
    fn contribute(&self, probe: &Self::Probe<'_>, acc: &mut MergeAccumulator);

    /// The LSH arm's S3: dedups the probed members on the part of
    /// `dedup` this source uses, verifies them, and appends the hits
    /// within `r` to `out`. Returns the distinct candidate count.
    fn lsh_into<H: Hit>(
        &self,
        probe: &Self::Probe<'_>,
        q: &Self::Point,
        r: f64,
        verify: VerifyMode,
        dedup: &mut Dedup,
        out: &mut Vec<H>,
    ) -> usize;

    /// The linear arm's S3: scans every live point and appends the hits
    /// within `r` to `out`.
    fn scan_into<H: Hit>(&self, q: &Self::Point, r: f64, verify: VerifyMode, out: &mut Vec<H>);

    /// The top-k walk's exact fallback: every live point exactly once as
    /// `(id, distance)` (see [`crate::topk::fallback_scan_pairs`]).
    fn fallback_pairs(&self, q: &Self::Point, verify: VerifyMode) -> Vec<(PointId, f64)>;
}

impl<S, F, D, B> Level for HybridLshIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    type Point = S::Point;
    type Probe<'a>
        = Vec<BucketRef<'a>>
    where
        Self: 'a;

    fn n(&self) -> usize {
        self.len()
    }

    fn hll_config(&self) -> HllConfig {
        HybridLshIndex::hll_config(self)
    }

    fn cost_model(&self) -> CostModel {
        HybridLshIndex::cost_model(self)
    }

    fn probe(&self, q: &S::Point) -> (Vec<BucketRef<'_>>, usize) {
        HybridLshIndex::probe(self, q)
    }

    fn contribute(&self, probe: &Vec<BucketRef<'_>>, acc: &mut MergeAccumulator) {
        for b in probe {
            b.contribute_to(acc);
        }
    }

    /// Dedups with the bitmap, then verifies the whole candidate list in
    /// one batched distance-filter call (under [`VerifyMode::Kernel`], a
    /// one-to-many kernel straight over the dataset's flat storage).
    /// Output order is first-collision order, filtered.
    fn lsh_into<H: Hit>(
        &self,
        probe: &Vec<BucketRef<'_>>,
        q: &S::Point,
        r: f64,
        verify: VerifyMode,
        Dedup { bitmap, cands, .. }: &mut Dedup,
        out: &mut Vec<H>,
    ) -> usize {
        cands.clear();
        bitmap.dedup_into(self.len(), probe.iter().map(BucketRef::members), cands);
        verify.verify(self.distance(), self.data(), cands, q, r, out);
        cands.len()
    }

    fn scan_into<H: Hit>(&self, q: &S::Point, r: f64, verify: VerifyMode, out: &mut Vec<H>) {
        verify.scan(self.distance(), self.data(), q, r, out);
    }

    fn fallback_pairs(&self, q: &S::Point, verify: VerifyMode) -> Vec<(PointId, f64)> {
        crate::topk::fallback_scan_pairs(self.data(), self.distance(), q, verify)
    }
}

/// Clears and returns the merge accumulator in `slot` for `config`,
/// recreating it only when the config changes between sources.
pub(crate) fn ensure_accumulator(
    slot: &mut Option<MergeAccumulator>,
    config: HllConfig,
) -> &mut MergeAccumulator {
    match &mut *slot {
        Some(acc) if acc.config() == config => acc.clear(),
        other => *other = Some(MergeAccumulator::new(config)),
    }
    slot.as_mut().expect("accumulator just ensured")
}

/// What Algorithm 2 does with one level query once S1 and S2 have run
/// (see [`decide`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Run this arm now.
    Run(ExecutedArm),
    /// Run neither arm now — the top-k walk's skip threshold fired — and
    /// this one if the level is revisited.
    Defer(ExecutedArm),
}

/// Algorithm 2 lines 3–4 and the top-k level skip: the one statement of
/// the arm decision, shared by every in-process level query and the
/// distributed coordinator.
///
/// Under [`Strategy::Hybrid`] the arm is LSH iff
/// `α·collisions + β·estimate < β·n` ([`CostModel::prefer_lsh`]);
/// [`Strategy::LshOnly`] and [`Strategy::LinearOnly`] force their arm.
/// `estimate` is the merged candSize estimate, `None` only when no
/// sketch was merged (an `LshOnly` query without a threshold, or a
/// `LinearOnly` query). With `skip_at_most = Some(t)` the decision is
/// [`Decision::Defer`] when the estimate is at most `t`; a
/// `LinearOnly` query forms no candidate set and is never deferred.
pub fn decide(
    cost: CostModel,
    strategy: Strategy,
    collisions: usize,
    estimate: Option<f64>,
    n: usize,
    skip_at_most: Option<f64>,
) -> Decision {
    let arm = match (strategy, estimate) {
        (Strategy::LinearOnly, _) => return Decision::Run(ExecutedArm::Linear),
        (Strategy::Hybrid, Some(estimate)) if !cost.prefer_lsh(collisions, estimate, n) => {
            ExecutedArm::Linear
        }
        _ => ExecutedArm::Lsh,
    };
    match (estimate, skip_at_most) {
        (Some(estimate), Some(at_most)) if estimate <= at_most => Decision::Defer(arm),
        _ => Decision::Run(arm),
    }
}

/// Reusable scratch for the level query — the dedup scratch (candidate
/// list included) and the merge accumulator — plus the S3 verification
/// mode. Every [`Engine`] holds one.
#[derive(Debug, Default)]
pub(crate) struct LevelEngine {
    dedup: Dedup,
    acc: Option<MergeAccumulator>,
    pub(crate) verify: VerifyMode,
}

impl LevelEngine {
    /// One Algorithm 2 query against `level`, generic over what step S3
    /// emits: ids ([`PointId`], the rNNR answer) or `(id, distance)`
    /// pairs (the top-k walk, which ranks by the distances the filter
    /// already computed). Both instantiations report the same ids in the
    /// same order with the same [`QueryReport`].
    ///
    /// Lines 1–2 (probe, merge) run here; lines 3–4 are [`decide`]. With
    /// `skip_at_most = Some(t)` a query whose estimated distinct-candidate
    /// count is at most `t` is deferred: neither arm runs, and
    /// `Err(arm)` carries the arm it would have run, for a later
    /// [`run_arm`](Self::run_arm). This is the top-k walk's level
    /// filter: a schedule level whose predicted candidates are all
    /// already verified cannot improve the heap, and deciding that from
    /// the sketches costs `O(mL)` — the same probe + merge work the
    /// executed query needs anyway, done once here. Under
    /// [`Strategy::LinearOnly`] nothing is probed and the query always
    /// runs. Under [`Strategy::LshOnly`] the sketches are merged only
    /// when a threshold needs the estimate, and the report's
    /// `cand_size_estimate` then carries it; without one it carries the
    /// exact candidate count.
    pub(crate) fn query_hits<L, H>(
        &mut self,
        level: &L,
        q: &L::Point,
        r: f64,
        strategy: Strategy,
        skip_at_most: Option<f64>,
    ) -> Result<(Vec<H>, QueryReport), ExecutedArm>
    where
        L: Level,
        H: Hit,
    {
        let t_start = Instant::now();
        // Algorithm 2 lines 1–2: collisions + candSize estimate.
        let (mut probe, mut collisions, mut estimate) = (None, 0, None);
        let (mut hash_nanos, mut hll_nanos) = (0, 0);
        if !matches!(strategy, Strategy::LinearOnly) {
            let t_hash = Instant::now();
            let (probed, c) = level.probe(q);
            hash_nanos = t_hash.elapsed().as_nanos() as u64;
            if !matches!(strategy, Strategy::LshOnly) || skip_at_most.is_some() {
                let t_hll = Instant::now();
                let acc = ensure_accumulator(&mut self.acc, level.hll_config());
                level.contribute(&probed, acc);
                estimate = Some(acc.estimate());
                hll_nanos = t_hll.elapsed().as_nanos() as u64;
            }
            (probe, collisions) = (Some(probed), c);
        }

        // Lines 3–4: compare costs, run the cheaper arm.
        let executed = match decide(
            level.cost_model(),
            strategy,
            collisions,
            estimate,
            level.n(),
            skip_at_most,
        ) {
            Decision::Defer(arm) => return Err(arm),
            Decision::Run(arm) => arm,
        };
        let mut hits = Vec::new();
        let cand_actual = match (executed, &probe) {
            // `decide` picks LSH only for a probed (non-LinearOnly) query.
            (ExecutedArm::Lsh, Some(probe)) => {
                Some(level.lsh_into(probe, q, r, self.verify, &mut self.dedup, &mut hits))
            }
            _ => {
                level.scan_into(q, r, self.verify, &mut hits);
                None
            }
        };
        let report = QueryReport {
            executed,
            collisions,
            // Only LshOnly skips the estimate, and its arm always
            // counts the candidates exactly; LinearOnly reports 0.
            cand_size_estimate: estimate.unwrap_or(cand_actual.unwrap_or_default() as f64),
            cand_size_actual: cand_actual,
            output_size: hits.len(),
            hash_nanos,
            hll_nanos,
            total_nanos: t_start.elapsed().as_nanos() as u64,
        };
        Ok((hits, report))
    }

    /// Runs an arm already decided — a deferred top-k level on revisit,
    /// or the arm a distributed coordinator chose — on `level`, with no
    /// sketch merge: the LSH arm probes and verifies, the linear arm
    /// scans. Hits come in the order [`query_hits`](Self::query_hits)
    /// produces them.
    pub(crate) fn run_arm<L, H>(
        &mut self,
        level: &L,
        q: &L::Point,
        r: f64,
        arm: ExecutedArm,
    ) -> Vec<H>
    where
        L: Level,
        H: Hit,
    {
        let mut hits = Vec::new();
        match arm {
            ExecutedArm::Lsh => {
                let (probe, _) = level.probe(q);
                level.lsh_into(&probe, q, r, self.verify, &mut self.dedup, &mut hits);
            }
            ExecutedArm::Linear => level.scan_into(q, r, self.verify, &mut hits),
        }
        hits
    }

    /// The rNNR answer of one level query (no skip threshold).
    pub(crate) fn query<L>(
        &mut self,
        level: &L,
        q: &L::Point,
        r: f64,
        strategy: Strategy,
    ) -> QueryOutput
    where
        L: Level,
    {
        let (ids, report) = self
            .query_hits(level, q, r, strategy, None)
            .expect("a query without a skip threshold always runs");
        QueryOutput { ids, report }
    }

    /// [`query`](Self::query) with the ids sorted ascending — the
    /// canonical rNNR order of the sharded and segmented deployments,
    /// where first-collision order is not meaningful across parts.
    pub(crate) fn query_sorted<L>(
        &mut self,
        level: &L,
        q: &L::Point,
        r: f64,
        strategy: Strategy,
    ) -> QueryOutput
    where
        L: Level,
    {
        let mut out = self.query(level, q, r, strategy);
        out.ids.sort_unstable();
        out
    }
}

/// An rNNR index an [`Engine`] answers: the single
/// [`HybridLshIndex`], the [`ShardedIndex`](crate::ShardedIndex) and the
/// living [`SegmentedIndex`](crate::SegmentedIndex). Sealed.
pub trait RnnrIndex {
    /// The point type of queries.
    type Point: ?Sized;

    /// One query on an engine's scratch.
    #[doc(hidden)]
    fn rnnr(&self, s: &mut Scratch, q: &Self::Point, r: f64, strategy: Strategy) -> QueryOutput;

    /// Answers a batch of queries under `strategy` across `threads`
    /// scoped threads (`None` = all available cores), one [`Engine`]
    /// per thread. Outputs are in input order and byte-identical to a
    /// sequential [`Engine::query_with_strategy`] loop.
    fn query_batch_with_strategy<Q>(
        &self,
        queries: &[Q],
        r: f64,
        strategy: Strategy,
        threads: Option<usize>,
    ) -> Vec<QueryOutput>
    where
        Self: Sync,
        Q: AsRef<Self::Point> + Sync,
    {
        par_queries(queries.len(), threads, |engine, qi| {
            engine.query_with_strategy(self, queries[qi].as_ref(), r, strategy)
        })
    }
}

/// A top-k ladder an [`Engine`] walks: the single
/// [`TopKIndex`](crate::TopKIndex), the
/// [`ShardedTopKIndex`](crate::ShardedTopKIndex) and the living
/// [`SegmentedTopKIndex`](crate::SegmentedTopKIndex). Sealed.
pub trait TopKLadder {
    /// The point type of queries.
    type Point: ?Sized;

    /// One walk on an engine's scratch.
    #[doc(hidden)]
    fn topk(&self, s: &mut Scratch, q: &Self::Point, k: usize, strategy: Strategy) -> TopKOutput;

    /// Answers a batch of top-k queries, every executed level under
    /// `strategy`, across `threads` scoped threads (`None` = all
    /// available cores), one [`Engine`] per thread. Outputs are in
    /// input order and byte-identical to a sequential
    /// [`Engine::query_topk_with`] loop.
    fn query_topk_batch_with<Q>(
        &self,
        queries: &[Q],
        k: usize,
        strategy: Strategy,
        threads: Option<usize>,
    ) -> Vec<TopKOutput>
    where
        Self: Sync,
        Q: AsRef<Self::Point> + Sync,
    {
        par_queries(queries.len(), threads, |engine, qi| {
            engine.query_topk_with(self, queries[qi].as_ref(), k, strategy)
        })
    }
}

/// The one batch path: `f(engine, qi)` for every query index in
/// `0..len` over scoped threads, one [`Engine`] per thread, outputs in
/// input order.
pub(crate) fn par_queries<T, F>(len: usize, threads: Option<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Engine, usize) -> T + Sync,
{
    par_map_with(len, threads, Engine::new, f)
}

/// Seals [`RnnrIndex`] and [`TopKLadder`]: their one method takes an
/// engine's scratch, which no other crate can name.
pub(crate) mod sealed {
    /// An [`Engine`](super::Engine)'s scratch: the level query's and
    /// the top-k walk's.
    #[derive(Debug, Default)]
    pub struct Scratch {
        pub(crate) level: super::LevelEngine,
        pub(crate) walk: crate::topk::TopKWalk,
    }
}

pub(crate) use sealed::Scratch;

/// Reusable scratch for rNNR and top-k queries against any index: the
/// level query's dedup scratch and merge accumulator, and the top-k
/// walk's heap and offered-id set.
///
/// One engine serves one thread: methods take `&mut self` and recycle
/// the scratch between calls, also across indexes of different types
/// and sizes. Results are identical to the allocate-per-query path.
#[derive(Debug, Default)]
pub struct Engine(Scratch);

/// The engine of a single [`HybridLshIndex`] (an alias of [`Engine`]).
pub type QueryEngine = Engine;

impl Engine {
    /// Creates an engine with empty scratch and the default
    /// [`VerifyMode::Kernel`] distance filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with an explicit S3 verification mode
    /// ([`VerifyMode::Scalar`] forces per-candidate `distance()` calls;
    /// useful as a benchmark baseline). Top-k output is identical across
    /// modes — the mode only changes how the radius filter is computed.
    pub fn with_verify_mode(verify: VerifyMode) -> Self {
        let level = LevelEngine { verify, ..LevelEngine::default() };
        Self(Scratch { level, ..Scratch::default() })
    }

    /// The S3 verification mode in force.
    pub fn verify_mode(&self) -> VerifyMode {
        self.0.level.verify
    }

    /// Hybrid query (Algorithm 2) with reused scratch.
    pub fn query<I>(&mut self, index: &I, q: &I::Point, r: f64) -> QueryOutput
    where
        I: RnnrIndex + ?Sized,
    {
        self.query_with_strategy(index, q, r, Strategy::Hybrid)
    }

    /// Runs a query under an explicit strategy with reused scratch. On
    /// a single index ids come in first-collision order from the LSH
    /// arm, ascending from the linear arm. A sharded or segmented index
    /// decides once on statistics merged over its parts, runs the arm
    /// on every part, and reports global ids ascending.
    pub fn query_with_strategy<I>(
        &mut self,
        index: &I,
        q: &I::Point,
        r: f64,
        strategy: Strategy,
    ) -> QueryOutput
    where
        I: RnnrIndex + ?Sized,
    {
        index.rnnr(&mut self.0, q, r, strategy)
    }

    /// Answers one top-k query under the default per-level
    /// [`Strategy::Hybrid`].
    pub fn query_topk<I>(&mut self, index: &I, q: &I::Point, k: usize) -> TopKOutput
    where
        I: TopKLadder + ?Sized,
    {
        self.query_topk_with(index, q, k, Strategy::Hybrid)
    }

    /// Answers one top-k query, running every executed level's rNNR
    /// query under `strategy`. On a sharded or segmented ladder every
    /// decision of the walk is made on merged statistics.
    pub fn query_topk_with<I>(
        &mut self,
        index: &I,
        q: &I::Point,
        k: usize,
        strategy: Strategy,
    ) -> TopKOutput
    where
        I: TopKLadder + ?Sized,
    {
        index.topk(&mut self.0, q, k, strategy)
    }
}

impl<S, F, D, B> RnnrIndex for HybridLshIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    type Point = S::Point;

    fn rnnr(&self, s: &mut Scratch, q: &S::Point, r: f64, strategy: Strategy) -> QueryOutput {
        s.level.query(self, q, r, strategy)
    }
}

impl<S, F, D, B> HybridLshIndex<S, F, D, B>
where
    S: PointSet + Sync,
    F: LshFamily<S::Point> + Sync,
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
    /// count (`None` = all available cores); see
    /// [`RnnrIndex::query_batch_with_strategy`].
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
        RnnrIndex::query_batch_with_strategy(self, queries, r, strategy, threads)
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
        par_queries(queries.len(), threads, |engine, qi| {
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
