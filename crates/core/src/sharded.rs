//! Sharded indexes: partition the data across `N` independent indexes
//! and answer queries by merging per-shard outputs.
//!
//! The hybrid rNNR design partitions cleanly: per-shard candidate sets
//! union to exactly the unsharded candidate set, and per-shard
//! HyperLogLog sketches merge losslessly (registers are element-wise
//! maxima). Two properties make the merge *byte-identical* to an
//! unsharded index over the same data, not merely equivalent in
//! expectation:
//!
//! 1. **Shared randomness, global ids** — every shard samples its
//!    g-functions and HLL hash from the same builder seed, so a point
//!    hashes to the same bucket key in its shard as it would in the
//!    unsharded index; and shard tables store the points' **global**
//!    ids (the build pipeline's id-mapping hook), so bucket members
//!    *and sketch element hashes* are exactly the global bucket
//!    restricted to the shard's points. Without global ids the merged
//!    registers would encode local row numbers and shard-count-
//!    dependent estimates would leak into the walk's decisions.
//! 2. **Global decisions** — Algorithm 2's cost comparison and the
//!    top-k engine's skip/early-exit decisions run once per query on
//!    the *merged* statistics (summed collision counts, one
//!    accumulator over every shard's probed sketches, the global `n`,
//!    and a cost model calibrated once on the full data), never
//!    per-shard. Merged registers equal the unsharded registers, so
//!    every decision matches the unsharded walk bit for bit.
//!
//! With both in place, [`ShardedIndex`] reports exactly the unsharded
//! result set (ids canonically sorted ascending — the shard merge's
//! natural order; the unsharded LSH arm's first-collision order is not
//! meaningful across shards), and [`ShardedTopKIndex`] produces
//! byte-identical `(distance, id)` rankings and reports, because a
//! bounded heap's content depends only on the *set* of offered
//! candidates, which is preserved level by level. `tests/
//! sharded_props.rs` pins both contracts across shard counts, storage
//! backends and verify modes.
//!
//! Shards are built in parallel (one worker per shard via
//! [`hlsh_vec::parallel::par_map_with`], each running the blocked build
//! pipeline) and hold disjoint copies of their rows, so the total
//! resident data equals the unsharded index and each shard is a
//! self-contained unit ready to migrate to another machine.

use std::ops::Range;
use std::sync::Arc;

use hlsh_families::LshFamily;
use hlsh_hll::hash::splitmix64;
use hlsh_hll::{HllConfig, MergeAccumulator};
use hlsh_vec::parallel::par_map_with;
use hlsh_vec::{Distance, Hit, PointId, PointSet, SubsetPointSet};

use crate::bucket::BucketRef;
use crate::builder::IndexBuilder;
use crate::cost::CostModel;
use crate::dedup::SeenBitmap;
use crate::engine::{ensure_accumulator, Level, LevelEngine};
use crate::index::HybridLshIndex;
use crate::report::QueryOutput;
use crate::schedule::RadiusSchedule;
use crate::search::{ExecutedArm, Strategy, VerifyMode};
use crate::store::{BucketStore, FrozenStore, MapStore};
use crate::topk::{TopKIndex, TopKOutput, TopKWalk};

/// Deterministic seeded assignment of global point ids to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardAssignment {
    seed: u64,
    shards: usize,
}

impl ShardAssignment {
    /// An assignment of points to `shards` shards, mixed by `seed`.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(seed: u64, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self { seed, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The assignment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning global point `id` — a pure function of
    /// `(seed, shards, id)`, so any party can recompute placements.
    #[inline]
    pub fn shard_of(&self, id: PointId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (splitmix64(self.seed ^ 0x5348_4152_4431_5458 ^ id as u64) % self.shards as u64) as usize
    }

    /// Partitions ids `0..n` into per-shard owner lists; list `s` holds
    /// shard `s`'s global ids in ascending order (which is also each
    /// shard's local insertion order).
    pub fn partition(&self, n: usize) -> Vec<Vec<PointId>> {
        let mut owners: Vec<Vec<PointId>> = vec![Vec::new(); self.shards];
        for id in 0..n {
            owners[self.shard_of(id as PointId)].push(id as PointId);
        }
        owners
    }
}

/// An rNNR index partitioned across `N` shards; see the module docs for
/// the byte-identity contract.
pub struct ShardedIndex<S, F, D, B = MapStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    shards: Vec<HybridLshIndex<S, F, D, B>>,
    /// `owners[s][local] = global` (ascending per shard).
    owners: Vec<Vec<PointId>>,
    /// `local_of[global] = local` (the shard is implied by the
    /// assignment); translates global bucket members to rows of their
    /// shard's slab for verification.
    local_of: Vec<PointId>,
    assignment: ShardAssignment,
    n: usize,
}

/// Inverts per-shard owner lists into the `global → local` table.
fn invert_owners(owners: &[Vec<PointId>], n: usize) -> Vec<PointId> {
    let mut local_of = vec![0 as PointId; n];
    for ids in owners {
        for (local, &global) in ids.iter().enumerate() {
            local_of[global as usize] = local as PointId;
        }
    }
    local_of
}

/// Relabels the hits `out` gained since `start` from source-local rows
/// to global ids, in place and in order, dropping every row `to_global`
/// maps to `None` (a dead or tombstoned row of a segmented source).
pub(crate) fn relabel_from<H: Hit>(
    out: &mut Vec<H>,
    start: usize,
    to_global: impl Fn(PointId) -> Option<PointId>,
) {
    let mut kept = start;
    for i in start..out.len() {
        let hit = out[i];
        if let Some(id) = to_global(hit.id()) {
            out[kept] = hit.with_id(id);
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// Some shards of a sharded deployment at one level — the rNNR index,
/// or one rung of the top-k ladder — as one Algorithm 2 source.
///
/// Shard tables store global ids and share the builder's seed, so the
/// shards' buckets partition the unsharded buckets: collisions sum, the
/// probed sketches merge into the unsharded registers, and each shard
/// dedups its own members (global ids, translated to rows of its slab
/// for verification). Hits are reported under global ids, shard by
/// shard. The engines view every shard; a shard node views its own.
pub(crate) struct ShardedLevel<'a, T, F, D, B>
where
    T: PointSet,
    F: LshFamily<T::Point>,
    D: Distance<T::Point>,
    B: BucketStore,
{
    /// Each viewed shard's index at this level.
    shards: Vec<&'a HybridLshIndex<T, F, D, B>>,
    /// The viewed shards' owner lists (`owners[s][local] = global`).
    owners: &'a [Vec<PointId>],
    /// `local_of[global] = local` over the whole id space.
    local_of: &'a [PointId],
    /// The global point count.
    n: usize,
}

impl<T, F, D, B> Level for ShardedLevel<'_, T, F, D, B>
where
    T: PointSet,
    F: LshFamily<T::Point>,
    D: Distance<T::Point>,
    B: BucketStore,
{
    type Point = T::Point;
    type Seen = SeenBitmap;
    type Probe<'p>
        = Vec<Vec<BucketRef<'p>>>
    where
        Self: 'p;

    fn n(&self) -> usize {
        self.n
    }

    fn hll_config(&self) -> HllConfig {
        self.shards[0].hll_config()
    }

    /// Resolved once on the full data at build time and shared by every
    /// shard.
    fn cost_model(&self) -> CostModel {
        self.shards[0].cost_model()
    }

    fn probe(&self, q: &T::Point) -> (Vec<Vec<BucketRef<'_>>>, usize) {
        let mut collisions = 0;
        let probe = self
            .shards
            .iter()
            .map(|shard| {
                let (buckets, c) = shard.probe(q);
                collisions += c;
                buckets
            })
            .collect();
        (probe, collisions)
    }

    fn contribute(&self, probe: &Vec<Vec<BucketRef<'_>>>, acc: &mut MergeAccumulator) {
        for b in probe.iter().flatten() {
            b.contribute_to(acc);
        }
    }

    fn lsh_into<H: Hit>(
        &self,
        probe: &Vec<Vec<BucketRef<'_>>>,
        q: &T::Point,
        r: f64,
        verify: VerifyMode,
        (seen, cands): (&mut SeenBitmap, &mut Vec<PointId>),
        out: &mut Vec<H>,
    ) -> usize {
        let mut distinct = 0;
        for ((shard, owners), buckets) in self.shards.iter().zip(self.owners).zip(probe) {
            cands.clear();
            seen.dedup_into(self.local_of.len(), buckets.iter().map(BucketRef::members), cands);
            for c in cands.iter_mut() {
                *c = self.local_of[*c as usize];
            }
            let start = out.len();
            verify.verify(shard.distance(), shard.data(), cands, q, r, out);
            relabel_from(out, start, |local| Some(owners[local as usize]));
            distinct += cands.len();
        }
        distinct
    }

    fn scan_into<H: Hit>(&self, q: &T::Point, r: f64, verify: VerifyMode, out: &mut Vec<H>) {
        for (shard, owners) in self.shards.iter().zip(self.owners) {
            let start = out.len();
            verify.scan(shard.distance(), shard.data(), q, r, out);
            relabel_from(out, start, |local| Some(owners[local as usize]));
        }
    }

    fn fallback_pairs(&self, q: &T::Point, verify: VerifyMode) -> Vec<(PointId, f64)> {
        let mut pairs = Vec::with_capacity(self.shards.iter().map(|shard| shard.len()).sum());
        for (shard, owners) in self.shards.iter().zip(self.owners) {
            let shard_pairs =
                crate::topk::fallback_scan_pairs(shard.data(), shard.distance(), q, verify);
            pairs.extend(shard_pairs.into_iter().map(|(l, d)| (owners[l as usize], d)));
        }
        pairs
    }
}

impl<S, F, D> ShardedIndex<S, F, D, MapStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
{
    /// Partitions `data` per `assignment` and builds one index per
    /// shard — in parallel, each through the blocked build pipeline.
    ///
    /// The cost model is resolved **once on the full data** (explicit
    /// model or one calibration) and shared by every shard; the builder
    /// seed is shared too, so all shards sample identical g-functions.
    /// Consumes `data`: after the per-shard copies are cut, the
    /// original is dropped, keeping resident memory at one copy.
    pub fn build(data: S, assignment: ShardAssignment, builder: IndexBuilder<F, D>) -> Self {
        Self::build_each(data, assignment, &builder, |b, sub, cost, ids| {
            b.cost_model(cost).build_mapped(sub, Some(ids))
        })
    }

    /// Converts every shard to the read-optimised [`FrozenStore`];
    /// query results are byte-identical before and after.
    pub fn freeze(self) -> ShardedIndex<S, F, D, FrozenStore> {
        ShardedIndex {
            shards: self.shards.into_iter().map(HybridLshIndex::freeze).collect(),
            owners: self.owners,
            local_of: self.local_of,
            assignment: self.assignment,
            n: self.n,
        }
    }
}

impl<S, F, D> ShardedIndex<S, F, D, FrozenStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
{
    /// Like [`ShardedIndex::build`] but every shard's tables are laid
    /// out directly as frozen CSR arenas (no intermediate hashmaps).
    pub fn build_frozen(data: S, assignment: ShardAssignment, builder: IndexBuilder<F, D>) -> Self {
        Self::build_each(data, assignment, &builder, |b, sub, cost, ids| {
            b.cost_model(cost).build_frozen_mapped(sub, Some(ids))
        })
    }

    /// Converts every shard back to the mutable [`MapStore`] backend.
    pub fn thaw(self) -> ShardedIndex<S, F, D, MapStore> {
        ShardedIndex {
            shards: self.shards.into_iter().map(HybridLshIndex::thaw).collect(),
            owners: self.owners,
            local_of: self.local_of,
            assignment: self.assignment,
            n: self.n,
        }
    }

    /// Reassembles a sharded index from already-built shards and their
    /// persisted owner lists — the snapshot loader's entry point.
    /// `local_of` is recomputed from `owners`, which is the one
    /// direction that is always consistent.
    ///
    /// # Panics
    /// Panics if the shapes disagree: shard count vs assignment, owner
    /// list lengths vs shard sizes, or owner ids out of `0..n`.
    pub(crate) fn assemble(
        shards: Vec<HybridLshIndex<S, F, D, FrozenStore>>,
        owners: Vec<Vec<PointId>>,
        assignment: ShardAssignment,
        n: usize,
    ) -> Self {
        assert_eq!(shards.len(), assignment.shards(), "one shard index per assignment shard");
        assert_eq!(owners.len(), shards.len(), "one owner list per shard");
        assert_eq!(owners.iter().map(Vec::len).sum::<usize>(), n, "owner lists must cover 0..n");
        for (shard, ids) in shards.iter().zip(&owners) {
            assert_eq!(shard.len(), ids.len(), "shard size must match its owner list");
            assert!(ids.iter().all(|&g| (g as usize) < n), "owner id out of range");
        }
        let local_of = invert_owners(&owners, n);
        Self { shards, owners, local_of, assignment, n }
    }
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Shared shard-construction scaffold: partition, resolve the
    /// global cost model, cut each shard's subset inside its worker and
    /// build it there.
    fn build_each(
        data: S,
        assignment: ShardAssignment,
        builder: &IndexBuilder<F, D>,
        build_one: impl Fn(
                IndexBuilder<F, D>,
                S,
                crate::cost::CostModel,
                &[PointId],
            ) -> HybridLshIndex<S, F, D, B>
            + Sync,
    ) -> Self
    where
        S: Send,
        HybridLshIndex<S, F, D, B>: Send,
    {
        let n = data.len();
        let owners = assignment.partition(n);
        let local_of = invert_owners(&owners, n);
        let cost = builder.resolve_cost(&data);
        // One worker per shard; nested table-parallelism is pointless
        // once shards already fan out, so inner builds go sequential
        // whenever more than one shard exists.
        let inner_sequential = owners.len() > 1;
        let data_ref = &data;
        let owners_ref = &owners;
        let build_one_ref = &build_one;
        let shards = par_map_with(
            owners.len(),
            None,
            || (),
            |_, si| {
                let sub = data_ref.subset(&owners_ref[si]);
                let mut b = builder.clone();
                if inner_sequential {
                    b = b.sequential();
                }
                build_one_ref(b, sub, cost, &owners_ref[si])
            },
        );
        drop(data);
        Self { shards, owners, local_of, assignment, n }
    }
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Total indexed points across all shards.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The shard assignment in force.
    pub fn assignment(&self) -> ShardAssignment {
        self.assignment
    }

    /// The per-shard indexes. **Caution:** shard tables store *global*
    /// ids (so sketches merge byte-identically with the unsharded
    /// index), which do not index the shard's own data slab — query
    /// them through the sharded engines, never directly.
    pub fn shards(&self) -> &[HybridLshIndex<S, F, D, B>] {
        &self.shards
    }

    /// Shard `s`'s global ids, ascending (`owners[local] = global`).
    pub fn global_ids(&self, shard: usize) -> &[PointId] {
        &self.owners[shard]
    }

    /// Shards `shards` as one Algorithm 2 source.
    fn view(&self, shards: Range<usize>) -> ShardedLevel<'_, S, F, D, B> {
        ShardedLevel {
            shards: self.shards[shards.clone()].iter().collect(),
            owners: &self.owners[shards],
            local_of: &self.local_of,
            n: self.n,
        }
    }

    /// Hybrid query (Algorithm 2 with a global decision); allocates
    /// fresh scratch. Batch workloads should prefer
    /// [`query_batch`](Self::query_batch) or a reused
    /// [`ShardedQueryEngine`].
    pub fn query(&self, q: &S::Point, r: f64) -> QueryOutput {
        ShardedQueryEngine::new().query(self, q, r)
    }

    /// Runs a query under an explicit strategy; see
    /// [`ShardedQueryEngine::query_with_strategy`].
    pub fn query_with_strategy(&self, q: &S::Point, r: f64, strategy: Strategy) -> QueryOutput {
        ShardedQueryEngine::new().query_with_strategy(self, q, r, strategy)
    }
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: PointSet + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// Answers a batch of hybrid queries, sharded across all available
    /// cores (each query still fans over every index shard). Outputs
    /// are in input order, ids ascending per query.
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
        par_map_with(queries.len(), threads, ShardedQueryEngine::new, |engine, qi| {
            engine.query_with_strategy(self, queries[qi].as_ref(), r, strategy)
        })
    }
}

/// Reusable scratch for querying a [`ShardedIndex`]: per-shard dedup
/// bitmap and candidate list plus the *global* merge accumulator.
#[derive(Debug, Default)]
pub struct ShardedQueryEngine(LevelEngine<SeenBitmap>);

impl ShardedQueryEngine {
    /// Engine with empty scratch and the default kernel verify mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit S3 verification mode.
    pub fn with_verify_mode(verify: VerifyMode) -> Self {
        Self(LevelEngine::with_verify_mode(verify))
    }

    /// The S3 verification mode in force.
    pub fn verify_mode(&self) -> VerifyMode {
        self.0.verify_mode()
    }

    /// Hybrid query with reused scratch.
    pub fn query<S, F, D, B>(
        &mut self,
        index: &ShardedIndex<S, F, D, B>,
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

    /// Runs one query across every shard under `strategy`.
    ///
    /// S1 probes all shards, S2 merges every probed sketch into one
    /// accumulator, the Algorithm 2 decision compares the *global*
    /// costs once, and the chosen arm then runs on every shard; shard
    /// outputs are mapped to global ids and reported in ascending-id
    /// order. The reported id *set* is identical to the unsharded
    /// index's under the same strategy (see the module docs).
    pub fn query_with_strategy<S, F, D, B>(
        &mut self,
        index: &ShardedIndex<S, F, D, B>,
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
        self.0.query_sorted(&index.view(0..index.shards.len()), q, r, strategy)
    }
}

/// A top-k index partitioned across shards: one [`TopKIndex`] (a full
/// radius-schedule ladder) per shard, walked by a *global* engine.
///
/// Per-shard heaps are merged through the same bounded `(distance, id)`
/// heap the unsharded engine uses — and because every walk decision
/// (skip, early exit, fallback, arm choice) is made on merged
/// statistics, the final ranking and report are byte-identical to the
/// unsharded [`TopKIndex`] over the same data.
pub struct ShardedTopKIndex<S, F, D, B = MapStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    shards: Vec<TopKIndex<S, F, D, B>>,
    owners: Vec<Vec<PointId>>,
    local_of: Vec<PointId>,
    assignment: ShardAssignment,
    schedule: RadiusSchedule,
    n: usize,
}

impl<S, F, D> ShardedTopKIndex<S, F, D, MapStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    F::GFn: Send,
    D: Distance<S::Point>,
{
    /// Partitions `data` and builds one schedule ladder per shard, in
    /// parallel.
    ///
    /// `level_builder(level, radius)` configures each level exactly as
    /// for [`TopKIndex::build`]; it must be `Fn` (not `FnMut`) because
    /// it is re-invoked per `(shard, level)` from parallel workers.
    /// Each level's cost model is resolved once on the **full** data
    /// and shared by that level's builders in every shard, keeping the
    /// walk's arm decisions byte-identical to the unsharded ladder.
    pub fn build<M>(
        data: S,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        level_builder: M,
    ) -> Self
    where
        M: Fn(usize, f64) -> IndexBuilder<F, D> + Sync,
        D: Sync,
        F: Sync,
        TopKIndex<S, F, D, MapStore>: Send,
    {
        let n = data.len();
        let owners = assignment.partition(n);
        let local_of = invert_owners(&owners, n);
        let level_costs: Vec<crate::cost::CostModel> = schedule
            .radii()
            .enumerate()
            .map(|(li, r)| level_builder(li, r).resolve_cost(&data))
            .collect();
        let inner_sequential = owners.len() > 1;
        let data_ref = &data;
        let owners_ref = &owners;
        let level_builder_ref = &level_builder;
        let level_costs_ref = &level_costs;
        let shards = par_map_with(
            owners.len(),
            None,
            || (),
            |_, si| {
                let sub = data_ref.subset(&owners_ref[si]);
                TopKIndex::build_mapped(
                    sub,
                    schedule,
                    |li, r| {
                        let mut b = level_builder_ref(li, r).cost_model(level_costs_ref[li]);
                        if inner_sequential {
                            b = b.sequential();
                        }
                        b
                    },
                    Some(&owners_ref[si]),
                )
            },
        );
        drop(data);
        Self { shards, owners, local_of, assignment, schedule, n }
    }

    /// Freezes every shard's every level into the CSR arena backend.
    pub fn freeze(self) -> ShardedTopKIndex<S, F, D, FrozenStore> {
        ShardedTopKIndex {
            shards: self.shards.into_iter().map(TopKIndex::freeze).collect(),
            owners: self.owners,
            local_of: self.local_of,
            assignment: self.assignment,
            schedule: self.schedule,
            n: self.n,
        }
    }
}

impl<S, F, D> ShardedTopKIndex<S, F, D, FrozenStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Converts every shard back to the mutable backend.
    pub fn thaw(self) -> ShardedTopKIndex<S, F, D, MapStore> {
        ShardedTopKIndex {
            shards: self.shards.into_iter().map(TopKIndex::thaw).collect(),
            owners: self.owners,
            local_of: self.local_of,
            assignment: self.assignment,
            schedule: self.schedule,
            n: self.n,
        }
    }

    /// Reassembles a sharded ladder from already-built per-shard
    /// ladders and their persisted owner lists — the snapshot loader's
    /// entry point. `local_of` is recomputed from `owners`.
    ///
    /// # Panics
    /// Panics if the shapes disagree: shard count vs assignment, ladder
    /// sizes or schedules vs their owner lists, or owner ids out of
    /// `0..n`.
    pub(crate) fn assemble(
        shards: Vec<TopKIndex<S, F, D, FrozenStore>>,
        owners: Vec<Vec<PointId>>,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        n: usize,
    ) -> Self {
        assert_eq!(shards.len(), assignment.shards(), "one ladder per assignment shard");
        assert_eq!(owners.len(), shards.len(), "one owner list per shard");
        assert_eq!(owners.iter().map(Vec::len).sum::<usize>(), n, "owner lists must cover 0..n");
        for (shard, ids) in shards.iter().zip(&owners) {
            assert_eq!(shard.len(), ids.len(), "ladder size must match its owner list");
            assert_eq!(shard.schedule(), schedule, "every ladder shares the schedule");
            assert!(ids.iter().all(|&g| (g as usize) < n), "owner id out of range");
        }
        let local_of = invert_owners(&owners, n);
        Self { shards, owners, local_of, assignment, schedule, n }
    }
}

impl<S, F, D, B> ShardedTopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Total indexed points across all shards.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The radius schedule shared by every shard.
    pub fn schedule(&self) -> RadiusSchedule {
        self.schedule
    }

    /// The shard assignment in force.
    pub fn assignment(&self) -> ShardAssignment {
        self.assignment
    }

    /// The per-shard ladders. **Caution:** shard tables store *global*
    /// ids (see [`ShardedIndex::shards`]); query them only through the
    /// sharded engines.
    pub fn shards(&self) -> &[TopKIndex<S, F, D, B>] {
        &self.shards
    }

    /// The global ids owned by `shard`, in that shard's local row order
    /// (as [`ShardedIndex::global_ids`]).
    pub fn global_ids(&self, shard: usize) -> &[PointId] {
        &self.owners[shard]
    }

    /// Shards `shards` at schedule level `li` as one Algorithm 2 source.
    fn level_view(&self, li: usize, shards: Range<usize>) -> ShardedLevel<'_, Arc<S>, F, D, B> {
        ShardedLevel {
            shards: self.shards[shards.clone()].iter().map(|ladder| &ladder.levels()[li]).collect(),
            owners: &self.owners[shards],
            local_of: &self.local_of,
            n: self.n,
        }
    }

    /// Answers one top-k query with fresh scratch.
    pub fn query_topk(&self, q: &S::Point, k: usize) -> TopKOutput {
        ShardedTopKEngine::new().query_topk(self, q, k)
    }
}

impl<S, F, D, B> ShardedTopKIndex<S, F, D, B>
where
    S: PointSet + Send + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// Answers a batch of top-k queries, sharded across all available
    /// cores; outputs in input order, byte-identical to a sequential
    /// loop.
    pub fn query_topk_batch<Q>(&self, queries: &[Q], k: usize) -> Vec<TopKOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.query_topk_batch_with(queries, k, Strategy::Hybrid, None)
    }

    /// Batch top-k under an explicit per-level strategy and optional
    /// thread count.
    pub fn query_topk_batch_with<Q>(
        &self,
        queries: &[Q],
        k: usize,
        strategy: Strategy,
        threads: Option<usize>,
    ) -> Vec<TopKOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        par_map_with(queries.len(), threads, ShardedTopKEngine::new, |engine, qi| {
            engine.query_topk_with(self, queries[qi].as_ref(), k, strategy)
        })
    }
}

/// Reusable scratch for running top-k queries over a
/// [`ShardedTopKIndex`]: the per-shard rNNR scratch plus the global
/// [`TopKWalk`].
#[derive(Debug, Default)]
pub struct ShardedTopKEngine {
    engine: LevelEngine<SeenBitmap>,
    walk: TopKWalk,
}

impl ShardedTopKEngine {
    /// Engine with empty scratch and the default kernel verify mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine whose rNNR level queries verify in an explicit
    /// [`VerifyMode`]; output is identical across modes.
    pub fn with_verify_mode(verify: VerifyMode) -> Self {
        Self { engine: LevelEngine::with_verify_mode(verify), walk: TopKWalk::default() }
    }

    /// Answers one top-k query under the default per-level
    /// [`Strategy::Hybrid`].
    pub fn query_topk<S, F, D, B>(
        &mut self,
        index: &ShardedTopKIndex<S, F, D, B>,
        q: &S::Point,
        k: usize,
    ) -> TopKOutput
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
    {
        self.query_topk_with(index, q, k, Strategy::Hybrid)
    }

    /// The global schedule walk, every level query fanned across shards
    /// and every decision made on merged statistics;
    /// `tests/sharded_props.rs` pins the byte-identity of outputs and
    /// reports with the unsharded engine.
    pub fn query_topk_with<S, F, D, B>(
        &mut self,
        index: &ShardedTopKIndex<S, F, D, B>,
        q: &S::Point,
        k: usize,
        strategy: Strategy,
    ) -> TopKOutput
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
    {
        let shards = 0..index.shards.len();
        let levels: Vec<_> =
            (0..index.schedule.levels()).map(|li| index.level_view(li, shards.clone())).collect();
        self.walk.run(&mut self.engine, &levels, index.schedule, q, k, strategy)
    }
}

// ---------------------------------------------------------------------------
// Distributed hooks
// ---------------------------------------------------------------------------
//
// A shard node in a distributed deployment holds the full sharded index
// (loaded from the same snapshot every node ships) but answers only for
// its assigned shard. The methods below expose exactly the per-shard
// work of the level query — probe + local sketch merge, arm execution,
// fallback scan — on a one-shard view, so a remote coordinator that
// merges the summaries and replays the global decisions reproduces the
// in-process answers byte for byte. All of them verify in the default
// [`VerifyMode::Kernel`], matching the engines the serving layer uses.

/// One query's compact S1/S2 summary from one shard: the summed bucket
/// sizes (S1) and the shard-local merged HyperLogLog registers (S2).
///
/// Register-wise `max` over per-shard registers equals the registers of
/// one accumulator fed every shard's probed buckets — HLL merge is
/// associative and commutative — so a coordinator that max-merges these
/// summaries and estimates once reproduces the in-process
/// [`ShardedQueryEngine`] statistics bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSummary {
    /// Sum of probed bucket sizes on this shard (S1 contribution).
    pub collisions: u64,
    /// This shard's merged sketch registers, `m = 2^precision` bytes.
    pub registers: Vec<u8>,
}

/// The S1/S2 summary of `q` against `level`: probe, sum the collisions,
/// merge the probed sketches.
fn summarize<L: Level>(
    level: &L,
    q: &L::Point,
    acc: &mut Option<MergeAccumulator>,
) -> ShardSummary {
    let (probe, collisions) = level.probe(q);
    let acc = ensure_accumulator(acc, level.hll_config());
    level.contribute(&probe, acc);
    ShardSummary { collisions: collisions as u64, registers: acc.registers().to_vec() }
}

/// The arm a coordinator chose, run on `level` (see
/// [`LevelEngine::run_arm`]). Hits come in the order the in-process
/// engines produce them: first-collision order for the LSH arm,
/// ascending row order for the linear arm.
fn chosen_arm<L: Level, H: Hit>(
    engine: &mut LevelEngine<L::Seen>,
    level: &L,
    q: &L::Point,
    r: f64,
    lsh: bool,
) -> Vec<H> {
    engine.run_arm(level, q, r, if lsh { ExecutedArm::Lsh } else { ExecutedArm::Linear })
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// The HLL configuration shared by every shard's buckets.
    pub fn hll_config(&self) -> HllConfig {
        self.shards[0].hll_config()
    }

    /// The cost model shared by every shard (resolved once on the full
    /// data at build time).
    pub fn cost_model(&self) -> CostModel {
        self.shards[0].cost_model()
    }

    /// One shard's S1/S2 summary for one query: probe the shard's
    /// tables, sum the bucket sizes, merge the probed sketches.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_summary(&self, shard: usize, q: &S::Point) -> ShardSummary {
        summarize(&self.view(shard..shard + 1), q, &mut None)
    }

    /// One shard's chosen-arm execution for one query: the LSH arm
    /// (probe → dedup global members → batched kernel verification) or
    /// the linear arm (full shard scan), either way returning the
    /// shard's **global** ids within `r`, ascending.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_arm(&self, shard: usize, q: &S::Point, r: f64, lsh: bool) -> Vec<PointId> {
        let mut ids =
            chosen_arm(&mut LevelEngine::default(), &self.view(shard..shard + 1), q, r, lsh);
        ids.sort_unstable();
        ids
    }
}

impl<S, F, D, B> ShardedIndex<S, F, D, B>
where
    S: PointSet + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// [`shard_summary`](Self::shard_summary) over a batch, fanned
    /// across scoped threads; outputs in input order.
    pub fn shard_summaries<Q>(
        &self,
        shard: usize,
        queries: &[Q],
        threads: Option<usize>,
    ) -> Vec<ShardSummary>
    where
        Q: AsRef<S::Point> + Sync,
    {
        let view = self.view(shard..shard + 1);
        par_map_with(
            queries.len(),
            threads,
            || None,
            |acc, qi| summarize(&view, queries[qi].as_ref(), acc),
        )
    }

    /// [`shard_arm`](Self::shard_arm) over a batch, fanned across
    /// scoped threads; outputs in input order.
    pub fn shard_arm_batch<Q>(
        &self,
        shard: usize,
        queries: &[Q],
        r: f64,
        lsh: bool,
        threads: Option<usize>,
    ) -> Vec<Vec<PointId>>
    where
        Q: AsRef<S::Point> + Sync,
    {
        let view = self.view(shard..shard + 1);
        par_map_with(queries.len(), threads, LevelEngine::default, |engine, qi| {
            let mut ids: Vec<PointId> = chosen_arm(engine, &view, queries[qi].as_ref(), r, lsh);
            ids.sort_unstable();
            ids
        })
    }
}

impl<S, F, D, B> ShardedTopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Level `li`'s HLL configuration (shared by every shard).
    ///
    /// # Panics
    /// Panics if `li` is out of range.
    pub fn level_hll_config(&self, li: usize) -> HllConfig {
        self.shards[0].levels()[li].hll_config()
    }

    /// Level `li`'s cost model (resolved once on the full data).
    ///
    /// # Panics
    /// Panics if `li` is out of range.
    pub fn level_cost_model(&self, li: usize) -> CostModel {
        self.shards[0].levels()[li].cost_model()
    }
}

impl<S, F, D, B> ShardedTopKIndex<S, F, D, B>
where
    S: PointSet + Send + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// One shard's S1/S2 summaries against schedule level `li` for a
    /// batch of queries; outputs in input order.
    ///
    /// # Panics
    /// Panics if `shard` or `li` is out of range.
    pub fn shard_level_summaries<Q>(
        &self,
        shard: usize,
        li: usize,
        queries: &[Q],
        threads: Option<usize>,
    ) -> Vec<ShardSummary>
    where
        Q: AsRef<S::Point> + Sync,
    {
        let view = self.level_view(li, shard..shard + 1);
        par_map_with(
            queries.len(),
            threads,
            || None,
            |acc, qi| summarize(&view, queries[qi].as_ref(), acc),
        )
    }

    /// One shard's chosen-arm execution against level `li`: per query,
    /// the shard's `(global id, distance)` pairs within `r` — in the
    /// shard-local candidate order the in-process walk offers them
    /// (first-collision order for the LSH arm, ascending row order for
    /// the linear arm).
    ///
    /// # Panics
    /// Panics if `shard` or `li` is out of range.
    pub fn shard_level_arm_batch<Q>(
        &self,
        shard: usize,
        li: usize,
        queries: &[Q],
        r: f64,
        lsh: bool,
        threads: Option<usize>,
    ) -> Vec<Vec<(PointId, f64)>>
    where
        Q: AsRef<S::Point> + Sync,
    {
        let view = self.level_view(li, shard..shard + 1);
        par_map_with(queries.len(), threads, LevelEngine::default, |engine, qi| {
            chosen_arm(engine, &view, queries[qi].as_ref(), r, lsh)
        })
    }

    /// One shard's exact-fallback scan: per query, **every** row the
    /// shard owns as `(global id, distance)`, ascending by local row,
    /// NaN-distance gaps completed — the per-shard slice of the walk's
    /// exact fallback. The coordinator filters already-reported ids,
    /// exactly as the in-process [`TopKWalk`] does.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_fallback_scan_batch<Q>(
        &self,
        shard: usize,
        queries: &[Q],
        threads: Option<usize>,
    ) -> Vec<Vec<(PointId, f64)>>
    where
        Q: AsRef<S::Point> + Sync,
    {
        let view = self.level_view(0, shard..shard + 1);
        par_map_with(
            queries.len(),
            threads,
            || (),
            |_, qi| view.fallback_pairs(queries[qi].as_ref(), VerifyMode::Kernel),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use hlsh_families::PStableL2;
    use hlsh_vec::{DenseDataset, L2};

    fn grid_data(n: usize) -> DenseDataset {
        DenseDataset::from_rows(2, (0..n).map(|i| [(i % 17) as f32, (i / 17) as f32 * 0.5]))
    }

    fn builder() -> IndexBuilder<PStableL2, L2> {
        IndexBuilder::new(PStableL2::new(2, 2.0), L2)
            .tables(8)
            .hash_len(4)
            .seed(11)
            .cost_model(CostModel::from_ratio(4.0))
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let a = ShardAssignment::new(9, 4);
        let owners = a.partition(100);
        assert_eq!(owners.len(), 4);
        let total: usize = owners.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        for (s, ids) in owners.iter().enumerate() {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending owners");
            for &id in ids {
                assert_eq!(a.shard_of(id), s);
            }
        }
        // Same seed → same partition; single shard owns everything.
        assert_eq!(ShardAssignment::new(9, 4).partition(100), owners);
        assert_eq!(ShardAssignment::new(9, 1).partition(5)[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardAssignment::new(0, 0);
    }

    #[test]
    fn sharded_rnnr_matches_sorted_unsharded_output() {
        let data = grid_data(300);
        let unsharded = builder().build(data.clone());
        for shards in [1usize, 3] {
            let sharded =
                ShardedIndex::build(data.clone(), ShardAssignment::new(5, shards), builder());
            assert_eq!(sharded.len(), 300);
            for (qi, r) in [(0usize, 1.0), (140, 2.5), (299, 0.2)] {
                let q = data.row(qi).to_vec();
                for strategy in Strategy::ALL {
                    let mut expect = unsharded.query_with_strategy(&q[..], r, strategy).ids;
                    expect.sort_unstable();
                    let got = sharded.query_with_strategy(&q[..], r, strategy);
                    assert_eq!(got.ids, expect, "shards={shards} q={qi} r={r} {strategy}");
                }
            }
        }
    }

    #[test]
    fn sharded_topk_matches_unsharded_byte_for_byte() {
        let data = grid_data(250);
        let schedule = RadiusSchedule::doubling(0.8, 4);
        let level_builder = |_li: usize, r: f64| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(7)
                .cost_model(CostModel::from_ratio(4.0))
        };
        let unsharded = TopKIndex::build(data.clone(), schedule, level_builder);
        for shards in [1usize, 4] {
            let sharded = ShardedTopKIndex::build(
                data.clone(),
                ShardAssignment::new(3, shards),
                schedule,
                level_builder,
            );
            for qi in (0..250).step_by(31) {
                let q = data.row(qi).to_vec();
                let a = unsharded.query_topk(&q[..], 7);
                let b = sharded.query_topk(&q[..], 7);
                assert_eq!(a, b, "shards={shards} q={qi}");
            }
        }
    }

    #[test]
    fn sharded_batch_matches_sequential_and_frozen_matches_map() {
        let data = grid_data(200);
        let sharded = ShardedIndex::build(data.clone(), ShardAssignment::new(2, 3), builder());
        let queries: Vec<Vec<f32>> = (0..12).map(|i| data.row(i * 16).to_vec()).collect();
        let mut engine = ShardedQueryEngine::new();
        let sequential: Vec<Vec<PointId>> =
            queries.iter().map(|q| engine.query(&sharded, q, 1.5).ids).collect();
        for threads in [Some(1), Some(4), None] {
            let batch = sharded.query_batch_with_strategy(&queries, 1.5, Strategy::Hybrid, threads);
            for (s, b) in sequential.iter().zip(&batch) {
                assert_eq!(s, &b.ids, "threads {threads:?}");
            }
        }
        let frozen = sharded.freeze();
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(frozen.query(q, 1.5).ids, sequential[qi], "frozen q={qi}");
        }
        let thawed = frozen.thaw();
        assert_eq!(thawed.query(&queries[0], 1.5).ids, sequential[0]);
    }

    /// Replays the distributed coordinator's merge protocol in-process:
    /// max-merged shard summaries must reproduce the engine's global
    /// statistics, decision and result set exactly.
    #[test]
    fn shard_summaries_and_arms_replay_the_global_decision() {
        let data = grid_data(300);
        let sharded = ShardedIndex::build(data.clone(), ShardAssignment::new(5, 3), builder());
        let config = sharded.hll_config();
        let cost = sharded.cost_model();
        for (qi, r) in [(0usize, 1.0), (140, 2.5), (299, 0.2)] {
            let q = data.row(qi).to_vec();
            let expect = sharded.query(&q[..], r);

            // Coordinator-side merge: sum collisions, max registers.
            let mut collisions = 0usize;
            let mut regs = vec![0u8; config.registers()];
            for si in 0..3 {
                let s = sharded.shard_summary(si, &q[..]);
                collisions += s.collisions as usize;
                for (m, &v) in regs.iter_mut().zip(&s.registers) {
                    *m = (*m).max(v);
                }
            }
            assert_eq!(collisions, expect.report.collisions, "q={qi}");
            let est = hlsh_hll::HyperLogLog::from_registers(config, regs).estimate();
            assert_eq!(est.to_bits(), expect.report.cand_size_estimate.to_bits(), "q={qi}");

            // Global decision + per-shard arms concatenated and sorted.
            let lsh = cost.prefer_lsh(collisions, est, sharded.len());
            let mut ids: Vec<PointId> =
                (0..3).flat_map(|si| sharded.shard_arm(si, &q[..], r, lsh)).collect();
            ids.sort_unstable();
            assert_eq!(ids, expect.ids, "q={qi} r={r}");
        }
    }

    #[test]
    fn empty_and_tiny_data_shard_cleanly() {
        let empty = DenseDataset::new(2);
        let sharded = ShardedIndex::build(empty, ShardAssignment::new(1, 3), builder());
        assert!(sharded.is_empty());
        assert!(sharded.query(&[0.0f32, 0.0][..], 1.0).ids.is_empty());

        // Fewer points than shards: some shards stay empty.
        let tiny = DenseDataset::from_rows(2, (0..2).map(|i| [i as f32, 0.0]));
        let sharded = ShardedIndex::build(tiny, ShardAssignment::new(1, 7), builder());
        assert_eq!(sharded.len(), 2);
        let mut ids = sharded.query(&[0.0f32, 0.0][..], 1.5).ids;
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }
}
