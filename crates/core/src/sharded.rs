//! Sharded indexes: partition the data across `N` independent indexes
//! and answer queries by merging per-shard outputs.
//!
//! [`Sharded`] holds one index per shard, reached as a list of
//! **rungs** (each a [`HybridLshIndex`] over the shard's rows):
//! [`ShardedIndex`] holds one [`HybridLshIndex`] (one rung) per shard,
//! [`ShardedTopKIndex`] one [`TopKIndex`] (one rung per schedule
//! radius), and [`ShardedServed`], what a service serves, one
//! [`ServedShard`] (the rNNR rung, then the ladder's). Partitioning, the
//! parallel build, freezing, reassembly, the per-rung Algorithm 2 view,
//! the queries and the distributed node hooks are written once; the
//! aliases add their build entry points.
//!
//! Per-shard candidate sets union to exactly the unsharded candidate
//! set, and per-shard HyperLogLog sketches merge losslessly (registers
//! are element-wise maxima). Two properties make the merge
//! *byte-identical* to an unsharded index over the same data:
//!
//! 1. **Shared randomness, global ids** — a rung's g-functions are
//!    sampled once (decoded once by the snapshot loader) and held once:
//!    every shard's table `j` shares the one `Arc` of g-function `j`,
//!    so a query is hashed once per rung and its keys looked up in
//!    every shard. Every shard uses the same HLL hash, and shard
//!    tables store the points' **global** ids (the build pipeline's
//!    id-mapping hook), so bucket members *and sketch element hashes*
//!    are exactly the unsharded bucket restricted to the shard's
//!    points. Local row numbers in the registers would leak
//!    shard-count-dependent estimates into the walk's decisions.
//! 2. **Global decisions** — Algorithm 2's cost comparison and the
//!    top-k walk's skip/early-exit decisions run once per query on the
//!    *merged* statistics (summed collisions, one accumulator over every
//!    shard's probed sketches, the global `n`, and each rung's cost
//!    model resolved once on the full data), never per shard.
//!
//! So [`ShardedIndex`] reports exactly the unsharded result set (ids
//! ascending — the first-collision order is not meaningful across
//! shards), and [`ShardedTopKIndex`] produces byte-identical
//! `(distance, id)` rankings and reports: a bounded heap's content
//! depends only on the *set* of offered candidates, which is preserved
//! level by level. `tests/sharded_props.rs` pins both contracts across
//! shard counts, storage backends and verify modes.
//!
//! Shards are built in parallel (one worker per shard via
//! [`hlsh_vec::parallel::par_map_with`], each through the blocked build
//! pipeline — straight into [`FrozenStore`] for `build_frozen`) and hold
//! disjoint copies of their rows (a ladder's rungs share one `Arc`), so
//! the resident data equals the unsharded index and each shard is a
//! self-contained unit ready to migrate to another machine.

use std::ops::Range;
use std::sync::Arc;

use hlsh_families::{GFunction, LshFamily};
use hlsh_hll::hash::splitmix64;
use hlsh_hll::{HllConfig, MergeAccumulator};
use hlsh_vec::parallel::par_map_with;
use hlsh_vec::{Distance, Hit, PointId, PointSet, SubsetPointSet};

use crate::bucket::BucketRef;
use crate::builder::IndexBuilder;
use crate::cost::CostModel;
use crate::dedup::Dedup;
use crate::engine::{
    ensure_accumulator, Engine, Level, LevelEngine, RnnrIndex, Scratch, TopKLadder,
};
use crate::index::HybridLshIndex;
use crate::report::QueryOutput;
use crate::schedule::layout::RnnrRung;
use crate::schedule::RadiusSchedule;
use crate::search::{ExecutedArm, Strategy, VerifyMode};
use crate::store::{BucketStore, FrozenStore, MapStore};
use crate::topk::{TopKIndex, TopKOutput};

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

/// Sealed: [`Sharded`]'s bounds name these traits, nothing outside this
/// module implements them.
mod rungs {
    use super::*;

    /// One shard's index as a list of rungs over the shard's rows (a
    /// ladder's rungs share them through one `Arc`).
    pub trait ShardRungs {
        type Data: PointSet;
        type Family: LshFamily<<Self::Data as PointSet>::Point>;
        type Dist: Distance<<Self::Data as PointSet>::Point>;
        type Store: BucketStore;
        /// What the rungs stand for.
        type Layout: Copy;

        /// The rungs, in order (rung `li` is `rungs()[li]`).
        fn rungs(&self) -> &[Rung<Self>];

        fn layout(&self) -> Self::Layout;
    }

    /// A shard index on [`MapStore`] that freezes every rung.
    pub trait FreezeShard {
        type Frozen;
        fn freeze(self) -> Self::Frozen;
    }

    /// The rNNR index is its own one rung.
    impl<S, F, D, B> ShardRungs for HybridLshIndex<S, F, D, B>
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
    {
        type Data = S;
        type Family = F;
        type Dist = D;
        type Store = B;
        type Layout = ();

        fn rungs(&self) -> &[Self] {
            std::slice::from_ref(self)
        }

        fn layout(&self) {}
    }

    /// A ladder has one rung per schedule radius; a served shard puts
    /// the rNNR rung first.
    impl<S, F, D, B, L: Copy> ShardRungs for TopKIndex<S, F, D, B, L>
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
    {
        type Data = Arc<S>;
        type Family = F;
        type Dist = D;
        type Store = B;
        type Layout = L;

        fn rungs(&self) -> &[Rung<Self>] {
            self.levels()
        }

        fn layout(&self) -> L {
            self.schedule
        }
    }

    impl<S, F, D> FreezeShard for HybridLshIndex<S, F, D, MapStore>
    where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
    {
        type Frozen = HybridLshIndex<S, F, D, FrozenStore>;

        fn freeze(self) -> Self::Frozen {
            HybridLshIndex::freeze(self)
        }
    }

    impl<S, F, D> FreezeShard for TopKIndex<S, F, D, MapStore>
    where
        S: PointSet + Send + Sync,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
    {
        type Frozen = TopKIndex<S, F, D, FrozenStore>;

        fn freeze(self) -> Self::Frozen {
            TopKIndex::freeze(self)
        }
    }
}

use rungs::{FreezeShard, ShardRungs};

/// A rung of shard index `X`.
type Rung<X> = HybridLshIndex<
    <X as ShardRungs>::Data,
    <X as ShardRungs>::Family,
    <X as ShardRungs>::Dist,
    <X as ShardRungs>::Store,
>;

/// The point type shard index `X` indexes.
type PointOf<X> = <<X as ShardRungs>::Data as PointSet>::Point;

/// A data set partitioned across shards, one index `X` per shard; see
/// the module docs for the byte-identity contract.
pub struct Sharded<X> {
    shards: Vec<X>,
    /// `owners[s][local] = global` (ascending per shard).
    owners: Vec<Vec<PointId>>,
    /// `local_of[global] = local`: bucket members to rows of their slab.
    local_of: Vec<PointId>,
    assignment: ShardAssignment,
    n: usize,
}

/// An rNNR index partitioned across shards: one [`HybridLshIndex`] per
/// shard, queried through the [`Engine`].
pub type ShardedIndex<S, F, D, B = MapStore> = Sharded<HybridLshIndex<S, F, D, B>>;

/// A top-k index partitioned across shards: one [`TopKIndex`] ladder
/// per shard, walked *globally* by the [`Engine`] — rankings and
/// reports are byte-identical to the unsharded [`TopKIndex`].
pub type ShardedTopKIndex<S, F, D, B = MapStore> = Sharded<TopKIndex<S, F, D, B>>;

/// What a service serves: an rNNR index and the top-k ladder served
/// with it, if any, as one structure — one owner list, one id map and
/// one row store per shard, indexed by every rung (see
/// [`fuse`](ShardedServed::fuse)).
pub type ShardedServed<S, F, D, B = FrozenStore> = Sharded<ServedShard<S, F, D, B>>;

/// One shard of a [`ShardedServed`] structure: one `Arc` of the shard's
/// rows, indexed by the rNNR rung and then by one rung per level of the
/// ladder served with it.
pub type ServedShard<S, F, D, B> = TopKIndex<S, F, D, B, Option<RadiusSchedule>>;

/// Checks that a ladder covers exactly an rNNR index's partition: the
/// same assignment and `n`, equal owner lists and equal rows per shard.
/// The snapshot writer runs it before writing one row copy for both,
/// and [`ShardedServed::fuse`] before indexing one row copy with both.
/// Rows that view one shared section (a loaded snapshot's) compare
/// equal without a scan.
pub(crate) fn same_partition<S, F, D, B>(
    rnnr: &ShardedIndex<S, F, D, B>,
    ladder: &ShardedTopKIndex<S, F, D, B>,
) -> Result<(), &'static str>
where
    S: PointSet + PartialEq,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    if ladder.assignment != rnnr.assignment {
        return Err("rNNR and top-k indexes must be sharded under the same assignment");
    }
    if ladder.n != rnnr.n || ladder.owners != rnnr.owners {
        return Err("rNNR and top-k indexes must own the same ids per shard");
    }
    if ladder.shards.iter().zip(&rnnr.shards).any(|(l, r)| l.data() != r.data()) {
        return Err("rNNR and top-k indexes must hold the same rows");
    }
    Ok(())
}

impl<S, F, D, B> ShardedServed<S, F, D, B>
where
    S: PointSet + PartialEq,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Fuses an rNNR index and the ladder served with it into one
    /// structure: the rNNR index's rows move into one `Arc` per shard,
    /// every ladder rung is moved onto it, and the ladder's row copies
    /// and id maps are dropped. Answers are unchanged.
    ///
    /// # Panics
    /// Panics if the ladder covers another partition than the rNNR
    /// index: another assignment, other owner lists or other rows.
    pub fn fuse(
        rnnr: ShardedIndex<S, F, D, B>,
        ladder: Option<ShardedTopKIndex<S, F, D, B>>,
    ) -> Self {
        if let Some(ladder) = &ladder {
            same_partition(&rnnr, ladder).unwrap_or_else(|e| panic!("{e}"));
        }
        let schedule = ladder.as_ref().map(|l| l.schedule());
        let mut ladders = ladder.map(|l| l.shards.into_iter());
        let Sharded { shards, owners, local_of, assignment, n } = rnnr;
        let shards = shards.into_iter().map(|shard| {
            let rnnr = shard.map_data(Arc::new);
            let rows = Arc::clone(rnnr.data());
            let levels = ladders.as_mut().and_then(Iterator::next).map(|l| l.levels);
            let levels = levels.into_iter().flatten().map(|l| l.map_data(|_| Arc::clone(&rows)));
            let levels = std::iter::once(rnnr).chain(levels).collect();
            TopKIndex { data: rows, schedule, levels }
        });
        Sharded { shards: shards.collect(), owners, local_of, assignment, n }
    }
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

/// Some shards at one rung as one Algorithm 2 source: collisions sum,
/// probed sketches merge into the unsharded registers, each shard
/// dedups its own members (global ids, translated to slab rows for
/// verification), and hits are reported under global ids, shard by
/// shard. The `Engine` views every shard; a shard node views its own.
pub(crate) struct ShardedLevel<'a, T, F, D, B>
where
    T: PointSet,
    F: LshFamily<T::Point>,
    D: Distance<T::Point>,
    B: BucketStore,
{
    /// Each viewed shard's index at this rung.
    shards: Vec<&'a HybridLshIndex<T, F, D, B>>,
    /// The viewed shards' owner lists.
    owners: &'a [Vec<PointId>],
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

    fn cost_model(&self) -> CostModel {
        self.shards[0].cost_model()
    }

    /// Hashes `q` once with the rung's shared g-functions and looks the
    /// `L` keys up in every viewed shard.
    fn probe(&self, q: &T::Point) -> (Vec<Vec<BucketRef<'_>>>, usize) {
        let keys: Vec<u64> =
            self.shards[0].raw_tables().iter().map(|t| t.g().bucket_key(q)).collect();
        let mut collisions = 0;
        let probe = self
            .shards
            .iter()
            .map(|shard| {
                let (buckets, c) = shard.lookup(keys.iter().copied());
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
        Dedup { bitmap, cands, .. }: &mut Dedup,
        out: &mut Vec<H>,
    ) -> usize {
        let mut distinct = 0;
        for ((shard, owners), buckets) in self.shards.iter().zip(self.owners).zip(probe) {
            cands.clear();
            bitmap.dedup_into(self.local_of.len(), buckets.iter().map(BucketRef::members), cands);
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

impl<X> Sharded<X> {
    /// The build scaffold: partitions `data`, samples each rung's
    /// g-functions **once** and pins on its builder its cost model
    /// resolved **once on the full data**, then builds every shard in
    /// its own worker as `build_shard(rows, global_ids, rungs)`, where
    /// `rungs[li]` is rung `li`'s builder and its shared set. `data` is
    /// dropped once the shards are cut.
    fn build_each<S, F, D>(
        data: S,
        assignment: ShardAssignment,
        builders: impl IntoIterator<Item = IndexBuilder<F, D>>,
        build_shard: impl Fn(S, &[PointId], &[(IndexBuilder<F, D>, Vec<Arc<F::GFn>>)]) -> X + Sync,
    ) -> Self
    where
        S: SubsetPointSet + Sync,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        X: Send,
    {
        let n = data.len();
        let owners = assignment.partition(n);
        let local_of = invert_owners(&owners, n);
        // One worker per shard; nested table-parallelism is pointless
        // once shards already fan out, so inner builds go sequential
        // whenever more than one shard exists.
        let sequential = owners.len() > 1;
        let pin = |b: IndexBuilder<F, D>| {
            let gfns = b.prepare();
            let cost = b.resolve_cost(&data);
            ((if sequential { b.sequential() } else { b }).cost_model(cost), gfns)
        };
        let rungs: Vec<_> = builders.into_iter().map(pin).collect();
        let shards = par_map_with(
            owners.len(),
            None,
            || (),
            |_, si| build_shard(data.subset(&owners[si]), &owners[si], &rungs),
        );
        drop(data);
        Self { shards, owners, local_of, assignment, n }
    }

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
    /// ids, which do not index the shard's own data slab — query them
    /// through the `Engine`, never directly.
    pub fn shards(&self) -> &[X] {
        &self.shards
    }

    /// Shard `s`'s global ids, ascending (`owners[local] = global`).
    pub fn global_ids(&self, shard: usize) -> &[PointId] {
        &self.owners[shard]
    }
}

impl<X: FreezeShard> Sharded<X> {
    /// Converts every shard's every rung to the read-optimised
    /// [`FrozenStore`]; answers are byte-identical before and after.
    pub fn freeze(self) -> Sharded<X::Frozen> {
        Sharded {
            shards: self.shards.into_iter().map(X::freeze).collect(),
            owners: self.owners,
            local_of: self.local_of,
            assignment: self.assignment,
            n: self.n,
        }
    }
}

impl<X: ShardRungs> Sharded<X> {
    /// Reassembles a sharded structure from built shard indexes and
    /// their persisted owner lists — the snapshot loader's entry point.
    ///
    /// # Panics
    /// Panics if the shapes disagree: shard count vs assignment, shard
    /// sizes vs owner lists, rung counts across shards, or owner ids
    /// out of `0..n`.
    pub(crate) fn assemble(
        shards: Vec<X>,
        owners: Vec<Vec<PointId>>,
        assignment: ShardAssignment,
        n: usize,
    ) -> Self {
        assert_eq!(shards.len(), assignment.shards(), "one shard index per assignment shard");
        assert_eq!(owners.len(), shards.len(), "one owner list per shard");
        assert_eq!(owners.iter().map(Vec::len).sum::<usize>(), n, "owner lists must cover 0..n");
        for (shard, ids) in shards.iter().zip(&owners) {
            assert_eq!(shard.rungs()[0].len(), ids.len(), "shard size must match its owner list");
            assert_eq!(shard.rungs().len(), shards[0].rungs().len(), "ragged rungs");
            assert!(ids.iter().all(|&g| (g as usize) < n), "owner id out of range");
        }
        let local_of = invert_owners(&owners, n);
        Self { shards, owners, local_of, assignment, n }
    }

    /// Rung `rung`'s HLL configuration, shared by every shard.
    pub fn hll_config(&self, rung: usize) -> HllConfig {
        self.shards[0].rungs()[rung].hll_config()
    }

    /// Rung `rung`'s cost model, resolved once on the full data and
    /// shared by every shard.
    pub fn cost_model(&self, rung: usize) -> CostModel {
        self.shards[0].rungs()[rung].cost_model()
    }

    /// Shards `shards` at rung `rung` as one Algorithm 2 source.
    fn view(
        &self,
        rung: usize,
        shards: Range<usize>,
    ) -> ShardedLevel<'_, X::Data, X::Family, X::Dist, X::Store> {
        ShardedLevel {
            shards: self.shards[shards.clone()].iter().map(|x| &x.rungs()[rung]).collect(),
            owners: &self.owners[shards],
            local_of: &self.local_of,
            n: self.n,
        }
    }
}

impl<S, F, D> ShardedIndex<S, F, D, MapStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Partitions `data` per `assignment` and builds one index per
    /// shard in parallel, with one cost model (the builder's, or one
    /// calibration on the full data) and one g-function set for every
    /// shard.
    pub fn build(data: S, assignment: ShardAssignment, builder: IndexBuilder<F, D>) -> Self {
        Self::build_each(data, assignment, [builder], |rows, ids, r| {
            r[0].0.clone().build_mapped(rows, r[0].1.clone(), Some(ids))
        })
    }
}

impl<S, F, D> ShardedIndex<S, F, D, FrozenStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Like [`ShardedIndex::build`] but every shard's tables are laid
    /// out directly as frozen CSR arenas (no intermediate hashmaps).
    pub fn build_frozen(data: S, assignment: ShardAssignment, builder: IndexBuilder<F, D>) -> Self {
        Self::build_each(data, assignment, [builder], |rows, ids, r| {
            r[0].0.clone().build_frozen_mapped(rows, r[0].1.clone(), Some(ids))
        })
    }
}

impl<S, F, D> ShardedTopKIndex<S, F, D, MapStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Partitions `data` and builds one schedule ladder per shard in
    /// parallel. `level_builder(level, radius)` configures each level
    /// as for [`TopKIndex::build`]; each level's g-functions are
    /// sampled and its cost model resolved once on the **full** data,
    /// and both are shared by every shard.
    pub fn build<M>(
        data: S,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        mut level_builder: M,
    ) -> Self
    where
        M: FnMut(usize, f64) -> IndexBuilder<F, D>,
    {
        let builders = schedule.radii().enumerate().map(|(li, r)| level_builder(li, r));
        Self::build_each(data, assignment, builders, |rows, ids, rungs| {
            let rows = Arc::new(rows);
            let levels = rungs
                .iter()
                .map(|(b, g)| b.clone().build_mapped(Arc::clone(&rows), g.clone(), Some(ids)));
            TopKIndex::assemble(Arc::clone(&rows), schedule, levels.collect())
        })
    }
}

impl<S, F, D> ShardedTopKIndex<S, F, D, FrozenStore>
where
    S: SubsetPointSet + Send + Sync,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Like [`ShardedTopKIndex::build`] but every rung is laid out
    /// directly as frozen CSR arenas; byte-identical to
    /// `build(..).freeze()`.
    pub fn build_frozen<M>(
        data: S,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        mut level_builder: M,
    ) -> Self
    where
        M: FnMut(usize, f64) -> IndexBuilder<F, D>,
    {
        let builders = schedule.radii().enumerate().map(|(li, r)| level_builder(li, r));
        Self::build_each(data, assignment, builders, |rows, ids, rungs| {
            let rows = Arc::new(rows);
            let levels = rungs.iter().map(|(b, g)| {
                b.clone().build_frozen_mapped(Arc::clone(&rows), g.clone(), Some(ids))
            });
            TopKIndex::assemble(Arc::clone(&rows), schedule, levels.collect())
        })
    }
}

/// One query across every shard: S1 probes all shards, S2 merges every
/// probed sketch into one accumulator, the *global* costs are compared
/// once, and the chosen arm runs on every shard. Ids are global and
/// ascending; the id *set* equals the unsharded index's under the same
/// strategy.
impl<X: ShardRungs> RnnrIndex for Sharded<X>
where
    X::Layout: RnnrRung,
{
    type Point = PointOf<X>;

    fn rnnr(&self, s: &mut Scratch, q: &PointOf<X>, r: f64, strategy: Strategy) -> QueryOutput {
        s.level.query_sorted(&self.view(0, 0..self.shards.len()), q, r, strategy)
    }
}

/// The global schedule walk: every level query fans across shards and
/// every decision is made on merged statistics.
impl<X: ShardRungs> TopKLadder for Sharded<X>
where
    X::Layout: Into<Option<RadiusSchedule>>,
{
    type Point = PointOf<X>;

    fn topk(&self, s: &mut Scratch, q: &PointOf<X>, k: usize, strategy: Strategy) -> TopKOutput {
        let schedule = self.schedule();
        let first = self.shards[0].rungs().len() - schedule.levels();
        let views: Vec<_> =
            (0..schedule.levels()).map(|li| self.view(first + li, 0..self.shards.len())).collect();
        s.walk.run(&mut s.level, &views, schedule, q, k, strategy)
    }
}

impl<X: ShardRungs> Sharded<X>
where
    X::Layout: RnnrRung,
{
    /// Hybrid query (Algorithm 2 with a global decision) with fresh
    /// scratch; batch workloads should reuse an [`Engine`].
    pub fn query(&self, q: &PointOf<X>, r: f64) -> QueryOutput {
        Engine::new().query(self, q, r)
    }

    /// Runs a query under an explicit strategy; see
    /// [`Engine::query_with_strategy`].
    pub fn query_with_strategy(&self, q: &PointOf<X>, r: f64, strategy: Strategy) -> QueryOutput {
        Engine::new().query_with_strategy(self, q, r, strategy)
    }

    /// Answers a batch of hybrid queries, sharded across all available
    /// cores (each query still fans over every index shard). Outputs
    /// are in input order, ids ascending per query.
    pub fn query_batch<Q>(&self, queries: &[Q], r: f64) -> Vec<QueryOutput>
    where
        Self: Sync,
        Q: AsRef<PointOf<X>> + Sync,
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
        Self: Sync,
        Q: AsRef<PointOf<X>> + Sync,
    {
        RnnrIndex::query_batch_with_strategy(self, queries, r, strategy, threads)
    }
}

impl<X: ShardRungs> Sharded<X>
where
    X::Layout: Into<Option<RadiusSchedule>>,
{
    /// The radius schedule of the ladder every shard holds, if any: its
    /// levels are each shard's last rungs.
    pub fn ladder(&self) -> Option<RadiusSchedule> {
        self.shards[0].layout().into()
    }

    /// The radius schedule shared by every shard.
    ///
    /// # Panics
    /// Panics if the structure holds no ladder.
    pub fn schedule(&self) -> RadiusSchedule {
        self.ladder().expect("no top-k ladder")
    }

    /// Answers one top-k query with fresh scratch.
    pub fn query_topk(&self, q: &PointOf<X>, k: usize) -> TopKOutput {
        Engine::new().query_topk(self, q, k)
    }

    /// Answers a batch of top-k queries across all available cores;
    /// outputs in input order, byte-identical to a sequential loop.
    pub fn query_topk_batch<Q>(&self, queries: &[Q], k: usize) -> Vec<TopKOutput>
    where
        Self: Sync,
        Q: AsRef<PointOf<X>> + Sync,
    {
        self.query_topk_batch_with(queries, k, Strategy::Hybrid, None)
    }

    /// Batch top-k under an explicit per-level strategy and optional
    /// thread count; see [`TopKLadder::query_topk_batch_with`].
    pub fn query_topk_batch_with<Q>(
        &self,
        queries: &[Q],
        k: usize,
        strategy: Strategy,
        threads: Option<usize>,
    ) -> Vec<TopKOutput>
    where
        Self: Sync,
        Q: AsRef<PointOf<X>> + Sync,
    {
        TopKLadder::query_topk_batch_with(self, queries, k, strategy, threads)
    }
}

/// The engine of a [`ShardedIndex`] (an alias of [`Engine`]).
pub type ShardedQueryEngine = Engine;

/// The engine of a [`ShardedTopKIndex`] (an alias of [`Engine`]).
pub type ShardedTopKEngine = Engine;

// Distributed hooks: a shard node holds the full sharded structures but
// answers only for its shard. Each hook runs one shard's part of a level
// query at one rung — probe + sketch merge, arm, fallback scan — so a
// coordinator that merges the summaries and replays the global decisions
// reproduces the in-process answers byte for byte. All verify in the
// default [`VerifyMode::Kernel`], as the served batch path does.

/// One query's compact S1/S2 summary from one shard: the summed bucket
/// sizes and the shard-local merged HyperLogLog registers. HLL merge is
/// associative and commutative, so a coordinator that max-merges these
/// and estimates once reproduces the in-process statistics bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSummary {
    /// Sum of probed bucket sizes on this shard (S1 contribution).
    pub collisions: u64,
    /// This shard's merged sketch registers, `m = 2^precision` bytes.
    pub registers: Vec<u8>,
}

impl<X: ShardRungs> Sharded<X>
where
    Rung<X>: Sync,
{
    /// One shard's S1/S2 summaries against rung `rung` for a batch of
    /// queries, fanned across scoped threads; outputs in input order.
    /// Panics if `shard` or `rung` is out of range, as every hook does.
    pub fn shard_summaries<Q>(
        &self,
        shard: usize,
        rung: usize,
        queries: &[Q],
        threads: Option<usize>,
    ) -> Vec<ShardSummary>
    where
        Q: AsRef<PointOf<X>> + Sync,
    {
        let view = self.view(rung, shard..shard + 1);
        let summarize = |acc: &mut Option<MergeAccumulator>, qi: usize| {
            let (probe, collisions) = view.probe(queries[qi].as_ref());
            let acc = ensure_accumulator(acc, view.hll_config());
            view.contribute(&probe, acc);
            ShardSummary { collisions: collisions as u64, registers: acc.registers().to_vec() }
        };
        par_map_with(queries.len(), threads, || None, summarize)
    }

    /// One shard's run of the arm a coordinator chose (LSH when `lsh`,
    /// else linear) against rung `rung`: per query, the hits within `r`
    /// under **global** ids (ids alone or `(id, distance)` pairs) in the
    /// in-process order — first collision for LSH, row order for linear.
    pub fn shard_arm_batch<Q, H>(
        &self,
        shard: usize,
        rung: usize,
        queries: &[Q],
        r: f64,
        lsh: bool,
        threads: Option<usize>,
    ) -> Vec<Vec<H>>
    where
        Q: AsRef<PointOf<X>> + Sync,
        H: Hit,
    {
        let view = self.view(rung, shard..shard + 1);
        let arm = if lsh { ExecutedArm::Lsh } else { ExecutedArm::Linear };
        par_map_with(queries.len(), threads, LevelEngine::default, |engine, qi| {
            engine.run_arm(&view, queries[qi].as_ref(), r, arm)
        })
    }

    /// One shard's exact-fallback scan: per query, **every** row the
    /// shard owns as `(global id, distance)`, ascending by local row —
    /// the shard's slice of the [`TopKWalk`](crate::TopKWalk)'s exact
    /// fallback.
    pub fn shard_fallback_scan_batch<Q>(
        &self,
        shard: usize,
        queries: &[Q],
        threads: Option<usize>,
    ) -> Vec<Vec<(PointId, f64)>>
    where
        Q: AsRef<PointOf<X>> + Sync,
    {
        let view = self.view(0, shard..shard + 1);
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
    }

    /// Replays the distributed coordinator's merge protocol in-process:
    /// max-merged shard summaries must reproduce the engine's global
    /// statistics, decision and result set exactly.
    #[test]
    fn shard_summaries_and_arms_replay_the_global_decision() {
        let data = grid_data(300);
        let sharded = ShardedIndex::build(data.clone(), ShardAssignment::new(5, 3), builder());
        let config = sharded.hll_config(0);
        let cost = sharded.cost_model(0);
        for (qi, r) in [(0usize, 1.0), (140, 2.5), (299, 0.2)] {
            let q = [data.row(qi)];
            let expect = sharded.query(q[0], r);

            // Coordinator-side merge: sum collisions, max registers.
            let mut collisions = 0usize;
            let mut regs = vec![0u8; config.registers()];
            for si in 0..3 {
                let s = &sharded.shard_summaries(si, 0, &q, None)[0];
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
            let mut ids: Vec<PointId> = (0..3)
                .flat_map(|si| sharded.shard_arm_batch(si, 0, &q, r, lsh, None).remove(0))
                .collect();
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
