//! LSM-style segmented indexes: a living corpus behind the one query
//! [`Engine`].
//!
//! Every serving path before this module assumed build-then-freeze:
//! streaming `insert` hashed one point at a time into a [`MapStore`]
//! and there was no delete at all. [`Segmented`] restructures each
//! shard as a small LSM hierarchy over a list of **rungs** — one rung
//! per LSH index configuration (an [`IndexBuilder`], its pinned
//! [`CostModel`] and its HLL configuration). The rNNR index
//! [`SegmentedIndex`] is the one-rung case; the top-k ladder
//! [`SegmentedTopKIndex`] has one rung per schedule radius. A shard
//! holds:
//!
//! - a **memtable** — one mutable [`MapStore`]-backed index per rung
//!   absorbing inserts one point at a time (buckets hold
//!   memtable-local rows; one side table maps rows to global ids and
//!   tracks row liveness for every rung);
//! - immutable **segments** — one shared row slab plus one
//!   [`FrozenStore`] CSR arena per rung, built from flushed memtables
//!   through the existing blocked pipeline, their buckets and sketches
//!   keyed by **global** ids exactly like shard tables;
//! - **tombstones** — per-segment sets of deleted global ids (a
//!   HyperLogLog sketch cannot retract an element, so segment deletion
//!   is logical until the next merge);
//! - **merges** — small segments compact into one clean segment (dead
//!   rows dropped, tombstones cleared) whenever a shard exceeds its
//!   segment budget, or on demand via [`Segmented::compact`].
//!
//! Insert, delete, flush, merge and compact are written once and move
//! every rung together; the rungs differ only in what a query reads.
//!
//! # Determinism contract
//!
//! Queries union candidates across memtable + segments minus
//! tombstones, with S1 collision counts summed and S2 HLL registers
//! max-merged across sources exactly as the sharded/distributed merge
//! already does, so the Algorithm-2 arm decision is made **once,
//! globally** — and every answer is **byte-identical to an index
//! rebuilt from scratch on the surviving points**
//! ([`SegmentedIndex::build_bulk`] is that rebuild). The ingredients:
//!
//! 1. **Shared randomness** — a rung samples its g-functions once, at
//!    creation, and every memtable and segment of every shard shares
//!    that one set (and the rung's HLL hash); it is data-independent,
//!    and the rebuild samples the same set from the same seed. So a
//!    point collides with a query in a segment iff it would collide in
//!    the rebuilt index, and a query is hashed once per rung and its
//!    keys looked up in every part.
//! 2. **Global ids in the registers** — clean segments contribute
//!    their materialised sketches (hashed over global ids); dirty
//!    segments and the memtable contribute **raw global ids** with
//!    dead rows filtered out. Register-wise `max` is associative, so
//!    the merged registers equal the rebuild's bit for bit, and the
//!    estimate (a pure function of the registers) matches exactly.
//! 3. **Global decisions on a pinned cost model** — each rung's cost
//!    model is resolved once at creation and never recalibrated
//!    (calibration is data-dependent; supply an explicit [`CostModel`]
//!    for a mutation-independent byte-identity guarantee), and `n` is
//!    the **live** point count, matching the rebuild's `n`.
//! 4. **Liveness invariant** — at most one *live* location per global
//!    id across all sources (inserts reject duplicates; deletes kill
//!    the single live location), so per-source dedup sums equal the
//!    rebuild's per-shard dedup counts and result ids never repeat.
//!
//! rNNR ids are reported ascending (the canonical sharded order);
//! top-k rankings are `(distance, id)` heaps whose content depends
//! only on the offered candidate *set*, which is preserved level by
//! level. `tests/mutable_props.rs` pins the contract across arbitrary
//! interleavings, shard counts, verify modes and flush timings; the
//! in-module tests pin the tombstone edge cases on both faces.
//!
//! Merges run synchronously inside mutating calls (amortised by the
//! segment budget). Byte identity makes merge *timing* unobservable to
//! queries, so moving merges to a background thread could only change
//! when work happens, never an answer.

use std::sync::Arc;

use hlsh_families::{GFunction, LshFamily};
use hlsh_hll::{HllConfig, MergeAccumulator};
use hlsh_vec::{DenseDataset, Distance, Hit, PointId, SubsetPointSet};

use crate::bucket::BucketRef;
use crate::builder::IndexBuilder;
use crate::cost::CostModel;
use crate::dedup::Dedup;
use crate::engine::{Engine, Level, RnnrIndex, Scratch, TopKLadder};
use crate::hasher::{FxHashMap, FxHashSet};
use crate::index::HybridLshIndex;
use crate::report::QueryOutput;
use crate::schedule::RadiusSchedule;
use crate::search::{Strategy, VerifyMode};
use crate::sharded::{relabel_from, ShardAssignment};
use crate::store::{FrozenStore, MapStore};
use crate::topk::{fallback_scan_pairs, TopKOutput};

/// Why an insert or delete was rejected. Mutations are all-or-nothing:
/// a rejected mutation leaves the index untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// Insert of a global id that is already live somewhere in the
    /// index (delete it first to replace its point).
    DuplicateId {
        /// The offending global id.
        id: PointId,
    },
    /// Delete of a global id that is not live anywhere (never
    /// inserted, or already deleted).
    UnknownId {
        /// The offending global id.
        id: PointId,
    },
    /// Inserted point's dimensionality differs from the index's.
    DimMismatch {
        /// The index dimensionality.
        expected: usize,
        /// The inserted point's dimensionality.
        got: usize,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::DuplicateId { id } => write!(f, "id {id} is already live in the index"),
            Self::UnknownId { id } => write!(f, "id {id} is not live in the index"),
            Self::DimMismatch { expected, got } => {
                write!(f, "point has dimension {got}, index expects {expected}")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// One LSH index configuration: the builder every memtable and segment
/// of this rung is built from, with the cost model pinned at creation,
/// and the rung's g-functions, sampled once here and shared by every
/// memtable and segment of every shard.
struct Rung<F, D>
where
    F: LshFamily<[f32]>,
{
    builder: IndexBuilder<F, D>,
    gfns: Vec<Arc<F::GFn>>,
    cost: CostModel,
    hll: HllConfig,
}

impl<F, D> Rung<F, D>
where
    F: LshFamily<[f32]> + Clone,
    D: Distance<[f32]> + Clone,
{
    /// Samples the rung's g-functions and pins the builder's cost model
    /// (its explicit model if set, otherwise the empty-data default).
    fn new(builder: IndexBuilder<F, D>, dim: usize) -> Self {
        let gfns = builder.prepare();
        let cost = builder.resolve_cost(&DenseDataset::new(dim));
        let hll = builder.hll_config();
        Self { builder: builder.cost_model(cost).sequential(), gfns, cost, hll }
    }

    /// An empty memtable index: buckets hold memtable-local rows and are
    /// never sketched (local rows must not leak into merged registers;
    /// the level query contributes live global ids raw).
    fn memtable(&self, dim: usize) -> HybridLshIndex<DenseDataset, F, D, MapStore> {
        let builder = self.builder.clone().lazy_threshold(usize::MAX);
        builder.build_mapped(DenseDataset::new(dim), self.gfns.clone(), None)
    }

    /// A frozen index over a segment slab whose row `i` carries global
    /// id `ids[i]` (ascending — the blocked pipeline's id-mapping hook
    /// requires it and the binary-search translation depends on it).
    fn segment(
        &self,
        data: &Arc<DenseDataset>,
        ids: &[PointId],
    ) -> HybridLshIndex<Arc<DenseDataset>, F, D, FrozenStore> {
        self.builder.clone().build_frozen_mapped(Arc::clone(data), self.gfns.clone(), Some(ids))
    }
}

/// Memtable row bookkeeping shared by every rung: memtable buckets hold
/// local row numbers; this maps rows to global ids and tracks which
/// rows are still live. Rows are append-only — a deleted or superseded
/// row stays in the buckets (and the slab) as a dead row filtered out
/// at query time, until the next flush drops it.
#[derive(Default)]
struct Rows {
    /// `ids[row] = global id` (including dead rows).
    ids: Vec<PointId>,
    /// `live[row]`: whether the row still represents its id.
    live: Vec<bool>,
    /// `global id → live row`; ids with only dead rows are absent.
    row_of: FxHashMap<PointId, u32>,
    live_rows: usize,
}

impl Rows {
    /// Records a freshly appended live row for `id`.
    fn append(&mut self, id: PointId) {
        let row = self.ids.len() as u32;
        self.ids.push(id);
        self.live.push(true);
        self.row_of.insert(id, row);
        self.live_rows += 1;
    }

    /// Kills `id`'s live row, if it has one.
    fn kill(&mut self, id: PointId) -> bool {
        match self.row_of.remove(&id) {
            Some(row) => {
                self.live[row as usize] = false;
                self.live_rows -= 1;
                true
            }
            None => false,
        }
    }
}

/// A segment's id mapping plus its logical deletions. `ids` is
/// ascending, so local row `i` holds global id `ids[i]` and
/// global→local is a binary search.
struct SegMeta {
    ids: Vec<PointId>,
    tombstones: FxHashSet<PointId>,
}

impl SegMeta {
    fn new(ids: Vec<PointId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "segment ids must ascend");
        Self { ids, tombstones: FxHashSet::default() }
    }

    /// Whether `id` is stored here and not tombstoned.
    fn contains_live(&self, id: PointId) -> bool {
        self.ids.binary_search(&id).is_ok() && !self.tombstones.contains(&id)
    }

    fn live_len(&self) -> usize {
        self.ids.len() - self.tombstones.len()
    }

    /// Whether any stored row is tombstoned (a dirty segment's sketch
    /// overcounts, so queries fall back to raw-id contribution).
    fn is_dirty(&self) -> bool {
        !self.tombstones.is_empty()
    }
}

/// The mutable head of one shard: one [`MapStore`]-backed index per
/// rung (each owns its own small copy of the memtable points —
/// memtables are small by construction) and the one row table.
struct Memtable<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    rungs: Vec<HybridLshIndex<DenseDataset, F, D, MapStore>>,
    rows: Rows,
}

impl<F, D> Memtable<F, D>
where
    F: LshFamily<[f32]> + Clone,
    D: Distance<[f32]> + Clone,
{
    fn new(rungs: &[Rung<F, D>], dim: usize) -> Self {
        Self { rungs: rungs.iter().map(|rung| rung.memtable(dim)).collect(), rows: Rows::default() }
    }

    fn insert(&mut self, id: PointId, point: &[f32]) {
        for index in &mut self.rungs {
            index.insert(point);
        }
        self.rows.append(id);
    }

    /// The live rows sorted by global id, as `(slab in id order,
    /// ascending ids)` — the flush input.
    fn drain_live(&self) -> (DenseDataset, Vec<PointId>) {
        let data = self.rungs[0].data();
        let mut pairs: Vec<(PointId, u32)> =
            self.rows.row_of.iter().map(|(&id, &row)| (id, row)).collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut slab = DenseDataset::with_capacity(data.dim(), pairs.len());
        for &(_, row) in &pairs {
            slab.push(data.row(row as usize));
        }
        (slab, pairs.into_iter().map(|(id, _)| id).collect())
    }
}

/// One immutable segment: one row slab shared by one frozen index per
/// rung, buckets and sketches keyed by global ids, plus tombstones for
/// logical deletes.
struct Segment<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    data: Arc<DenseDataset>,
    meta: SegMeta,
    rungs: Vec<HybridLshIndex<Arc<DenseDataset>, F, D, FrozenStore>>,
}

impl<F, D> Segment<F, D>
where
    F: LshFamily<[f32]> + Clone,
    D: Distance<[f32]> + Clone,
{
    /// Builds one clean segment over `data` whose row `i` carries
    /// global id `ids[i]` (ascending).
    fn build(rungs: &[Rung<F, D>], data: DenseDataset, ids: Vec<PointId>) -> Self {
        let data = Arc::new(data);
        let indexes = rungs.iter().map(|rung| rung.segment(&data, &ids)).collect();
        Self { data, meta: SegMeta::new(ids), rungs: indexes }
    }

    /// Merges segments into one clean segment (tombstoned rows
    /// dropped); `None` when nothing survives.
    fn merge(segs: Vec<Self>, rungs: &[Rung<F, D>]) -> Option<Self> {
        let total: usize = segs.iter().map(|s| s.meta.live_len()).sum();
        if total == 0 {
            return None;
        }
        let mut entries: Vec<(PointId, usize, usize)> = Vec::with_capacity(total);
        for (si, seg) in segs.iter().enumerate() {
            for (local, &id) in seg.meta.ids.iter().enumerate() {
                if !seg.meta.tombstones.contains(&id) {
                    entries.push((id, si, local));
                }
            }
        }
        entries.sort_unstable_by_key(|&(id, _, _)| id);
        let mut slab = DenseDataset::with_capacity(segs[0].data.dim(), entries.len());
        for &(_, si, local) in &entries {
            slab.push(segs[si].data.row(local));
        }
        Some(Self::build(rungs, slab, entries.into_iter().map(|(id, _, _)| id).collect()))
    }
}

/// One shard's LSM hierarchy: the memtable plus its frozen segments.
struct LsmShard<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    mem: Memtable<F, D>,
    segments: Vec<Segment<F, D>>,
}

impl<F, D> LsmShard<F, D>
where
    F: LshFamily<[f32]> + Clone,
    D: Distance<[f32]> + Clone,
{
    /// Compacts the two smallest segments (by live size) into one.
    fn merge_two_smallest(&mut self, rungs: &[Rung<F, D>]) {
        let mut order: Vec<usize> = (0..self.segments.len()).collect();
        order.sort_by_key(|&i| (self.segments[i].meta.live_len(), i));
        let (a, b) = (order[0].min(order[1]), order[0].max(order[1]));
        let seg_b = self.segments.remove(b);
        let seg_a = self.segments.remove(a);
        if let Some(merged) = Segment::merge(vec![seg_a, seg_b], rungs) {
            self.segments.insert(a, merged);
        }
    }
}

/// A living index over a list of rungs that accepts inserts and deletes
/// while serving queries whose answers stay byte-identical to a rebuild
/// from scratch on the surviving points (see the module docs for the
/// contract).
///
/// Points are partitioned across shards by a [`ShardAssignment`] (so a
/// segmented index composes with the sharded serving layout); each
/// shard is an independent memtable + segment hierarchy whose every
/// memtable and segment carries one index per rung. `L` is what the
/// rungs stand for: `()` for the one-rung rNNR index
/// [`SegmentedIndex`], the [`RadiusSchedule`] for the top-k ladder
/// [`SegmentedTopKIndex`].
pub struct Segmented<F, D, L>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    shards: Vec<LsmShard<F, D>>,
    rungs: Vec<Rung<F, D>>,
    ladder: L,
    assignment: ShardAssignment,
    dim: usize,
    live: usize,
    flush_threshold: usize,
    max_segments: usize,
}

/// An rNNR index that accepts inserts and deletes: the one-rung
/// [`Segmented`] index. Queries run through the [`Engine`], which
/// merges statistics globally before deciding the arm.
pub type SegmentedIndex<F, D> = Segmented<F, D, ()>;

/// A top-k index that accepts inserts and deletes while serving
/// `(distance, id)` rankings byte-identical to a ladder rebuilt from
/// scratch on the surviving points: the [`Segmented`] index with one
/// rung per schedule radius, walked by the [`Engine`].
pub type SegmentedTopKIndex<F, D> = Segmented<F, D, RadiusSchedule>;

/// Default memtable rows (live + dead) that trigger a flush.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 4096;
/// Default per-shard segment budget before merges kick in.
pub const DEFAULT_MAX_SEGMENTS: usize = 8;

impl<F, D, L> Segmented<F, D, L>
where
    F: LshFamily<[f32]> + Clone,
    D: Distance<[f32]> + Clone,
{
    /// An empty index with one rung per builder.
    fn with_rungs(
        dim: usize,
        assignment: ShardAssignment,
        ladder: L,
        builders: impl IntoIterator<Item = IndexBuilder<F, D>>,
        flush_threshold: usize,
        max_segments: usize,
    ) -> Self {
        assert!(flush_threshold >= 1, "flush threshold must be at least 1");
        assert!(max_segments >= 1, "segment budget must be at least 1");
        let rungs: Vec<Rung<F, D>> = builders.into_iter().map(|b| Rung::new(b, dim)).collect();
        let shards = (0..assignment.shards())
            .map(|_| LsmShard { mem: Memtable::new(&rungs, dim), segments: Vec::new() })
            .collect();
        Self { shards, rungs, ladder, assignment, dim, live: 0, flush_threshold, max_segments }
    }

    /// Fills an empty index with a whole corpus at once: one clean
    /// frozen segment per shard, empty memtables.
    fn bulk(mut self, data: DenseDataset, ids: &[PointId]) -> Self {
        assert_eq!(ids.len(), data.len(), "one id per data row");
        let mut seen = FxHashSet::default();
        for &id in ids {
            assert!(seen.insert(id), "duplicate id {id} in bulk build");
        }
        let mut per_shard: Vec<Vec<(PointId, u32)>> = vec![Vec::new(); self.assignment.shards()];
        for (row, &id) in ids.iter().enumerate() {
            per_shard[self.assignment.shard_of(id)].push((id, row as u32));
        }
        for (shard, mut pairs) in self.shards.iter_mut().zip(per_shard) {
            if pairs.is_empty() {
                continue;
            }
            pairs.sort_unstable_by_key(|&(id, _)| id);
            let rows: Vec<PointId> = pairs.iter().map(|&(_, row)| row).collect();
            let seg_ids = pairs.iter().map(|&(id, _)| id).collect();
            shard.segments.push(Segment::build(&self.rungs, data.subset(&rows), seg_ids));
        }
        self.live = data.len();
        self
    }

    /// Inserts `point` under global id `id` into every rung.
    ///
    /// The point lands in its shard's memtable; once the memtable
    /// reaches the flush threshold the shard flushes (and possibly
    /// merges) synchronously. Rejects ids that are already live and
    /// points of the wrong dimension, leaving the index untouched.
    pub fn insert(&mut self, id: PointId, point: &[f32]) -> Result<(), MutationError> {
        if point.len() != self.dim {
            return Err(MutationError::DimMismatch { expected: self.dim, got: point.len() });
        }
        if self.contains(id) {
            return Err(MutationError::DuplicateId { id });
        }
        let si = self.assignment.shard_of(id);
        self.shards[si].mem.insert(id, point);
        self.live += 1;
        if self.shards[si].mem.rows.ids.len() >= self.flush_threshold {
            self.flush_shard(si);
        }
        Ok(())
    }

    /// Deletes global id `id`: kills its memtable row in place, or
    /// tombstones it in the segment holding it live. Rejects ids that
    /// are not live (never inserted, or already deleted).
    pub fn delete(&mut self, id: PointId) -> Result<(), MutationError> {
        let shard = &mut self.shards[self.assignment.shard_of(id)];
        let killed = shard.mem.rows.kill(id)
            || shard
                .segments
                .iter_mut()
                .any(|seg| seg.meta.contains_live(id) && seg.meta.tombstones.insert(id));
        if !killed {
            return Err(MutationError::UnknownId { id });
        }
        self.live -= 1;
        Ok(())
    }

    /// Flushes shard `shard`'s memtable into a new frozen segment
    /// (dead rows dropped), then merges while the shard exceeds its
    /// segment budget. A memtable with no live rows resets without
    /// producing a segment. Query answers are unchanged.
    pub fn flush_shard(&mut self, shard: usize) {
        let sh = &mut self.shards[shard];
        if sh.mem.rows.live_rows > 0 {
            let (slab, ids) = sh.mem.drain_live();
            sh.segments.push(Segment::build(&self.rungs, slab, ids));
        }
        if !sh.mem.rows.ids.is_empty() {
            sh.mem = Memtable::new(&self.rungs, self.dim);
        }
        while sh.segments.len() > self.max_segments {
            sh.merge_two_smallest(&self.rungs);
        }
    }

    /// Flushes every shard's memtable; see
    /// [`flush_shard`](Self::flush_shard).
    pub fn flush(&mut self) {
        for si in 0..self.shards.len() {
            self.flush_shard(si);
        }
    }

    /// Merges all of shard `shard`'s segments into one clean segment,
    /// dropping tombstoned rows. No-op when the shard already holds at
    /// most one clean segment. The memtable is untouched — flush first
    /// for a fully compacted shard.
    pub fn compact_shard(&mut self, shard: usize) {
        let sh = &mut self.shards[shard];
        if sh.segments.len() <= 1 && !sh.segments.iter().any(|s| s.meta.is_dirty()) {
            return;
        }
        let segs = std::mem::take(&mut sh.segments);
        sh.segments.extend(Segment::merge(segs, &self.rungs));
    }

    /// Compacts every shard; see
    /// [`compact_shard`](Self::compact_shard).
    pub fn compact(&mut self) {
        for si in 0..self.shards.len() {
            self.compact_shard(si);
        }
    }
}

impl<F, D, L> Segmented<F, D, L>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Every memtable and segment at rung `rung` as one Algorithm 2
    /// source.
    fn rung_level(&self, rung: usize) -> SegmentedLevel<'_, F, D> {
        let parts = self.shards.iter().flat_map(|shard| {
            let mem = (shard.mem.rows.live_rows > 0)
                .then(|| Part::Mem(&shard.mem.rungs[rung], &shard.mem.rows));
            let segs = shard.segments.iter().map(move |s| Part::Seg(&s.rungs[rung], &s.meta));
            mem.into_iter().chain(segs)
        });
        let Rung { ref gfns, cost, hll, .. } = self.rungs[rung];
        SegmentedLevel { parts: parts.collect(), gfns, hll, cost, n: self.live }
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live points are indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shard assignment in force.
    pub fn assignment(&self) -> ShardAssignment {
        self.assignment
    }

    /// Whether `id` is currently live.
    pub fn contains(&self, id: PointId) -> bool {
        let shard = &self.shards[self.assignment.shard_of(id)];
        shard.mem.rows.row_of.contains_key(&id)
            || shard.segments.iter().any(|s| s.meta.contains_live(id))
    }

    /// Per-shard frozen segment counts (instrumentation: shows flush
    /// and merge activity).
    pub fn segment_counts(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.segments.len()).collect()
    }

    /// All live global ids, ascending.
    pub fn live_ids(&self) -> Vec<PointId> {
        let mut ids = Vec::with_capacity(self.live);
        for sh in &self.shards {
            ids.extend(sh.mem.rows.row_of.keys().copied());
            for seg in &sh.segments {
                ids.extend(
                    seg.meta.ids.iter().filter(|id| !seg.meta.tombstones.contains(id)).copied(),
                );
            }
        }
        ids.sort_unstable();
        ids
    }
}

impl<F, D> SegmentedIndex<F, D>
where
    F: LshFamily<[f32]> + Clone,
    D: Distance<[f32]> + Clone,
{
    /// An empty segmented index for `dim`-dimensional points with the
    /// default flush threshold and segment budget.
    ///
    /// The cost model is pinned here, once: the builder's explicit
    /// model if set, otherwise the empty-data default. Supply an
    /// explicit [`CostModel`] (via
    /// [`IndexBuilder::cost_model`]) when byte-identity
    /// against a rebuild matters — calibration is data-dependent, so a
    /// model calibrated at rebuild time could differ.
    pub fn new(dim: usize, assignment: ShardAssignment, builder: IndexBuilder<F, D>) -> Self {
        Self::with_limits(dim, assignment, builder, DEFAULT_FLUSH_THRESHOLD, DEFAULT_MAX_SEGMENTS)
    }

    /// [`new`](Self::new) with explicit LSM knobs: a shard flushes its
    /// memtable once it holds `flush_threshold` rows (live + dead),
    /// and merges segments whenever it exceeds `max_segments`.
    ///
    /// Neither knob affects query answers — only when work happens.
    ///
    /// # Panics
    /// Panics if `flush_threshold == 0` or `max_segments == 0`.
    pub fn with_limits(
        dim: usize,
        assignment: ShardAssignment,
        builder: IndexBuilder<F, D>,
        flush_threshold: usize,
        max_segments: usize,
    ) -> Self {
        Self::with_rungs(dim, assignment, (), [builder], flush_threshold, max_segments)
    }

    /// Builds the index over a whole corpus at once: one clean frozen
    /// segment per shard, empty memtables. This is the
    /// rebuild-from-scratch oracle the mutation paths are pinned
    /// against — `ids[i]` is row `i`'s global id.
    ///
    /// # Panics
    /// Panics if `ids.len() != data.len()` or `ids` contains
    /// duplicates.
    pub fn build_bulk(
        data: DenseDataset,
        ids: &[PointId],
        assignment: ShardAssignment,
        builder: IndexBuilder<F, D>,
    ) -> Self {
        Self::new(data.dim(), assignment, builder).bulk(data, ids)
    }
}

impl<F, D> SegmentedIndex<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// The cost model pinned at creation, shared by every source.
    pub fn cost_model(&self) -> CostModel {
        self.rungs[0].cost
    }

    /// The HLL configuration shared by every source's buckets.
    pub fn hll_config(&self) -> HllConfig {
        self.rungs[0].hll
    }

    /// Hybrid query with fresh scratch; batch workloads should reuse an
    /// [`Engine`].
    pub fn query(&self, q: &[f32], r: f64) -> QueryOutput {
        Engine::new().query(self, q, r)
    }

    /// Runs a query under an explicit strategy; see
    /// [`Engine::query_with_strategy`].
    pub fn query_with_strategy(&self, q: &[f32], r: f64, strategy: Strategy) -> QueryOutput {
        Engine::new().query_with_strategy(self, q, r, strategy)
    }
}

impl<F, D> SegmentedTopKIndex<F, D>
where
    F: LshFamily<[f32]> + Clone,
    D: Distance<[f32]> + Clone,
{
    /// An empty segmented ladder with the default LSM knobs.
    /// `level_builder(level, radius)` configures each level exactly as
    /// for [`TopKIndex::build`](crate::topk::TopKIndex::build); each
    /// level's cost model is pinned at creation (see
    /// [`SegmentedIndex::new`] on why explicit models matter for
    /// byte-identity).
    pub fn new(
        dim: usize,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        level_builder: impl Fn(usize, f64) -> IndexBuilder<F, D>,
    ) -> Self {
        Self::with_limits(
            dim,
            assignment,
            schedule,
            level_builder,
            DEFAULT_FLUSH_THRESHOLD,
            DEFAULT_MAX_SEGMENTS,
        )
    }

    /// [`new`](Self::new) with explicit flush threshold and per-shard
    /// segment budget; neither affects query answers.
    ///
    /// # Panics
    /// Panics if `flush_threshold == 0` or `max_segments == 0`.
    pub fn with_limits(
        dim: usize,
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        level_builder: impl Fn(usize, f64) -> IndexBuilder<F, D>,
        flush_threshold: usize,
        max_segments: usize,
    ) -> Self {
        let builders = schedule.radii().enumerate().map(|(li, r)| level_builder(li, r));
        Self::with_rungs(dim, assignment, schedule, builders, flush_threshold, max_segments)
    }

    /// Builds the ladder over a whole corpus at once: one clean frozen
    /// segment per shard, empty memtables — the rebuild oracle.
    ///
    /// # Panics
    /// Panics if `ids.len() != data.len()` or `ids` contains
    /// duplicates.
    pub fn build_bulk(
        data: DenseDataset,
        ids: &[PointId],
        assignment: ShardAssignment,
        schedule: RadiusSchedule,
        level_builder: impl Fn(usize, f64) -> IndexBuilder<F, D>,
    ) -> Self {
        Self::new(data.dim(), assignment, schedule, level_builder).bulk(data, ids)
    }
}

impl<F, D> SegmentedTopKIndex<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// The radius schedule shared by every segment and memtable.
    pub fn schedule(&self) -> RadiusSchedule {
        self.ladder
    }

    /// Answers one top-k query with fresh scratch.
    pub fn query_topk(&self, q: &[f32], k: usize) -> TopKOutput {
        Engine::new().query_topk(self, q, k)
    }
}

/// One query across every memtable and segment: S1 probes every source
/// (dead rows excluded from the counts), S2 merges every probed sketch
/// or surviving raw id into one accumulator, the Algorithm 2 decision
/// compares the global costs once against the **live** `n`, and the
/// chosen arm runs on every source; outputs are mapped to global ids
/// and reported in ascending-id order — byte-identical to
/// [`SegmentedIndex::build_bulk`] on the surviving points.
impl<F, D> RnnrIndex for SegmentedIndex<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    type Point = [f32];

    fn rnnr(&self, s: &mut Scratch, q: &[f32], r: f64, strategy: Strategy) -> QueryOutput {
        s.level.query_sorted(&self.rung_level(0), q, r, strategy)
    }
}

/// The global schedule walk over memtables and segments; every decision
/// (skip, early exit, arm choice, fallback) is made on merged statistics
/// against the live point count, so the walk matches a rebuilt ladder
/// step for step.
impl<F, D> TopKLadder for SegmentedTopKIndex<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    type Point = [f32];

    fn topk(&self, s: &mut Scratch, q: &[f32], k: usize, strategy: Strategy) -> TopKOutput {
        let rungs: Vec<_> = (0..self.ladder.levels()).map(|li| self.rung_level(li)).collect();
        s.walk.run(&mut s.level, &rungs, self.ladder, q, k, strategy)
    }
}

/// The engine of a [`SegmentedIndex`] (an alias of [`Engine`]).
pub type SegmentedQueryEngine = Engine;

/// The engine of a [`SegmentedTopKIndex`] (an alias of [`Engine`]).
pub type SegmentedTopKEngine = Engine;

/// How one source's local rows map to global ids: a memtable's row
/// bookkeeping, or a segment's ascending id list and tombstones.
#[derive(Clone, Copy)]
enum SourceIds<'a> {
    Mem(&'a Rows),
    Seg(&'a SegMeta),
}

impl SourceIds<'_> {
    /// The global id of local row `local`, live or not.
    fn global(self, local: PointId) -> PointId {
        match self {
            SourceIds::Mem(rows) => rows.ids[local as usize],
            SourceIds::Seg(meta) => meta.ids[local as usize],
        }
    }

    /// The global id of local row `local`, or `None` when the row is a
    /// dead memtable row or a tombstoned segment row.
    fn live_global(self, local: PointId) -> Option<PointId> {
        match self {
            SourceIds::Mem(rows) => rows.live[local as usize].then(|| rows.ids[local as usize]),
            SourceIds::Seg(meta) => {
                let id = meta.ids[local as usize];
                (!meta.tombstones.contains(&id)).then_some(id)
            }
        }
    }
}

/// One memtable or segment at one rung.
enum Part<'a, F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// A memtable: buckets hold memtable-local rows and carry no
    /// sketches.
    Mem(&'a HybridLshIndex<DenseDataset, F, D, MapStore>, &'a Rows),
    /// A segment: buckets and sketches hold global ids.
    Seg(&'a HybridLshIndex<Arc<DenseDataset>, F, D, FrozenStore>, &'a SegMeta),
}

impl<'a, F, D> Part<'a, F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    fn ids(&self) -> SourceIds<'a> {
        match *self {
            Part::Mem(_, rows) => SourceIds::Mem(rows),
            Part::Seg(_, meta) => SourceIds::Seg(meta),
        }
    }

    /// The slab S3 verifies against and its metric.
    fn slab(&self) -> (&'a DenseDataset, &'a D) {
        match *self {
            Part::Mem(index, _) => (index.data(), index.distance()),
            Part::Seg(index, _) => (index.data(), index.distance()),
        }
    }

    /// S1 on this part for the rung's keys of one query: the probed
    /// buckets and their **live** member count (dead memtable rows and
    /// tombstoned segment rows excluded).
    fn probe(&self, keys: &[u64]) -> (Vec<BucketRef<'a>>, usize) {
        match *self {
            Part::Mem(index, rows) => {
                let (buckets, _) = index.lookup(keys.iter().copied());
                let members = buckets.iter().flat_map(|b| b.members());
                let collisions = members.filter(|&&row| rows.live[row as usize]).count();
                (buckets, collisions)
            }
            Part::Seg(index, meta) => {
                let (buckets, collisions) = index.lookup(keys.iter().copied());
                if !meta.is_dirty() {
                    return (buckets, collisions);
                }
                let surviving = buckets
                    .iter()
                    .flat_map(|b| b.members())
                    .filter(|id| !meta.tombstones.contains(id))
                    .count();
                (buckets, surviving)
            }
        }
    }
}

/// Every memtable and segment of a segmented index at one rung as one
/// Algorithm 2 source.
///
/// S1 counts live members only; S2 feeds clean segments' stored
/// sketches (or raw global members) and the **raw global ids** of the
/// memtables' live rows and dirty segments' surviving rows, so the
/// merged registers equal a rebuild's bit for bit; the decision runs on
/// the pinned cost model against the live `n`. Each part dedups its own
/// surviving members — live ids are disjoint across parts — and hits are
/// reported under global ids, part by part.
pub(crate) struct SegmentedLevel<'a, F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    parts: Vec<Part<'a, F, D>>,
    /// The rung's shared g-functions: a query is hashed once with them.
    gfns: &'a [Arc<F::GFn>],
    hll: HllConfig,
    cost: CostModel,
    /// The live point count.
    n: usize,
}

impl<F, D> Level for SegmentedLevel<'_, F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    type Point = [f32];
    type Probe<'p>
        = Vec<Vec<BucketRef<'p>>>
    where
        Self: 'p;

    fn n(&self) -> usize {
        self.n
    }

    fn hll_config(&self) -> HllConfig {
        self.hll
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Hashes `q` once and looks the `L` keys up in every part.
    fn probe(&self, q: &[f32]) -> (Vec<Vec<BucketRef<'_>>>, usize) {
        let keys: Vec<u64> = self.gfns.iter().map(|g| g.bucket_key(q)).collect();
        let mut collisions = 0;
        let probe = self
            .parts
            .iter()
            .map(|part| {
                let (buckets, c) = part.probe(&keys);
                collisions += c;
                buckets
            })
            .collect();
        (probe, collisions)
    }

    fn contribute(&self, probe: &Vec<Vec<BucketRef<'_>>>, acc: &mut MergeAccumulator) {
        for (part, buckets) in self.parts.iter().zip(probe) {
            match part.ids() {
                SourceIds::Mem(rows) => {
                    for b in buckets {
                        acc.add_raw(
                            b.members()
                                .iter()
                                .filter(|&&row| rows.live[row as usize])
                                .map(|&row| rows.ids[row as usize] as u64),
                        );
                    }
                }
                SourceIds::Seg(meta) if meta.is_dirty() => {
                    for b in buckets {
                        acc.add_raw(
                            b.members()
                                .iter()
                                .filter(|id| !meta.tombstones.contains(id))
                                .map(|&id| id as u64),
                        );
                    }
                }
                SourceIds::Seg(_) => {
                    for b in buckets {
                        b.contribute_to(acc);
                    }
                }
            }
        }
    }

    fn lsh_into<H: Hit>(
        &self,
        probe: &Vec<Vec<BucketRef<'_>>>,
        q: &[f32],
        r: f64,
        verify: VerifyMode,
        Dedup { set: seen, cands, .. }: &mut Dedup,
        out: &mut Vec<H>,
    ) -> usize {
        let mut distinct = 0;
        for (part, buckets) in self.parts.iter().zip(probe) {
            let ids = part.ids();
            match ids {
                SourceIds::Mem(rows) => collect_mem_cands(seen, cands, buckets, rows),
                SourceIds::Seg(meta) => collect_seg_cands(seen, cands, buckets, meta),
            }
            let (data, distance) = part.slab();
            let start = out.len();
            verify.verify(distance, data, cands, q, r, out);
            relabel_from(out, start, |local| Some(ids.global(local)));
            distinct += cands.len();
        }
        distinct
    }

    /// Per-point acceptance is the predicate the rebuild's scan applies,
    /// so dropping dead rows afterwards changes nothing else.
    fn scan_into<H: Hit>(&self, q: &[f32], r: f64, verify: VerifyMode, out: &mut Vec<H>) {
        for part in &self.parts {
            let ((data, distance), ids) = (part.slab(), part.ids());
            let start = out.len();
            verify.scan(distance, data, q, r, out);
            relabel_from(out, start, |local| ids.live_global(local));
        }
    }

    fn fallback_pairs(&self, q: &[f32], verify: VerifyMode) -> Vec<(PointId, f64)> {
        let mut pairs = Vec::with_capacity(self.n);
        for part in &self.parts {
            let ((data, distance), ids) = (part.slab(), part.ids());
            pairs.extend(
                fallback_scan_pairs(data, distance, q, verify)
                    .into_iter()
                    .filter_map(|(local, dist)| Some((ids.live_global(local)?, dist))),
            );
        }
        pairs
    }
}

/// Collects a memtable source's deduped candidates: live rows whose
/// global id is new to `seen`, pushed as memtable rows.
fn collect_mem_cands(
    seen: &mut FxHashSet<PointId>,
    cands: &mut Vec<PointId>,
    buckets: &[BucketRef<'_>],
    rows: &Rows,
) {
    seen.clear();
    cands.clear();
    for b in buckets {
        for &row in b.members() {
            if rows.live[row as usize] && seen.insert(rows.ids[row as usize]) {
                cands.push(row);
            }
        }
    }
}

/// Collects a segment source's deduped candidates: surviving global
/// members translated to segment rows by binary search.
fn collect_seg_cands(
    seen: &mut FxHashSet<PointId>,
    cands: &mut Vec<PointId>,
    buckets: &[BucketRef<'_>],
    meta: &SegMeta,
) {
    seen.clear();
    cands.clear();
    for b in buckets {
        for &global in b.members() {
            if !meta.tombstones.contains(&global) && seen.insert(global) {
                let local = meta.ids.binary_search(&global).expect("segment member is indexed");
                cands.push(local as PointId);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{ShardedIndex, ShardedTopKIndex};
    use hlsh_families::pstable::PStableGFn;
    use hlsh_families::PStableL2;
    use hlsh_vec::L2;
    use rand::rngs::StdRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const DIM: usize = 2;

    /// Deterministic point for a global id, so oracles can regenerate
    /// any surviving subset from ids alone.
    fn point(id: PointId) -> [f32; DIM] {
        [(id % 17) as f32, (id / 17) as f32 * 0.5]
    }

    fn builder() -> IndexBuilder<PStableL2, L2> {
        IndexBuilder::new(PStableL2::new(DIM, 2.0), L2)
            .tables(8)
            .hash_len(4)
            .seed(11)
            .cost_model(CostModel::from_ratio(4.0))
    }

    fn dataset(ids: &[PointId]) -> DenseDataset {
        DenseDataset::from_rows(DIM, ids.iter().map(|&id| point(id)))
    }

    fn rebuild(index: &SegmentedIndex<PStableL2, L2>) -> SegmentedIndex<PStableL2, L2> {
        let ids = index.live_ids();
        SegmentedIndex::build_bulk(dataset(&ids), &ids, index.assignment(), builder())
    }

    /// Asserts byte-identity of outputs *and* decision-relevant report
    /// fields between the mutated index and its rebuild oracle, across
    /// strategies and verify modes.
    fn assert_matches_oracle(index: &SegmentedIndex<PStableL2, L2>, context: &str) {
        let oracle = rebuild(index);
        assert_eq!(index.len(), oracle.len(), "{context}: live count");
        for (qi, r) in [(0 as PointId, 1.0), (140, 2.5), (299, 0.2), (7, 5.0)] {
            let q = point(qi);
            for strategy in Strategy::ALL {
                for verify in [VerifyMode::Kernel, VerifyMode::Scalar] {
                    let mut engine = SegmentedQueryEngine::with_verify_mode(verify);
                    let got = engine.query_with_strategy(index, &q, r, strategy);
                    let mut oracle_engine = SegmentedQueryEngine::with_verify_mode(verify);
                    let want = oracle_engine.query_with_strategy(&oracle, &q, r, strategy);
                    let tag = format!("{context} q={qi} r={r} {strategy} {verify:?}");
                    assert_eq!(got.ids, want.ids, "{tag}: ids");
                    assert_eq!(got.report.executed, want.report.executed, "{tag}: arm");
                    assert_eq!(got.report.collisions, want.report.collisions, "{tag}: S1");
                    assert_eq!(
                        got.report.cand_size_estimate.to_bits(),
                        want.report.cand_size_estimate.to_bits(),
                        "{tag}: S2"
                    );
                    assert_eq!(
                        got.report.cand_size_actual, want.report.cand_size_actual,
                        "{tag}: distinct"
                    );
                }
            }
        }
    }

    /// One face of the segmented index under test — the one-rung rNNR
    /// index (`()`) or the top-k ladder (`RadiusSchedule`) — so a
    /// tombstone history runs on both and is checked against each
    /// face's rebuild oracle.
    trait Face: Sized {
        fn empty(
            assignment: ShardAssignment,
            flush_threshold: usize,
            max_segments: usize,
        ) -> Segmented<PStableL2, L2, Self>;
        fn assert_matches_oracle(index: &Segmented<PStableL2, L2, Self>, context: &str);
        /// How many points a query near `q` reports (radius 100 for
        /// rNNR, k = 5 for top-k): zero on an index with no live point.
        fn answered(index: &Segmented<PStableL2, L2, Self>, q: &[f32]) -> usize;
    }

    impl Face for () {
        fn empty(
            assignment: ShardAssignment,
            flush_threshold: usize,
            max_segments: usize,
        ) -> SegmentedIndex<PStableL2, L2> {
            SegmentedIndex::with_limits(DIM, assignment, builder(), flush_threshold, max_segments)
        }

        fn assert_matches_oracle(index: &SegmentedIndex<PStableL2, L2>, context: &str) {
            assert_matches_oracle(index, context);
        }

        fn answered(index: &SegmentedIndex<PStableL2, L2>, q: &[f32]) -> usize {
            index.query(q, 100.0).ids.len()
        }
    }

    impl Face for RadiusSchedule {
        fn empty(
            assignment: ShardAssignment,
            flush_threshold: usize,
            max_segments: usize,
        ) -> SegmentedTopKIndex<PStableL2, L2> {
            let (flush, max) = (flush_threshold, max_segments);
            SegmentedTopKIndex::with_limits(DIM, assignment, schedule(), level_builder, flush, max)
        }

        fn assert_matches_oracle(index: &SegmentedTopKIndex<PStableL2, L2>, context: &str) {
            assert_topk_matches_oracle(index, context);
        }

        fn answered(index: &SegmentedTopKIndex<PStableL2, L2>, q: &[f32]) -> usize {
            index.query_topk(q, 5).neighbors.len()
        }
    }

    #[test]
    fn bulk_build_matches_sharded_reference() {
        // Grounds the rebuild oracle itself: on dense ids 0..n the
        // segmented bulk build must reproduce the (already pinned)
        // sharded index bit for bit — ids, arm, S1 and S2.
        let n = 300;
        let ids: Vec<PointId> = (0..n as PointId).collect();
        let data = dataset(&ids);
        for shards in [1usize, 3] {
            let assignment = ShardAssignment::new(5, shards);
            let sharded = ShardedIndex::build(data.clone(), assignment, builder());
            let segmented = SegmentedIndex::build_bulk(data.clone(), &ids, assignment, builder());
            assert_eq!(segmented.len(), n);
            for (qi, r) in [(0 as PointId, 1.0), (140, 2.5), (299, 0.2)] {
                let q = point(qi);
                for strategy in Strategy::ALL {
                    let want = sharded.query_with_strategy(&q, r, strategy);
                    let got = segmented.query_with_strategy(&q, r, strategy);
                    let tag = format!("shards={shards} q={qi} r={r} {strategy}");
                    assert_eq!(got.ids, want.ids, "{tag}");
                    assert_eq!(got.report.executed, want.report.executed, "{tag}: arm");
                    assert_eq!(got.report.collisions, want.report.collisions, "{tag}: S1");
                    assert_eq!(
                        got.report.cand_size_estimate.to_bits(),
                        want.report.cand_size_estimate.to_bits(),
                        "{tag}: S2"
                    );
                }
            }
        }
    }

    #[test]
    fn insert_rejects_dim_mismatch_and_duplicates() {
        let mut index = SegmentedIndex::new(DIM, ShardAssignment::new(1, 2), builder());
        assert_eq!(
            index.insert(0, &[1.0, 2.0, 3.0]),
            Err(MutationError::DimMismatch { expected: DIM, got: 3 })
        );
        index.insert(7, &point(7)).unwrap();
        // Duplicate against the unflushed memtable...
        assert_eq!(index.insert(7, &point(7)), Err(MutationError::DuplicateId { id: 7 }));
        index.flush();
        // ...and against a frozen segment.
        assert_eq!(index.insert(7, &point(7)), Err(MutationError::DuplicateId { id: 7 }));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn delete_of_nonexistent_id_errors() {
        let mut index = SegmentedIndex::new(DIM, ShardAssignment::new(1, 2), builder());
        index.insert(3, &point(3)).unwrap();
        assert_eq!(index.delete(99), Err(MutationError::UnknownId { id: 99 }));
        assert_eq!(index.len(), 1);
        assert_matches_oracle(&index, "after rejected delete");
    }

    #[test]
    fn duplicate_delete_errors() {
        let mut index = SegmentedIndex::new(DIM, ShardAssignment::new(1, 2), builder());
        for id in 0..20 {
            index.insert(id, &point(id)).unwrap();
        }
        index.flush();
        index.delete(5).unwrap();
        // Second delete of a tombstoned segment id fails...
        assert_eq!(index.delete(5), Err(MutationError::UnknownId { id: 5 }));
        // ...as does a duplicate delete in the memtable.
        index.insert(100, &point(100)).unwrap();
        index.delete(100).unwrap();
        assert_eq!(index.delete(100), Err(MutationError::UnknownId { id: 100 }));
        assert_eq!(index.len(), 19);
        assert_matches_oracle(&index, "after duplicate deletes");
    }

    #[test]
    fn delete_in_unflushed_memtable_matches_oracle() {
        // Never flush: deletes land on memtable rows in place.
        fn history<L: Face>() {
            let mut index = L::empty(ShardAssignment::new(2, 2), usize::MAX, 8);
            for id in 0..120 {
                index.insert(id, &point(id)).unwrap();
            }
            for id in (0..120).step_by(3) {
                index.delete(id).unwrap();
            }
            assert_eq!(index.segment_counts(), vec![0, 0], "nothing flushed");
            assert_eq!(index.len(), 80);
            L::assert_matches_oracle(&index, "memtable deletes");
        }
        history::<()>();
        history::<RadiusSchedule>();
    }

    #[test]
    fn delete_then_reinsert_matches_oracle() {
        fn history<L: Face>() {
            let assignment = ShardAssignment::new(3, 2);
            let mut index = L::empty(assignment, DEFAULT_FLUSH_THRESHOLD, DEFAULT_MAX_SEGMENTS);
            for id in 0..100 {
                index.insert(id, &point(id)).unwrap();
            }
            index.flush();
            // Tombstone a segment id, then reinsert it (lands in the
            // memtable; the segment row stays dead).
            index.delete(42).unwrap();
            index.insert(42, &point(42)).unwrap();
            // Kill a memtable row and reinsert: the dead row stays in
            // the buckets, the live row is appended after it.
            index.insert(200, &point(200)).unwrap();
            index.delete(200).unwrap();
            index.insert(200, &point(200)).unwrap();
            assert_eq!(index.len(), 101);
            L::assert_matches_oracle(&index, "delete then reinsert");
        }
        history::<()>();
        history::<RadiusSchedule>();
    }

    #[test]
    fn query_mid_merge_matches_oracle() {
        // Flush-after-every-insert produces many tiny segments and
        // exercises the merge path; queries issued between partial
        // compactions (one shard compacted, the other not) must match
        // the oracle at every step.
        fn history<L: Face>() {
            let mut index = L::empty(ShardAssignment::new(7, 2), 1, 4);
            for id in 0..90 {
                index.insert(id, &point(id)).unwrap();
            }
            assert!(
                index.segment_counts().iter().all(|&c| c <= 4),
                "budget enforced: {:?}",
                index.segment_counts()
            );
            for id in (0..90).step_by(4) {
                index.delete(id).unwrap();
            }
            L::assert_matches_oracle(&index, "pre-compact");
            index.compact_shard(0);
            L::assert_matches_oracle(&index, "mid-merge (shard 0 compacted)");
            index.compact();
            assert_eq!(index.segment_counts(), vec![1, 1], "fully compacted");
            L::assert_matches_oracle(&index, "post-compact");
        }
        history::<()>();
        history::<RadiusSchedule>();
    }

    #[test]
    fn empty_and_emptied_indexes_answer_cleanly() {
        fn history<L: Face>() {
            let assignment = ShardAssignment::new(1, 2);
            let index = L::empty(assignment, DEFAULT_FLUSH_THRESHOLD, DEFAULT_MAX_SEGMENTS);
            assert!(index.is_empty());
            assert_eq!(L::answered(&index, &point(0)), 0);
            let mut index = L::empty(assignment, DEFAULT_FLUSH_THRESHOLD, DEFAULT_MAX_SEGMENTS);
            for id in 0..10 {
                index.insert(id, &point(id)).unwrap();
            }
            index.flush();
            assert!(L::answered(&index, &point(0)) > 0);
            for id in 0..10 {
                index.delete(id).unwrap();
            }
            assert!(index.is_empty());
            assert_eq!(L::answered(&index, &point(0)), 0);
            assert!(index.live_ids().is_empty());
            index.compact();
            assert_eq!(index.segment_counts(), vec![0, 0], "all-dead segments vanish");
        }
        history::<()>();
        history::<RadiusSchedule>();
    }

    // -- top-k ------------------------------------------------------

    fn level_builder(_li: usize, r: f64) -> IndexBuilder<PStableL2, L2> {
        IndexBuilder::new(PStableL2::new(DIM, 2.0 * r), L2)
            .tables(8)
            .hash_len(4)
            .seed(7)
            .cost_model(CostModel::from_ratio(4.0))
    }

    fn schedule() -> RadiusSchedule {
        RadiusSchedule::doubling(0.8, 4)
    }

    fn rebuild_topk(
        index: &SegmentedTopKIndex<PStableL2, L2>,
    ) -> SegmentedTopKIndex<PStableL2, L2> {
        let ids = index.live_ids();
        SegmentedTopKIndex::build_bulk(
            dataset(&ids),
            &ids,
            index.assignment(),
            index.schedule(),
            level_builder,
        )
    }

    fn assert_topk_matches_oracle(index: &SegmentedTopKIndex<PStableL2, L2>, context: &str) {
        let oracle = rebuild_topk(index);
        for qi in [0 as PointId, 31, 124, 249] {
            let q = point(qi);
            for k in [1usize, 7, 1000] {
                for verify in [VerifyMode::Kernel, VerifyMode::Scalar] {
                    let got =
                        SegmentedTopKEngine::with_verify_mode(verify).query_topk(index, &q, k);
                    let want =
                        SegmentedTopKEngine::with_verify_mode(verify).query_topk(&oracle, &q, k);
                    assert_eq!(got, want, "{context} q={qi} k={k} {verify:?}");
                }
            }
        }
    }

    #[test]
    fn bulk_topk_matches_sharded_reference() {
        let n = 250;
        let ids: Vec<PointId> = (0..n as PointId).collect();
        let data = dataset(&ids);
        for shards in [1usize, 4] {
            let assignment = ShardAssignment::new(3, shards);
            let sharded =
                ShardedTopKIndex::build(data.clone(), assignment, schedule(), level_builder);
            let segmented = SegmentedTopKIndex::build_bulk(
                data.clone(),
                &ids,
                assignment,
                schedule(),
                level_builder,
            );
            for qi in (0..n as PointId).step_by(31) {
                let q = point(qi);
                let want = sharded.query_topk(&q, 7);
                let got = segmented.query_topk(&q, 7);
                assert_eq!(got, want, "shards={shards} q={qi}");
            }
        }
    }

    #[test]
    fn topk_mutations_match_rebuild() {
        let mut index = SegmentedTopKIndex::with_limits(
            DIM,
            ShardAssignment::new(9, 2),
            schedule(),
            level_builder,
            40,
            3,
        );
        for id in 0..150 {
            index.insert(id, &point(id)).unwrap();
        }
        for id in (0..150).step_by(5) {
            index.delete(id).unwrap();
        }
        assert_topk_matches_oracle(&index, "after churn");
        // Reinsert a tombstoned id and a memtable-killed id.
        index.insert(0, &point(0)).unwrap();
        assert_eq!(index.insert(0, &point(0)), Err(MutationError::DuplicateId { id: 0 }));
        assert_eq!(index.delete(5), Err(MutationError::UnknownId { id: 5 }));
        index.compact_shard(0);
        assert_topk_matches_oracle(&index, "mid-merge");
        index.flush();
        index.compact();
        assert_topk_matches_oracle(&index, "post-compact");
        // Drain to empty: top-k on an empty ladder returns nothing.
        for id in index.live_ids() {
            index.delete(id).unwrap();
        }
        assert!(index.query_topk(&point(0), 5).neighbors.is_empty());
    }

    // -- one g-function set per rung ---------------------------------

    /// Asserts every memtable and segment of every shard holds, table by
    /// table, the very g-function allocation its rung sampled.
    fn assert_shared<L>(index: &Segmented<PStableL2, L2, L>, context: &str) {
        for (li, rung) in index.rungs.iter().enumerate() {
            for shard in &index.shards {
                let mem: Vec<_> = shard.mem.rungs[li].raw_tables().iter().map(|t| t.g()).collect();
                let segs = shard.segments.iter().map(|seg| {
                    seg.rungs[li].raw_tables().iter().map(|t| t.g()).collect::<Vec<_>>()
                });
                for gfns in std::iter::once(mem).chain(segs) {
                    assert_eq!(gfns.len(), rung.gfns.len(), "{context}: rung {li}");
                    for (g, sampled) in gfns.into_iter().zip(&rung.gfns) {
                        assert!(Arc::ptr_eq(g, sampled), "{context}: rung {li}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_part_of_a_rung_shares_its_g_functions() {
        fn history<L: Face>() {
            let ids: Vec<PointId> = (0..60).collect();
            let empty = L::empty(ShardAssignment::new(4, 2), 16, 2);
            let mut index = empty.bulk(dataset(&ids), &ids);
            assert_shared(&index, "bulk build");
            for id in 60..160 {
                index.insert(id, &point(id)).unwrap();
            }
            assert!(index.segment_counts().iter().all(|&c| c == 2), "budget merges ran");
            assert_shared(&index, "inserts, flushes and budget merges");
            for id in (0..160).step_by(3) {
                index.delete(id).unwrap();
            }
            index.flush();
            assert_shared(&index, "flush");
            index.compact();
            assert_eq!(index.segment_counts(), vec![1, 1]);
            assert_shared(&index, "compact");
        }
        history::<()>();
        history::<RadiusSchedule>();
    }

    /// A p-stable family whose g-functions count their `bucket_key`
    /// calls in one shared counter.
    #[derive(Clone)]
    struct Counting {
        inner: PStableL2,
        calls: Arc<AtomicUsize>,
    }

    struct CountingGFn {
        inner: PStableGFn,
        calls: Arc<AtomicUsize>,
    }

    impl GFunction<[f32]> for CountingGFn {
        fn bucket_key(&self, p: &[f32]) -> u64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.bucket_key(p)
        }

        fn k(&self) -> usize {
            GFunction::<[f32]>::k(&self.inner)
        }
    }

    impl LshFamily<[f32]> for Counting {
        type GFn = CountingGFn;

        fn sample(&self, k: usize, rng: &mut StdRng) -> CountingGFn {
            CountingGFn { inner: self.inner.sample(k, rng), calls: Arc::clone(&self.calls) }
        }

        fn collision_prob(&self, r: f64) -> f64 {
            LshFamily::<[f32]>::collision_prob(&self.inner, r)
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn a_multi_part_query_hashes_once() {
        let calls = Arc::new(AtomicUsize::new(0));
        let family = Counting { inner: PStableL2::new(DIM, 2.0), calls: Arc::clone(&calls) };
        let builder = IndexBuilder::new(family, L2)
            .tables(8)
            .hash_len(4)
            .seed(11)
            .cost_model(CostModel::from_ratio(4.0));
        let mut index =
            SegmentedIndex::with_limits(DIM, ShardAssignment::new(6, 2), builder, 20, 8);
        for id in 0..110 {
            index.insert(id, &point(id)).unwrap();
        }
        assert!(index.segment_counts().iter().all(|&c| c >= 2), "{:?}", index.segment_counts());
        assert!(index.shards.iter().all(|shard| shard.mem.rows.live_rows > 0));
        let parts = index.rung_level(0).parts.len();
        for qi in [0, 33, 97] {
            calls.store(0, Ordering::Relaxed);
            let out = index.query_with_strategy(&point(qi), 1.0, Strategy::LshOnly);
            assert!(out.ids.contains(&qi));
            assert_eq!(calls.load(Ordering::Relaxed), 8, "L hashes for {parts} parts");
        }
    }
}
