//! Top-k nearest-neighbor queries via the classic k-NN ⇒ rNNR
//! reduction over a [`RadiusSchedule`].
//!
//! The paper solves r-near-neighbor reporting; every standard ANN
//! benchmark asks for the k nearest neighbors instead. [`TopKIndex`]
//! bridges the two: it maintains one hybrid rNNR index per schedule
//! level (all levels share one `Arc`-owned copy of the data, each level
//! tunes its LSH family to its own radius), and a [`TopKWalk`] climbs
//! the levels in ascending-radius order, feeding every newly verified
//! neighbor into a bounded max-heap of `(distance, id)` pairs:
//!
//! 1. **Early exit** — once the heap holds `k` neighbors all within the
//!    previously executed radius, deeper (larger-radius) levels cannot
//!    change the answer and the walk stops.
//! 2. **HLL level skip** — while the heap is still underfull, a level
//!    whose merged-sketch candidate estimate does not exceed the number
//!    of ids already verified is predicted to contain nothing new and
//!    is deferred without running either Algorithm 2 arm. If the walk
//!    ends with the heap underfull, the exact fallback covers whatever
//!    a deferred level held and the deferral becomes a true skip; if
//!    the heap instead fills at a deeper level, the deferred
//!    (predicted-near-empty, hence cheap) levels are revisited so a
//!    wrong prediction can never silently lose a close neighbor.
//! 3. **Exact fallback** — if the whole schedule leaves the heap
//!    underfull (the k-th neighbor lies beyond the last radius), the
//!    remaining points are scanned exactly, so `query_topk` always
//!    returns exactly `min(k, n)` neighbors.
//!
//! [`TopKWalk`] is the one statement of this walk: the
//! [`Engine`] drives it one query at a time over any ladder's `Level`
//! sources (single, sharded, segmented), and the distributed
//! coordinator drives one walk per query, level by level across a
//! batch.
//!
//! Results are deterministic: distance ties break by ascending id, the
//! heap's total order is `(distance, id)`, and
//! [`query_topk_batch`](TopKIndex::query_topk_batch) shards over scoped
//! threads with byte-identical output to a sequential per-query loop —
//! on any thread count and under either [`VerifyMode`].

use std::collections::BinaryHeap;
use std::mem::{replace, take};
use std::sync::Arc;
use std::time::Instant;

use hlsh_families::LshFamily;
use hlsh_hll::HllConfig;
use hlsh_vec::{Distance, PointId, PointSet};

use crate::builder::IndexBuilder;
use crate::engine::{Engine, Level, LevelEngine, Scratch, TopKLadder};
use crate::hasher::FxHashSet;
use crate::index::HybridLshIndex;
use crate::schedule::RadiusSchedule;
use crate::search::{ExecutedArm, Strategy, VerifyMode};
use crate::store::{BucketStore, FrozenStore, MapStore};

/// One verified nearest-neighbor candidate.
///
/// Ordered by `(distance, id)` — [`f64::total_cmp`] on the distance,
/// ascending id on ties — so result rankings are a total order and
/// identical across shard counts, storage backends and verify modes.
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// Id of the data point.
    pub id: PointId,
    /// Exact distance to the query.
    pub dist: f64,
}

impl PartialEq for Neighbor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.total_cmp(&other.dist).then(self.id.cmp(&other.id))
    }
}

/// A bounded max-heap keeping the `k` smallest [`Neighbor`]s seen.
///
/// The root is the current worst kept neighbor under the `(distance,
/// id)` order, so a full heap rejects or admits a new candidate with
/// one comparison. Capacity 0 keeps nothing.
#[derive(Clone, Debug)]
pub struct BoundedHeap {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl BoundedHeap {
    /// Creates a heap keeping at most `k` neighbors.
    pub fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k.min(4096)) }
    }

    /// Offers a candidate; keeps it iff the heap is underfull or the
    /// candidate beats the current worst. Returns whether it was kept.
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(n);
            true
        } else if self.heap.peek().is_some_and(|&worst| n < worst) {
            self.heap.pop();
            self.heap.push(n);
            true
        } else {
            false
        }
    }

    /// Number of neighbors currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the heap holds its full `k` neighbors.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Distance of the current worst kept neighbor (the k-th best so
    /// far), if any.
    pub fn worst_dist(&self) -> Option<f64> {
        self.heap.peek().map(|n| n.dist)
    }

    /// Consumes the heap into neighbors sorted ascending by
    /// `(distance, id)`.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        self.heap.into_sorted_vec()
    }
}

/// Result of one top-k query: the `min(k, n)` nearest neighbors in
/// ascending `(distance, id)` order, plus instrumentation.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKOutput {
    /// The verified nearest neighbors, closest first.
    pub neighbors: Vec<Neighbor>,
    /// Instrumentation of the schedule walk.
    pub report: TopKReport,
}

impl TopKOutput {
    /// Convenience view of the result ids in rank order.
    pub fn ids(&self) -> Vec<PointId> {
        self.neighbors.iter().map(|n| n.id).collect()
    }
}

/// Instrumentation of one top-k schedule walk.
///
/// Equality compares only the deterministic walk outcome —
/// `total_nanos` is wall-clock noise and is excluded — so
/// `assert_eq!(batch_output, sequential_output)` exercises the
/// byte-identity contract directly.
#[derive(Clone, Copy, Debug)]
pub struct TopKReport {
    /// Levels whose rNNR query actually ran (deferred levels that were
    /// revisited count here, not as skipped).
    pub levels_executed: usize,
    /// Levels whose arms never ran: deferred by the HLL
    /// candidate-count prediction and then covered by the exact
    /// fallback instead of being revisited.
    pub levels_skipped: usize,
    /// Whether the walk stopped before exhausting the schedule because
    /// the heap was full of neighbors within an executed radius.
    pub early_exit: bool,
    /// Whether the exact full-scan fallback ran because the schedule's
    /// last radius still left the heap underfull.
    pub exact_fallback: bool,
    /// Distinct ids whose exact distance was computed on the schedule
    /// path (heap admissions and rejections alike).
    pub verified: usize,
    /// Total wall time of the walk (excluded from equality).
    pub total_nanos: u64,
}

impl PartialEq for TopKReport {
    fn eq(&self, other: &Self) -> bool {
        self.levels_executed == other.levels_executed
            && self.levels_skipped == other.levels_skipped
            && self.early_exit == other.early_exit
            && self.exact_fallback == other.exact_fallback
            && self.verified == other.verified
    }
}

impl Eq for TopKReport {}

/// A family of hybrid rNNR indexes answering top-k queries — one
/// [`HybridLshIndex`] per [`RadiusSchedule`] level, sharing a single
/// copy of the data.
///
/// Build one with [`TopKIndex::build`], handing it a closure that
/// configures the per-level [`IndexBuilder`] (typically: a p-stable
/// family with hash width proportional to the level radius, or a
/// sign-bit family with the δ-rule concatenation width for that
/// radius). [`freeze`](TopKIndex::freeze) converts every level to the
/// read-optimised CSR arena for serving.
pub struct TopKIndex<S, F, D, B = MapStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    data: Arc<S>,
    schedule: RadiusSchedule,
    levels: Vec<HybridLshIndex<Arc<S>, F, D, B>>,
}

impl<S, F, D> TopKIndex<S, F, D, MapStore>
where
    S: PointSet + Send + Sync,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Builds one hybrid index per schedule level over a shared copy of
    /// `data`.
    ///
    /// `level_builder(level, radius)` returns the fully configured
    /// [`IndexBuilder`] for that level; radius-dependent knobs (hash
    /// width `w`, concatenation width `k`) belong in the closure.
    pub fn build<M>(data: S, schedule: RadiusSchedule, mut level_builder: M) -> Self
    where
        M: FnMut(usize, f64) -> IndexBuilder<F, D>,
    {
        let data = Arc::new(data);
        let levels = schedule
            .radii()
            .enumerate()
            .map(|(li, r)| level_builder(li, r).build(Arc::clone(&data)))
            .collect();
        Self { data, schedule, levels }
    }

    /// Freezes every level into the read-optimised [`FrozenStore`];
    /// query results are byte-identical before and after.
    pub fn freeze(self) -> TopKIndex<S, F, D, FrozenStore> {
        TopKIndex {
            data: self.data,
            schedule: self.schedule,
            levels: self.levels.into_iter().map(HybridLshIndex::freeze).collect(),
        }
    }
}

impl<S, F, D, B> TopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// Assembles a ladder from already-built levels — the build's, the
    /// sharded build's and the snapshot loader's last step. Every level
    /// must index `data` (each is handed the same `Arc`).
    ///
    /// # Panics
    /// Panics if the level count disagrees with the schedule or a level
    /// indexes a different data handle.
    pub(crate) fn assemble(
        data: Arc<S>,
        schedule: RadiusSchedule,
        levels: Vec<HybridLshIndex<Arc<S>, F, D, B>>,
    ) -> Self {
        assert_eq!(levels.len(), schedule.levels(), "one level per schedule radius");
        for level in &levels {
            assert!(Arc::ptr_eq(level.data(), &data), "levels must share the ladder's data");
        }
        Self { data, schedule, levels }
    }

    /// The shared indexed data set.
    pub fn data(&self) -> &S {
        self.data.as_ref()
    }

    /// Number of indexed points `n`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The radius schedule the levels were built for.
    pub fn schedule(&self) -> RadiusSchedule {
        self.schedule
    }

    /// The per-level hybrid indexes, in ascending-radius order.
    pub fn levels(&self) -> &[HybridLshIndex<Arc<S>, F, D, B>] {
        &self.levels
    }

    /// The distance function (shared by every level).
    pub fn distance(&self) -> &D {
        self.levels[0].distance()
    }

    /// Per-level bucket/sketch statistics, in ascending-radius order
    /// (each level is a full index of its own; sum the entries for the
    /// family's total footprint).
    pub fn stats_per_level(&self) -> Vec<crate::index::IndexStats> {
        self.levels.iter().map(HybridLshIndex::stats).collect()
    }

    /// Answers one top-k query with fresh scratch. Batch workloads
    /// should prefer [`query_topk_batch`](Self::query_topk_batch) or a
    /// reused [`Engine`].
    pub fn query_topk(&self, q: &S::Point, k: usize) -> TopKOutput {
        Engine::new().query_topk(self, q, k)
    }
}

impl<S, F, D, B> TopKIndex<S, F, D, B>
where
    S: PointSet + Send + Sync,
    F: LshFamily<S::Point> + Sync,
    D: Distance<S::Point> + Sync,
    B: BucketStore + Sync,
{
    /// Answers a batch of top-k queries, sharded across all available
    /// cores. Outputs are in input order and byte-identical to a
    /// sequential [`query_topk`](Self::query_topk) loop.
    pub fn query_topk_batch<Q>(&self, queries: &[Q], k: usize) -> Vec<TopKOutput>
    where
        Q: AsRef<S::Point> + Sync,
    {
        self.query_topk_batch_with(queries, k, Strategy::Hybrid, None)
    }

    /// Batch top-k under an explicit per-level strategy and optional
    /// thread count (`None` = all available cores); see
    /// [`TopKLadder::query_topk_batch_with`].
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
        TopKLadder::query_topk_batch_with(self, queries, k, strategy, threads)
    }
}

impl<S, F, D, B> TopKLadder for TopKIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    type Point = S::Point;

    fn topk(&self, s: &mut Scratch, q: &S::Point, k: usize, strategy: Strategy) -> TopKOutput {
        s.walk.run(&mut s.level, self.levels(), self.schedule, q, k, strategy)
    }
}

/// The engine of a [`TopKIndex`] (an alias of [`Engine`]).
pub type TopKEngine = Engine;

/// The k-NN ⇒ rNNR reduction for one query: the walk up a radius
/// ladder, fed one level at a time.
///
/// The walk owns the bounded `(distance, id)` heap, the set of ids
/// already offered, the largest executed radius, the deferred levels and
/// the [`TopKReport`]; it makes the early-exit and HLL-defer decisions
/// (see the module docs). Whoever drives it runs the level queries: the
/// in-process [`Engine`] one query at a time, the distributed coordinator
/// level by level across a batch. A driver
///
/// 1. calls [`next_level`](Self::next_level) before each level, in
///    ascending-radius order, and stops when it returns `None`; else it
///    probes and merges the level and passes the returned skip threshold
///    to [`decide`](crate::engine::decide), then reports the outcome
///    through [`executed`](Self::executed) or [`defer`](Self::defer);
/// 2. then, if [`needs_fallback`](Self::needs_fallback), offers every
///    point through [`fallback`](Self::fallback); otherwise runs each
///    [`deferred`](Self::deferred) level under the arm recorded with it
///    and offers its hits through [`revisited`](Self::revisited);
/// 3. takes the answer from [`finish`](Self::finish).
#[derive(Debug)]
pub struct TopKWalk {
    k_eff: usize,
    heap: BoundedHeap,
    /// Ids whose exact distance an executed level already offered.
    reported: FxHashSet<PointId>,
    /// Largest radius whose level actually executed: inside it the
    /// reporting guarantee holds (exactly, whenever the level ran the
    /// linear arm; with LSH's 1−δ probability otherwise).
    covered_r: f64,
    /// Levels deferred by the HLL prediction, in schedule order, each
    /// with the arm its decision chose.
    deferred: Vec<(usize, ExecutedArm)>,
    report: TopKReport,
    started: Instant,
}

impl Default for TopKWalk {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl TopKWalk {
    const FRESH_REPORT: TopKReport = TopKReport {
        levels_executed: 0,
        levels_skipped: 0,
        early_exit: false,
        exact_fallback: false,
        verified: 0,
        total_nanos: 0,
    };

    /// A walk for the `min(k, n)` nearest of `n` points.
    pub fn new(k: usize, n: usize) -> Self {
        let k_eff = k.min(n);
        Self {
            k_eff,
            heap: BoundedHeap::new(k_eff),
            reported: FxHashSet::default(),
            covered_r: 0.0,
            deferred: Vec::new(),
            report: Self::FRESH_REPORT,
            started: Instant::now(),
        }
    }

    /// Restarts the walk for a new query, keeping the allocations of
    /// the offered-id set and the deferred list.
    fn reset(&mut self, k: usize, n: usize) {
        let (mut reported, mut deferred) = (take(&mut self.reported), take(&mut self.deferred));
        reported.clear();
        deferred.clear();
        *self = Self { reported, deferred, ..Self::new(k, n) };
    }

    /// Opens the next schedule level, whose sketches use `hll`.
    ///
    /// Returns `None` when the walk is over: nothing is asked for
    /// (`min(k, n) = 0`), or the heap holds `k` neighbors all within an
    /// executed radius, so larger radii cannot improve it (the early
    /// exit, recorded in the report). Otherwise returns the level's
    /// skip threshold: the level is deferred, neither arm running, when
    /// its merged candSize estimate is at most this — it predicts no
    /// candidates beyond the ids already verified. Level candidate sets
    /// overlap heavily across radii (the same near-duplicates keep
    /// colliding), so this fires on sparse-neighborhood queries climbing
    /// the ladder. The first level always runs.
    pub fn next_level(&mut self, hll: HllConfig) -> Option<f64> {
        if self.k_eff == 0 || self.report.early_exit {
            return None;
        }
        if self.report.levels_executed == 0 {
            return Some(f64::NEG_INFINITY);
        }
        // Early exit: k neighbors within an executed radius (heap
        // entries come from within-radius reports, so a full heap
        // always satisfies `worst ≤ covered_r`) means larger radii
        // cannot improve the heap.
        if self.heap.is_full() && self.heap.worst_dist().is_some_and(|w| w <= self.covered_r) {
            self.report.early_exit = true;
            return None;
        }
        // One standard error of sketch slack (σ ≈ 1.04/√m): even when a
        // level truly holds nothing new, its estimate lands slightly
        // above the verified count (small-range linear counting rounds
        // up), so an exact threshold would never fire.
        let m = hll.registers() as f64;
        Some(self.reported.len() as f64 * (1.0 + 1.04 / m.sqrt()))
    }

    /// Records that schedule level `level` was deferred by its skip
    /// threshold, and `arm`, the arm its decision chose: a revisit runs
    /// that arm without merging the sketches again.
    pub fn defer(&mut self, level: usize, arm: ExecutedArm) {
        self.deferred.push((level, arm));
    }

    /// Offers the hits of an executed level of radius `r`.
    pub fn executed(&mut self, r: f64, hits: impl IntoIterator<Item = (PointId, f64)>) {
        self.report.levels_executed += 1;
        self.covered_r = r;
        self.offer(hits);
    }

    /// Offers the hits of a revisited deferred level.
    pub fn revisited(&mut self, hits: impl IntoIterator<Item = (PointId, f64)>) {
        self.report.levels_executed += 1;
        self.offer(hits);
    }

    /// Every id is offered once, with the exact distance its
    /// verification kernel already computed.
    fn offer(&mut self, hits: impl IntoIterator<Item = (PointId, f64)>) {
        for (id, dist) in hits {
            if self.reported.insert(id) {
                self.heap.push(Neighbor { id, dist });
            }
        }
    }

    /// Whether the schedule ran dry with fewer than `min(k, n)`
    /// neighbors, so the exact fallback must run.
    pub fn needs_fallback(&self) -> bool {
        self.heap.len() < self.k_eff
    }

    /// The exact fallback: offers `pairs` — every point once, as
    /// `(id, distance)` — skipping the ids already offered. Every
    /// offered id was admitted (rejections only happen once the heap is
    /// full), so this completes the answer exactly; it also covers
    /// whatever a deferred level would have found, so those levels
    /// become true skips and are not revisited.
    pub fn fallback(&mut self, pairs: impl IntoIterator<Item = (PointId, f64)>) {
        self.report.exact_fallback = true;
        self.report.levels_skipped = self.deferred.len();
        self.deferred.clear();
        for (id, dist) in pairs {
            if !self.reported.contains(&id) {
                self.heap.push(Neighbor { id, dist });
            }
        }
    }

    /// The deferred levels still to revisit, in schedule order, each
    /// with its recorded arm. The heap filled at deeper levels while
    /// these were deferred on a prediction that can be wrong (sketch
    /// error, non-nested level candidate sets); a missed closer neighbor
    /// would be unrecoverable, so each is re-run — predicted near-empty,
    /// hence cheap — restoring the no-silent-loss property.
    pub fn deferred(&self) -> &[(usize, ExecutedArm)] {
        &self.deferred
    }

    /// Ends the walk: the neighbors in ascending `(distance, id)` order
    /// and the report.
    pub fn finish(&mut self) -> TopKOutput {
        self.report.verified = self.reported.len();
        self.report.total_nanos = self.started.elapsed().as_nanos() as u64;
        let heap = replace(&mut self.heap, BoundedHeap::new(0));
        TopKOutput { neighbors: heap.into_sorted_vec(), report: self.report }
    }

    /// Runs the whole walk for one query over `levels` (one per
    /// `schedule` radius, ascending), each level query through
    /// `engine` under `strategy` — the in-process drivers' loop.
    pub(crate) fn run<L: Level>(
        &mut self,
        engine: &mut LevelEngine,
        levels: &[L],
        schedule: RadiusSchedule,
        q: &L::Point,
        k: usize,
        strategy: Strategy,
    ) -> TopKOutput {
        self.reset(k, levels[0].n());
        for (li, (level, r)) in levels.iter().zip(schedule.radii()).enumerate() {
            let Some(skip_at_most) = self.next_level(level.hll_config()) else {
                break;
            };
            match engine.query_hits(level, q, r, strategy, Some(skip_at_most)) {
                Ok((hits, _)) => self.executed(r, hits),
                Err(arm) => self.defer(li, arm),
            }
        }
        if self.needs_fallback() {
            // One distance-returning kernel pass over every point
            // (r = ∞); already-offered ids are filtered out afterwards
            // (their distances are a negligible fraction of the pass).
            self.fallback(levels[0].fallback_pairs(q, engine.verify));
        } else {
            for (li, arm) in take(&mut self.deferred) {
                self.revisited(engine.run_arm(&levels[li], q, schedule.radius(li), arm));
            }
        }
        self.finish()
    }
}

/// The exact fallback's scan: one distance-returning full pass
/// (`r = ∞`) over `data`, every row exactly once as `(local row,
/// distance)`, ascending. Rows the scan's `d <= r` filter dropped — only
/// possible when the distance is NaN, nothing else fails at `r = ∞` —
/// appear as gaps in the scan's row order and are completed by direct
/// `distance()` calls, so the fallback's exactly-`min(k, n)`-results
/// guarantee holds even for degenerate (NaN-coordinate) points
/// ([`Neighbor`]'s `total_cmp` order ranks NaN last).
pub(crate) fn fallback_scan_pairs<S, D>(
    data: &S,
    distance: &D,
    q: &S::Point,
    verify: VerifyMode,
) -> Vec<(PointId, f64)>
where
    S: PointSet + ?Sized,
    D: Distance<S::Point>,
{
    let n = data.len();
    let mut pairs = Vec::with_capacity(n);
    verify.scan(distance, data, q, f64::INFINITY, &mut pairs);
    if pairs.len() == n {
        // No NaN gaps: the ∞-radius scan already enumerated 0..n
        // ascending.
        return pairs;
    }
    let mut full = Vec::with_capacity(n);
    let mut next = 0 as PointId;
    for (local, dist) in pairs {
        while next < local {
            full.push((next, distance.distance(data.point(next as usize), q)));
            next += 1;
        }
        full.push((local, dist));
        next = local + 1;
    }
    while (next as usize) < n {
        full.push((next, distance.distance(data.point(next as usize), q)));
        next += 1;
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use hlsh_families::PStableL2;
    use hlsh_vec::{DenseDataset, L2};

    fn line_index(n: usize, levels: usize) -> TopKIndex<DenseDataset, PStableL2, L2> {
        let data = DenseDataset::from_rows(2, (0..n).map(|i| [i as f32, 0.0]));
        TopKIndex::build(data, RadiusSchedule::doubling(1.0, levels), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(7)
                .cost_model(CostModel::from_ratio(4.0))
        })
    }

    #[test]
    fn neighbor_order_breaks_ties_by_id() {
        let a = Neighbor { id: 3, dist: 1.0 };
        let b = Neighbor { id: 5, dist: 1.0 };
        let c = Neighbor { id: 1, dist: 2.0 };
        assert!(a < b);
        assert!(b < c);
        let mut v = [c, b, a];
        v.sort();
        assert_eq!(v.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 5, 1]);
    }

    #[test]
    fn bounded_heap_keeps_k_smallest() {
        let mut h = BoundedHeap::new(3);
        assert!(h.is_empty());
        for (id, dist) in [(0, 5.0), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            h.push(Neighbor { id, dist });
        }
        assert!(h.is_full());
        assert_eq!(h.worst_dist(), Some(3.0));
        let out = h.into_sorted_vec();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn report_equality_ignores_wall_time() {
        let a = TopKReport {
            levels_executed: 2,
            levels_skipped: 1,
            early_exit: true,
            exact_fallback: false,
            verified: 9,
            total_nanos: 1,
        };
        let b = TopKReport { total_nanos: 999_999, ..a };
        assert_eq!(a, b);
        assert_ne!(a, TopKReport { verified: 10, ..a });
    }

    #[test]
    fn bounded_heap_capacity_zero_keeps_nothing() {
        let mut h = BoundedHeap::new(0);
        assert!(!h.push(Neighbor { id: 0, dist: 0.0 }));
        assert!(h.is_full());
        assert!(h.into_sorted_vec().is_empty());
    }

    #[test]
    fn topk_on_a_line_is_exact() {
        let index = line_index(200, 4);
        let out = index.query_topk(&[50.0f32, 0.0][..], 5);
        assert_eq!(out.neighbors.len(), 5);
        // Nearest is the point itself, then the symmetric pairs; the
        // (dist, id) order puts the smaller id first on each tie.
        let ids: Vec<PointId> = out.ids();
        assert_eq!(ids, vec![50, 49, 51, 48, 52]);
        assert_eq!(out.neighbors[0].dist, 0.0);
        assert_eq!(out.neighbors[1].dist, 1.0);
    }

    #[test]
    fn exact_fallback_keeps_min_k_n_even_with_nan_rows() {
        // A NaN-coordinate row has NaN distance to everything; the
        // fallback's ∞-radius scan filter drops it (NaN <= ∞ is
        // false), so the gap-completion path must offer it anyway —
        // the min(k, n) guarantee ranks it last via total_cmp, exactly
        // like the pre-kernel per-id fallback loop did.
        let mut rows: Vec<[f32; 2]> = (0..12).map(|i| [i as f32, 0.0]).collect();
        rows[3] = [f32::NAN, 0.0];
        rows[11] = [f32::NAN, 1.0];
        let data = DenseDataset::from_rows(2, rows);
        let index = TopKIndex::build(data, RadiusSchedule::doubling(1.0, 2), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(4)
                .hash_len(3)
                .seed(2)
                .cost_model(CostModel::from_ratio(1e9)) // always the LSH arm
        });
        let out = index.query_topk(&[0.0f32, 0.0][..], 12);
        assert!(out.report.exact_fallback, "report: {:?}", out.report);
        assert_eq!(out.neighbors.len(), 12, "k = n must return every point");
        // NaN rows rank last, ties by id.
        assert_eq!(out.neighbors[10].id, 3);
        assert_eq!(out.neighbors[11].id, 11);
        assert!(out.neighbors[10].dist.is_nan() && out.neighbors[11].dist.is_nan());
        // Scalar verify mode agrees.
        let scalar = TopKEngine::with_verify_mode(VerifyMode::Scalar).query_topk(
            &index,
            &[0.0f32, 0.0][..],
            12,
        );
        assert_eq!(scalar.neighbors.len(), 12);
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let index = line_index(30, 3);
        let out = index.query_topk(&[3.0f32, 0.0][..], 100);
        assert_eq!(out.neighbors.len(), 30);
        assert!(out.report.exact_fallback);
        // Sorted ascending by distance.
        assert!(out.neighbors.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn k_zero_and_empty_index() {
        let index = line_index(10, 2);
        let out = index.query_topk(&[0.0f32, 0.0][..], 0);
        assert!(out.neighbors.is_empty());
        assert_eq!(out.report.levels_executed, 0);

        let empty: TopKIndex<DenseDataset, PStableL2, L2> =
            TopKIndex::build(DenseDataset::new(2), RadiusSchedule::doubling(1.0, 2), |_, r| {
                IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                    .tables(2)
                    .hash_len(2)
                    .seed(1)
                    .cost_model(CostModel::from_ratio(1.0))
            });
        let out = empty.query_topk(&[0.0f32, 0.0][..], 4);
        assert!(out.neighbors.is_empty());
    }

    #[test]
    fn batch_matches_sequential_loop() {
        let index = line_index(300, 4);
        let queries: Vec<Vec<f32>> = (0..24).map(|i| vec![(i * 12) as f32 + 0.3, 0.0]).collect();
        let mut engine = TopKEngine::new();
        let sequential: Vec<TopKOutput> =
            queries.iter().map(|q| engine.query_topk(&index, q, 7)).collect();
        for threads in [Some(1), Some(3), Some(5), None] {
            let batch = index.query_topk_batch_with(&queries, 7, Strategy::Hybrid, threads);
            // TopKReport equality excludes wall time, so whole-output
            // equality is exactly the determinism contract.
            assert_eq!(batch, sequential, "threads {threads:?}");
        }
    }

    #[test]
    fn frozen_matches_map_backend() {
        let index = line_index(250, 3);
        let queries: Vec<Vec<f32>> = (0..16).map(|i| vec![(i * 15) as f32, 0.0]).collect();
        let map_out = index.query_topk_batch(&queries, 6);
        let frozen = index.freeze();
        let frozen_out = frozen.query_topk_batch(&queries, 6);
        assert_eq!(map_out, frozen_out, "frozen vs map");
    }

    #[test]
    fn verify_modes_agree() {
        let index = line_index(220, 3);
        let mut kernel = TopKEngine::with_verify_mode(VerifyMode::Kernel);
        let mut scalar = TopKEngine::with_verify_mode(VerifyMode::Scalar);
        for i in 0..12 {
            let q = [(i * 17) as f32 + 0.5, 0.4];
            let a = kernel.query_topk(&index, &q[..], 9);
            let b = scalar.query_topk(&index, &q[..], 9);
            assert_eq!(a.neighbors, b.neighbors, "query {i}");
        }
    }

    #[test]
    fn deferred_levels_become_true_skips_under_the_exact_fallback() {
        // A 5-duplicate cluster at the query and a background too far
        // to ever collide: level 0 verifies the 5, deeper levels
        // estimate the same ≤ 5 candidates and are deferred, the heap
        // stays underfull (k = 8 > 5), and the exact fallback both
        // completes the answer and converts the deferrals into true
        // skips. The output must equal the brute-force top-k exactly.
        let mut rows: Vec<[f32; 2]> = (0..5).map(|_| [0.0f32, 0.0]).collect();
        rows.extend((0..120).map(|i| [1e5 + (i as f32) * 1e4, 7e4]));
        let data = DenseDataset::from_rows(2, rows.clone());
        let index = TopKIndex::build(data, RadiusSchedule::doubling(1.0, 4), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(5)
                .cost_model(CostModel::from_ratio(1e9)) // always the LSH arm
        });
        let q = [0.0f32, 0.0];
        let out = index.query_topk(&q[..], 8);
        assert!(out.report.exact_fallback, "report: {:?}", out.report);
        assert!(out.report.levels_skipped > 0, "report: {:?}", out.report);
        assert_eq!(
            out.report.levels_skipped + out.report.levels_executed,
            4,
            "report: {:?}",
            out.report
        );
        // Exactness despite the skips.
        let mut truth: Vec<Neighbor> = rows
            .iter()
            .enumerate()
            .map(|(id, p)| Neighbor { id: id as PointId, dist: L2.distance(p, &q) })
            .collect();
        truth.sort();
        truth.truncate(8);
        assert_eq!(out.neighbors, truth);
    }

    #[test]
    fn deferred_levels_are_revisited_when_the_heap_fills_late() {
        // Level 0 verifies a 4-duplicate cluster (heap 4/6, underfull);
        // mid levels see the same ≤ 4 candidates and are deferred; the
        // last level's wide hashes finally pick up the mid-distance
        // band and fill the heap. The deferred levels must then be
        // revisited (counted as executed, not skipped) so a wrong
        // prediction can never silently lose a close neighbor.
        let mut rows: Vec<[f32; 2]> = (0..4).map(|_| [0.0f32, 0.0]).collect();
        rows.extend((0..80).map(|i| [20.0 + (i % 8) as f32 * 0.3, (i / 8) as f32 * 0.3]));
        let data = DenseDataset::from_rows(2, rows);
        let index = TopKIndex::build(data, RadiusSchedule::doubling(1.0, 6), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(9)
                .cost_model(CostModel::from_ratio(1e9)) // always the LSH arm
        });
        let q = [0.0f32, 0.0];
        let out = index.query_topk(&q[..], 6);
        assert_eq!(out.neighbors.len(), 6);
        assert!(!out.report.exact_fallback, "report: {:?}", out.report);
        // Every deferred level was revisited: nothing may stay skipped
        // once the heap is full.
        assert_eq!(out.report.levels_skipped, 0, "report: {:?}", out.report);
        assert!(out.report.levels_executed >= 3, "report: {:?}", out.report);
        // The 4 duplicates rank first, then the nearest band points.
        assert_eq!(&out.ids()[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn early_exit_fires_on_dense_neighborhoods() {
        // 40 duplicates at the query point: level 0 already reports
        // k=5 neighbors at distance 0 ≤ r₀, so the walk must stop
        // after one executed level.
        let mut rows: Vec<[f32; 2]> = (0..40).map(|_| [5.0f32, 5.0]).collect();
        rows.extend((0..160).map(|i| [i as f32 * 10.0 + 100.0, 0.0]));
        let data = DenseDataset::from_rows(2, rows);
        let index = TopKIndex::build(data, RadiusSchedule::doubling(1.0, 4), |_, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(3)
                .cost_model(CostModel::from_ratio(4.0))
        });
        let out = index.query_topk(&[5.0f32, 5.0][..], 5);
        assert_eq!(out.neighbors.len(), 5);
        assert!(out.report.early_exit, "report: {:?}", out.report);
        assert_eq!(out.report.levels_executed, 1);
        assert!(!out.report.exact_fallback);
        assert!(out.neighbors.iter().all(|n| n.dist == 0.0));
        // Tie-break: the five smallest ids among the duplicates.
        assert_eq!(out.ids(), vec![0, 1, 2, 3, 4]);
    }
}
