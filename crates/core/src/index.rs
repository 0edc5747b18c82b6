//! The hybrid-LSH index: Algorithm 1 (construction) and Algorithm 2
//! (hybrid query), generic over the bucket-storage backend.

use std::sync::Arc;

use hlsh_families::{GFunction, LshFamily};
use hlsh_hll::{HllConfig, MergeAccumulator};
use hlsh_vec::{Distance, PointId, PointSet};

use crate::bucket::BucketRef;
use crate::builder::BuildMode;
use crate::cost::{CostEstimate, CostModel};
use crate::engine::{Engine, Level};
use crate::hasher::FxHashSet;
use crate::pipeline::BuildPipeline;
use crate::report::QueryOutput;
use crate::search::Strategy;
use crate::store::{BucketStore, FrozenStore, MapStore};
use crate::table::HashTable;

/// Builds all `L` tables through the blocked pipeline, one table per
/// work item of the shared parallel scaffold (results in g-function
/// order, so the table set is deterministic on any thread count).
fn blocked_tables<G, S, B>(
    gfns: Vec<Arc<G>>,
    data: &S,
    id_map: Option<&[PointId]>,
    pipeline: BuildPipeline,
    config: HllConfig,
    lazy_threshold: usize,
    parallel: bool,
) -> Vec<HashTable<G, B>>
where
    S: PointSet + Sync,
    G: GFunction<S::Point>,
    B: BucketStore + Send,
{
    let threads = if parallel { None } else { Some(1) };
    let gfns_ref = &gfns;
    let stores: Vec<B> = hlsh_vec::parallel::par_map_with(
        gfns.len(),
        threads,
        || (),
        |_, j| pipeline.build_store_mapped(&*gfns_ref[j], data, id_map, config, lazy_threshold),
    );
    gfns.into_iter().zip(stores).map(|(g, store)| HashTable::from_parts(g, store)).collect()
}

/// An LSH index over a data set `S`, instrumented with per-bucket
/// HyperLogLog sketches so that each query can choose between LSH-based
/// search and a linear scan (the paper's hybrid strategy).
///
/// Generic over the point representation (`S::Point`), the LSH family
/// `F`, the distance `D` — so the same machinery serves all four of
/// the paper's experiments (Hamming/bit-sampling, cosine/SimHash,
/// L1/Cauchy, L2/Gaussian) — and the bucket store `B`:
/// [`MapStore`] (default) accepts streaming inserts, while
/// [`freeze`](Self::freeze) converts every table into a read-optimised
/// CSR arena ([`FrozenStore`]) for maximum query throughput.
pub struct HybridLshIndex<S, F, D, B = MapStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    data: S,
    family: F,
    distance: D,
    tables: Vec<HashTable<F::GFn, B>>,
    hll_config: HllConfig,
    lazy_threshold: usize,
    cost: CostModel,
    k: usize,
}

impl<S, F, D> HybridLshIndex<S, F, D, MapStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Constructs the index (Algorithm 1). Called by
    /// [`IndexBuilder::build`](crate::IndexBuilder::build); prefer that
    /// entry point.
    ///
    /// Under [`BuildMode::Blocked`] each table runs the staged pipeline
    /// (block-hash → key-group → bulk insert); under
    /// [`BuildMode::PerPoint`] the literal per-point loop runs instead.
    /// The two produce byte-identical tables.
    ///
    /// `id_map`, when present, renames row `i` to `id_map[i]` in every
    /// bucket and sketch — the sharded build's global-id hook. A mapped
    /// index must only be queried through the sharded view, which
    /// translates members back to rows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn construct(
        data: S,
        family: F,
        distance: D,
        gfns: Vec<Arc<F::GFn>>,
        hll_config: HllConfig,
        lazy_threshold: usize,
        cost: CostModel,
        k: usize,
        parallel: bool,
        mode: BuildMode,
        id_map: Option<&[PointId]>,
    ) -> Self
    where
        S: Sync,
    {
        let tables: Vec<HashTable<F::GFn>> = match mode {
            BuildMode::Blocked { block } => blocked_tables(
                gfns,
                &data,
                id_map,
                BuildPipeline::with_block(block),
                hll_config,
                lazy_threshold,
                parallel,
            ),
            BuildMode::PerPoint => {
                let mut tables: Vec<HashTable<F::GFn>> =
                    gfns.into_iter().map(HashTable::new).collect();
                let n = data.len();

                // Algorithm 1 verbatim: for each point, for each table,
                // insert into the bucket g_i(x) and update its HLL.
                // Tables are independent, so build shards over tables —
                // no synchronisation on buckets.
                let threads = if parallel {
                    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
                } else {
                    1
                };
                if threads > 1 && tables.len() > 1 {
                    let data_ref = &data;
                    let chunk_size = 1.max(tables.len().div_ceil(threads));
                    std::thread::scope(|scope| {
                        for chunk in tables.chunks_mut(chunk_size) {
                            scope.spawn(move || {
                                for table in chunk {
                                    for id in 0..n {
                                        table.insert(
                                            id_map.map_or(id as PointId, |m| m[id]),
                                            data_ref.point(id),
                                            hll_config,
                                            lazy_threshold,
                                        );
                                    }
                                }
                            });
                        }
                    });
                } else {
                    for table in &mut tables {
                        for id in 0..n {
                            table.insert(
                                id_map.map_or(id as PointId, |m| m[id]),
                                data.point(id),
                                hll_config,
                                lazy_threshold,
                            );
                        }
                    }
                }
                tables
            }
        };

        Self { data, family, distance, tables, hll_config, lazy_threshold, cost, k }
    }

    /// Appends a point to the index online (streaming ingestion),
    /// returning its id.
    ///
    /// Runs the Algorithm 1 inner loop for the new point: one bucket
    /// insert and one HLL update per table. Available when the data
    /// set type supports appends and the store is the mutable
    /// [`MapStore`].
    /// Deletion is intentionally absent here — a HyperLogLog sketch
    /// cannot retract an element. For a corpus that shrinks as well as
    /// grows, use the LSM-style
    /// [`SegmentedIndex`](crate::segmented::SegmentedIndex), which
    /// layers tombstones and segment merges on top of this index.
    pub fn insert(&mut self, p: &S::Point) -> PointId
    where
        S: hlsh_vec::GrowablePointSet,
    {
        let id = self.data.len() as PointId;
        self.data.push_point(p);
        for table in &mut self.tables {
            table.insert(id, p, self.hll_config, self.lazy_threshold);
        }
        id
    }

    /// Converts every table into the read-optimised [`FrozenStore`]
    /// (sorted key array + offsets + contiguous member slab): query
    /// lookups become binary search + slice borrow with zero per-bucket
    /// allocation. Query results are byte-identical before and after.
    pub fn freeze(self) -> HybridLshIndex<S, F, D, FrozenStore> {
        HybridLshIndex {
            data: self.data,
            family: self.family,
            distance: self.distance,
            tables: self.tables.into_iter().map(HashTable::freeze).collect(),
            hll_config: self.hll_config,
            lazy_threshold: self.lazy_threshold,
            cost: self.cost,
            k: self.k,
        }
    }
}

impl<S, F, D> HybridLshIndex<S, F, D, FrozenStore>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
{
    /// Constructs a frozen index directly: the blocked pipeline's
    /// key-grouped runs become each table's CSR arena with no
    /// intermediate hashmap. Byte-identical to
    /// [`construct`](HybridLshIndex::construct) + `freeze()`. Called by
    /// [`IndexBuilder::build_frozen`](crate::IndexBuilder::build_frozen).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn construct_frozen(
        data: S,
        family: F,
        distance: D,
        gfns: Vec<Arc<F::GFn>>,
        hll_config: HllConfig,
        lazy_threshold: usize,
        cost: CostModel,
        k: usize,
        parallel: bool,
        pipeline: BuildPipeline,
        id_map: Option<&[PointId]>,
    ) -> Self
    where
        S: Sync,
    {
        let tables =
            blocked_tables(gfns, &data, id_map, pipeline, hll_config, lazy_threshold, parallel);
        Self { data, family, distance, tables, hll_config, lazy_threshold, cost, k }
    }
}

impl<S, F, D, B> HybridLshIndex<S, F, D, B>
where
    S: PointSet,
    F: LshFamily<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
{
    /// The indexed data set.
    pub fn data(&self) -> &S {
        &self.data
    }

    /// Number of indexed points `n`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of hash tables `L`.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Concatenation width `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The LSH family.
    pub fn family(&self) -> &F {
        &self.family
    }

    /// The distance function.
    pub fn distance(&self) -> &D {
        &self.distance
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// The shared HLL configuration.
    pub fn hll_config(&self) -> HllConfig {
        self.hll_config
    }

    /// Direct access to the underlying tables (the snapshot writer and
    /// the multi-probe view read them).
    pub fn raw_tables(&self) -> &[HashTable<F::GFn, B>] {
        &self.tables
    }

    /// The lazy-sketch threshold in force (buckets at or above this
    /// size carry a materialised HLL). Persisted by the snapshot format
    /// so a loaded index carries the same sketch rule as the one that
    /// was saved.
    pub fn lazy_threshold(&self) -> usize {
        self.lazy_threshold
    }

    /// Reassembles an index from already-built tables and parameters —
    /// the snapshot loader's entry point. The caller (the snapshot
    /// module) is responsible for the cross-table invariants: every
    /// table's g-function has width `k`, and sketched buckets use
    /// `hll_config`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        data: S,
        family: F,
        distance: D,
        tables: Vec<HashTable<F::GFn, B>>,
        hll_config: HllConfig,
        lazy_threshold: usize,
        cost: CostModel,
        k: usize,
    ) -> Self {
        Self { data, family, distance, tables, hll_config, lazy_threshold, cost, k }
    }

    /// Hybrid query (Algorithm 2): estimate costs, pick the cheaper
    /// arm, report every indexed point within distance `r` of `q`.
    ///
    /// Allocates fresh per-query scratch; batch workloads should prefer
    /// [`query_batch`](Self::query_batch) or a reused [`Engine`].
    pub fn query(&self, q: &S::Point, r: f64) -> QueryOutput {
        self.query_with_strategy(q, r, Strategy::Hybrid)
    }

    /// Convenience wrapper returning only the ids.
    pub fn query_radius(&self, q: &S::Point, r: f64) -> Vec<PointId> {
        self.query(q, r).ids
    }

    /// Runs a query under an explicit strategy (the Figure 2 baselines:
    /// `LshOnly`, `LinearOnly`, or the adaptive `Hybrid`).
    pub fn query_with_strategy(&self, q: &S::Point, r: f64, strategy: Strategy) -> QueryOutput {
        Engine::new().query_with_strategy(self, q, r, strategy)
    }

    /// Returns the Algorithm 2 cost estimate for a query without
    /// executing either arm — useful for inspection and for the
    /// Figure 3 (right) accounting of linear-search decisions.
    pub fn explain(&self, q: &S::Point) -> CostEstimate {
        let (buckets, collisions) = Level::probe(self, q);
        let mut acc = MergeAccumulator::new(self.hll_config);
        Level::contribute(self, &buckets, &mut acc);
        let cand = acc.estimate();
        CostEstimate {
            collisions,
            cand_size_estimate: cand,
            lsh_cost: self.cost.lsh_cost(collisions, cand),
            linear_cost: self.cost.linear_cost(self.len()),
        }
    }

    /// Exact distinct-candidate count for a query (merges the buckets
    /// with a hash set). Used by Table 1 to measure the estimate error;
    /// not part of the query path.
    pub fn exact_cand_size(&self, q: &S::Point) -> usize {
        let (buckets, _) = self.probe(q);
        let mut set: FxHashSet<PointId> = FxHashSet::default();
        for b in &buckets {
            set.extend(b.members().iter().copied());
        }
        set.len()
    }

    /// Index statistics (for reports and the space-overhead ablation).
    pub fn stats(&self) -> IndexStats {
        let mut buckets = 0usize;
        let mut sketched = 0usize;
        let mut sketch_bytes = 0usize;
        let mut member_slots = 0usize;
        for t in &self.tables {
            buckets += t.bucket_count();
            for (_, b) in t.buckets() {
                if b.has_sketch() {
                    sketched += 1;
                    sketch_bytes += self.hll_config.registers();
                }
                member_slots += b.len();
            }
        }
        IndexStats {
            points: self.len(),
            tables: self.tables.len(),
            k: self.k,
            buckets,
            sketched_buckets: sketched,
            sketch_bytes,
            member_slots,
        }
    }

    /// Step S1 + bucket lookup: the `L` buckets matching `q` and the
    /// total collision count, hashing each table's key inline.
    pub(crate) fn probe(&self, q: &S::Point) -> (Vec<BucketRef<'_>>, usize) {
        self.lookup(self.tables.iter().map(|table| table.g().bucket_key(q)))
    }

    /// S1's bucket lookup of one query's keys (`keys[j]` for table `j`):
    /// a multi-part source hashes once and looks up in every part.
    pub(crate) fn lookup(
        &self,
        keys: impl IntoIterator<Item = u64>,
    ) -> (Vec<BucketRef<'_>>, usize) {
        let mut buckets = Vec::with_capacity(self.tables.len());
        let mut collisions = 0usize;
        for (table, key) in self.tables.iter().zip(keys) {
            if let Some(b) = table.bucket_for_key(key) {
                collisions += b.len();
                buckets.push(b);
            }
        }
        (buckets, collisions)
    }
}

/// Aggregate statistics of a built index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexStats {
    /// Indexed points `n`.
    pub points: usize,
    /// Hash tables `L`.
    pub tables: usize,
    /// Concatenation width `k`.
    pub k: usize,
    /// Non-empty buckets across all tables.
    pub buckets: usize,
    /// Buckets whose HLL was materialised (`len ≥ lazy threshold`).
    pub sketched_buckets: usize,
    /// Bytes of HLL registers.
    pub sketch_bytes: usize,
    /// Total membership slots (= `n·L`).
    pub member_slots: usize,
}

impl IndexStats {
    /// Fraction of buckets that carry a materialised sketch.
    pub fn sketched_fraction(&self) -> f64 {
        if self.buckets == 0 {
            0.0
        } else {
            self.sketched_buckets as f64 / self.buckets as f64
        }
    }
}
