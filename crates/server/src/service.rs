//! The [`QueryService`] trait and its implementations bridging the
//! wire to the in-process batch path.
//!
//! The trait (and [`ServiceError`], its failure type) is what the
//! event-loop server in [`crate::server`] executes against; three
//! deployments implement it here:
//!
//! * [`ShardedLshService`] — the standalone server: answers client
//!   frames by running the full sharded indexes in-process.
//! * [`ShardNodeService`] — one node of a distributed deployment: the
//!   same indexes, but *additionally* answering the shard-extension
//!   frames (`0x10..=0x1F`) a
//!   [`Coordinator`](crate::coordinator::Coordinator) uses to fan one
//!   logical query across machines.
//! * [`LiveLshService`] — the living index: LSM-segmented indexes
//!   behind a reader-writer lock, accepting `Insert`/`Delete` frames
//!   while queries stay byte-identical to a rebuild on the surviving
//!   points.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

use hlsh_core::{
    FrozenStore, RnnrIndex, SegmentedIndex, SegmentedTopKIndex, ShardedIndex, ShardedTopKIndex,
    Strategy, TopKLadder,
};
use hlsh_families::LshFamily;
use hlsh_vec::{Distance, PointId, PointSet};

use crate::protocol::{
    ErrorCode, QueryBlock, ServerInfo, ShardInfo, ShardLevelInfo, ShardParams, ShardRequest,
    ShardResponse, ShardSummaryEntry, ShardTarget,
};

/// A service-level failure: what the server encodes into a
/// [`kind::ERROR`](crate::protocol::kind::ERROR) frame when a batch
/// cannot be answered. Distinct from
/// [`WireError`](crate::protocol::WireError), which covers byte-level
/// decode problems — a `ServiceError` means the
/// request parsed fine but could not be executed (no top-k ladder, a
/// shard backend down, an internal failure).
#[derive(Clone, Debug)]
pub struct ServiceError {
    /// The wire code clients see.
    pub code: ErrorCode,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ServiceError {
    /// A valid request this deployment cannot serve.
    pub fn unsupported(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Unsupported, message: message.into() }
    }

    /// A backend dependency is down or timed out.
    pub fn unavailable(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Unavailable, message: message.into() }
    }

    /// The service failed internally.
    pub fn internal(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Internal, message: message.into() }
    }

    /// The request's parameters don't fit this index (e.g. a ladder
    /// level out of range).
    pub fn malformed(message: impl Into<String>) -> Self {
        Self { code: ErrorCode::Malformed, message: message.into() }
    }

    /// A vector's dimensionality doesn't match the index's.
    pub fn dim_mismatch(expected: u32, got: u32) -> Self {
        Self {
            code: ErrorCode::DimMismatch,
            message: format!("index dimension is {expected}, request carries {got}"),
        }
    }

    /// A delete named an id that is not live.
    pub fn unknown_id(id: PointId) -> Self {
        Self { code: ErrorCode::UnknownId, message: format!("id {id} is not live in the index") }
    }

    /// An insert named an id that is already live (or repeated one
    /// within the batch).
    pub fn duplicate_id(id: PointId) -> Self {
        Self {
            code: ErrorCode::DuplicateId,
            message: format!("id {id} is already live in the index"),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// What a server serves: batch entry points over some index.
///
/// The two required methods mirror the in-process batch APIs —
/// [`ShardedIndex::query_batch`](hlsh_core::ShardedIndex::query_batch)
/// and [`ShardedTopKIndex::query_topk_batch`](hlsh_core::ShardedTopKIndex::query_topk_batch)
/// — and the byte-identity contract is inherited from them: whatever a
/// service returns here is exactly what clients decode. Errors become
/// [`kind::ERROR`](crate::protocol::kind::ERROR) frames carrying the
/// [`ServiceError`]'s code, one per affected request.
pub trait QueryService: Send + Sync + 'static {
    /// Index metadata for [`Request::Info`](crate::protocol::Request::Info)
    /// and dimension validation. The event loop calls this for every
    /// client frame on its own thread, so it must not block: a living
    /// index answers it without taking its lock.
    fn info(&self) -> ServerInfo;

    /// Ids within `radius` of each query, ascending per query.
    /// `threads` is the scoped-thread budget (`None` = all cores).
    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError>;

    /// The `min(k, n)` nearest `(id, distance)` pairs per query in
    /// ascending `(distance, id)` order;
    /// [`ServiceError::unsupported`] if this deployment has no top-k
    /// ladder.
    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError>;

    /// Answers one shard-extension request (coordinator → shard
    /// traffic, kinds `0x10..=0x1F`). The default refuses: only shard
    /// nodes implement this, and a coordinator that accidentally dials
    /// a plain standalone server gets a typed error instead of silence.
    ///
    /// Shard frames bypass the admission batcher — the caller *is* a
    /// coordinator that already batched an entire client request, so
    /// lingering for more concurrency would only add latency. The
    /// event loop runs them on detached worker threads so a
    /// multi-second fan-out never stalls connection I/O.
    fn shard_batch(
        &self,
        request: &ShardRequest,
        threads: Option<usize>,
    ) -> Result<ShardResponse, ServiceError> {
        let _ = (request, threads);
        Err(ServiceError::unsupported("this server is not a shard node"))
    }

    /// Inserts `ids[i]` ↦ row `i` of `points`, all-or-nothing: on any
    /// [`ErrorCode::DimMismatch`] / [`ErrorCode::DuplicateId`] nothing
    /// is applied. Returns the number inserted (the full batch). The
    /// default refuses: deployments serving a frozen corpus are not
    /// mutable — only a living index ([`LiveLshService`]) accepts
    /// mutations.
    fn insert_batch(&self, ids: &[PointId], points: &QueryBlock) -> Result<u32, ServiceError> {
        let _ = (ids, points);
        Err(ServiceError::unsupported("this server's index is frozen; mutation needs --live"))
    }

    /// Deletes the points with these ids, all-or-nothing: on any
    /// [`ErrorCode::UnknownId`] (not live, or repeated in the batch)
    /// nothing is applied. Returns the number deleted. Default refuses
    /// like [`insert_batch`](QueryService::insert_batch).
    fn delete_batch(&self, ids: &[PointId]) -> Result<u32, ServiceError> {
        let _ = ids;
        Err(ServiceError::unsupported("this server's index is frozen; mutation needs --live"))
    }
}

/// Both services' rNNR batch: the index's one batch path under
/// [`Strategy::Hybrid`], ids only.
fn rnnr_ids<I>(
    index: &I,
    queries: &[Vec<f32>],
    radius: f64,
    threads: Option<usize>,
) -> Vec<Vec<PointId>>
where
    I: RnnrIndex<Point = [f32]> + Sync,
{
    let outputs = index.query_batch_with_strategy(queries, radius, Strategy::Hybrid, threads);
    outputs.into_iter().map(|o| o.ids).collect()
}

/// Both services' top-k batch: the ladder's one batch path under
/// [`Strategy::Hybrid`], as `(id, distance)` pairs.
fn topk_pairs<I>(
    ladder: Option<&I>,
    queries: &[Vec<f32>],
    k: usize,
    threads: Option<usize>,
) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError>
where
    I: TopKLadder<Point = [f32]> + Sync,
{
    let ladder =
        ladder.ok_or_else(|| ServiceError::unsupported("this server has no top-k ladder"))?;
    let outputs = ladder.query_topk_batch_with(queries, k, Strategy::Hybrid, threads);
    Ok(outputs.into_iter().map(|o| o.neighbors.iter().map(|n| (n.id, n.dist)).collect()).collect())
}

/// The standard deployment: a frozen [`ShardedIndex`] for rNNR traffic
/// plus (optionally) a frozen [`ShardedTopKIndex`] ladder for top-k
/// traffic, both over the same data and dimensionality.
///
/// Requests route through the sharded batch entry points, so one
/// admission-batcher tick fans its combined queries over scoped
/// threads *and* every query over the index shards — exactly the
/// in-process execution stack, which is why socket responses are
/// byte-identical to calling
/// [`query_batch`](ShardedIndex::query_batch) /
/// [`query_topk_batch`](ShardedTopKIndex::query_topk_batch) directly.
pub struct ShardedLshService<S, F, D>
where
    S: PointSet<Point = [f32]>,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    rnnr: ShardedIndex<S, F, D, FrozenStore>,
    topk: Option<ShardedTopKIndex<S, F, D, FrozenStore>>,
    dim: u32,
}

impl<S, F, D> ShardedLshService<S, F, D>
where
    S: PointSet<Point = [f32]>,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Wraps frozen sharded indexes for serving. `dim` is the vector
    /// dimensionality requests are validated against.
    pub fn new(
        rnnr: ShardedIndex<S, F, D, FrozenStore>,
        topk: Option<ShardedTopKIndex<S, F, D, FrozenStore>>,
        dim: usize,
    ) -> Self {
        if let Some(t) = &topk {
            assert_eq!(t.len(), rnnr.len(), "rNNR and top-k indexes must cover the same data");
            assert_eq!(
                t.assignment(),
                rnnr.assignment(),
                "rNNR and top-k indexes must be sharded under the same assignment"
            );
        }
        Self { rnnr, topk, dim: dim as u32 }
    }

    /// The rNNR index being served.
    pub fn rnnr_index(&self) -> &ShardedIndex<S, F, D, FrozenStore> {
        &self.rnnr
    }

    /// The top-k ladder being served, if any.
    pub fn topk_index(&self) -> Option<&ShardedTopKIndex<S, F, D, FrozenStore>> {
        self.topk.as_ref()
    }

    /// The vector dimensionality requests are validated against.
    pub fn dim(&self) -> u32 {
        self.dim
    }
}

impl<S, F, D> QueryService for ShardedLshService<S, F, D>
where
    S: PointSet<Point = [f32]> + Send + Sync + 'static,
    F: LshFamily<[f32]> + Sync + 'static,
    F::GFn: Send + Sync,
    D: Distance<[f32]> + Send + Sync + 'static,
{
    fn info(&self) -> ServerInfo {
        ServerInfo {
            points: self.rnnr.len() as u64,
            dim: self.dim,
            shards: self.rnnr.assignment().shards() as u32,
            topk_levels: self.topk.as_ref().map_or(0, |t| t.schedule().levels() as u32),
        }
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        Ok(rnnr_ids(&self.rnnr, queries, radius, threads))
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        topk_pairs(self.topk.as_ref(), queries, k, threads)
    }
}

/// One node of a distributed deployment: shard `shard_id` of the
/// assignment, answering the shard-extension frames a
/// [`Coordinator`](crate::coordinator::Coordinator) speaks.
///
/// Every node loads the **same** snapshot (the full sharded index —
/// shard tables are small next to the vector slabs, and mmap loading
/// pages in only what a node touches), but answers summaries and arm
/// executions *for its assigned shard only*. Because the build is
/// deterministic from the shared seed, every node agrees on the
/// assignment, the hash functions and the global ids — which is what
/// makes the coordinator's merged answers byte-identical to a
/// single-process run.
///
/// Plain client frames still work (delegated to the wrapped
/// [`ShardedLshService`]), so a shard node can be queried directly for
/// debugging — handy when bisecting a distributed-vs-local mismatch.
pub struct ShardNodeService<S, F, D>
where
    S: PointSet<Point = [f32]>,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    inner: ShardedLshService<S, F, D>,
    shard_id: u32,
}

impl<S, F, D> ShardNodeService<S, F, D>
where
    S: PointSet<Point = [f32]>,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Wraps a service as shard `shard_id` of its index's assignment.
    ///
    /// # Panics
    /// Panics if `shard_id` is out of range for the assignment.
    pub fn new(inner: ShardedLshService<S, F, D>, shard_id: u32) -> Self {
        let shards = inner.rnnr_index().assignment().shards();
        assert!(
            (shard_id as usize) < shards,
            "shard id {shard_id} out of range for a {shards}-shard assignment"
        );
        Self { inner, shard_id }
    }

    /// The shard this node answers for.
    pub fn shard_id(&self) -> u32 {
        self.shard_id
    }

    /// The wrapped standalone service.
    pub fn inner(&self) -> &ShardedLshService<S, F, D> {
        &self.inner
    }

    /// Validates a query block's dimensionality and unpacks its rows.
    fn check_rows(&self, queries: &QueryBlock) -> Result<Vec<Vec<f32>>, ServiceError> {
        let dim = self.inner.dim();
        if queries.count() > 0 && queries.dim != dim {
            return Err(ServiceError::dim_mismatch(dim, queries.dim));
        }
        Ok(queries.rows())
    }

    /// The served ladder, or the typed error for a frame that needs one.
    fn ladder(&self) -> Result<&ShardedTopKIndex<S, F, D, FrozenStore>, ServiceError> {
        let ladder = self.inner.topk_index();
        ladder.ok_or_else(|| ServiceError::unsupported("this shard node has no top-k ladder"))
    }

    /// Resolves a wire target to a validated ladder rung — `None` for
    /// the rNNR index.
    fn check_target(&self, target: ShardTarget) -> Result<Option<usize>, ServiceError> {
        let ShardTarget::TopKLevel(li) = target else { return Ok(None) };
        let levels = self.ladder()?.schedule().levels();
        if li as usize >= levels {
            return Err(ServiceError::malformed(format!(
                "ladder level {li} out of range ({levels} levels)"
            )));
        }
        Ok(Some(li as usize))
    }
}

fn params_of(hll: hlsh_hll::HllConfig, cost: hlsh_core::CostModel) -> ShardParams {
    ShardParams {
        hll_precision: hll.precision(),
        hll_seed: hll.seed(),
        alpha: cost.alpha(),
        beta_scan: cost.beta(),
        beta_cand: cost.beta_cand(),
    }
}

impl<S, F, D> QueryService for ShardNodeService<S, F, D>
where
    S: PointSet<Point = [f32]> + Send + Sync + 'static,
    F: LshFamily<[f32]> + Sync + 'static,
    F::GFn: Send + Sync,
    D: Distance<[f32]> + Send + Sync + 'static,
{
    fn info(&self) -> ServerInfo {
        self.inner.info()
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        self.inner.rnnr_batch(queries, radius, threads)
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        self.inner.topk_batch(queries, k, threads)
    }

    fn shard_batch(
        &self,
        request: &ShardRequest,
        threads: Option<usize>,
    ) -> Result<ShardResponse, ServiceError> {
        let rnnr = self.inner.rnnr_index();
        let shard = self.shard_id as usize;
        match request {
            ShardRequest::Info => {
                let levels = match self.inner.topk_index() {
                    Some(t) => (0..t.schedule().levels())
                        .map(|li| ShardLevelInfo {
                            radius: t.schedule().radius(li),
                            params: params_of(t.hll_config(li), t.cost_model(li)),
                        })
                        .collect(),
                    None => Vec::new(),
                };
                Ok(ShardResponse::Info(ShardInfo {
                    shard_id: self.shard_id,
                    shards: rnnr.assignment().shards() as u32,
                    points: rnnr.len() as u64,
                    dim: self.inner.dim(),
                    rnnr: params_of(rnnr.hll_config(0), rnnr.cost_model(0)),
                    levels,
                }))
            }
            ShardRequest::Summarize { target, queries } => {
                let rows = self.check_rows(queries)?;
                let summaries = match self.check_target(*target)? {
                    None => rnnr.shard_summaries(shard, 0, &rows, threads),
                    Some(li) => self.ladder()?.shard_summaries(shard, li, &rows, threads),
                };
                Ok(ShardResponse::Summaries(
                    summaries
                        .into_iter()
                        .map(|s| ShardSummaryEntry {
                            collisions: s.collisions,
                            registers: s.registers,
                        })
                        .collect(),
                ))
            }
            ShardRequest::Execute { target, arm, radius, queries } => {
                if !radius.is_finite() || *radius < 0.0 {
                    return Err(ServiceError::malformed(format!(
                        "radius must be finite and non-negative, got {radius}"
                    )));
                }
                let rows = self.check_rows(queries)?;
                let lsh = matches!(arm, crate::protocol::Arm::Lsh);
                Ok(match self.check_target(*target)? {
                    // An ids frame lists each query's ids ascending.
                    None => ShardResponse::Ids(
                        rnnr.shard_arm_batch(shard, 0, &rows, *radius, lsh, threads)
                            .into_iter()
                            .map(|mut ids: Vec<PointId>| {
                                ids.sort_unstable();
                                ids
                            })
                            .collect(),
                    ),
                    Some(li) => ShardResponse::Pairs(
                        self.ladder()?.shard_arm_batch(shard, li, &rows, *radius, lsh, threads),
                    ),
                })
            }
            ShardRequest::Scan { queries } => {
                let rows = self.check_rows(queries)?;
                Ok(ShardResponse::Pairs(
                    self.ladder()?.shard_fallback_scan_batch(shard, &rows, threads),
                ))
            }
        }
    }

    // A shard node must never mutate its slice of the corpus out from
    // under the coordinator — every node would need the same mutation
    // in the same order to keep the global merge byte-identical, and
    // this protocol has no such replication. Reject with a typed error
    // naming the right place to mutate.
    fn insert_batch(&self, ids: &[PointId], points: &QueryBlock) -> Result<u32, ServiceError> {
        let _ = (ids, points);
        Err(ServiceError::unsupported(
            "shard nodes refuse mutation (it would desync the coordinator); \
             mutate a standalone --live server instead",
        ))
    }

    fn delete_batch(&self, ids: &[PointId]) -> Result<u32, ServiceError> {
        let _ = ids;
        Err(ServiceError::unsupported(
            "shard nodes refuse mutation (it would desync the coordinator); \
             mutate a standalone --live server instead",
        ))
    }
}

/// The living-index deployment: LSM-segmented indexes behind one
/// reader-writer lock, so the server keeps answering queries while the
/// corpus churns under [`Request::Insert`](crate::protocol::Request::Insert)
/// and [`Request::Delete`](crate::protocol::Request::Delete) frames.
///
/// The rNNR index and the top-k ladder (when present) sit under that
/// one lock: a mutation batch is validated and applied to both under a
/// single write guard, so every reader sees both cover the same live
/// id set. Queries take the read lock and run the one batch path, whose
/// answers are byte-identical to an index rebuilt from scratch on the
/// surviving points — the contract `tests/mutable_props.rs` pins and
/// the CI churn smoke checks over this very service.
///
/// [`info`](QueryService::info) never takes the lock: the event loop
/// calls it for every frame, and a flush or merge under the write guard
/// must not stall the loop. The live count it reports is stored under
/// the write guard after every mutation batch.
pub struct LiveLshService<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    indexes: RwLock<LiveIndexes<F, D>>,
    /// The metadata that never changes (its `points` is not read).
    info: ServerInfo,
    /// The live point count.
    points: AtomicU64,
}

/// The structures a [`LiveLshService`] serves, mutated together.
struct LiveIndexes<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    rnnr: SegmentedIndex<F, D>,
    topk: Option<SegmentedTopKIndex<F, D>>,
}

impl<F, D> LiveLshService<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Wraps segmented indexes for serving. Both must be built over
    /// the same corpus (same live ids) and the same dimensionality.
    pub fn new(rnnr: SegmentedIndex<F, D>, topk: Option<SegmentedTopKIndex<F, D>>) -> Self {
        if let Some(t) = &topk {
            assert_eq!(t.dim(), rnnr.dim(), "rNNR and top-k ladders must share dimensionality");
            assert_eq!(t.len(), rnnr.len(), "rNNR and top-k indexes must cover the same data");
        }
        let info = ServerInfo {
            points: rnnr.len() as u64,
            dim: rnnr.dim() as u32,
            shards: rnnr.assignment().shards() as u32,
            topk_levels: topk.as_ref().map_or(0, |t| t.schedule().levels() as u32),
        };
        let points = AtomicU64::new(info.points);
        Self { indexes: RwLock::new(LiveIndexes { rnnr, topk }), info, points }
    }

    /// The vector dimensionality requests are validated against.
    pub fn dim(&self) -> u32 {
        self.info.dim
    }

    /// Runs `f` over the live rNNR index under the read lock — how the
    /// churn smoke compares served state against a rebuild oracle.
    pub fn with_rnnr<R>(&self, f: impl FnOnce(&SegmentedIndex<F, D>) -> R) -> R {
        f(&self.indexes.read().expect("live index lock poisoned").rnnr)
    }

    /// Runs one mutation batch under the write guard, then stores the
    /// live count [`info`](QueryService::info) reports before releasing
    /// it.
    fn mutate(
        &self,
        apply: impl FnOnce(&mut LiveIndexes<F, D>) -> Result<u32, ServiceError>,
    ) -> Result<u32, ServiceError> {
        let mut live = self.indexes.write().map_err(poisoned)?;
        let applied = apply(&mut live);
        self.points.store(live.rnnr.len() as u64, Ordering::Relaxed);
        applied
    }
}

/// The error a request gets once a panicking writer poisoned the lock.
fn poisoned<G>(_: PoisonError<G>) -> ServiceError {
    ServiceError::internal("live index lock poisoned")
}

/// Maps a core [`hlsh_core::MutationError`] onto the wire's error
/// vocabulary.
fn mutation_error(e: hlsh_core::MutationError) -> ServiceError {
    match e {
        hlsh_core::MutationError::DuplicateId { id } => ServiceError::duplicate_id(id),
        hlsh_core::MutationError::UnknownId { id } => ServiceError::unknown_id(id),
        hlsh_core::MutationError::DimMismatch { expected, got } => {
            ServiceError::dim_mismatch(expected as u32, got as u32)
        }
    }
}

impl<F, D> QueryService for LiveLshService<F, D>
where
    F: LshFamily<[f32]> + Clone + Send + Sync + 'static,
    F::GFn: Send + Sync,
    D: Distance<[f32]> + Clone + Send + Sync + 'static,
{
    fn info(&self) -> ServerInfo {
        ServerInfo { points: self.points.load(Ordering::Relaxed), ..self.info }
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        let live = self.indexes.read().map_err(poisoned)?;
        Ok(rnnr_ids(&live.rnnr, queries, radius, threads))
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        let live = self.indexes.read().map_err(poisoned)?;
        topk_pairs(live.topk.as_ref(), queries, k, threads)
    }

    fn insert_batch(&self, ids: &[PointId], points: &QueryBlock) -> Result<u32, ServiceError> {
        let dim = self.info.dim;
        if points.dim != dim && !ids.is_empty() {
            return Err(ServiceError::dim_mismatch(dim, points.dim));
        }
        if points.data.len() != ids.len() * dim as usize {
            return Err(ServiceError::malformed(format!(
                "insert carries {} ids but {} floats of dimension {dim}",
                ids.len(),
                points.data.len(),
            )));
        }
        // Validation completes against the rNNR index before either
        // structure is touched — the batch either fully applies to
        // both or to neither.
        self.mutate(|LiveIndexes { rnnr, topk }| {
            let mut batch = std::collections::HashSet::with_capacity(ids.len());
            for &id in ids {
                if !batch.insert(id) || rnnr.contains(id) {
                    return Err(ServiceError::duplicate_id(id));
                }
            }
            let dim = dim as usize;
            for (i, &id) in ids.iter().enumerate() {
                let row = &points.data[i * dim..(i + 1) * dim];
                rnnr.insert(id, row).map_err(mutation_error)?;
                if let Some(topk) = topk {
                    topk.insert(id, row).map_err(mutation_error)?;
                }
            }
            Ok(ids.len() as u32)
        })
    }

    fn delete_batch(&self, ids: &[PointId]) -> Result<u32, ServiceError> {
        self.mutate(|LiveIndexes { rnnr, topk }| {
            let mut batch = std::collections::HashSet::with_capacity(ids.len());
            for &id in ids {
                if !batch.insert(id) || !rnnr.contains(id) {
                    return Err(ServiceError::unknown_id(id));
                }
            }
            for &id in ids {
                rnnr.delete(id).map_err(mutation_error)?;
                if let Some(topk) = topk {
                    topk.delete(id).map_err(mutation_error)?;
                }
            }
            Ok(ids.len() as u32)
        })
    }
}

#[cfg(test)]
mod tests {
    use hlsh_core::{CostModel, IndexBuilder, RadiusSchedule, ShardAssignment};
    use hlsh_families::PStableL2;
    use hlsh_vec::{DenseDataset, L2};

    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use super::*;

    /// A small living service with a ladder, over 2-d points.
    fn live_service() -> LiveLshService<PStableL2, L2> {
        let data = DenseDataset::from_rows(2, (0..80).map(|i| [i as f32, (i % 5) as f32]));
        let ids: Vec<PointId> = (0..80).collect();
        let builder = |_: usize, r: f64| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(3)
                .hash_len(2)
                .cost_model(CostModel::from_ratio(2.0))
        };
        let assignment = ShardAssignment::new(4, 2);
        let schedule = RadiusSchedule::doubling(1.0, 2);
        let rnnr = SegmentedIndex::build_bulk(data.clone(), &ids, assignment, builder(0, 1.0));
        let topk = SegmentedTopKIndex::build_bulk(data, &ids, assignment, schedule, builder);
        LiveLshService::new(rnnr, Some(topk))
    }

    #[test]
    fn info_answers_while_a_writer_holds_the_lock() {
        let service = Arc::new(live_service());
        let guard = service.indexes.write().unwrap();
        let (tx, rx) = mpsc::channel();
        let reader = Arc::clone(&service);
        let handle = std::thread::spawn(move || tx.send(reader.info()).unwrap());
        let info = rx.recv_timeout(Duration::from_secs(10));
        drop(guard);
        handle.join().unwrap();
        let info = info.expect("info() must not wait for the write lock");
        assert_eq!((info.points, info.dim, info.shards, info.topk_levels), (80, 2, 2, 2));
    }

    #[test]
    fn a_poisoned_lock_fails_queries_but_not_info() {
        let service = Arc::new(live_service());
        let writer = Arc::clone(&service);
        let died = std::thread::spawn(move || {
            let _guard = writer.indexes.write().unwrap();
            panic!("a writer dies holding the guard");
        });
        assert!(died.join().is_err());
        assert_eq!(service.info().points, 80);
        let queries = vec![vec![3.0f32, 1.0]];
        let rnnr = service.rnnr_batch(&queries, 1.0, Some(1)).unwrap_err();
        assert_eq!(rnnr.code, ErrorCode::Internal);
        let topk = service.topk_batch(&queries, 3, Some(1)).unwrap_err();
        assert_eq!(topk.code, ErrorCode::Internal);
    }

    #[test]
    #[should_panic(expected = "sharded under the same assignment")]
    fn a_ladder_sharded_under_another_assignment_is_rejected() {
        let data = DenseDataset::from_rows(2, (0..60).map(|i| [i as f32, (i % 7) as f32]));
        let builder = |_: usize, r: f64| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(3)
                .hash_len(2)
                .cost_model(CostModel::from_ratio(2.0))
        };
        let rnnr =
            ShardedIndex::build_frozen(data.clone(), ShardAssignment::new(4, 2), builder(0, 1.0));
        let schedule = RadiusSchedule::doubling(1.0, 2);
        let topk =
            ShardedTopKIndex::build_frozen(data, ShardAssignment::new(4, 3), schedule, builder);
        ShardedLshService::new(rnnr, Some(topk), 2);
    }
}
