//! The [`QueryService`] trait and the one service over one structure.
//!
//! The trait (and [`ServiceError`], its failure type) is what the
//! event-loop server in [`crate::server`] executes against. Three
//! deployments serve through it, all built on one [`LshService`]:
//!
//! * [`ShardedLshService`] — the standalone server: a frozen sharded
//!   rNNR index and optional ladder. Mutation frames are refused.
//! * [`LiveLshService`] — the living index: an LSM-segmented rNNR
//!   index and optional ladder that accept `Insert`/`Delete` frames
//!   while queries stay byte-identical to a rebuild on the surviving
//!   points.
//! * [`ShardNodeService`] — one node of a distributed deployment: a
//!   frozen service that *additionally* answers the shard-extension
//!   frames (`0x10..=0x1F`) a
//!   [`Coordinator`](crate::coordinator::Coordinator) uses to fan one
//!   logical query across machines.
//!
//! A service holds **one** structure: its constructor fuses the rNNR
//! index and ladder it is given into a [`ShardedServed`] or a
//! [`SegmentedServed`], whose rung 0 is the rNNR index and rung `1 + li`
//! ladder level `li` (the wire's [`ShardTarget`] numbering), over one
//! row store and id map per shard. The first two deployments are
//! aliases of [`LshService`], so a served answer has one code path: the
//! read guard, then the structure's one batch path. They differ only in
//! how the structure takes a mutation batch, one crate-private trait.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use hlsh_core::{
    FrozenStore, RnnrIndex, SegmentedIndex, SegmentedServed, SegmentedTopKIndex, Sharded,
    ShardedIndex, ShardedServed, ShardedTopKIndex, Strategy, TopKLadder,
};
use hlsh_families::LshFamily;
use hlsh_vec::{Distance, PointId, PointSet};

use crate::protocol::{
    ErrorCode, QueryBlock, Response, ServerInfo, ShardInfo, ShardLevelInfo, ShardParams,
    ShardRequest, ShardResponse, ShardTarget, WireError,
};

/// A service-level failure: what the server encodes into a
/// [`kind::ERROR`](crate::protocol::kind::ERROR) frame when a batch
/// cannot be answered. Distinct from [`WireError`], which covers
/// byte-level decode problems — a `ServiceError` means the request
/// parsed fine but could not be executed (no top-k ladder, a shard
/// backend down, an internal failure).
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

    /// A top-k request to a server without a ladder.
    pub(crate) fn no_ladder() -> Self {
        Self::unsupported("this server has no top-k ladder")
    }

    /// A mutation sent to a frozen index.
    fn frozen() -> Self {
        Self::unsupported("this server's index is frozen; mutation needs --live")
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        Self { code: e.to_code(), message: e.to_string() }
    }
}

/// The one way a failure becomes an error frame.
impl From<ServiceError> for Response {
    fn from(e: ServiceError) -> Self {
        Response::Error { code: e.code, message: e.message }
    }
}

/// Checks a request's radius: finite and non-negative.
pub(crate) fn check_radius(radius: f64) -> Result<(), ServiceError> {
    if radius.is_finite() && radius >= 0.0 {
        return Ok(());
    }
    Err(ServiceError::malformed(format!("radius must be finite and non-negative, got {radius}")))
}

/// Checks the dimensionality of a request's `rows` vectors against the
/// index's; a request without rows carries none.
pub(crate) fn check_dim(expected: u32, got: u32, rows: usize) -> Result<(), ServiceError> {
    if rows > 0 && got != expected {
        return Err(ServiceError::dim_mismatch(expected, got));
    }
    Ok(())
}

/// What a server serves: batch entry points over some index.
///
/// The two required methods mirror the in-process batch APIs —
/// [`RnnrIndex::query_batch_with_strategy`] and
/// [`TopKLadder::query_topk_batch_with`] — and the byte-identity
/// contract is inherited from them: whatever a service returns here is
/// exactly what clients decode. Errors become
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
    /// coordinator that already batched an entire client request — and
    /// run off the event loop, so a long fan-out never stalls it.
    fn shard_batch(
        &self,
        _request: &ShardRequest,
        _threads: Option<usize>,
    ) -> Result<ShardResponse, ServiceError> {
        Err(ServiceError::unsupported("this server is not a shard node"))
    }

    /// Inserts `ids[i]` ↦ row `i` of `points`, all-or-nothing: on any
    /// [`ErrorCode::DimMismatch`] / [`ErrorCode::DuplicateId`] nothing
    /// is applied. Returns the number inserted (the full batch). The
    /// default refuses: deployments serving a frozen corpus are not
    /// mutable — only a living index ([`LiveLshService`]) accepts
    /// mutations.
    fn insert_batch(&self, _ids: &[PointId], _points: &QueryBlock) -> Result<u32, ServiceError> {
        Err(ServiceError::frozen())
    }

    /// Deletes the points with these ids, all-or-nothing: on any
    /// [`ErrorCode::UnknownId`] (not live, or repeated in the batch)
    /// nothing is applied. Returns the number deleted. Default refuses
    /// like [`insert_batch`](QueryService::insert_batch).
    fn delete_batch(&self, _ids: &[PointId]) -> Result<u32, ServiceError> {
        Err(ServiceError::frozen())
    }
}

/// The one service over one structure `X`: an rNNR index and the top-k
/// ladder served with it, if any, fused onto one row store, one id map
/// and (when living) one LSM per shard. [`ShardedLshService`] and
/// [`LiveLshService`] are its aliases.
///
/// The structure sits under one reader-writer lock. Queries take the
/// read side and run the structure's one batch path under
/// [`Strategy::Hybrid`] — exactly the in-process execution stack, which
/// is why socket responses are byte-identical to calling the batch path
/// directly. A living structure applies a mutation batch once, to every
/// rung, under the write guard, so rNNR and top-k readers see the same
/// mutation prefix by construction; a frozen one refuses mutation before
/// the lock is taken.
///
/// [`info`](QueryService::info) never takes the lock: the event loop
/// calls it for every frame, so a flush or merge under the write guard
/// must not stall it. The live count it reports is stored under the
/// write guard after every mutation batch.
pub struct LshService<X> {
    index: RwLock<X>,
    /// The metadata fixed at construction (its `points` is not read).
    info: ServerInfo,
    /// The live point count.
    points: AtomicU64,
}

/// The standard deployment: a frozen sharded rNNR index and, optionally,
/// a top-k ladder over the same data, fused into one [`ShardedServed`].
pub type ShardedLshService<S, F, D> = LshService<ShardedServed<S, F, D>>;

/// The living-index deployment: an LSM-segmented rNNR index and,
/// optionally, a ladder, fused into one [`SegmentedServed`] that accepts
/// `Insert`/`Delete` frames, with answers byte-identical to a structure
/// rebuilt from scratch on the surviving points — the contract
/// `tests/mutable_props.rs` pins and the CI churn smoke checks.
pub type LiveLshService<F, D> = LshService<SegmentedServed<F, D>>;

impl<X> LshService<X> {
    fn serve(index: X, info: ServerInfo) -> Self {
        let points = AtomicU64::new(info.points);
        Self { index: RwLock::new(index), info, points }
    }

    /// Runs `f` under the read lock over the served structure, as the
    /// rNNR index and, when a ladder is served, as the ladder — how
    /// tests compare socket answers against in-process batch calls on
    /// the very structure being served.
    pub fn with_indexes<Y>(&self, f: impl FnOnce(&X, Option<&X>) -> Y) -> Y {
        let index = self.index.read().expect("index lock poisoned");
        f(&index, (self.info.topk_levels > 0).then_some(&*index))
    }

    /// Runs `f` over the served structure under the read lock (e.g. to
    /// read a living index's segment counts).
    pub fn with_rnnr<Y>(&self, f: impl FnOnce(&X) -> Y) -> Y {
        self.with_indexes(|index, _| f(index))
    }

    /// The read guard, or the typed error once a panicking writer
    /// poisoned the lock.
    fn read(&self) -> Result<RwLockReadGuard<'_, X>, ServiceError> {
        self.index.read().map_err(poisoned)
    }
}

fn poisoned<G>(_: PoisonError<G>) -> ServiceError {
    ServiceError::internal("index lock poisoned")
}

impl<S, F, D> ShardedLshService<S, F, D>
where
    S: PointSet<Point = [f32]> + PartialEq,
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Serves a frozen sharded rNNR index and the ladder built over the
    /// same data, fused into one structure ([`ShardedServed::fuse`]).
    /// `dim` is the vector dimensionality requests are validated
    /// against.
    ///
    /// # Panics
    /// Panics if the ladder covers another partition than the rNNR
    /// index.
    pub fn new(
        rnnr: ShardedIndex<S, F, D, FrozenStore>,
        topk: Option<ShardedTopKIndex<S, F, D, FrozenStore>>,
        dim: usize,
    ) -> Self {
        let index = ShardedServed::fuse(rnnr, topk);
        let info = ServerInfo {
            points: index.len() as u64,
            dim: dim as u32,
            shards: index.assignment().shards() as u32,
            topk_levels: index.ladder().map_or(0, |s| s.levels() as u32),
        };
        Self::serve(index, info)
    }
}

impl<F, D> LiveLshService<F, D>
where
    F: LshFamily<[f32]>,
    D: Distance<[f32]>,
{
    /// Serves a living rNNR index and the ladder built over the same
    /// corpus, fused into one LSM ([`SegmentedServed::fuse`]).
    ///
    /// # Panics
    /// Panics if the two differ in dimensionality, assignment or
    /// contents.
    pub fn new(rnnr: SegmentedIndex<F, D>, topk: Option<SegmentedTopKIndex<F, D>>) -> Self {
        let index = SegmentedServed::fuse(rnnr, topk);
        let info = ServerInfo {
            points: index.len() as u64,
            dim: index.dim() as u32,
            shards: index.assignment().shards() as u32,
            topk_levels: index.ladder().map_or(0, |s| s.levels() as u32),
        };
        Self::serve(index, info)
    }

    /// Runs one mutation batch under the write guard, then stores the
    /// live count [`info`](QueryService::info) reports before releasing
    /// it.
    fn mutate(
        &self,
        apply: impl FnOnce(&mut SegmentedServed<F, D>) -> Result<u32, ServiceError>,
    ) -> Result<u32, ServiceError> {
        let mut index = self.index.write().map_err(poisoned)?;
        let applied = apply(&mut index);
        self.points.store(index.len() as u64, Ordering::Relaxed);
        applied
    }
}

/// How a served structure takes mutation frames. Sealed to the two
/// shapes a service serves: the living [`SegmentedServed`] applies the
/// batch once, to every rung; the frozen [`Sharded`] refuses at once.
pub(crate) trait Mutation: Sized {
    /// See [`QueryService::insert_batch`].
    fn insert(
        service: &LshService<Self>,
        ids: &[PointId],
        points: &QueryBlock,
    ) -> Result<u32, ServiceError>;

    /// See [`QueryService::delete_batch`].
    fn delete(service: &LshService<Self>, ids: &[PointId]) -> Result<u32, ServiceError>;
}

impl<X> Mutation for Sharded<X> {
    fn insert(_: &LshService<Self>, _: &[PointId], _: &QueryBlock) -> Result<u32, ServiceError> {
        Err(ServiceError::frozen())
    }

    fn delete(_: &LshService<Self>, _: &[PointId]) -> Result<u32, ServiceError> {
        Err(ServiceError::frozen())
    }
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

impl<F, D> Mutation for SegmentedServed<F, D>
where
    F: LshFamily<[f32]> + Clone,
    F::GFn: Send,
    D: Distance<[f32]> + Clone,
{
    fn insert(
        service: &LiveLshService<F, D>,
        ids: &[PointId],
        points: &QueryBlock,
    ) -> Result<u32, ServiceError> {
        let dim = service.info.dim;
        check_dim(dim, points.dim, ids.len())?;
        if points.data.len() != ids.len() * dim as usize {
            return Err(ServiceError::malformed(format!(
                "insert carries {} ids but {} floats of dimension {dim}",
                ids.len(),
                points.data.len(),
            )));
        }
        // Validation completes before the structure is touched — the
        // batch either fully applies or not at all.
        service.mutate(|index| {
            let mut batch = std::collections::HashSet::with_capacity(ids.len());
            for &id in ids {
                if !batch.insert(id) || index.contains(id) {
                    return Err(ServiceError::duplicate_id(id));
                }
            }
            let dim = dim as usize;
            for (i, &id) in ids.iter().enumerate() {
                index.insert(id, &points.data[i * dim..(i + 1) * dim]).map_err(mutation_error)?;
            }
            Ok(ids.len() as u32)
        })
    }

    fn delete(service: &LiveLshService<F, D>, ids: &[PointId]) -> Result<u32, ServiceError> {
        service.mutate(|index| {
            let mut batch = std::collections::HashSet::with_capacity(ids.len());
            for &id in ids {
                if !batch.insert(id) || !index.contains(id) {
                    return Err(ServiceError::unknown_id(id));
                }
            }
            for &id in ids {
                index.delete(id).map_err(mutation_error)?;
            }
            Ok(ids.len() as u32)
        })
    }
}

impl<X> QueryService for LshService<X>
where
    X: RnnrIndex<Point = [f32]> + TopKLadder<Point = [f32]> + Mutation + Send + Sync + 'static,
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
        let index = self.read()?;
        let outputs = index.query_batch_with_strategy(queries, radius, Strategy::Hybrid, threads);
        Ok(outputs.into_iter().map(|o| o.ids).collect())
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        let index = self.read()?;
        if self.info.topk_levels == 0 {
            return Err(ServiceError::no_ladder());
        }
        let outputs = index.query_topk_batch_with(queries, k, Strategy::Hybrid, threads);
        Ok(outputs
            .into_iter()
            .map(|o| o.neighbors.iter().map(|n| (n.id, n.dist)).collect())
            .collect())
    }

    fn insert_batch(&self, ids: &[PointId], points: &QueryBlock) -> Result<u32, ServiceError> {
        X::insert(self, ids, points)
    }

    fn delete_batch(&self, ids: &[PointId]) -> Result<u32, ServiceError> {
        X::delete(self, ids)
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
        let shards = inner.info.shards;
        assert!(
            shard_id < shards,
            "shard id {shard_id} out of range for a {shards}-shard assignment"
        );
        Self { inner, shard_id }
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

/// A shard node refuses mutation: every node would need the same
/// mutation in the same order to keep the coordinator's global merge
/// byte-identical, and this protocol has no such replication.
fn shard_refuses_mutation() -> ServiceError {
    ServiceError::unsupported(
        "shard nodes refuse mutation (it would desync the coordinator); \
         mutate a standalone --live server instead",
    )
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
        let index = self.inner.read()?;
        let shard = self.shard_id as usize;
        let levels = self.inner.info.topk_levels;
        let no_ladder = || ServiceError::unsupported("this shard node has no top-k ladder");
        // A wire target as its validated rung: 0 for the rNNR index,
        // `1 + li` for ladder level `li`.
        let rung = |target: ShardTarget| match target {
            ShardTarget::Rnnr => Ok(0),
            ShardTarget::TopKLevel(_) if levels == 0 => Err(no_ladder()),
            ShardTarget::TopKLevel(li) if li >= levels => Err(ServiceError::malformed(format!(
                "ladder level {li} out of range ({levels} levels)"
            ))),
            ShardTarget::TopKLevel(li) => Ok(1 + li as usize),
        };
        let rows = |queries: &QueryBlock| {
            check_dim(self.inner.info.dim, queries.dim, queries.count())?;
            Ok::<_, ServiceError>(queries.rows())
        };
        let params = |rung| params_of(index.hll_config(rung), index.cost_model(rung));
        match request {
            ShardRequest::Info => Ok(ShardResponse::Info(ShardInfo {
                shard_id: self.shard_id,
                shards: self.inner.info.shards,
                points: index.len() as u64,
                dim: self.inner.info.dim,
                rnnr: params(0),
                levels: index.ladder().map_or_else(Vec::new, |schedule| {
                    let level =
                        |li| ShardLevelInfo { radius: schedule.radius(li), params: params(1 + li) };
                    (0..schedule.levels()).map(level).collect()
                }),
            })),
            ShardRequest::Summarize { target, queries } => {
                let rows = rows(queries)?;
                let summaries = index.shard_summaries(shard, rung(*target)?, &rows, threads);
                Ok(ShardResponse::Summaries(summaries))
            }
            ShardRequest::Execute { target, arm, radius, queries } => {
                check_radius(*radius)?;
                let rows = rows(queries)?;
                let lsh = matches!(arm, crate::protocol::Arm::Lsh);
                Ok(match rung(*target)? {
                    // An ids frame lists each query's ids ascending.
                    0 => ShardResponse::Ids(
                        index
                            .shard_arm_batch(shard, 0, &rows, *radius, lsh, threads)
                            .into_iter()
                            .map(|mut ids: Vec<PointId>| {
                                ids.sort_unstable();
                                ids
                            })
                            .collect(),
                    ),
                    rung => ShardResponse::Pairs(
                        index.shard_arm_batch(shard, rung, &rows, *radius, lsh, threads),
                    ),
                })
            }
            ShardRequest::Scan { queries } => {
                let rows = rows(queries)?;
                if levels == 0 {
                    return Err(no_ladder());
                }
                Ok(ShardResponse::Pairs(index.shard_fallback_scan_batch(shard, &rows, threads)))
            }
        }
    }

    fn insert_batch(&self, _: &[PointId], _: &QueryBlock) -> Result<u32, ServiceError> {
        Err(shard_refuses_mutation())
    }

    fn delete_batch(&self, _: &[PointId]) -> Result<u32, ServiceError> {
        Err(shard_refuses_mutation())
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
        let guard = service.index.write().unwrap();
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
            let _guard = writer.index.write().unwrap();
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

    #[test]
    fn a_frozen_service_refuses_mutation_without_the_lock() {
        let data = DenseDataset::from_rows(2, (0..40).map(|i| [i as f32, 0.0]));
        let builder = IndexBuilder::new(PStableL2::new(2, 2.0), L2)
            .tables(3)
            .hash_len(2)
            .cost_model(CostModel::from_ratio(2.0));
        let rnnr = ShardedIndex::build_frozen(data, ShardAssignment::new(4, 2), builder);
        let service = Arc::new(ShardedLshService::new(rnnr, None, 2));
        let guard = service.index.write().unwrap();
        let (tx, rx) = mpsc::channel();
        let writer = Arc::clone(&service);
        let handle = std::thread::spawn(move || {
            let points = QueryBlock::pack(&[vec![0.5f32, 0.5]], 2);
            tx.send((writer.insert_batch(&[99], &points), writer.delete_batch(&[0]))).unwrap();
        });
        let refused = rx.recv_timeout(Duration::from_secs(10));
        drop(guard);
        handle.join().unwrap();
        let (insert, delete) = refused.expect("a frozen index must refuse before the lock");
        let (insert, delete) = (insert.unwrap_err(), delete.unwrap_err());
        assert_eq!((insert.code, delete.code), (ErrorCode::Unsupported, ErrorCode::Unsupported));
        assert!(insert.message.contains("--live"), "{}", insert.message);
    }

    #[test]
    fn request_fields_are_checked_once_with_their_messages() {
        assert!(check_radius(0.0).is_ok());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let e = check_radius(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::Malformed);
            assert_eq!(e.message, format!("radius must be finite and non-negative, got {bad}"));
        }
        // A request without rows carries no dimension to check.
        assert!(check_dim(2, 3, 0).is_ok());
        let e = check_dim(2, 3, 1).unwrap_err();
        assert_eq!(e.code, ErrorCode::DimMismatch);
        assert_eq!(e.message, "index dimension is 2, request carries 3");
    }

    #[test]
    fn failures_become_error_frames_with_their_code_and_message() {
        let wire = ServiceError::from(WireError::UnknownKind(0x42));
        assert_eq!(wire.code, ErrorCode::UnknownKind);
        assert_eq!(wire.message, "unknown frame kind 0x42");
        assert_eq!(
            Response::from(ServiceError::unknown_id(7)),
            Response::Error {
                code: ErrorCode::UnknownId,
                message: "id 7 is not live in the index".into()
            }
        );
    }
}
