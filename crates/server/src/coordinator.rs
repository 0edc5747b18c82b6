//! The distributed coordinator: one [`QueryService`] whose shards live
//! on other machines.
//!
//! # Data flow
//!
//! ```text
//!  client ──(client protocol, unchanged)──► coordinator
//!                                              │ 1. SHARD_SUMMARIZE to every shard
//!                                              ▼
//!                          shard 0 … shard N-1: probe own tables,
//!                          sum bucket sizes, merge own sketches,
//!                          return (collisions, HLL registers)
//!                                              │ 2. merge globally:
//!                                              │    Σ collisions,
//!                                              │    register-wise max,
//!                                              │    estimate once,
//!                                              │    Algorithm 2 once
//!                                              │ 3. SHARD_EXECUTE the
//!                                              │    chosen arm
//!                                              ▼
//!                          shards verify candidates / scan slabs,
//!                          return global ids (+ distances)
//!                                              │ 4. concatenate, sort,
//!                                              ▼    encode
//!  client ◄───────────────────────────────── response
//! ```
//!
//! The merge in step 2 is what keeps the hybrid decision *global*: HLL
//! register-wise `max` is associative and commutative, so max-merging
//! per-shard partial merges yields bit-identical registers — hence
//! bit-identical `f64` estimates, hence identical per-query arm
//! choices — to a single process probing every table itself. Combined
//! with the deterministic build (same seed ⇒ same assignment, hashes
//! and global ids on every node), distributed answers are
//! **byte-identical** to a single-process run over the same snapshot;
//! `tests/distributed.rs` and the multi-process CI gate pin this
//! across shard counts.
//!
//! # Failure semantics
//!
//! Each shard call runs under a per-request deadline (socket
//! read/write timeouts). A shard that is down, unreachable or late
//! fails the *affected client requests* with a typed
//! [`ErrorCode::Unavailable`] error frame — never a hang, never a
//! silently partial answer — and drops the broken connection. The next
//! request redials lazily, so a restarted shard rejoins without
//! coordinator intervention; the rejoin handshake re-validates the
//! shard's identity and parameters before trusting it.

use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hlsh_core::engine::{decide, Decision};
use hlsh_core::{CostModel, Strategy, TopKWalk};
use hlsh_hll::{HllConfig, HyperLogLog};
use hlsh_vec::PointId;

use crate::client::{read_reply, ClientError};
use crate::protocol::{
    self, write_frame, Arm, ErrorCode, QueryBlock, ServerInfo, ShardInfo, ShardParams,
    ShardRequest, ShardResponse, ShardSummaryEntry, ShardTarget,
};
use crate::server::{QueryService, ServiceError};

/// Coordinator tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CoordinatorConfig {
    /// Per-shard-call deadline: a shard that has not answered within
    /// this window fails the call with [`ErrorCode::Unavailable`].
    pub shard_deadline: Duration,
    /// How long [`Coordinator::connect`] keeps retrying unreachable
    /// shards at startup before giving up (covers shard nodes still
    /// loading their snapshot).
    pub connect_timeout: Duration,
    /// Largest shard response frame accepted.
    pub max_frame_bytes: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            shard_deadline: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(30),
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// One shard backend's connection state. Lives behind a [`Mutex`] so
/// fan-out threads own their shard's connection exclusively for the
/// duration of a call.
struct ShardConn {
    addr: String,
    config: CoordinatorConfig,
    /// The identity the shard presented at startup; a reconnect (shard
    /// restart) must present the same one or the call fails.
    expect: ShardInfo,
    /// `None` between a failure and the next successful redial.
    client: Option<ShardClient>,
}

impl ShardConn {
    /// One request/response against this shard, redialing first if the
    /// previous call broke the connection. Transport and protocol
    /// failures drop the connection and surface as
    /// [`ErrorCode::Unavailable`]; error *frames* (the shard answered,
    /// just negatively) keep the connection and propagate the shard's
    /// own code — except [`ErrorCode::Busy`],
    /// which the shard sends while closing, so it is treated as a
    /// transport failure.
    fn call(&mut self, si: usize, req: &ShardRequest) -> Result<ShardResponse, ServiceError> {
        let unavailable = |addr: &str, e: &dyn std::fmt::Display| -> ServiceError {
            ServiceError::unavailable(format!("shard {si} at {addr}: {e}"))
        };
        if self.client.is_none() {
            let mut fresh = ShardClient::connect(&self.addr, self.config)
                .map_err(|e| unavailable(&self.addr, &e))?;
            let info =
                fresh.info(self.config.max_frame_bytes).map_err(|e| unavailable(&self.addr, &e))?;
            if info != self.expect {
                return Err(ServiceError::unavailable(format!(
                    "shard {si} at {} rejoined with different parameters (got {info:?}, \
                     expected {:?}) — is it serving the right snapshot?",
                    self.addr, self.expect
                )));
            }
            self.client = Some(fresh);
        }
        let client = self.client.as_mut().expect("connected above");
        match client.roundtrip(req, self.config.max_frame_bytes) {
            Ok(resp) => Ok(resp),
            Err(ClientError::Server { code: ErrorCode::Busy, message }) => {
                // Busy is sent at accept time and the shard closes the
                // connection right after — the stream is dead, not just
                // the request. Treat it like a transport failure so the
                // next call redials instead of writing into a closed
                // socket.
                self.client = None;
                Err(ServiceError::unavailable(format!(
                    "shard {si} at {} is at its connection limit: {message}",
                    self.addr
                )))
            }
            Err(ClientError::Server { code, message }) => Err(ServiceError {
                code,
                message: format!("shard {si} at {}: {message}", self.addr),
            }),
            Err(e) => {
                // Transport/protocol failure: the stream position is no
                // longer trustworthy. Drop the connection; the next
                // call redials.
                self.client = None;
                Err(unavailable(&self.addr, &e))
            }
        }
    }
}

/// A minimal shard-protocol client: one connection, strict
/// request/response, deadline enforced through socket timeouts.
struct ShardClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ShardClient {
    fn connect(addr: &str, config: CoordinatorConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.shard_deadline))?;
        stream.set_write_timeout(Some(config.shard_deadline))?;
        Ok(Self { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    fn roundtrip(
        &mut self,
        req: &ShardRequest,
        max_frame_bytes: usize,
    ) -> Result<ShardResponse, ClientError> {
        write_frame(&mut self.writer, &req.encode())?;
        let (kind, body) = read_reply(&mut self.reader, max_frame_bytes)?;
        Ok(protocol::decode_shard_response(kind, &body)?)
    }

    fn info(&mut self, max_frame_bytes: usize) -> Result<ShardInfo, ClientError> {
        match self.roundtrip(&ShardRequest::Info, max_frame_bytes)? {
            ShardResponse::Info(info) => Ok(info),
            other => Err(ClientError::Protocol(format!("expected shard info, got {other:?}"))),
        }
    }
}

/// Decision-replay state for one index: the sketch configuration that
/// turns merged registers back into an estimate, and the cost model
/// that resolves Algorithm 2 on the merged statistics.
struct TargetMeta {
    radius: f64,
    hll: HllConfig,
    cost: CostModel,
}

impl TargetMeta {
    /// The core's one Algorithm 2 decision on a query's merged
    /// `(Σ collisions, candSize estimate)` over `n` points.
    fn decide(
        &self,
        (collisions, estimate): (usize, f64),
        n: usize,
        skip: Option<f64>,
    ) -> Decision {
        decide(self.cost, Strategy::Hybrid, collisions, Some(estimate), n, skip)
    }
}

/// A [`QueryService`] that answers the *client* protocol by fanning
/// every batch out to remote shard nodes and replaying the global
/// hybrid decisions on merged statistics.
///
/// Clients cannot tell a coordinator from a standalone server: same
/// frames, same responses, byte for byte.
///
/// # Example
///
/// Two in-process "shard nodes" behind a coordinator, answering
/// identically to the single-process engine:
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// use hlsh_core::{CostModel, IndexBuilder, ShardAssignment, ShardedIndex};
/// use hlsh_families::PStableL2;
/// use hlsh_server::{
///     spawn, Client, Coordinator, CoordinatorConfig, ServerConfig, ShardNodeService,
///     ShardedLshService,
/// };
/// use hlsh_vec::{DenseDataset, L2};
///
/// let data = DenseDataset::from_rows(2, (0..300).map(|i| [(i % 20) as f32, (i / 20) as f32]));
/// let build = || {
///     ShardedIndex::build_frozen(
///         data.clone(),
///         ShardAssignment::new(7, 2),
///         IndexBuilder::new(PStableL2::new(2, 2.0), L2)
///             .tables(8)
///             .hash_len(4)
///             .seed(42)
///             .cost_model(CostModel::from_ratio(4.0)),
///     )
/// };
///
/// // Every node builds (in production: loads) the same index; each
/// // serves one shard of it.
/// let mut nodes: Vec<_> = (0..2)
///     .map(|sid: u32| {
///         let svc = ShardNodeService::new(ShardedLshService::new(build(), None, 2), sid);
///         spawn(Arc::new(svc), "127.0.0.1:0", ServerConfig::default()).unwrap()
///     })
///     .collect();
/// let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
///
/// // The coordinator serves the ordinary client protocol.
/// let coord = Coordinator::connect(&addrs, CoordinatorConfig::default()).unwrap();
/// let mut front = spawn(Arc::new(coord), "127.0.0.1:0", ServerConfig::default()).unwrap();
///
/// let queries = vec![vec![3.0f32, 3.0], vec![19.0, 14.0]];
/// let expect: Vec<Vec<u32>> =
///     build().query_batch(&queries, 1.5).into_iter().map(|o| o.ids).collect();
/// let mut client = Client::connect_retry(front.local_addr(), Duration::from_secs(5)).unwrap();
/// assert_eq!(client.query_batch(&queries, 1.5).unwrap(), expect);
///
/// front.shutdown();
/// for n in &mut nodes {
///     n.shutdown();
/// }
/// ```
pub struct Coordinator {
    shards: Vec<Mutex<ShardConn>>,
    info: ServerInfo,
    n: usize,
    rnnr: TargetMeta,
    levels: Vec<TargetMeta>,
}

impl Coordinator {
    /// Dials every shard backend (index in `addrs` = shard id),
    /// retrying with backoff until
    /// [`connect_timeout`](CoordinatorConfig::connect_timeout), then
    /// validates the fleet: each node must identify as its slot's
    /// shard, and all nodes must agree bit-for-bit on the index
    /// parameters (same snapshot everywhere, or the determinism
    /// contract is void).
    pub fn connect(addrs: &[String], config: CoordinatorConfig) -> Result<Self, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Protocol("coordinator needs at least one shard".into()));
        }
        let deadline = Instant::now() + config.connect_timeout;
        let mut conns = Vec::with_capacity(addrs.len());
        let mut infos: Vec<ShardInfo> = Vec::with_capacity(addrs.len());
        for (si, addr) in addrs.iter().enumerate() {
            let mut backoff = Duration::from_millis(50);
            let (client, info) = loop {
                let attempt = ShardClient::connect(addr, config)
                    .map_err(ClientError::Io)
                    .and_then(|mut c| c.info(config.max_frame_bytes).map(|i| (c, i)));
                match attempt {
                    Ok(pair) => break pair,
                    Err(e) if Instant::now() >= deadline => {
                        return Err(ClientError::Protocol(format!(
                            "shard {si} at {addr} unreachable within connect timeout: {e}"
                        )))
                    }
                    Err(_) => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(2));
                    }
                }
            };
            if info.shard_id as usize != si || info.shards as usize != addrs.len() {
                return Err(ClientError::Protocol(format!(
                    "shard node at {addr} identifies as shard {}/{} but occupies slot \
                     {si}/{} — check the --shards order and each node's --shard-id",
                    info.shard_id,
                    info.shards,
                    addrs.len()
                )));
            }
            if let Some(first) = infos.first() {
                let mut normalized = info.clone();
                normalized.shard_id = first.shard_id;
                if normalized != *first {
                    return Err(ClientError::Protocol(format!(
                        "shard {si} at {addr} disagrees with shard 0 on index parameters — \
                         the nodes are not serving the same snapshot"
                    )));
                }
            }
            infos.push(info.clone());
            conns.push(Mutex::new(ShardConn {
                addr: addr.clone(),
                config,
                expect: info,
                client: Some(client),
            }));
        }
        let first = &infos[0];
        // Decode validated precision (4..=16) and cost positivity, so
        // these constructors cannot panic on wire data.
        let meta = |p: ShardParams, radius: f64| TargetMeta {
            radius,
            hll: HllConfig::new(p.hll_precision, p.hll_seed),
            cost: CostModel::new_split(p.alpha, p.beta_scan, p.beta_cand),
        };
        Ok(Self {
            info: ServerInfo {
                points: first.points,
                dim: first.dim,
                shards: first.shards,
                topk_levels: first.levels.len() as u32,
            },
            n: first.points as usize,
            rnnr: meta(first.rnnr, 0.0),
            levels: first.levels.iter().map(|l| meta(l.params, l.radius)).collect(),
            shards: conns,
        })
    }

    /// Runs `f(shard index)` for every shard on its own scoped thread
    /// and collects the results in shard order; the first shard failure
    /// fails the whole fan-out (affected client requests get its typed
    /// error frame).
    fn fanout<T, Fm>(&self, f: Fm) -> Result<Vec<T>, ServiceError>
    where
        T: Send,
        Fm: Fn(usize) -> Result<T, ServiceError> + Sync,
    {
        let mut slots: Vec<Option<Result<T, ServiceError>>> =
            (0..self.shards.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            for (si, slot) in slots.iter_mut().enumerate() {
                let f = &f;
                s.spawn(move || *slot = Some(f(si)));
            }
        });
        slots.into_iter().map(|r| r.expect("every fan-out thread fills its slot")).collect()
    }

    /// One summarize round against `target` for the packed `block`:
    /// per query, the globally merged `(Σ collisions, candSize
    /// estimate)` — bit-identical to a single process probing every
    /// shard itself.
    fn merged_summaries(
        &self,
        target: ShardTarget,
        block: &QueryBlock,
        meta: &TargetMeta,
    ) -> Result<Vec<(usize, f64)>, ServiceError> {
        let count = block.count();
        let per_shard: Vec<Vec<ShardSummaryEntry>> = self.fanout(|si| {
            let req = ShardRequest::Summarize { target, queries: block.clone() };
            match self.shards[si].lock().unwrap().call(si, &req)? {
                ShardResponse::Summaries(s) if s.len() == count => Ok(s),
                ShardResponse::Summaries(s) => Err(ServiceError::internal(format!(
                    "shard {si} returned {} summaries for {count} queries",
                    s.len()
                ))),
                other => Err(unexpected(si, &other)),
            }
        })?;
        let m = meta.hll.registers();
        let mut out = Vec::with_capacity(count);
        for qi in 0..count {
            let mut collisions = 0usize;
            let mut registers = vec![0u8; m];
            for (si, entries) in per_shard.iter().enumerate() {
                let e = &entries[qi];
                if e.registers.len() != m {
                    return Err(ServiceError::internal(format!(
                        "shard {si} returned {}-byte registers, expected {m}",
                        e.registers.len()
                    )));
                }
                collisions += e.collisions as usize;
                for (r, &v) in registers.iter_mut().zip(&e.registers) {
                    *r = (*r).max(v);
                }
            }
            let estimate = HyperLogLog::from_registers(meta.hll, registers).estimate();
            out.push((collisions, estimate));
        }
        Ok(out)
    }

    /// One execute round: runs `arm` at `radius` against `target` for
    /// the packed subset, returning per-shard responses in shard order.
    fn execute_round(
        &self,
        target: ShardTarget,
        arm: Arm,
        radius: f64,
        block: &QueryBlock,
    ) -> Result<Vec<ShardResponse>, ServiceError> {
        self.fanout(|si| {
            let req = ShardRequest::Execute { target, arm, radius, queries: block.clone() };
            self.shards[si].lock().unwrap().call(si, &req)
        })
    }

    /// Packs a subset of `queries` (by index) into a wire block.
    fn pack_subset(&self, queries: &[Vec<f32>], idx: &[usize]) -> QueryBlock {
        let rows: Vec<Vec<f32>> = idx.iter().map(|&qi| queries[qi].clone()).collect();
        QueryBlock::pack(&rows, self.info.dim as usize)
    }
}

fn unexpected(si: usize, resp: &ShardResponse) -> ServiceError {
    let kind = match resp {
        ShardResponse::Info(_) => "info",
        ShardResponse::Summaries(_) => "summaries",
        ShardResponse::Ids(_) => "ids",
        ShardResponse::Pairs(_) => "pairs",
    };
    ServiceError::internal(format!("shard {si} answered with an unexpected {kind} response"))
}

impl QueryService for Coordinator {
    fn info(&self) -> ServerInfo {
        self.info
    }

    fn rnnr_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f64,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<PointId>>, ServiceError> {
        let _ = threads; // parallelism lives on the shard nodes
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let block = QueryBlock::pack(queries, self.info.dim as usize);

        // Round 1: merged statistics, one Algorithm-2 decision each.
        let stats = self.merged_summaries(ShardTarget::Rnnr, &block, &self.rnnr)?;
        let groups = by_arm(stats.iter().enumerate().map(|(qi, &stat)| {
            // No skip threshold, so never deferred.
            let (Decision::Run(arm) | Decision::Defer(arm)) = self.rnnr.decide(stat, self.n, None);
            (qi, arm)
        }));

        // Round 2: one execute fan-out per chosen arm.
        let mut out: Vec<Vec<PointId>> = vec![Vec::new(); queries.len()];
        for (arm, idx) in &groups {
            if idx.is_empty() {
                continue;
            }
            let sub = self.pack_subset(queries, idx);
            for (si, resp) in
                self.execute_round(ShardTarget::Rnnr, *arm, radius, &sub)?.into_iter().enumerate()
            {
                match resp {
                    ShardResponse::Ids(per_query) if per_query.len() == idx.len() => {
                        for (j, ids) in per_query.into_iter().enumerate() {
                            out[idx[j]].extend(ids);
                        }
                    }
                    other => return Err(unexpected(si, &other)),
                }
            }
        }
        // Per-shard lists are each sorted; the global answer is the
        // sorted union (ids are globally unique across shards).
        for ids in &mut out {
            ids.sort_unstable();
        }
        Ok(out)
    }

    fn topk_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: Option<usize>,
    ) -> Result<Vec<Vec<(PointId, f64)>>, ServiceError> {
        let _ = threads;
        if self.levels.is_empty() {
            return Err(ServiceError::unsupported("this deployment has no top-k ladder"));
        }

        // One walk per query, driven level by level across the batch:
        // every still-active query advances through level `li`
        // together, so each level costs at most one summary fan-out plus
        // one execute fan-out per arm.
        let mut walks: Vec<TopKWalk> = queries.iter().map(|_| TopKWalk::new(k, self.n)).collect();
        for (li, meta) in self.levels.iter().enumerate() {
            let (mut active, mut skip_at_most) = (Vec::new(), Vec::new());
            for (qi, walk) in walks.iter_mut().enumerate() {
                if let Some(at_most) = walk.next_level(meta.hll) {
                    active.push(qi);
                    skip_at_most.push(at_most);
                }
            }
            if active.is_empty() {
                break;
            }
            let block = self.pack_subset(queries, &active);
            let stats = self.merged_summaries(ShardTarget::TopKLevel(li as u32), &block, meta)?;

            let mut picks = Vec::with_capacity(active.len());
            for (j, &qi) in active.iter().enumerate() {
                match meta.decide(stats[j], self.n, Some(skip_at_most[j])) {
                    Decision::Defer(arm) => walks[qi].defer(li, arm),
                    Decision::Run(arm) => picks.push((qi, arm)),
                }
            }
            for (arm, idx) in by_arm(picks) {
                self.run_level_arm(queries, &mut walks, li, arm, &idx, false)?;
            }
        }

        // Exact fallback for the walks that ran dry underfull.
        let starved: Vec<usize> =
            (0..queries.len()).filter(|&qi| walks[qi].needs_fallback()).collect();
        if !starved.is_empty() {
            let block = self.pack_subset(queries, &starved);
            let responses = self.fanout(|si| {
                self.shards[si]
                    .lock()
                    .unwrap()
                    .call(si, &ShardRequest::Scan { queries: block.clone() })
            })?;
            let mut per_shard = pairs_per_shard(responses, starved.len())?;
            for (j, &qi) in starved.iter().enumerate() {
                walks[qi].fallback(per_shard.iter_mut().flat_map(|p| std::mem::take(&mut p[j])));
            }
        }
        // The other walks revisit their deferred levels in schedule
        // order, each under the arm its walk recorded at deferral.
        for li in 0..self.levels.len() {
            let picks = walks.iter().enumerate().filter_map(|(qi, walk)| {
                walk.deferred().iter().find(|&&(dl, _)| dl == li).map(|&(_, arm)| (qi, arm))
            });
            for (arm, idx) in by_arm(picks) {
                self.run_level_arm(queries, &mut walks, li, arm, &idx, true)?;
            }
        }

        Ok(walks
            .iter_mut()
            .map(|walk| walk.finish().neighbors.into_iter().map(|n| (n.id, n.dist)).collect())
            .collect())
    }
}

impl Coordinator {
    /// Executes one arm of ladder level `li` for the query subset `idx`
    /// and offers each query's hits to its walk — as an executed level,
    /// or as a `revisit` of a deferred one. A query's hits arrive shard
    /// by shard, the order the in-process level query produces them.
    fn run_level_arm(
        &self,
        queries: &[Vec<f32>],
        walks: &mut [TopKWalk],
        li: usize,
        arm: Arm,
        idx: &[usize],
        revisit: bool,
    ) -> Result<(), ServiceError> {
        if idx.is_empty() {
            return Ok(());
        }
        let meta = &self.levels[li];
        let sub = self.pack_subset(queries, idx);
        let responses =
            self.execute_round(ShardTarget::TopKLevel(li as u32), arm, meta.radius, &sub)?;
        let mut per_shard = pairs_per_shard(responses, idx.len())?;
        for (j, &qi) in idx.iter().enumerate() {
            let hits = per_shard.iter_mut().flat_map(|p| std::mem::take(&mut p[j]));
            if revisit {
                walks[qi].revisited(hits);
            } else {
                walks[qi].executed(meta.radius, hits);
            }
        }
        Ok(())
    }
}

/// Groups query indices by their arm, LSH first: one execute fan-out per
/// non-empty group.
fn by_arm(picks: impl IntoIterator<Item = (usize, Arm)>) -> [(Arm, Vec<usize>); 2] {
    let mut groups = [(Arm::Lsh, Vec::new()), (Arm::Linear, Vec::new())];
    for (qi, arm) in picks {
        groups[usize::from(arm == Arm::Linear)].1.push(qi);
    }
    groups
}

/// One query's `(global id, distance)` hits from one shard.
type Pairs = Vec<(PointId, f64)>;

/// Unpacks one pairs response per shard, each holding `count` per-query
/// lists.
fn pairs_per_shard(
    responses: Vec<ShardResponse>,
    count: usize,
) -> Result<Vec<Vec<Pairs>>, ServiceError> {
    responses
        .into_iter()
        .enumerate()
        .map(|(si, resp)| match resp {
            ShardResponse::Pairs(per_query) if per_query.len() == count => Ok(per_query),
            other => Err(unexpected(si, &other)),
        })
        .collect()
}
