//! Network serving layer for the hybrid-LSH index.
//!
//! Everything the previous layers built — batch-parallel query
//! execution, vectorized kernels, the top-k ladder, sharded indexes —
//! becomes reachable over a socket here. The crate has four parts:
//!
//! * [`protocol`] — the versioned, length-prefixed binary wire format
//!   (`docs/PROTOCOL.md` specifies it byte by byte), including the
//!   shard-extension frames a distributed deployment speaks;
//! * [`reactor`] — hand-rolled readiness notification (`epoll` on
//!   Linux, `poll(2)` elsewhere) behind the
//!   [`Reactor`](reactor::Reactor) trait, no external dependencies;
//! * [`conn`] — per-connection framing state machines tolerating
//!   partial reads and writes at any byte boundary, plus request-order
//!   response slots;
//! * [`timer`] — the timer wheel driving idle (slow-loris) eviction;
//! * [`server`] — the event-loop TCP server: one thread multiplexes
//!   every connection through the reactor, governs admission
//!   (connection limits with typed [`ErrorCode::Busy`] rejection,
//!   idle timeouts, per-request deadlines), and its **admission
//!   batcher** — with an arrival-rate-adaptive window by default —
//!   coalesces concurrent in-flight requests into one
//!   [`query_batch`](hlsh_core::ShardedIndex::query_batch) /
//!   [`query_topk_batch`](hlsh_core::ShardedTopKIndex::query_topk_batch)
//!   call per tick, so the existing scoped-thread sharding does the
//!   heavy lifting (no async runtime, no external dependencies);
//! * [`service`] — the [`QueryService`] trait and the one
//!   [`LshService`] over one structure (the rNNR index and ladder fused
//!   onto one row store per shard), whose aliases [`ShardedLshService`]
//!   (frozen) and [`LiveLshService`] (living, accepts mutations) serve
//!   standalone, and [`ShardNodeService`], one node of a distributed
//!   deployment;
//! * [`coordinator`] — the [`Coordinator`], a `QueryService` that fans
//!   each batch out to remote shard nodes, merges their S1/S2
//!   summaries, resolves the hybrid decision globally and scatters the
//!   chosen arm back out (`docs/DISTRIBUTED.md` is the ops guide);
//! * [`client`] — a synchronous, connection-reusing [`Client`].
//!
//! Two binaries ship with the crate: `serve` (build the standard
//! mixture corpus and serve it) and `loadgen` (open/closed-loop load
//! generator reporting latency percentiles; `--json` writes a
//! `BENCH_serve.json` record).
//!
//! **Determinism contract:** responses are byte-identical to calling
//! the in-process batch APIs on the same index — the admission batcher
//! may merge and split requests, but never reorders results within a
//! request, and the wire encoding round-trips `f32`/`f64` bit
//! patterns exactly. `tests/server_loopback.rs` gates this in CI over
//! a loopback socket.
//!
//! # Example
//!
//! Serve a small index on an ephemeral port and query it:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! use hlsh_core::{CostModel, IndexBuilder, ShardAssignment, ShardedIndex};
//! use hlsh_families::PStableL2;
//! use hlsh_server::{Client, ServerConfig, ShardedLshService};
//! use hlsh_vec::{DenseDataset, L2};
//!
//! // A toy 2-D grid, sharded in two, frozen for serving.
//! let data = DenseDataset::from_rows(2, (0..400).map(|i| [(i % 20) as f32, (i / 20) as f32]));
//! let index = ShardedIndex::build_frozen(
//!     data.clone(),
//!     ShardAssignment::new(7, 2),
//!     IndexBuilder::new(PStableL2::new(2, 2.0), L2)
//!         .tables(8)
//!         .hash_len(4)
//!         .seed(42)
//!         .cost_model(CostModel::from_ratio(4.0)),
//! );
//!
//! // In-process reference answer…
//! let queries = vec![vec![3.0f32, 3.0], vec![19.0, 19.0]];
//! let expect: Vec<Vec<u32>> =
//!     index.query_batch(&queries, 1.5).into_iter().map(|o| o.ids).collect();
//!
//! // …must be byte-identical over the socket.
//! let service = Arc::new(ShardedLshService::new(index, None, 2));
//! let mut server = hlsh_server::spawn(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect_retry(server.local_addr(), Duration::from_secs(5)).unwrap();
//! assert_eq!(client.query_batch(&queries, 1.5).unwrap(), expect);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the `sockopt` module (raw SO_REUSEADDR bind)
// and the two syscall shims in `reactor` (epoll / poll) are the
// crate's documented `unsafe` enclaves — see their module docs for
// the confined obligations; `client`'s tests add a forwarding
// allocator that records allocation sizes. Everything else stays
// unsafe-free.
#![deny(unsafe_code)]

pub mod client;
pub mod conn;
pub mod coordinator;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod service;
pub mod sockopt;
pub mod timer;

pub use client::{Client, ClientError};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use protocol::{
    Arm, ErrorCode, QueryBlock, Request, Response, ServerInfo, ShardInfo, ShardLevelInfo,
    ShardParams, ShardRequest, ShardResponse, ShardSummaryEntry, ShardTarget, PROTOCOL_VERSION,
};
pub use server::{
    spawn, AdmissionWindow, QueryService, ServerConfig, ServerHandle, ServerStats, ServiceError,
};
pub use service::{LiveLshService, LshService, ShardNodeService, ShardedLshService};
