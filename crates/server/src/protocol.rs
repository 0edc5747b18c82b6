//! The `hlsh` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     len      u32 LE: byte length of everything after this
//!                        field (header remainder + body); 8 ≤ len ≤
//!                        the receiver's max-frame limit
//! 4       4     magic    b"HLSH"
//! 8       1     version  PROTOCOL_VERSION (currently 1)
//! 9       1     kind     frame kind (see below)
//! 10      2     reserved must be zero
//! 12      len-8 body     kind-specific payload
//! ```
//!
//! All integers are little-endian; `f32`/`f64` are IEEE-754 bit
//! patterns in little-endian byte order, so vectors and distances
//! survive the round trip *bit-exactly* — the property the loopback CI
//! gate pins (socket responses byte-identical to in-process
//! [`query_batch`](hlsh_core::ShardedIndex::query_batch) results).
//!
//! Frame kinds and their bodies are documented on [`Request`] and
//! [`Response`]; `docs/PROTOCOL.md` in the repository root specifies
//! the format (including batching semantics and error handling)
//! precisely enough to write a third-party client. Decoding is total:
//! every malformed input maps to a [`WireError`], never a panic.

use std::io::{self, Read, Write};

/// Protocol magic, the first four post-length bytes of every frame.
pub const MAGIC: [u8; 4] = *b"HLSH";

/// Current protocol version; bumped on any incompatible frame change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default cap on `len` (bytes after the length prefix) a peer accepts.
/// At d = 1024 this still admits ~8k queries per request frame.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// Frame kind bytes. Requests have the high bit clear, responses set
/// (error frames use `0x7F`, distinct from both ranges). Client kinds
/// live in `0x01..=0x0F`; the **shard extension** — spoken between a
/// coordinator and its shard backends, see [`ShardRequest`] /
/// [`ShardResponse`] — occupies `0x10..=0x1F` and mirrors into
/// `0x90..=0x9F`.
pub mod kind {
    /// r-near-neighbor-reporting batch request.
    pub const RNNR: u8 = 0x01;
    /// Top-k batch request.
    pub const TOPK: u8 = 0x02;
    /// Server/index metadata request (empty body).
    pub const INFO: u8 = 0x03;
    /// Batch point-insertion request (living-index mutation).
    pub const INSERT: u8 = 0x04;
    /// Batch point-deletion request (living-index mutation).
    pub const DELETE: u8 = 0x05;
    /// rNNR batch response.
    pub const RNNR_RESP: u8 = 0x81;
    /// Top-k batch response.
    pub const TOPK_RESP: u8 = 0x82;
    /// Metadata response.
    pub const INFO_RESP: u8 = 0x83;
    /// Insertion acknowledgement.
    pub const INSERT_RESP: u8 = 0x84;
    /// Deletion acknowledgement.
    pub const DELETE_RESP: u8 = 0x85;
    /// Error response.
    pub const ERROR: u8 = 0x7F;

    /// Shard metadata/parameters request (empty body).
    pub const SHARD_INFO: u8 = 0x10;
    /// Per-query S1/S2 summary request against one shard.
    pub const SHARD_SUMMARIZE: u8 = 0x11;
    /// Chosen-arm execution request against one shard.
    pub const SHARD_EXECUTE: u8 = 0x12;
    /// Exact-fallback full-scan request against one shard.
    pub const SHARD_SCAN: u8 = 0x13;
    /// Shard metadata response.
    pub const SHARD_INFO_RESP: u8 = 0x90;
    /// Per-query summary response.
    pub const SHARD_SUMMARY_RESP: u8 = 0x91;
    /// Per-query global-id response (rNNR arm execution).
    pub const SHARD_IDS_RESP: u8 = 0x92;
    /// Per-query `(id, distance)` response (top-k arm execution and
    /// fallback scans).
    pub const SHARD_PAIRS_RESP: u8 = 0x93;

    /// Whether `k` is a shard-extension request kind (`0x10..=0x1F`).
    pub fn is_shard_request(k: u8) -> bool {
        (0x10..=0x1F).contains(&k)
    }
}

/// Error codes carried by [`kind::ERROR`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The magic bytes were not `b"HLSH"`.
    BadMagic = 1,
    /// The version byte is not supported by the receiver.
    BadVersion = 2,
    /// The kind byte names no known frame.
    UnknownKind = 3,
    /// The body does not parse as its kind's layout.
    Malformed = 4,
    /// The declared frame length exceeds the receiver's limit.
    TooLarge = 5,
    /// A query vector's dimensionality does not match the index.
    DimMismatch = 6,
    /// The request is valid but this server cannot serve it (e.g. a
    /// top-k request against an rNNR-only deployment).
    Unsupported = 7,
    /// The server failed internally while executing the request.
    Internal = 8,
    /// A backend this server depends on is unreachable — a coordinator
    /// answers with this when a shard node is down or misses its
    /// deadline. The request may succeed once the backend rejoins.
    Unavailable = 9,
    /// The server is at its connection limit. Sent immediately after
    /// accept, after which the server closes the connection — retry
    /// against another replica or after a backoff.
    Busy = 10,
    /// The request's per-request deadline expired before the batcher
    /// executed it. Unlike [`ErrorCode::Busy`], this is a per-request
    /// verdict: the connection stays open and later requests on it are
    /// served normally.
    Deadline = 11,
    /// A [`Request::Delete`] named an id that is not live in the index
    /// (never inserted, or already deleted). Nothing was applied.
    UnknownId = 12,
    /// A [`Request::Insert`] named an id that is already live in the
    /// index (or repeated an id within the batch). Nothing was applied.
    DuplicateId = 13,
}

impl ErrorCode {
    /// The code for a raw wire value, if it names one.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => Self::BadMagic,
            2 => Self::BadVersion,
            3 => Self::UnknownKind,
            4 => Self::Malformed,
            5 => Self::TooLarge,
            6 => Self::DimMismatch,
            7 => Self::Unsupported,
            8 => Self::Internal,
            9 => Self::Unavailable,
            10 => Self::Busy,
            11 => Self::Deadline,
            12 => Self::UnknownId,
            13 => Self::DuplicateId,
            _ => return None,
        })
    }
}

/// Everything that can go wrong while decoding bytes off the wire.
///
/// [`WireError::to_code`] maps each variant to the [`ErrorCode`] a
/// server reports back; [`WireError::recoverable`] tells the server
/// whether the connection may live on afterwards or must be dropped
/// because the stream position is unknowable.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file error (includes clean EOF between frames).
    Io(io::Error),
    /// Bad magic bytes — the peer is not speaking this protocol.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Body bytes do not parse as the declared kind.
    Malformed(&'static str),
    /// Declared length is too small to contain the frame header. Kept
    /// apart from [`WireError::Malformed`] because the declared bytes
    /// were *not* consumed, so the connection cannot survive.
    TooShort {
        /// The length the peer declared (< 8).
        declared: usize,
    },
    /// Declared length exceeds the local frame limit.
    TooLarge {
        /// The length the peer declared.
        declared: usize,
        /// The local limit it exceeded.
        limit: usize,
    },
}

impl WireError {
    /// The [`ErrorCode`] a server should answer with.
    pub fn to_code(&self) -> ErrorCode {
        match self {
            WireError::Io(_) => ErrorCode::Internal,
            WireError::BadMagic => ErrorCode::BadMagic,
            WireError::BadVersion(_) => ErrorCode::BadVersion,
            WireError::UnknownKind(_) => ErrorCode::UnknownKind,
            WireError::Malformed(_) => ErrorCode::Malformed,
            WireError::TooShort { .. } => ErrorCode::Malformed,
            WireError::TooLarge { .. } => ErrorCode::TooLarge,
        }
    }

    /// Whether the connection's stream position is still trustworthy
    /// after this error (`false` ⇒ the server must close it: the
    /// oversized/foreign bytes were never consumed).
    pub fn recoverable(&self) -> bool {
        matches!(self, WireError::UnknownKind(_) | WireError::Malformed(_))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadMagic => write!(f, "bad magic (not an HLSH frame)"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (this side speaks {PROTOCOL_VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed body: {what}"),
            WireError::TooShort { declared } => {
                write!(f, "declared frame length {declared} cannot contain the 8-byte header")
            }
            WireError::TooLarge { declared, limit } => {
                write!(f, "frame of {declared} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A batch of query vectors in wire layout: row-major `f32`s.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryBlock {
    /// Dimensionality of every query.
    pub dim: u32,
    /// Row-major `count × dim` matrix; `data.len() = count · dim`.
    pub data: Vec<f32>,
}

impl QueryBlock {
    /// Packs per-query slices into wire layout.
    ///
    /// # Panics
    /// Panics if any query's length differs from `dim`.
    pub fn pack(queries: &[Vec<f32>], dim: usize) -> Self {
        let mut data = Vec::with_capacity(queries.len() * dim);
        for q in queries {
            assert_eq!(q.len(), dim, "query length must equal dim");
            data.extend_from_slice(q);
        }
        Self { dim: dim as u32, data }
    }

    /// Number of queries in the block.
    pub fn count(&self) -> usize {
        if self.dim == 0 {
            0
        } else {
            self.data.len() / self.dim as usize
        }
    }

    /// Unpacks the block into one owned vector per query.
    pub fn rows(&self) -> Vec<Vec<f32>> {
        self.data.chunks_exact(self.dim.max(1) as usize).map(<[f32]>::to_vec).collect()
    }
}

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// [`kind::RNNR`] — report every indexed point within `radius` of
    /// each query. Body: `radius f64, dim u32, count u32,
    /// count·dim × f32`.
    Rnnr {
        /// The reporting radius.
        radius: f64,
        /// The query vectors.
        queries: QueryBlock,
    },
    /// [`kind::TOPK`] — the `k` nearest neighbors of each query.
    /// Body: `k u32, dim u32, count u32, count·dim × f32`.
    TopK {
        /// Neighbors requested per query.
        k: u32,
        /// The query vectors.
        queries: QueryBlock,
    },
    /// [`kind::INFO`] — index metadata. Empty body.
    Info,
    /// [`kind::INSERT`] — add points under caller-chosen global ids.
    /// Body: `dim u32, count u32, count × u32 ids, count·dim × f32`
    /// (row `i` of the block carries `ids[i]`'s vector). The batch is
    /// all-or-nothing: the server validates every row first and
    /// answers [`ErrorCode::DimMismatch`] / [`ErrorCode::DuplicateId`]
    /// without applying anything on failure.
    Insert {
        /// One global id per inserted row.
        ids: Vec<u32>,
        /// The point vectors, `ids.len() × dim` row-major.
        points: QueryBlock,
    },
    /// [`kind::DELETE`] — remove the points with these global ids.
    /// Body: `count u32, count × u32 ids`. All-or-nothing like
    /// [`Request::Insert`]: any id not live (or repeated in the batch)
    /// answers [`ErrorCode::UnknownId`] with nothing applied.
    Delete {
        /// The global ids to delete.
        ids: Vec<u32>,
    },
}

/// Index metadata answered to [`Request::Info`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Indexed points.
    pub points: u64,
    /// Vector dimensionality the index expects.
    pub dim: u32,
    /// Shard count of the serving index.
    pub shards: u32,
    /// Radius-schedule levels of the top-k ladder (0 ⇒ top-k requests
    /// are answered with [`ErrorCode::Unsupported`]).
    pub topk_levels: u32,
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// [`kind::RNNR_RESP`] — per query, the ids within the radius in
    /// ascending order. Body: `count u32`, then per query
    /// `m u32, m × u32`.
    Rnnr(Vec<Vec<u32>>),
    /// [`kind::TOPK_RESP`] — per query, `(id, distance)` pairs in
    /// ascending `(distance, id)` order. Body: `count u32`, then per
    /// query `m u32, m × (u32, f64)`.
    TopK(Vec<Vec<(u32, f64)>>),
    /// [`kind::INFO_RESP`] — body: `points u64, dim u32, shards u32,
    /// topk_levels u32`.
    Info(ServerInfo),
    /// [`kind::INSERT_RESP`] — body: `count u32`, the number of points
    /// just inserted (always the full batch; partial application never
    /// happens).
    Inserted(u32),
    /// [`kind::DELETE_RESP`] — body: `count u32`, the number of points
    /// just deleted (always the full batch).
    Deleted(u32),
    /// [`kind::ERROR`] — body: `code u16, msg_len u16, msg_len × u8`
    /// (UTF-8 diagnostic, never required for correct operation).
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable diagnostic.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Shard extension
// ---------------------------------------------------------------------------

/// Which index a shard-extension request targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardTarget {
    /// The rNNR index. Wire: `target = 0`, `level` must be 0.
    Rnnr,
    /// Level `level` of the top-k ladder. Wire: `target = 1`.
    TopKLevel(u32),
}

impl ShardTarget {
    fn encode(&self, e: &mut Enc) {
        match self {
            ShardTarget::Rnnr => {
                e.u8(0);
                e.u32(0);
            }
            ShardTarget::TopKLevel(li) => {
                e.u8(1);
                e.u32(*li);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let tag = d.u8("shard target")?;
        let level = d.u32("shard target level")?;
        match (tag, level) {
            (0, 0) => Ok(ShardTarget::Rnnr),
            (0, _) => Err(WireError::Malformed("rnnr target carries nonzero level")),
            (1, li) => Ok(ShardTarget::TopKLevel(li)),
            _ => Err(WireError::Malformed("shard target tag")),
        }
    }
}

/// Which Algorithm-2 arm a [`ShardRequest::Execute`] runs — the core's
/// [`ExecutedArm`](hlsh_core::search::ExecutedArm). Wire: 0 for the
/// linear arm (brute-force scan of the shard's slab), 1 for the LSH arm
/// (probe, dedup, batched verification).
pub use hlsh_core::search::ExecutedArm as Arm;

/// The per-index parameters a coordinator needs to replay the global
/// decisions: the HLL sketch configuration (to reconstruct estimates
/// from merged registers) and the cost model (to resolve Algorithm 2).
/// All `f64`s travel as exact IEEE-754 bits — the decision replay is
/// bit-exact or it is wrong.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardParams {
    /// HLL precision (`m = 2^precision` registers); valid range 4..=16.
    pub hll_precision: u8,
    /// HLL element-hash seed.
    pub hll_seed: u64,
    /// Cost model `α` (duplicate-removal unit cost).
    pub alpha: f64,
    /// Cost model `β_scan` (sequential-scan distance cost).
    pub beta_scan: f64,
    /// Cost model `β_cand` (random-access distance cost).
    pub beta_cand: f64,
}

impl ShardParams {
    fn encode(&self, e: &mut Enc) {
        e.u8(self.hll_precision);
        e.u64(self.hll_seed);
        e.f64(self.alpha);
        e.f64(self.beta_scan);
        e.f64(self.beta_cand);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let p = Self {
            hll_precision: d.u8("hll precision")?,
            hll_seed: d.u64("hll seed")?,
            alpha: d.f64("cost alpha")?,
            beta_scan: d.f64("cost beta_scan")?,
            beta_cand: d.f64("cost beta_cand")?,
        };
        if !(4..=16).contains(&p.hll_precision) {
            return Err(WireError::Malformed("hll precision out of 4..=16"));
        }
        for v in [p.alpha, p.beta_scan, p.beta_cand] {
            if !(v.is_finite() && v > 0.0) {
                return Err(WireError::Malformed("cost coefficient not positive finite"));
            }
        }
        Ok(p)
    }
}

/// One top-k schedule level's parameters in a [`ShardInfo`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardLevelInfo {
    /// The level's verification radius (exact bits of the schedule's
    /// radius; a coordinator echoes these bits back in
    /// [`ShardRequest::Execute`]).
    pub radius: f64,
    /// The level's sketch + cost parameters.
    pub params: ShardParams,
}

/// Everything a coordinator learns from a shard at connect time —
/// answered to [`ShardRequest::Info`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardInfo {
    /// Which shard of the assignment this node answers for.
    pub shard_id: u32,
    /// Total shard count of the assignment.
    pub shards: u32,
    /// Global point count `n` (the linear-cost term of Algorithm 2 —
    /// global, not this shard's share).
    pub points: u64,
    /// Vector dimensionality.
    pub dim: u32,
    /// rNNR index parameters.
    pub rnnr: ShardParams,
    /// Per-level parameters of the top-k ladder; empty ⇒ no ladder.
    pub levels: Vec<ShardLevelInfo>,
}

/// One query's S1/S2 summary from one shard — the core's
/// [`ShardSummary`](hlsh_core::ShardSummary): summed probed-bucket sizes
/// plus the shard-local merged HyperLogLog registers (`m` bytes, `m`
/// from the target's [`ShardParams::hll_precision`]).
pub use hlsh_core::ShardSummary as ShardSummaryEntry;

/// A decoded shard-extension request (coordinator → shard node).
#[derive(Clone, Debug, PartialEq)]
pub enum ShardRequest {
    /// [`kind::SHARD_INFO`] — shard parameters. Empty body.
    Info,
    /// [`kind::SHARD_SUMMARIZE`] — per query, the shard's S1/S2
    /// summary against `target`. Body: `target (u8, u32)`, query block.
    Summarize {
        /// Index to probe.
        target: ShardTarget,
        /// The query vectors.
        queries: QueryBlock,
    },
    /// [`kind::SHARD_EXECUTE`] — per query, run `arm` at radius
    /// `radius` against `target`. Body: `target (u8, u32), arm u8,
    /// radius f64`, query block.
    Execute {
        /// Index to execute against.
        target: ShardTarget,
        /// Which arm the global decision chose.
        arm: Arm,
        /// Verification radius (for a ladder level, the exact radius
        /// bits the shard reported in its [`ShardInfo`]).
        radius: f64,
        /// The query vectors.
        queries: QueryBlock,
    },
    /// [`kind::SHARD_SCAN`] — per query, every row the shard owns as
    /// `(global id, distance)` pairs (the top-k exact fallback's
    /// per-shard slice). Body: query block.
    Scan {
        /// The query vectors.
        queries: QueryBlock,
    },
}

/// A decoded shard-extension response (shard node → coordinator).
#[derive(Clone, Debug, PartialEq)]
pub enum ShardResponse {
    /// [`kind::SHARD_INFO_RESP`] — body: `shard_id u32, shards u32,
    /// points u64, dim u32, rnnr ShardParams, levels u32,
    /// levels × (radius f64, ShardParams)` where `ShardParams` is
    /// `precision u8, seed u64, alpha f64, beta_scan f64,
    /// beta_cand f64`.
    Info(ShardInfo),
    /// [`kind::SHARD_SUMMARY_RESP`] — body: `count u32, m u32`, then
    /// per query `collisions u64, m × u8` (every entry shares `m`).
    Summaries(Vec<ShardSummaryEntry>),
    /// [`kind::SHARD_IDS_RESP`] — body: `count u32`, then per query
    /// `len u32, len × u32` (the shard's global ids, ascending).
    Ids(Vec<Vec<u32>>),
    /// [`kind::SHARD_PAIRS_RESP`] — body: `count u32`, then per query
    /// `len u32, len × (u32, f64)`.
    Pairs(Vec<Vec<(u32, f64)>>),
}

impl ShardRequest {
    /// Encodes the request as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        let kind = match self {
            ShardRequest::Info => kind::SHARD_INFO,
            ShardRequest::Summarize { target, queries } => {
                target.encode(&mut e);
                encode_block(&mut e, queries);
                kind::SHARD_SUMMARIZE
            }
            ShardRequest::Execute { target, arm, radius, queries } => {
                target.encode(&mut e);
                e.u8(match arm {
                    Arm::Linear => 0,
                    Arm::Lsh => 1,
                });
                e.f64(*radius);
                encode_block(&mut e, queries);
                kind::SHARD_EXECUTE
            }
            ShardRequest::Scan { queries } => {
                encode_block(&mut e, queries);
                kind::SHARD_SCAN
            }
        };
        frame(kind, &e.0)
    }
}

impl ShardResponse {
    /// Encodes the response as one complete frame; deterministic, like
    /// every encoder here.
    ///
    /// # Panics
    /// Panics if summary entries carry different register lengths (the
    /// encoding shares one `m`; mixed lengths are a programming error,
    /// not a wire condition).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        let kind = match self {
            ShardResponse::Info(info) => {
                e.u32(info.shard_id);
                e.u32(info.shards);
                e.u64(info.points);
                e.u32(info.dim);
                info.rnnr.encode(&mut e);
                e.u32(info.levels.len() as u32);
                for level in &info.levels {
                    e.f64(level.radius);
                    level.params.encode(&mut e);
                }
                kind::SHARD_INFO_RESP
            }
            ShardResponse::Summaries(entries) => {
                let m = entries.first().map_or(0, |s| s.registers.len());
                e.u32(entries.len() as u32);
                e.u32(m as u32);
                for s in entries {
                    assert_eq!(s.registers.len(), m, "summary entries must share one m");
                    e.u64(s.collisions);
                    e.0.extend_from_slice(&s.registers);
                }
                kind::SHARD_SUMMARY_RESP
            }
            ShardResponse::Ids(lists) => {
                encode_id_lists(&mut e, lists);
                kind::SHARD_IDS_RESP
            }
            ShardResponse::Pairs(lists) => {
                encode_pair_lists(&mut e, lists);
                kind::SHARD_PAIRS_RESP
            }
        };
        frame(kind, &e.0)
    }
}

/// Decodes a shard-extension request body; `kind` is the header's kind
/// byte.
pub fn decode_shard_request(kind_byte: u8, body: &[u8]) -> Result<ShardRequest, WireError> {
    let mut d = Dec { buf: body, at: 0 };
    let req = match kind_byte {
        kind::SHARD_INFO => ShardRequest::Info,
        kind::SHARD_SUMMARIZE => {
            let target = ShardTarget::decode(&mut d)?;
            ShardRequest::Summarize { target, queries: decode_block(&mut d)? }
        }
        kind::SHARD_EXECUTE => {
            let target = ShardTarget::decode(&mut d)?;
            let arm = match d.u8("shard arm")? {
                0 => Arm::Linear,
                1 => Arm::Lsh,
                _ => return Err(WireError::Malformed("shard arm tag")),
            };
            let radius = d.f64("shard radius")?;
            ShardRequest::Execute { target, arm, radius, queries: decode_block(&mut d)? }
        }
        kind::SHARD_SCAN => ShardRequest::Scan { queries: decode_block(&mut d)? },
        other => return Err(WireError::UnknownKind(other)),
    };
    d.finish("trailing bytes after shard request body")?;
    Ok(req)
}

/// Decodes a shard-extension response body; `kind` is the header's
/// kind byte.
pub fn decode_shard_response(kind_byte: u8, body: &[u8]) -> Result<ShardResponse, WireError> {
    let mut d = Dec { buf: body, at: 0 };
    let resp = match kind_byte {
        kind::SHARD_INFO_RESP => {
            let shard_id = d.u32("shard id")?;
            let shards = d.u32("shard count")?;
            if shard_id >= shards {
                return Err(WireError::Malformed("shard id out of range"));
            }
            let points = d.u64("shard points")?;
            let dim = d.u32("shard dim")?;
            let rnnr = ShardParams::decode(&mut d)?;
            let levels_len = d.u32("shard levels")? as usize;
            let mut levels = Vec::with_capacity(levels_len.min(body.len() / 41 + 1));
            for _ in 0..levels_len {
                let radius = d.f64("level radius")?;
                levels.push(ShardLevelInfo { radius, params: ShardParams::decode(&mut d)? });
            }
            ShardResponse::Info(ShardInfo { shard_id, shards, points, dim, rnnr, levels })
        }
        kind::SHARD_SUMMARY_RESP => {
            let count = d.u32("summary count")? as usize;
            let m = d.u32("summary m")? as usize;
            if m > 1 << 16 {
                // precision ≤ 16 ⇒ m ≤ 65536; anything larger is not a
                // sketch this protocol can have produced.
                return Err(WireError::Malformed("summary register count too large"));
            }
            let mut entries = Vec::with_capacity(count.min(body.len() / (8 + m.max(1)) + 1));
            for _ in 0..count {
                let collisions = d.u64("summary collisions")?;
                let registers = d.take(m, "summary registers")?.to_vec();
                entries.push(ShardSummaryEntry { collisions, registers });
            }
            ShardResponse::Summaries(entries)
        }
        kind::SHARD_IDS_RESP => ShardResponse::Ids(decode_id_lists(&mut d)?),
        kind::SHARD_PAIRS_RESP => ShardResponse::Pairs(decode_pair_lists(&mut d)?),
        other => return Err(WireError::UnknownKind(other)),
    };
    d.finish("trailing bytes after shard response body")?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Byte-buffer helpers shared by the encoders; all little-endian.
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32s(&mut self, vs: &[f32]) {
        self.0.reserve(vs.len() * 4);
        for v in vs {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Frames `(kind, body)` into one contiguous byte vector ready for a
/// single `write_all`.
fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let len = (8 + body.len()) as u32;
    let mut out = Vec::with_capacity(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(&[0, 0]); // reserved
    out.extend_from_slice(body);
    out
}

fn encode_block(e: &mut Enc, b: &QueryBlock) {
    e.u32(b.dim);
    e.u32(b.count() as u32);
    e.f32s(&b.data);
}

/// A flat id array: `count u32, count × u32`.
fn encode_ids(e: &mut Enc, ids: &[u32]) {
    e.u32(ids.len() as u32);
    for &id in ids {
        e.u32(id);
    }
}

/// Per-query id lists: `count u32`, then one flat id array per query.
fn encode_id_lists(e: &mut Enc, lists: &[Vec<u32>]) {
    e.u32(lists.len() as u32);
    for ids in lists {
        encode_ids(e, ids);
    }
}

/// Per-query `(id, distance)` lists: `count u32`, then per query
/// `m u32, m × (u32, f64)`.
fn encode_pair_lists(e: &mut Enc, lists: &[Vec<(u32, f64)>]) {
    e.u32(lists.len() as u32);
    for pairs in lists {
        e.u32(pairs.len() as u32);
        for &(id, dist) in pairs {
            e.u32(id);
            e.f64(dist);
        }
    }
}

impl Request {
    /// Encodes the request as one complete frame.
    ///
    /// # Panics
    /// Panics if a [`Request::Insert`]'s id count differs from its
    /// block's row count (a programming error, not a wire condition).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        let kind = match self {
            Request::Rnnr { radius, queries } => {
                e.f64(*radius);
                encode_block(&mut e, queries);
                kind::RNNR
            }
            Request::TopK { k, queries } => {
                e.u32(*k);
                encode_block(&mut e, queries);
                kind::TOPK
            }
            Request::Info => kind::INFO,
            Request::Insert { ids, points } => {
                assert_eq!(ids.len(), points.count(), "one id per inserted row");
                e.u32(points.dim);
                encode_ids(&mut e, ids);
                e.f32s(&points.data);
                kind::INSERT
            }
            Request::Delete { ids } => {
                encode_ids(&mut e, ids);
                kind::DELETE
            }
        };
        frame(kind, &e.0)
    }
}

impl Response {
    /// Encodes the response as one complete frame.
    ///
    /// The encoding is deterministic: identical results produce
    /// identical bytes, which is what lets the loopback gate compare
    /// socket answers against in-process batch calls.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        let kind = match self {
            Response::Rnnr(lists) => {
                encode_id_lists(&mut e, lists);
                kind::RNNR_RESP
            }
            Response::TopK(lists) => {
                encode_pair_lists(&mut e, lists);
                kind::TOPK_RESP
            }
            Response::Info(info) => {
                e.u64(info.points);
                e.u32(info.dim);
                e.u32(info.shards);
                e.u32(info.topk_levels);
                kind::INFO_RESP
            }
            Response::Inserted(count) => {
                e.u32(*count);
                kind::INSERT_RESP
            }
            Response::Deleted(count) => {
                e.u32(*count);
                kind::DELETE_RESP
            }
            Response::Error { code, message } => {
                let msg = message.as_bytes();
                let take = msg.len().min(u16::MAX as usize);
                e.u16(*code as u16);
                e.u16(take as u16);
                e.0.extend_from_slice(&msg[..take]);
                kind::ERROR
            }
        };
        frame(kind, &e.0)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Little-endian cursor over a frame body.
struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Malformed(what))?;
        if end > self.buf.len() {
            return Err(WireError::Malformed(what));
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    fn finish(&self, what: &'static str) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(what))
        }
    }
}

fn decode_block(d: &mut Dec<'_>) -> Result<QueryBlock, WireError> {
    let dim = d.u32("query block dim")?;
    let count = d.u32("query block count")?;
    if dim == 0 && count > 0 {
        // Zero-dimensional queries would decode to a block whose count
        // silently collapses to 0, breaking the response-count-equals-
        // request-count guarantee.
        return Err(WireError::Malformed("zero-dim query block with nonzero count"));
    }
    decode_rows(d, dim, count, "query block data")
}

/// Reads `count` rows of `dim` little-endian f32s with overflow-checked
/// sizing.
fn decode_rows(
    d: &mut Dec<'_>,
    dim: u32,
    count: u32,
    what: &'static str,
) -> Result<QueryBlock, WireError> {
    let bytes = (dim as usize)
        .checked_mul(count as usize)
        .and_then(|floats| floats.checked_mul(4))
        .ok_or(WireError::Malformed(what))?;
    let raw = d.take(bytes, what)?;
    let data = raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
    Ok(QueryBlock { dim, data })
}

/// Decodes a request frame body; `kind` is the header's kind byte.
pub fn decode_request(kind: u8, body: &[u8]) -> Result<Request, WireError> {
    let mut d = Dec { buf: body, at: 0 };
    let req = match kind {
        kind::RNNR => {
            let radius = d.f64("rnnr radius")?;
            Request::Rnnr { radius, queries: decode_block(&mut d)? }
        }
        kind::TOPK => {
            let k = d.u32("topk k")?;
            Request::TopK { k, queries: decode_block(&mut d)? }
        }
        kind::INFO => Request::Info,
        kind::INSERT => {
            let dim = d.u32("insert dim")?;
            let count = d.u32("insert count")?;
            if dim == 0 && count > 0 {
                return Err(WireError::Malformed("zero-dim insert with nonzero count"));
            }
            let ids = decode_ids(&mut d, count, "insert ids")?;
            Request::Insert { ids, points: decode_rows(&mut d, dim, count, "insert points")? }
        }
        kind::DELETE => {
            let count = d.u32("delete count")?;
            Request::Delete { ids: decode_ids(&mut d, count, "delete ids")? }
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    d.finish("trailing bytes after request body")?;
    Ok(req)
}

/// Reads `count` little-endian u32 ids with overflow-checked sizing.
fn decode_ids(d: &mut Dec<'_>, count: u32, what: &'static str) -> Result<Vec<u32>, WireError> {
    let bytes = (count as usize).checked_mul(4).ok_or(WireError::Malformed(what))?;
    let raw = d.take(bytes, what)?;
    Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
}

/// Reads what [`encode_id_lists`] writes.
fn decode_id_lists(d: &mut Dec<'_>) -> Result<Vec<Vec<u32>>, WireError> {
    let count = d.u32("id lists count")? as usize;
    let mut lists = Vec::with_capacity(count.min(d.buf.len() / 4 + 1));
    for _ in 0..count {
        let m = d.u32("id list len")?;
        lists.push(decode_ids(d, m, "id list")?);
    }
    Ok(lists)
}

/// Reads what [`encode_pair_lists`] writes.
fn decode_pair_lists(d: &mut Dec<'_>) -> Result<Vec<Vec<(u32, f64)>>, WireError> {
    let count = d.u32("pair lists count")? as usize;
    let mut lists = Vec::with_capacity(count.min(d.buf.len() / 4 + 1));
    for _ in 0..count {
        let m = d.u32("pair list len")? as usize;
        let mut pairs = Vec::with_capacity(m.min(d.buf.len() / 12 + 1));
        for _ in 0..m {
            pairs.push((d.u32("pair id")?, d.f64("pair dist")?));
        }
        lists.push(pairs);
    }
    Ok(lists)
}

/// Decodes a response frame body; `kind` is the header's kind byte.
pub fn decode_response(kind: u8, body: &[u8]) -> Result<Response, WireError> {
    let mut d = Dec { buf: body, at: 0 };
    let resp = match kind {
        kind::RNNR_RESP => Response::Rnnr(decode_id_lists(&mut d)?),
        kind::TOPK_RESP => Response::TopK(decode_pair_lists(&mut d)?),
        kind::INFO_RESP => Response::Info(ServerInfo {
            points: d.u64("info points")?,
            dim: d.u32("info dim")?,
            shards: d.u32("info shards")?,
            topk_levels: d.u32("info levels")?,
        }),
        kind::INSERT_RESP => Response::Inserted(d.u32("insert ack count")?),
        kind::DELETE_RESP => Response::Deleted(d.u32("delete ack count")?),
        kind::ERROR => {
            let raw = d.u16("error code")?;
            let code = ErrorCode::from_u16(raw).ok_or(WireError::Malformed("error code"))?;
            let m = d.u16("error msg len")? as usize;
            let msg = d.take(m, "error msg")?;
            let message = String::from_utf8_lossy(msg).into_owned();
            Response::Error { code, message }
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    d.finish("trailing bytes after response body")?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Framed I/O
// ---------------------------------------------------------------------------

/// Reads one frame: returns `(kind, body)` after validating the length
/// prefix, magic, version and reserved bytes.
///
/// A clean EOF *before the first length byte* surfaces as
/// `WireError::Io` with [`io::ErrorKind::UnexpectedEof`] — callers that
/// treat end-of-stream as a normal goodbye should match on that. On
/// [`WireError::TooLarge`] nothing past the length prefix has been
/// consumed, so the connection must be closed.
pub fn read_frame<R: Read>(r: &mut R, max_frame_bytes: usize) -> Result<(u8, Vec<u8>), WireError> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    check_len(len, max_frame_bytes)?;
    let mut rest = vec![0u8; len];
    r.read_exact(&mut rest)?;
    let kind = check_header(&rest)?;
    rest.drain(..8);
    Ok((kind, rest))
}

/// Checks a frame's declared `len` against the local limit. Either
/// failure leaves the declared bytes unread: the stream position is
/// unknowable, so the connection must close.
pub(crate) fn check_len(len: usize, max_frame_bytes: usize) -> Result<(), WireError> {
    if len > max_frame_bytes {
        return Err(WireError::TooLarge { declared: len, limit: max_frame_bytes });
    }
    if len < 8 {
        return Err(WireError::TooShort { declared: len });
    }
    Ok(())
}

/// Validates the magic, version and reserved bytes of a frame's `len`
/// bytes after the length prefix; returns the kind byte.
pub(crate) fn check_header(rest: &[u8]) -> Result<u8, WireError> {
    if rest[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if rest[4] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(rest[4]));
    }
    if rest[6..8] != [0, 0] {
        return Err(WireError::Malformed("nonzero reserved bytes"));
    }
    Ok(rest[5])
}

/// Writes one already-encoded frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip(frame: &[u8]) -> (u8, &[u8]) {
        // [len][magic][ver][kind][res;2][body]
        (frame[9], &frame[12..])
    }

    #[test]
    fn request_roundtrip() {
        let qs = vec![vec![1.0f32, -2.5], vec![0.0, 3.25]];
        for req in [
            Request::Rnnr { radius: 1.5, queries: QueryBlock::pack(&qs, 2) },
            Request::TopK { k: 10, queries: QueryBlock::pack(&qs, 2) },
            Request::Info,
            Request::Insert { ids: vec![40, 7], points: QueryBlock::pack(&qs, 2) },
            Request::Insert { ids: vec![], points: QueryBlock::pack(&[], 2) },
            Request::Delete { ids: vec![3, 1, 4] },
            Request::Delete { ids: vec![] },
        ] {
            let bytes = req.encode();
            let (kind, body) = strip(&bytes);
            assert_eq!(decode_request(kind, body).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Rnnr(vec![vec![3, 1, 4], vec![], vec![9]]),
            Response::TopK(vec![vec![(7, 0.125), (2, f64::INFINITY)], vec![]]),
            Response::Info(ServerInfo { points: 20_000, dim: 24, shards: 4, topk_levels: 4 }),
            Response::Inserted(12),
            Response::Deleted(0),
            Response::Error { code: ErrorCode::DimMismatch, message: "want 24, got 7".into() },
            Response::Error { code: ErrorCode::UnknownId, message: "id 99 not live".into() },
            Response::Error { code: ErrorCode::DuplicateId, message: "id 7 already live".into() },
        ] {
            let bytes = resp.encode();
            let (kind, body) = strip(&bytes);
            assert_eq!(decode_response(kind, body).unwrap(), resp);
        }
    }

    #[test]
    fn float_bits_survive() {
        // Distances cross the wire as raw IEEE-754 bits, including the
        // weird ones.
        let pairs = vec![(0u32, f64::from_bits(0x7ff8_0000_0000_0001)), (1, -0.0)];
        let resp = Response::TopK(vec![pairs.clone()]);
        let bytes = resp.encode();
        let (kind, body) = strip(&bytes);
        match decode_response(kind, body).unwrap() {
            Response::TopK(got) => {
                for (a, b) in got[0].iter().zip(&pairs) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn framed_io_roundtrip() {
        let req = Request::Rnnr { radius: 2.0, queries: QueryBlock::pack(&[vec![1.0f32; 4]], 4) };
        let bytes = req.encode();
        let mut cur = io::Cursor::new(&bytes);
        let (kind, body) = read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(kind, kind::RNNR);
        assert_eq!(decode_request(kind, &body).unwrap(), req);
        // Stream exhausted: the next read reports a clean EOF.
        match read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected eof, got {other:?}"),
        }
    }

    #[test]
    fn frame_validation() {
        let good = Request::Info.encode();

        // Oversized: the length prefix alone triggers rejection.
        let mut cur = io::Cursor::new(&good);
        match read_frame(&mut cur, 4) {
            Err(e @ WireError::TooLarge { declared: 8, limit: 4 }) => assert!(!e.recoverable()),
            other => panic!("{other:?}"),
        }

        // Bad magic.
        let mut bad = good.clone();
        bad[4] = b'X';
        match read_frame(&mut io::Cursor::new(&bad), 1024) {
            Err(e @ WireError::BadMagic) => assert!(!e.recoverable()),
            other => panic!("{other:?}"),
        }

        // Future version.
        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&bad), 1024),
            Err(WireError::BadVersion(99))
        ));

        // Nonzero reserved bytes: full frame consumed ⇒ recoverable.
        let mut bad = good.clone();
        bad[10] = 1;
        match read_frame(&mut io::Cursor::new(&bad), 1024) {
            Err(e @ WireError::Malformed(_)) => assert!(e.recoverable()),
            other => panic!("{other:?}"),
        }

        // A length that cannot contain the header: the declared bytes
        // were never consumed, so this must NOT be recoverable (a
        // recoverable classification would desync the stream).
        let mut short = Vec::new();
        short.extend_from_slice(&4u32.to_le_bytes());
        short.extend_from_slice(&[0xAA; 4]); // phantom payload, unread
        match read_frame(&mut io::Cursor::new(&short), 1024) {
            Err(e @ WireError::TooShort { declared: 4 }) => {
                assert!(!e.recoverable());
                assert_eq!(e.to_code(), ErrorCode::Malformed);
            }
            other => panic!("{other:?}"),
        }

        // Unknown kind decodes the frame but not the request; the error
        // is recoverable (the body was fully consumed).
        let mut odd = good.clone();
        odd[9] = 0x42;
        let (kind, body) = read_frame(&mut io::Cursor::new(&odd), 1024).unwrap();
        match decode_request(kind, &body) {
            Err(e @ WireError::UnknownKind(0x42)) => assert!(e.recoverable()),
            other => panic!("{other:?}"),
        }
    }

    fn params() -> ShardParams {
        ShardParams {
            hll_precision: 10,
            hll_seed: 0xDEAD_BEEF,
            alpha: 1.0,
            beta_scan: 0.1,
            beta_cand: 0.2,
        }
    }

    #[test]
    fn shard_request_roundtrip() {
        let qs = vec![vec![1.0f32, -2.5], vec![0.0, 3.25]];
        for req in [
            ShardRequest::Info,
            ShardRequest::Summarize {
                target: ShardTarget::Rnnr,
                queries: QueryBlock::pack(&qs, 2),
            },
            ShardRequest::Summarize {
                target: ShardTarget::TopKLevel(3),
                queries: QueryBlock::pack(&qs, 2),
            },
            ShardRequest::Execute {
                target: ShardTarget::TopKLevel(0),
                arm: Arm::Lsh,
                radius: 2.5,
                queries: QueryBlock::pack(&qs, 2),
            },
            ShardRequest::Execute {
                target: ShardTarget::Rnnr,
                arm: Arm::Linear,
                radius: 0.25,
                queries: QueryBlock::pack(&qs, 2),
            },
            ShardRequest::Scan { queries: QueryBlock::pack(&qs, 2) },
        ] {
            let bytes = req.encode();
            let (kind, body) = strip(&bytes);
            assert!(kind::is_shard_request(kind));
            assert_eq!(decode_shard_request(kind, body).unwrap(), req);
        }
    }

    #[test]
    fn shard_response_roundtrip() {
        for resp in [
            ShardResponse::Info(ShardInfo {
                shard_id: 1,
                shards: 4,
                points: 60_000,
                dim: 24,
                rnnr: params(),
                levels: vec![
                    ShardLevelInfo { radius: 0.5, params: params() },
                    ShardLevelInfo { radius: 1.0, params: params() },
                ],
            }),
            ShardResponse::Summaries(vec![
                ShardSummaryEntry { collisions: 42, registers: vec![0, 3, 1, 7] },
                ShardSummaryEntry { collisions: 0, registers: vec![9, 0, 0, 2] },
            ]),
            ShardResponse::Summaries(vec![]),
            ShardResponse::Ids(vec![vec![3, 1, 4], vec![], vec![9]]),
            ShardResponse::Pairs(vec![vec![(7, 0.125), (2, f64::INFINITY)], vec![]]),
        ] {
            let bytes = resp.encode();
            let (kind, body) = strip(&bytes);
            assert!(!kind::is_shard_request(kind));
            assert_eq!(decode_shard_response(kind, body).unwrap(), resp);
        }
    }

    #[test]
    fn shard_bodies_reject_garbage() {
        // Truncations of a summarize request all surface as Malformed.
        let full = ShardRequest::Summarize {
            target: ShardTarget::Rnnr,
            queries: QueryBlock::pack(&[vec![1.0f32, 2.0]], 2),
        }
        .encode();
        let body = &full[12..];
        for cut in 0..body.len() {
            match decode_shard_request(kind::SHARD_SUMMARIZE, &body[..cut]) {
                Err(WireError::Malformed(_)) => {}
                other => panic!("cut={cut}: {other:?}"),
            }
        }

        // An rnnr target must not smuggle a ladder level.
        let mut tampered = body.to_vec();
        tampered[1] = 7; // level byte of the (tag, level) pair
        assert!(matches!(
            decode_shard_request(kind::SHARD_SUMMARIZE, &tampered),
            Err(WireError::Malformed(_))
        ));

        // Bad arm tag.
        let exec = ShardRequest::Execute {
            target: ShardTarget::Rnnr,
            arm: Arm::Lsh,
            radius: 1.0,
            queries: QueryBlock::pack(&[vec![1.0f32, 2.0]], 2),
        }
        .encode();
        let mut bad_arm = exec[12..].to_vec();
        bad_arm[5] = 9; // arm byte follows the 5-byte target
        assert!(matches!(
            decode_shard_request(kind::SHARD_EXECUTE, &bad_arm),
            Err(WireError::Malformed(_))
        ));

        // Info responses validate the decision-replay parameters so a
        // coordinator can feed them to CostModel/HllConfig unchecked.
        let mut info = ShardResponse::Info(ShardInfo {
            shard_id: 0,
            shards: 1,
            points: 10,
            dim: 2,
            rnnr: params(),
            levels: vec![],
        })
        .encode()[12..]
            .to_vec();
        info[20] = 3; // precision byte: below the 4..=16 floor
        assert!(matches!(
            decode_shard_response(kind::SHARD_INFO_RESP, &info),
            Err(WireError::Malformed(_))
        ));
        let mut neg = ShardResponse::Info(ShardInfo {
            shard_id: 0,
            shards: 1,
            points: 10,
            dim: 2,
            rnnr: ShardParams { alpha: -1.0, ..params() },
            levels: vec![],
        });
        if let ShardResponse::Info(i) = &mut neg {
            assert!(i.rnnr.alpha < 0.0);
        }
        let neg = neg.encode();
        assert!(matches!(
            decode_shard_response(kind::SHARD_INFO_RESP, &neg[12..]),
            Err(WireError::Malformed(_))
        ));

        // shard_id must index into shards.
        let mut oob = ShardResponse::Info(ShardInfo {
            shard_id: 0,
            shards: 1,
            points: 10,
            dim: 2,
            rnnr: params(),
            levels: vec![],
        })
        .encode()[12..]
            .to_vec();
        oob[0] = 5; // shard_id low byte, shards stays 1
        assert!(matches!(
            decode_shard_response(kind::SHARD_INFO_RESP, &oob),
            Err(WireError::Malformed(_))
        ));

        // A summary header with an absurd register count is rejected
        // before any allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&1u32.to_le_bytes());
        huge.extend_from_slice(&(1u32 << 20).to_le_bytes());
        assert!(matches!(
            decode_shard_response(kind::SHARD_SUMMARY_RESP, &huge),
            Err(WireError::Malformed(_))
        ));

        // Ids length that overflows usize math must not allocate.
        let mut evil = Vec::new();
        evil.extend_from_slice(&1u32.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_shard_response(kind::SHARD_IDS_RESP, &evil),
            Err(WireError::Malformed(_))
        ));

        // Trailing bytes are rejected, not ignored.
        let mut padded = ShardRequest::Info.encode()[12..].to_vec();
        padded.push(0);
        assert!(matches!(
            decode_shard_request(kind::SHARD_INFO, &padded),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn list_lengths_are_checked_in_every_list_decoder() {
        // A per-query list claiming u32::MAX entries must fail as
        // Malformed before any allocation, in client and shard frames.
        let mut evil = Vec::new();
        evil.extend_from_slice(&1u32.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        for kind in [kind::RNNR_RESP, kind::TOPK_RESP] {
            assert!(matches!(decode_response(kind, &evil), Err(WireError::Malformed(_))));
        }
        for kind in [kind::SHARD_IDS_RESP, kind::SHARD_PAIRS_RESP] {
            assert!(matches!(decode_shard_response(kind, &evil), Err(WireError::Malformed(_))));
        }
        // Client and shard id lists share one wire shape.
        let lists = vec![vec![3u32, 1, 4], vec![], vec![9]];
        assert_eq!(
            Response::Rnnr(lists.clone()).encode()[12..],
            ShardResponse::Ids(lists).encode()[12..]
        );
    }

    #[test]
    fn truncated_bodies_are_malformed_not_panics() {
        let qs = vec![vec![1.0f32, 2.0]];
        let full = Request::Rnnr { radius: 1.0, queries: QueryBlock::pack(&qs, 2) }.encode();
        let body = &full[12..];
        for cut in 0..body.len() {
            match decode_request(kind::RNNR, &body[..cut]) {
                Err(WireError::Malformed(_)) => {}
                other => panic!("cut={cut}: {other:?}"),
            }
        }
        // A block whose dim·count overflows usize must not allocate.
        let mut evil = Vec::new();
        evil.extend_from_slice(&1.0f64.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_request(kind::RNNR, &evil), Err(WireError::Malformed(_))));
        // dim = 0 with nonzero count would collapse to a 0-query block
        // and break response-count = request-count; reject at decode.
        let mut zero_dim = Vec::new();
        zero_dim.extend_from_slice(&1.0f64.to_le_bytes());
        zero_dim.extend_from_slice(&0u32.to_le_bytes());
        zero_dim.extend_from_slice(&5u32.to_le_bytes());
        assert!(matches!(decode_request(kind::RNNR, &zero_dim), Err(WireError::Malformed(_))));
    }

    #[test]
    fn mutation_bodies_reject_garbage() {
        // Truncation at every byte offset of an insert body is
        // Malformed, never a panic or a partial decode.
        let full = Request::Insert {
            ids: vec![40, 7],
            points: QueryBlock::pack(&[vec![1.0f32, 2.0], vec![3.0, 4.0]], 2),
        }
        .encode();
        let body = &full[12..];
        for cut in 0..body.len() {
            match decode_request(kind::INSERT, &body[..cut]) {
                Err(WireError::Malformed(_)) => {}
                other => panic!("cut={cut}: {other:?}"),
            }
        }
        // ... and trailing bytes are rejected, not ignored.
        let mut padded = body.to_vec();
        padded.push(0);
        assert!(matches!(decode_request(kind::INSERT, &padded), Err(WireError::Malformed(_))));

        let full = Request::Delete { ids: vec![3, 1, 4] }.encode();
        let body = &full[12..];
        for cut in 0..body.len() {
            match decode_request(kind::DELETE, &body[..cut]) {
                Err(WireError::Malformed(_)) => {}
                other => panic!("cut={cut}: {other:?}"),
            }
        }
        let mut padded = body.to_vec();
        padded.push(0);
        assert!(matches!(decode_request(kind::DELETE, &padded), Err(WireError::Malformed(_))));

        // Overflowing id / point block sizes must not allocate.
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_le_bytes()); // delete count
        assert!(matches!(decode_request(kind::DELETE, &evil), Err(WireError::Malformed(_))));
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_le_bytes()); // insert dim
        evil.extend_from_slice(&u32::MAX.to_le_bytes()); // insert count
        assert!(matches!(decode_request(kind::INSERT, &evil), Err(WireError::Malformed(_))));

        // Zero-dim inserts with rows would break the one-id-per-row
        // pairing downstream; reject at decode like query blocks do.
        let mut zero_dim = Vec::new();
        zero_dim.extend_from_slice(&0u32.to_le_bytes());
        zero_dim.extend_from_slice(&2u32.to_le_bytes());
        zero_dim.extend_from_slice(&[0u8; 8]); // the two ids
        assert!(matches!(decode_request(kind::INSERT, &zero_dim), Err(WireError::Malformed(_))));

        // The mutation error codes survive the wire.
        for code in [ErrorCode::UnknownId, ErrorCode::DuplicateId] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
    }
}
