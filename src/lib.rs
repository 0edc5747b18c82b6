//! **hybrid-lsh** — a reproduction of Pham, *"Hybrid LSH: Faster Near
//! Neighbors Reporting in High-dimensional Space"* (EDBT 2017).
//!
//! This umbrella crate re-exports the whole workspace under one import:
//!
//! * [`index`] / [`HybridLshIndex`] / [`IndexBuilder`] — the hybrid
//!   r-near-neighbor-reporting index (per-bucket HyperLogLog sketches,
//!   per-query cost-based choice between LSH search and a linear scan);
//! * [`Engine`] — the one query engine: reusable scratch that answers
//!   every rNNR index ([`RnnrIndex`]) and every top-k ladder
//!   ([`TopKLadder`]), single, sharded or segmented (`QueryEngine`,
//!   [`TopKEngine`] and the sharded and segmented engine names are
//!   aliases of it);
//! * [`TopKIndex`] — k-nearest-neighbor queries via
//!   the classic reduction to rNNR over a geometric [`RadiusSchedule`],
//!   with HLL-driven level skipping and an exact-scan fallback;
//! * [`families`] — the LSH families: bit sampling (Hamming),
//!   SimHash (cosine), p-stable projections (L1/L2), MinHash (Jaccard);
//! * [`hll`] — mergeable HyperLogLog sketches;
//! * [`vec`](mod@vec) — vector types, metrics and data-set containers;
//! * [`probe`] — multi-probe LSH and covering LSH extensions;
//! * [`datagen`] — synthetic analogs of the paper's four evaluation
//!   data sets plus exact ground truth;
//! * [`server`] — the TCP serving layer: length-prefixed wire
//!   protocol, admission-batching server, sync client (see
//!   `docs/PROTOCOL.md` and the `serve`/`loadgen` binaries);
//! * [`save_snapshot`] / [`load_snapshot`] — the versioned on-disk
//!   snapshot format: cold-start a server from a file in milliseconds,
//!   buffered or zero-copy `mmap` (see `docs/SNAPSHOT.md`).
//!
//! # Quickstart
//!
//! ```
//! use hybrid_lsh::prelude::*;
//!
//! // Index 1,000 unit vectors under cosine distance.
//! let mut data = DenseDataset::new(16);
//! for i in 0..1000u32 {
//!     let mut v = vec![0.0f32; 16];
//!     v[(i % 16) as usize] = 1.0;
//!     v[((i / 16) % 16) as usize] += 0.5;
//!     data.push(&v);
//! }
//! data.normalize_l2();
//!
//! let index = IndexBuilder::new(SimHash::new(16), UnitCosine)
//!     .tables(20)
//!     .hash_len(8)
//!     .seed(1)
//!     .build(data);
//!
//! let q = index.data().row(0).to_vec();
//! let out = index.query(&q, 0.2);
//! assert!(out.ids.contains(&0));
//! println!("{} near neighbors via {:?}", out.ids.len(), out.report.executed);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use hlsh_core as index;
pub use hlsh_core::probe;
pub use hlsh_datagen as datagen;
pub use hlsh_families as families;
pub use hlsh_hll as hll;
pub use hlsh_server as server;
pub use hlsh_vec as vec;

pub use hlsh_core::{
    load_snapshot, read_layout, read_manifest, save_snapshot, BucketStore, BuildMode, CostModel,
    Engine, FrozenStore, HybridLshIndex, IndexBuilder, LoadMode, LoadPlan, LoadedSnapshot,
    MapStore, MutationError, Neighbor, QueryEngine, QueryOutput, RadiusSchedule, RnnrIndex,
    SegmentedIndex, SegmentedQueryEngine, SegmentedTopKEngine, SegmentedTopKIndex, ShardAssignment,
    ShardedIndex, ShardedTopKIndex, SnapshotError, SnapshotLayout, SnapshotManifest,
    StorageProfile, Strategy, TopKEngine, TopKIndex, TopKLadder, TopKOutput, VerifyMode,
};

/// One-line import for applications.
pub mod prelude {
    pub use hlsh_core::{
        load_snapshot, read_layout, read_manifest, save_snapshot, BucketStore, BuildMode,
        CostModel, FrozenStore, HybridLshIndex, IndexBuilder, LoadMode, LoadedSnapshot, MapStore,
        MutationError, Neighbor, QueryEngine, QueryOutput, QueryReport, RadiusSchedule,
        SegmentedIndex, SegmentedQueryEngine, SegmentedTopKEngine, SegmentedTopKIndex,
        ShardAssignment, ShardedIndex, ShardedQueryEngine, ShardedTopKEngine, ShardedTopKIndex,
        SnapshotError, SnapshotManifest, StorageProfile, Strategy, TopKEngine, TopKIndex,
        TopKOutput, TopKReport, VerifyMode,
    };
    pub use hlsh_families::{
        k_paper, k_safe, BitSampling, LshFamily, MinHash, PStableL1, PStableL2, PaperParams,
        SimHash,
    };
    pub use hlsh_hll::{HllConfig, HyperLogLog};
    pub use hlsh_vec::{
        BinaryDataset, BinaryVec, Cosine, DenseDataset, Distance, Hamming, Jaccard, PointId,
        PointSet, SubsetPointSet, UnitCosine, L1, L2,
    };
}
