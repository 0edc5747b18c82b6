//! The hybrid-LSH index — the primary contribution of Pham, "Hybrid LSH:
//! Faster Near Neighbors Reporting in High-dimensional Space" (EDBT'17).
//!
//! # The idea
//!
//! Classic LSH answers an `r`-near-neighbor-reporting query by probing
//! one bucket in each of `L` hash tables, deduplicating the colliding
//! points and filtering them by distance. On "hard" queries — dense
//! regions where the output is a large fraction of the data set — the
//! deduplication step alone costs more than a brute-force scan.
//!
//! The hybrid index instruments every bucket with a HyperLogLog sketch
//! at build time (Algorithm 1). A query then:
//!
//! 1. reads the `L` bucket sizes → `#collisions`,
//! 2. merges the `L` bucket sketches → estimated distinct candidate
//!    count `candSize`,
//! 3. compares `LSHCost = α·#collisions + β·candSize` (Eq. 1) against
//!    `LinearCost = β·n` (Eq. 2), and
//! 4. runs whichever strategy is cheaper (Algorithm 2).
//!
//! The estimation overhead is `O(m·L)` — independent of the data — and
//! the decision adapts per query, so sparse-region queries keep LSH's
//! sublinear behaviour while dense-region queries fall back to the scan.
//!
//! # Storage and execution
//!
//! Bucket storage is pluggable behind the [`store::BucketStore`]
//! trait: indexes build on the hashmap-backed [`MapStore`] and can be
//! [`frozen`](HybridLshIndex::freeze) into the CSR-arena
//! [`FrozenStore`] for read-mostly serving (binary-search lookups over
//! contiguous arrays, zero per-bucket allocation). Query execution
//! lives in one [`Engine`], which reuses per-thread scratch across
//! queries and answers every rNNR index ([`RnnrIndex`]: single,
//! sharded, segmented) and every top-k ladder ([`TopKLadder`]); the
//! six engine names of earlier releases
//! (`QueryEngine`, `TopKEngine` and their sharded and segmented twins)
//! are aliases of it. Every batch entry point —
//! [`query_batch`](HybridLshIndex::query_batch) and its sharded,
//! segmented and top-k counterparts — shards a batch over scoped
//! threads through one path, with byte-identical results to a
//! sequential loop.
//!
//! # Example
//!
//! ```
//! use hlsh_core::{CostModel, IndexBuilder};
//! use hlsh_families::SimHash;
//! use hlsh_vec::{Cosine, DenseDataset};
//!
//! // A toy data set on the unit circle.
//! let mut data = DenseDataset::new(2);
//! for i in 0..500 {
//!     let t = i as f32 * 0.01;
//!     data.push(&[t.cos(), t.sin()]);
//! }
//! let index = IndexBuilder::new(SimHash::new(2), Cosine)
//!     .tables(10)
//!     .hash_len(4)
//!     .seed(7)
//!     .cost_model(CostModel::from_ratio(10.0))
//!     .build(data);
//!
//! let q = [1.0f32, 0.0];
//! let out = index.query(&q, 0.01);
//! assert!(!out.ids.is_empty());
//! // Every reported point really is within the radius.
//! assert!(out.ids.iter().all(|&id| {
//!     hlsh_vec::dense::cosine_distance(index.data().row(id as usize), &q) <= 0.01
//! }));
//! ```

#![deny(missing_docs)]
// `deny`, not `forbid`: the snapshot mmap wrapper is the one module
// allowed to opt in to `unsafe` (see `snapshot::mmap`'s module docs for
// the confined obligations). Everything else stays unsafe-free.
#![deny(unsafe_code)]

pub mod bucket;
pub mod builder;
pub mod cost;
mod covering;
mod dedup;
pub mod engine;
pub mod hasher;
pub mod index;
mod multiprobe;
mod perturb;
pub mod pipeline;
pub mod presets;
pub mod probe;
pub mod recall;
pub mod report;
pub mod schedule;
pub mod search;
pub mod segmented;
pub mod sharded;
pub mod snapshot;
pub mod store;
pub mod table;
pub mod topk;

pub use bucket::BucketRef;
pub use builder::{BuildMode, IndexBuilder};
pub use cost::{CostEstimate, CostModel};
pub use engine::{Engine, QueryEngine, RnnrIndex, TopKLadder};
pub use index::{HybridLshIndex, IndexStats};
pub use pipeline::{BuildPipeline, KeyRuns};
pub use presets::MixturePreset;
pub use recall::{evaluate_recall, RecallReport};
pub use report::{QueryOutput, QueryReport};
pub use schedule::RadiusSchedule;
pub use search::{Strategy, VerifyMode};
pub use segmented::{
    MutationError, Segmented, SegmentedIndex, SegmentedQueryEngine, SegmentedTopKEngine,
    SegmentedTopKIndex,
};
pub use sharded::{
    ShardAssignment, ShardSummary, Sharded, ShardedIndex, ShardedQueryEngine, ShardedTopKEngine,
    ShardedTopKIndex,
};
pub use snapshot::{
    load_snapshot, read_layout, read_manifest, save_snapshot, LoadMode, LoadPlan, LoadedSnapshot,
    SnapshotError, SnapshotLayout, SnapshotManifest, StorageProfile,
};
pub use store::{BucketStore, FrozenStore, MapStore};
pub use topk::{BoundedHeap, Neighbor, TopKEngine, TopKIndex, TopKOutput, TopKReport, TopKWalk};
