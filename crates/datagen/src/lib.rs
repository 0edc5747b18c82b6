//! Synthetic analogs of the EDBT'17 evaluation data sets, plus exact
//! ground truth.
//!
//! The paper evaluates on four public data sets (Corel Images,
//! CoverType, Webspam, MNIST) that are unavailable in this offline
//! environment. Each generator here reproduces the published **shape**
//! (`n`, `d`, value type, metric) and — the property the hybrid
//! strategy actually depends on — the **local density pattern**:
//!
//! * [`corel_like`]: colour-histogram-like clustered vectors whose
//!   intra-cluster L2 distances straddle the paper's radii (0.35–0.60);
//! * [`covertype_like`]: heavy-tailed cluster sizes with L1 radii in
//!   the thousands (3000–4000), like CoverType's dominant classes;
//! * [`webspam_like`]: a few *massive* near-duplicate direction
//!   clusters (outputs up to ~n/2 at cosine radius ≤ 0.1) over a
//!   diffuse background — the "hard query" regime of Figures 1 and 3;
//! * [`mnist_like`]: digit-style cluster structure in `[0,1]^780`,
//!   intended to be compressed to 64-bit SimHash fingerprints exactly
//!   as the paper does (radii 12–17 of 64 bits).
//!
//! Every generator takes `n` and a seed, so experiments run at any
//! scale deterministically. `hlsh_vec::io` parses the original files if
//! a user has them; the harness accepts either source.
//!
//! # Example
//!
//! Generate the standard benchmark mixture (the corpus `serve`,
//! `loadgen` and the CI gates all use) and
//! check an index's answers against exact ground truth:
//!
//! ```
//! use hlsh_datagen::{benchmark_mixture, ground_truth};
//! use hlsh_vec::{PointSet, L2};
//!
//! let radius = 1.5;
//! let (mut data, cluster_of) = benchmark_mixture(8, 2_000, radius, 42);
//! assert_eq!(data.len(), 2_000);
//! assert_eq!(cluster_of.len(), 2_000);        // cluster label per point
//!
//! // Same seed ⇒ same corpus, bit for bit (what lets `loadgen`
//! // regenerate the server's corpus client-side).
//! let (again, _) = benchmark_mixture(8, 2_000, radius, 42);
//! assert_eq!(data.row(123), again.row(123));
//!
//! // Exact rNNR ground truth via one kernelized scan per query.
//! let queries = data.split_off_rows(&[0, 500, 1000]);
//! let truth = ground_truth(&data, &queries, &L2, radius);
//! assert_eq!(truth.len(), 3);
//! // The near-duplicate mega-cluster makes *some* query dense.
//! assert!(truth.iter().any(|ids| !ids.is_empty()));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod corel;
pub mod covertype;
pub mod groundtruth;
pub mod mixture;
pub mod mnist;
pub mod webspam;
pub mod workload;

pub use corel::corel_like;
pub use covertype::covertype_like;
pub use groundtruth::{ground_truth, ground_truth_topk};
pub use mixture::{benchmark_mixture, ClusterSpec, MixtureBuilder};
pub use mnist::mnist_like;
pub use webspam::webspam_like;
pub use workload::{BinaryWorkload, DenseWorkload};
