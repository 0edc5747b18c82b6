//! Locality-sensitive hash families for the hybrid-LSH reproduction.
//!
//! One family per metric used in the paper's evaluation (§4):
//!
//! | Family | Metric | Paper usage |
//! |---|---|---|
//! | [`BitSampling`] | Hamming | MNIST (on 64-bit SimHash fingerprints) |
//! | [`SimHash`] | cosine | Webspam; also produces the MNIST fingerprints |
//! | [`PStableL1`] | L1 (Cauchy projections) | CoverType, `k = 8, w = 4r` |
//! | [`PStableL2`] | L2 (Gaussian projections) | Corel, `k = 7, w = 2r` |
//! | [`MinHash`] | Jaccard | extension (cited as Broder et al.) |
//!
//! Every family implements [`LshFamily`]: it samples *g-functions*
//! (concatenations of `k` atomic hashes, Definition 2 of Indyk–Motwani)
//! and exposes the analytic single-atom collision probability `p(r)`
//! needed by the paper's parameter rule
//! `k = ⌈log(1 − δ^{1/L}) / log p₁⌉` (implemented in [`params`]).
//!
//! All sampling is deterministic given a `u64` seed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitsampling;
pub mod family;
pub mod minhash;
pub mod params;
pub mod pstable;
pub mod sampling;
pub mod simhash;

pub use bitsampling::BitSampling;
pub use family::{GFunction, LshFamily};
pub use minhash::MinHash;
pub use params::{k_paper, k_safe, recall_lower_bound, PaperDataset, PaperParams};
pub use pstable::{PStableL1, PStableL2};
pub use simhash::{simhash_fingerprints, SimHash};
