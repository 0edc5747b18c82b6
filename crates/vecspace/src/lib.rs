//! Vector substrate for the hybrid-LSH reproduction.
//!
//! This crate provides the point types, distance metrics and dataset
//! containers that every other crate in the workspace builds on:
//!
//! * [`DenseDataset`] — row-major `f32` matrices for real-valued data
//!   (Corel, CoverType, Webspam analogs),
//! * [`BinaryDataset`] / [`BinaryVec`] — packed bit vectors for Hamming
//!   space (MNIST 64-bit SimHash fingerprints),
//! * the [`Distance`] trait with [`L1`], [`L2`], [`Cosine`], [`Hamming`]
//!   and [`Jaccard`] implementations, including the batched S3 filters
//!   [`verify_hits`](Distance::verify_hits) /
//!   [`scan_hits`](Distance::scan_hits), generic over the [`Hit`] they
//!   emit (ids, or ids with distances) and backed by the [`kernels`] on
//!   dense and packed binary data,
//! * [`kernels`] — throughput-oriented chunked distance, projection
//!   (matrix–vector) and one-to-many verification kernels over the
//!   scalar references in [`dense`],
//! * numeric special functions ([`stats::erf`], [`stats::normal_cdf`])
//!   needed by the analytic p-stable collision probabilities,
//! * plain-text parsers for libsvm and dense whitespace formats so the
//!   paper's original data sets can be dropped in unchanged.
//!
//! Everything is dependency-free, deterministic and `unsafe`-free.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary;
pub mod dataset;
pub mod dense;
pub mod hit;
pub mod io;
pub mod kernels;
pub mod metric;
pub mod parallel;
pub mod section;
pub mod stats;

pub use binary::{BinaryDataset, BinaryVec};
pub use dataset::{GrowablePointSet, PointId, PointSet, SubsetPointSet};
pub use dense::DenseDataset;
pub use hit::Hit;
pub use metric::{Cosine, Distance, Hamming, Jaccard, MetricKind, UnitCosine, L1, L2};
pub use section::{Section, SliceBacking};
