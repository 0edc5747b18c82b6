//! Versioned on-disk snapshots: cold-start a serving index in
//! milliseconds instead of rebuilding it.
//!
//! A snapshot persists a [`ShardedIndex`](crate::ShardedIndex) (and
//! optionally the [`ShardedTopKIndex`](crate::ShardedTopKIndex) built
//! over the same data) as one self-describing little-endian file:
//!
//! * a fixed 64-byte header (magic, format version, endian canary,
//!   CRC-protected offsets — see [`mod@format`]);
//! * a param block pinning every scalar the builder would otherwise
//!   derive — family parameters, table/hash widths, HLL config, lazy
//!   threshold, the (possibly timing-calibrated) cost model, the shard
//!   assignment and radius schedule — plus the sampled g-functions
//!   verbatim (stored **once** in v2; shards carry byte-identical
//!   g-functions by the shared-randomness invariant — see the private
//!   `params` module and [`codec`]);
//! * one CRC-checksummed section per flat array of every shard: owner
//!   lists, point data, and the seven CSR arrays of each frozen bucket
//!   store. In the current (v2) format each section carries a
//!   [`SectionEncoding`](format::SectionEncoding): monotone arrays go
//!   down as delta varints, small-valued arrays as plain varints, and
//!   everything else stays raw and aligned so the mmap path can borrow
//!   it zero-copy (see [`mod@encode`]).
//!
//! Two load paths share one [`source::SnapshotSource`] abstraction:
//! buffered reads into owned arrays ([`LoadMode::Read`]), and zero-copy
//! `mmap` where raw sections are borrowed straight from the mapping
//! ([`LoadMode::Mmap`]) so the OS pages data in lazily and cold start
//! is bounded by metadata parsing plus encoded-section decode, not
//! index size. [`LoadMode::Auto`] picks between them from what the
//! loader can see: buffered reads on a host that cannot map files, a
//! mapping warmed whole by `madvise` readahead for files up to 2 GiB,
//! and a lazy mapping for anything larger.
//!
//! **Determinism contract:** queries against a loaded snapshot are
//! byte-identical to queries against the index that wrote it — both
//! load paths, any shard count. This holds because nothing is
//! re-sampled or re-derived at load time: g-functions, sketch slabs,
//! cost model and owner lists round-trip verbatim.
//!
//! ```no_run
//! use hlsh_core::snapshot::{load_snapshot, save_snapshot, LoadMode};
//! use hlsh_core::{IndexBuilder, ShardAssignment, ShardedIndex};
//! use hlsh_families::PStableL2;
//! use hlsh_vec::{DenseDataset, L2};
//! use std::path::Path;
//!
//! let mut data = DenseDataset::new(64);
//! data.push(&[0.0; 64]); // ... the real corpus
//! let index = ShardedIndex::build_frozen(
//!     data,
//!     ShardAssignment::new(7, 2),
//!     IndexBuilder::new(PStableL2::new(64, 4.0), L2).tables(10).hash_len(6).seed(1),
//! );
//! save_snapshot(Path::new("index.hlsh"), &index, None)?;
//! // Later (e.g. a fresh server process): milliseconds, not minutes.
//! let loaded = load_snapshot::<PStableL2, L2>(Path::new("index.hlsh"), LoadMode::Mmap)?;
//! assert_eq!(loaded.rnnr.len(), loaded.manifest.n);
//! # Ok::<(), hlsh_core::snapshot::SnapshotError>(())
//! ```

pub mod codec;
pub mod encode;
pub mod format;
mod load;
pub mod mmap;
mod params;
mod save;
pub mod source;

pub use codec::{SnapshotDistance, SnapshotFamily};
pub use load::{
    load_snapshot, read_layout, read_manifest, LoadPlan, LoadedSnapshot, PlannedBackend,
    SectionInfo, SnapshotLayout,
};
pub use save::{save_snapshot, save_snapshot_v1, SaveStats};

/// Sanity caps on decoded parameters, so a corrupt or adversarial file
/// cannot drive huge allocations before section CRCs are checked.
pub(crate) const MAX_DIM: usize = 1 << 24;
/// Cap on the hash width `k`.
pub(crate) const MAX_K: usize = 4096;
/// Cap on tables per index.
pub(crate) const MAX_TABLES: usize = 1 << 20;
/// Cap on shard count.
pub(crate) const MAX_SHARDS: usize = 4096;
/// Cap on top-k schedule levels.
pub(crate) const MAX_LEVELS: usize = 64;

/// How [`load_snapshot`] materialises sections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Buffered reads into owned arrays; every section's CRC is
    /// verified and the file is consumed in one forward pass (sections
    /// staged in offset order). Works on any host, fastest steady-state
    /// queries on machines where touching a mapping is expensive.
    Read,
    /// Zero-copy `mmap`: raw sections borrow the mapping and the OS
    /// pages them in on first touch. Raw-section CRCs are **skipped**
    /// so the lazy cold start is preserved; header, params, directory
    /// and encoded sections are still fully verified.
    Mmap,
    /// `mmap` with per-section CRC verification — pays a full read of
    /// the file at load, keeps the shared-memory residency benefits.
    MmapVerify,
    /// Choose from the host and the file length alone: buffered reads
    /// when this host cannot map files, a mapping warmed with `madvise`
    /// readahead for files up to 2 GiB, a lazy mapping beyond that.
    /// Nothing is probed and nothing is written next to the file. The
    /// resolved plan is reported in [`LoadedSnapshot::plan`].
    Auto,
}

impl std::str::FromStr for LoadMode {
    type Err = &'static str;

    /// Parses the CLI spelling: `read`, `mmap`, `mmap-verify` or
    /// `auto`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "read" => Ok(LoadMode::Read),
            "mmap" => Ok(LoadMode::Mmap),
            "mmap-verify" => Ok(LoadMode::MmapVerify),
            "auto" => Ok(LoadMode::Auto),
            _ => Err("expected one of: read, mmap, mmap-verify, auto"),
        }
    }
}

/// Scalar parameters a snapshot declares, readable without the index's
/// family/distance types via [`read_manifest`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotManifest {
    /// [`SnapshotFamily::TAG`] of the family the file was written for.
    pub family_tag: u8,
    /// [`SnapshotDistance::TAG`] of the metric the file was written for.
    pub distance_tag: u8,
    /// Total indexed points.
    pub n: usize,
    /// Dimensionality of every point.
    pub dim: usize,
    /// Shard-assignment seed.
    pub seed: u64,
    /// Shard count.
    pub shards: usize,
    /// Hash tables per radius-index shard.
    pub tables: usize,
    /// Hash width `k` of the radius index.
    pub k: usize,
    /// The top-k radius schedule, when a ladder was snapshotted.
    pub topk: Option<TopKManifest>,
}

/// The top-k schedule as declared by a snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopKManifest {
    /// Smallest schedule radius.
    pub base: f64,
    /// Geometric growth factor.
    pub ratio: f64,
    /// Number of levels.
    pub levels: usize,
}

/// Why a snapshot could not be written or read. Decoding is total:
/// every malformed input maps here, never to a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file uses a format version this build does not understand.
    BadVersion(u32),
    /// The endianness canary decoded wrong — the file bytes are not
    /// little-endian as written, or are corrupt.
    BadEndian,
    /// The file ended before a declared structure.
    Truncated,
    /// A CRC-protected region (named) failed verification.
    ChecksumMismatch(&'static str),
    /// A structural invariant (named) does not hold.
    Malformed(&'static str),
    /// The file was written for a different LSH family.
    FamilyMismatch {
        /// The tag of the family the loader was instantiated for.
        expected: u8,
        /// The tag the file declares.
        found: u8,
    },
    /// The file was written for a different distance function.
    DistanceMismatch {
        /// The tag of the metric the loader was instantiated for.
        expected: u8,
        /// The tag the file declares.
        found: u8,
    },
    /// Save-side cross-check failure: the indexes handed to
    /// [`save_snapshot`] disagree with each other.
    Inconsistent(&'static str),
    /// The zero-copy path is not available on this host; retry with
    /// [`LoadMode::Read`].
    MmapUnavailable(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot i/o error: {e}"),
            Self::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported snapshot format version {v}"),
            Self::BadEndian => write!(f, "snapshot endianness canary mismatch"),
            Self::Truncated => write!(f, "snapshot file is truncated"),
            Self::ChecksumMismatch(what) => write!(f, "snapshot checksum mismatch in {what}"),
            Self::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            Self::FamilyMismatch { expected, found } => {
                write!(f, "snapshot family tag {found} does not match expected {expected}")
            }
            Self::DistanceMismatch { expected, found } => {
                write!(f, "snapshot distance tag {found} does not match expected {expected}")
            }
            Self::Inconsistent(what) => write!(f, "indexes disagree, refusing to save: {what}"),
            Self::MmapUnavailable(why) => write!(f, "mmap load unavailable: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
