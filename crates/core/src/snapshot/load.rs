//! Snapshot loader: total validation first, infallible assembly after.
//!
//! Several in-memory constructors downstream of the loader enforce
//! their invariants with asserts (`HllConfig::new`, `CostModel`,
//! `RadiusSchedule`, the `assemble` hooks). A corrupt file must never
//! reach them, so this module checks **every** precondition explicitly
//! and maps violations to typed [`SnapshotError`]s — loading is total,
//! in the same spirit as the wire protocol's frame decoder. The one
//! documented exception: under [`LoadMode::Mmap`] the per-section CRCs
//! of *raw* sections are skipped (checksumming would fault in every
//! page and forfeit the lazy cold start), so bit rot inside member or
//! register arrays is caught by the OS page checksums or not at all —
//! use [`LoadMode::MmapVerify`] or [`LoadMode::Read`] when that
//! matters. Encoded (v2) sections are decoded — hence checksummed — in
//! every mode.
//!
//! The loader is version-dispatched off the header: v1 files (24-byte
//! all-raw directory entries, g-functions repeated per shard) and v2
//! files (per-section encodings, one shared g-function area) both load
//! through the same section schema, and queries against either are
//! byte-identical. Either way each g-function set is decoded once and
//! every shard's tables share it; a v1 file whose shards' sets differ
//! is [`SnapshotError::Malformed`]. [`LoadMode::Auto`] resolves to a
//! concrete backend here, from what the loader can see without
//! touching the medium: whether this host can map files, and the
//! file's length.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use hlsh_hll::HllConfig;
use hlsh_vec::{DenseDataset, PointId, Section};

use super::codec::{SnapshotDistance, SnapshotFamily};
use super::format::{
    crc32, DirEntry, Header, ParamReader, SectionEncoding, HEADER_LEN, VERSION_V1,
};
use super::mmap::mmap_supported;
use super::params::RawParams;
use super::source::SnapshotSource;
use super::{LoadMode, SnapshotError, SnapshotManifest, TopKManifest};
use crate::index::HybridLshIndex;
use crate::schedule::RadiusSchedule;
use crate::sharded::{ShardAssignment, ShardedIndex, ShardedTopKIndex};
use crate::store::FrozenStore;
use crate::table::HashTable;
use crate::topk::TopKIndex;

/// Everything a snapshot reconstructs: the sharded radius index, the
/// sharded top-k ladder when one was saved, and the manifest the file
/// declared.
pub struct LoadedSnapshot<F, D>
where
    F: SnapshotFamily,
    D: SnapshotDistance,
{
    /// The sharded r-near-neighbor-reporting index.
    pub rnnr: ShardedIndex<DenseDataset, F, D, FrozenStore>,
    /// The sharded top-k ladder, when the snapshot carried one.
    pub topk: Option<ShardedTopKIndex<DenseDataset, F, D, FrozenStore>>,
    /// The scalar parameters the file declared.
    pub manifest: SnapshotManifest,
    /// The resolved plan when the load ran under [`LoadMode::Auto`]
    /// (`None` for the explicit modes), for logs.
    pub plan: Option<LoadPlan>,
}

/// Validated preamble: header, param bytes and directory bytes, each
/// checked against its CRC. Shared by the loader, the manifest reader
/// and the layout reader; works over either source and both versions.
fn read_preamble(
    src: &mut SnapshotSource,
    file_len: u64,
) -> Result<(Header, Vec<u8>, Vec<u8>), SnapshotError> {
    let header = Header::decode(&src.bytes(0, HEADER_LEN)?)?;
    if header.total_len != file_len {
        return if file_len < header.total_len {
            Err(SnapshotError::Truncated)
        } else {
            Err(SnapshotError::Malformed("file length disagrees with header"))
        };
    }
    let param_len = usize::try_from(header.param_len).map_err(|_| SnapshotError::Truncated)?;
    let param = src.bytes(header.param_off, param_len)?;
    if crc32(&param) != header.param_crc {
        return Err(SnapshotError::ChecksumMismatch("param block"));
    }
    let dir_len = header.dir_count as usize * header.dir_entry_len();
    let dir = src.bytes(header.dir_off, dir_len)?;
    if crc32(&dir) != header.dir_crc {
        return Err(SnapshotError::ChecksumMismatch("directory"));
    }
    Ok((header, param, dir))
}

/// Decodes the directory under the header's format version.
fn decode_entries(header: &Header, dir: &[u8]) -> Result<Vec<DirEntry>, SnapshotError> {
    dir.chunks(header.dir_entry_len())
        .map(|c| {
            if header.version == VERSION_V1 {
                DirEntry::decode_v1(c, header.total_len)
            } else {
                DirEntry::decode(c, header.total_len)
            }
        })
        .collect()
}

fn manifest_of(raw: &RawParams) -> SnapshotManifest {
    SnapshotManifest {
        family_tag: raw.family_tag,
        distance_tag: raw.distance_tag,
        n: raw.n,
        dim: raw.dim,
        seed: raw.seed,
        shards: raw.shards,
        tables: raw.rnnr.tables,
        k: raw.rnnr.k,
        topk: raw.topk.as_ref().map(|tk| TopKManifest {
            base: tk.base,
            ratio: tk.ratio,
            levels: tk.levels.len(),
        }),
    }
}

/// Reads only the scalar parameters of a snapshot — no sections are
/// touched and no family/distance type is needed, so a server can
/// fail fast when CLI parameters disagree with the file before paying
/// for a load.
pub fn read_manifest(path: &Path) -> Result<SnapshotManifest, SnapshotError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut src = SnapshotSource::read(file);
    let (_, param, _) = read_preamble(&mut src, file_len)?;
    let mut r = ParamReader::new(&param);
    // The g-function area follows the scalars; the manifest stops early
    // by design, so no `finish()` here.
    Ok(manifest_of(&RawParams::decode(&mut r)?))
}

/// One section as described by the directory, labelled by its position
/// in the schema (`shard0/rnnr/t3/members`, `shard1/L2/t0/keys`, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Schema-derived label.
    pub label: String,
    /// How the payload is stored on disk.
    pub encoding: SectionEncoding,
    /// Decoded payload bytes.
    pub raw_len: u64,
    /// On-disk payload bytes.
    pub enc_len: u64,
}

/// A snapshot's on-disk shape — directory metadata only, no section
/// payloads touched. What the `snapshot` bench bin reports per-section
/// compression from.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotLayout {
    /// Format version of the file ([`VERSION`](super::format::VERSION)
    /// or [`VERSION_V1`]).
    pub version: u32,
    /// The scalar parameters the file declared.
    pub manifest: SnapshotManifest,
    /// Exact file length in bytes.
    pub file_len: u64,
    /// Every section in directory (= schema) order.
    pub sections: Vec<SectionInfo>,
}

/// The seven per-store array names, in schema order.
const STORE_ARRAYS: [&str; 7] = ["keys", "prefix", "offsets", "members", "bits", "rank", "regs"];

/// Reads a snapshot's directory and labels every section against the
/// format's fixed schema — cheap (preamble only), version-agnostic, and
/// family-agnostic like [`read_manifest`].
pub fn read_layout(path: &Path) -> Result<SnapshotLayout, SnapshotError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut src = SnapshotSource::read(file);
    let (header, param, dir) = read_preamble(&mut src, file_len)?;
    let mut r = ParamReader::new(&param);
    let raw = RawParams::decode(&mut r)?;
    let entries = decode_entries(&header, &dir)?;
    if entries.len() != raw.expected_sections() {
        return Err(SnapshotError::Malformed("directory entry count disagrees with parameters"));
    }
    let mut labels = Vec::with_capacity(entries.len());
    for s in 0..raw.shards {
        labels.push(format!("shard{s}/owners"));
        labels.push(format!("shard{s}/data"));
        for t in 0..raw.rnnr.tables {
            for a in STORE_ARRAYS {
                labels.push(format!("shard{s}/rnnr/t{t}/{a}"));
            }
        }
    }
    if let Some(tk) = &raw.topk {
        for s in 0..raw.shards {
            for (l, g) in tk.levels.iter().enumerate() {
                for t in 0..g.tables {
                    for a in STORE_ARRAYS {
                        labels.push(format!("shard{s}/L{l}/t{t}/{a}"));
                    }
                }
            }
        }
    }
    debug_assert_eq!(labels.len(), entries.len());
    let sections = labels
        .into_iter()
        .zip(&entries)
        .map(|(label, e)| SectionInfo {
            label,
            encoding: e.encoding,
            raw_len: e.raw_len,
            enc_len: e.enc_len,
        })
        .collect();
    Ok(SnapshotLayout { version: header.version, manifest: manifest_of(&raw), file_len, sections })
}

/// Which byte supplier [`LoadMode::Auto`] resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedBackend {
    /// Buffered reads in one forward pass over the file.
    Read,
    /// Zero-copy mapping.
    Mmap,
}

/// How a [`LoadMode::Auto`] load was carried out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadPlan {
    /// The byte supplier the load used.
    pub backend: PlannedBackend,
    /// Whether `madvise(SEQUENTIAL + WILLNEED)` was issued over the
    /// mapping before section assembly (mmap backend only).
    pub prefetch: bool,
    /// One-line human-readable justification, for logs.
    pub reason: &'static str,
}

/// Largest file [`LoadMode::Auto`] maps with whole-file prefetch;
/// larger files are mapped lazily so a cold start never waits on
/// gigabytes the first queries may not touch.
const PREFETCH_MAX_BYTES: u64 = 2 << 30;

/// The rule behind [`LoadMode::Auto`], over what the loader knows
/// without touching the medium: buffered reads when this host cannot
/// map files, otherwise a mapping, prefetched whole unless the file is
/// larger than [`PREFETCH_MAX_BYTES`].
fn auto_plan(mmap_available: bool, file_len: u64) -> LoadPlan {
    let (backend, prefetch, reason) = if !mmap_available {
        (PlannedBackend::Read, false, "zero-copy mapping unavailable on this host")
    } else if file_len <= PREFETCH_MAX_BYTES {
        (PlannedBackend::Mmap, true, "mapped with prefetch: file within the 2 GiB prefetch limit")
    } else {
        (PlannedBackend::Mmap, false, "mapped lazily: file beyond the 2 GiB prefetch limit")
    };
    LoadPlan { backend, prefetch, reason }
}

/// A cursor over the directory that also yields each entry's position
/// (the key into the read source's preload stage).
struct EntryCursor<'a> {
    entries: &'a [DirEntry],
    pos: usize,
}

impl<'a> EntryCursor<'a> {
    fn next(&mut self) -> Result<(usize, &'a DirEntry), SnapshotError> {
        let i = self.pos;
        let entry = self
            .entries
            .get(i)
            .ok_or(SnapshotError::Malformed("directory ended before the section schema"))?;
        self.pos += 1;
        Ok((i, entry))
    }
}

/// Reads the seven arrays of one frozen store and revalidates the CSR
/// structural invariants via `FrozenStore::from_sections`.
fn load_store(
    src: &mut SnapshotSource,
    cur: &mut EntryCursor<'_>,
    hll: HllConfig,
) -> Result<FrozenStore, SnapshotError> {
    let (i, e) = cur.next()?;
    let keys: Section<u64> = src.section(i, e)?;
    let (i, e) = cur.next()?;
    let prefix: Section<u32> = src.section(i, e)?;
    let (i, e) = cur.next()?;
    let offsets: Section<u64> = src.section(i, e)?;
    let (i, e) = cur.next()?;
    let members: Section<PointId> = src.section(i, e)?;
    let (i, e) = cur.next()?;
    let bits: Section<u64> = src.section(i, e)?;
    let (i, e) = cur.next()?;
    let rank: Section<u32> = src.section(i, e)?;
    let (i, e) = cur.next()?;
    let regs: Section<u8> = src.section(i, e)?;
    FrozenStore::from_sections(keys, prefix, offsets, members, Some(hll), bits, rank, regs)
        .map_err(SnapshotError::Malformed)
}

/// Reads one index's table stores, pairing table `j`'s with the shared
/// g-function `set[j]`.
fn load_tables<G>(
    src: &mut SnapshotSource,
    cur: &mut EntryCursor<'_>,
    set: &[Arc<G>],
    hll: HllConfig,
) -> Result<Vec<HashTable<G, FrozenStore>>, SnapshotError> {
    set.iter()
        .map(|g| Ok(HashTable::from_parts(Arc::clone(g), load_store(src, cur, hll)?)))
        .collect()
}

/// Loads a snapshot written by [`save_snapshot`](super::save_snapshot)
/// (v2) or [`save_snapshot_v1`](super::save_snapshot_v1).
///
/// The type parameters select the expected family and distance; a file
/// written for different ones is rejected with
/// [`SnapshotError::FamilyMismatch`] / [`DistanceMismatch`]. Queries
/// against the returned indexes are byte-identical to queries against
/// the indexes that were saved, in every [`LoadMode`] and for both
/// format versions.
///
/// [`DistanceMismatch`]: SnapshotError::DistanceMismatch
pub fn load_snapshot<F, D>(
    path: &Path,
    mode: LoadMode,
) -> Result<LoadedSnapshot<F, D>, SnapshotError>
where
    F: SnapshotFamily,
    D: SnapshotDistance,
{
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let (mut src, plan) = match mode {
        LoadMode::Read => (SnapshotSource::read(file), None),
        LoadMode::Mmap => (SnapshotSource::mmap(&file, file_len, false)?, None),
        LoadMode::MmapVerify => (SnapshotSource::mmap(&file, file_len, true)?, None),
        LoadMode::Auto => {
            let mut plan = auto_plan(mmap_supported(), file_len);
            let src = match plan.backend {
                PlannedBackend::Read => SnapshotSource::read(file),
                PlannedBackend::Mmap => match SnapshotSource::mmap(&file, file_len, false) {
                    Ok(src) => src,
                    // `mmap_supported()` said yes, but the map call itself
                    // can still refuse; degrade to buffered reads and
                    // report the plan that actually ran.
                    Err(SnapshotError::MmapUnavailable(_)) => {
                        plan = auto_plan(false, file_len);
                        SnapshotSource::read(file)
                    }
                    Err(e) => return Err(e),
                },
            };
            if plan.prefetch {
                src.advise_prefetch();
            }
            (src, Some(plan))
        }
    };
    let (header, param, dir) = read_preamble(&mut src, file_len)?;

    // --- params: scalars, then the g-function area, fully consumed ---
    let mut r = ParamReader::new(&param);
    let raw = RawParams::decode(&mut r)?;
    if raw.distance_tag != D::TAG {
        return Err(SnapshotError::DistanceMismatch { expected: D::TAG, found: raw.distance_tag });
    }
    if raw.family_tag != F::TAG {
        return Err(SnapshotError::FamilyMismatch { expected: F::TAG, found: raw.family_tag });
    }
    if raw.expected_sections() != header.dir_count as usize {
        return Err(SnapshotError::Malformed("directory entry count disagrees with parameters"));
    }
    let decode_family = |blob: &[u8]| -> Result<F, SnapshotError> {
        let mut fr = ParamReader::new(blob);
        let family = F::decode_params(&mut fr)?;
        fr.finish()?;
        Ok(family)
    };
    let family = decode_family(&raw.rnnr.family)?;
    let level_families = match &raw.topk {
        Some(tk) => {
            tk.levels.iter().map(|g| decode_family(&g.family)).collect::<Result<Vec<_>, _>>()?
        }
        None => Vec::new(),
    };
    let decode_set = |r: &mut ParamReader, tables: usize, k: usize| {
        (0..tables)
            .map(|_| {
                let g = F::decode_gfn(r)?;
                if F::gfn_shape(&g) != (raw.dim, k) {
                    return Err(SnapshotError::Malformed(
                        "g-function shape disagrees with parameters",
                    ));
                }
                Ok(Arc::new(g))
            })
            .collect::<Result<Vec<_>, SnapshotError>>()
    };
    let decode_rnnr = |r: &mut ParamReader| decode_set(r, raw.rnnr.tables, raw.rnnr.k);
    let decode_ladder = |r: &mut ParamReader| {
        let levels = raw.topk.iter().flat_map(|tk| &tk.levels);
        levels.map(|g| decode_set(r, g.tables, g.k)).collect::<Result<Vec<_>, _>>()
    };
    // Each set is decoded once and shared by every shard's tables. v1
    // repeats each set per shard (all shards' radius sets, then all
    // shards' ladder sets); v2 stores each once.
    let copies = if header.version == VERSION_V1 { raw.shards } else { 1 };
    let (rnnr_set, rest) = decode_repeated(r.take_rest(), copies, decode_rnnr)?;
    let (level_sets, rest) = decode_repeated(rest, copies, decode_ladder)?;
    ParamReader::new(rest).finish()?;

    // --- sections, in the writer's fixed order ---
    let entries = decode_entries(&header, &dir)?;
    // One forward pass over the file for the read source (no-op for the
    // mapping): stage every section's bytes in offset order.
    src.preload(&entries)?;
    let mut cur = EntryCursor { entries: &entries, pos: 0 };
    let hll = raw.rnnr.hll_config();
    let cost = raw.rnnr.cost_model();
    let has_topk = raw.topk.is_some();
    let mut owners_all: Vec<Vec<PointId>> = Vec::with_capacity(raw.shards);
    let mut data_secs: Vec<Section<f32>> = Vec::with_capacity(raw.shards);
    let mut seen = vec![false; raw.n];
    let mut rnnr_shards = Vec::with_capacity(raw.shards);
    for _ in 0..raw.shards {
        let (i, e) = cur.next()?;
        let owners_sec: Section<PointId> = src.section(i, e)?;
        let owners = owners_sec.to_vec();
        for &g in &owners {
            if (g as usize) >= raw.n || std::mem::replace(&mut seen[g as usize], true) {
                return Err(SnapshotError::Malformed("owner lists do not partition the ids"));
            }
        }
        let (i, e) = cur.next()?;
        let mut data_sec: Section<f32> = src.section(i, e)?;
        if owners.len().checked_mul(raw.dim) != Some(data_sec.len()) {
            return Err(SnapshotError::Malformed("data section size disagrees with owner list"));
        }
        // When a ladder shares this shard, promote an owned buffer to a
        // shared backing so both indexes clone the same allocation.
        if has_topk && !data_sec.is_shared() {
            data_sec = Section::shared(Arc::new(data_sec.into_vec()));
        }
        rnnr_shards.push(HybridLshIndex::assemble(
            DenseDataset::from_section(data_sec.clone(), raw.dim),
            family.clone(),
            D::default(),
            load_tables(&mut src, &mut cur, &rnnr_set, hll)?,
            hll,
            raw.rnnr.lazy,
            cost,
            raw.rnnr.k,
        ));
        owners_all.push(owners);
        data_secs.push(data_sec);
    }
    if !seen.into_iter().all(|b| b) {
        return Err(SnapshotError::Malformed("owner lists do not cover the ids"));
    }

    let assignment = ShardAssignment::new(raw.seed, raw.shards);
    let mut topk_index = None;
    if let Some(tk) = &raw.topk {
        let schedule = RadiusSchedule::new(tk.base, tk.ratio, tk.levels.len());
        let mut ladders = Vec::with_capacity(raw.shards);
        for data_sec in &data_secs {
            let data = Arc::new(DenseDataset::from_section(data_sec.clone(), raw.dim));
            let mut levels = Vec::with_capacity(tk.levels.len());
            for ((group, set), lvl_family) in tk.levels.iter().zip(&level_sets).zip(&level_families)
            {
                levels.push(HybridLshIndex::assemble(
                    Arc::clone(&data),
                    lvl_family.clone(),
                    D::default(),
                    load_tables(&mut src, &mut cur, set, group.hll_config())?,
                    group.hll_config(),
                    group.lazy,
                    group.cost_model(),
                    group.k,
                ));
            }
            ladders.push(TopKIndex::assemble(data, schedule, levels));
        }
        topk_index =
            Some(ShardedTopKIndex::assemble(ladders, owners_all.clone(), assignment, raw.n));
    }
    let rnnr = ShardedIndex::assemble(rnnr_shards, owners_all, assignment, raw.n);
    Ok(LoadedSnapshot { rnnr, topk: topk_index, manifest: manifest_of(&raw), plan })
}

/// Decodes one g-function set from the front of `area` and checks that
/// `copies - 1` byte-identical repeats follow it: a v1 file stores every
/// shard's set, and every shard of a rung must hold the same one.
/// Returns the set and the bytes after the repeats.
fn decode_repeated<'a, T>(
    area: &'a [u8],
    copies: usize,
    decode: impl FnOnce(&mut ParamReader<'a>) -> Result<T, SnapshotError>,
) -> Result<(T, &'a [u8]), SnapshotError> {
    let mut r = ParamReader::new(area);
    let set = decode(&mut r)?;
    let rest = r.take_rest();
    let one = &area[..area.len() - rest.len()];
    let repeats =
        one.len().checked_mul(copies.saturating_sub(1)).ok_or(SnapshotError::Truncated)?;
    if rest.len() < repeats {
        return Err(SnapshotError::Truncated);
    }
    let (repeated, rest) = rest.split_at(repeats);
    if repeated.chunks(one.len().max(1)).any(|copy| copy != one) {
        return Err(SnapshotError::Malformed("shards disagree on g-functions"));
    }
    Ok((set, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mapping_means_read() {
        for len in [0, PREFETCH_MAX_BYTES, u64::MAX] {
            let plan = auto_plan(false, len);
            assert_eq!(plan.backend, PlannedBackend::Read);
            assert!(!plan.prefetch);
        }
    }

    #[test]
    fn file_at_the_limit_is_prefetched() {
        let plan = auto_plan(true, PREFETCH_MAX_BYTES);
        assert_eq!(plan.backend, PlannedBackend::Mmap);
        assert!(plan.prefetch);
    }

    #[test]
    fn one_byte_past_the_limit_maps_lazily() {
        let plan = auto_plan(true, PREFETCH_MAX_BYTES + 1);
        assert_eq!(plan.backend, PlannedBackend::Mmap);
        assert!(!plan.prefetch);
    }
}
