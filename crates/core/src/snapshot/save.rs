//! Snapshot writer: one streaming pass over the flat arrays, then a
//! seek back to fill in the directory and header.
//!
//! The writer first verifies every cross-index invariant the loader
//! will rely on (shards agree on parameters, the top-k ladder was built
//! over the same partition and data as the radius index), so a file
//! that saves successfully always round-trips. Sections are streamed in
//! fixed-size chunks with their CRC computed on the encoded bytes — the
//! file is never buffered whole in memory.
//!
//! [`save_snapshot`] writes the current v2 layout: each section gets
//! the cheapest of the three [`SectionEncoding`]s (chosen by
//! [`encode::plan`](super::encode::plan)), encoded sections are packed
//! with no alignment right after the directory, raw sections follow
//! aligned for the mmap path (runtime page size when at least a page
//! long, 64 bytes otherwise), and the g-function area is stored **once**
//! — every shard of a rung holds the one set its rung sampled or
//! decoded (the shared-randomness invariant), so the writer writes
//! shard 0's. [`save_snapshot_v1`] retains the original all-raw,
//! all-page-aligned layout for compatibility tests and benchmarks.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use hlsh_vec::DenseDataset;

use super::codec::{SnapshotDistance, SnapshotFamily};
use super::encode::{self, SectionEncoder};
use super::format::{
    align_up, crc32, Crc32, DirEntry, Header, ParamWriter, SectionEncoding, DIR_ENTRY_LEN,
    DIR_ENTRY_LEN_V1, HEADER_LEN, PAGE, RAW_ALIGN, RAW_PAGE_ALIGN_MIN, VERSION, VERSION_V1,
};
use super::mmap::page_size;
use super::params::{GroupParams, RawParams, TopKParams};
use super::source::Pod;
use super::{SnapshotError, MAX_LEVELS, MAX_SHARDS, MAX_TABLES};
use crate::index::HybridLshIndex;
use crate::sharded::{same_partition, ShardedIndex, ShardedTopKIndex};
use crate::store::FrozenStore;

/// What [`save_snapshot`] wrote, for logging and benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SaveStats {
    /// Total file size in bytes.
    pub bytes: u64,
    /// Number of sections written.
    pub sections: usize,
    /// Section payload size before encoding (the bytes a v1-style raw
    /// dump of the same arrays would hold, padding excluded).
    pub raw_payload_bytes: u64,
    /// Section payload size as written (equals `raw_payload_bytes` for
    /// v1 files).
    pub encoded_payload_bytes: u64,
    /// Sections left raw (zero-copy mmap-able).
    pub raw_sections: usize,
    /// Sections stored as plain varints.
    pub varint_sections: usize,
    /// Sections stored as delta varints.
    pub delta_sections: usize,
    /// Sections stored as Elias-Fano.
    pub ef_sections: usize,
}

/// Elements encoded per write chunk (64 Ki elements, ≤ 512 KiB).
const CHUNK: usize = 64 * 1024;

/// One section's source elements, type-tagged so the schema walk can
/// collect every payload into a single list.
enum SectionSlice<'a> {
    U8(&'a [u8]),
    U32(&'a [u32]),
    U64(&'a [u64]),
    F32(&'a [f32]),
}

/// Dispatches a generic expression over the concrete element type of a
/// [`SectionSlice`].
macro_rules! each_slice {
    ($slice:expr, $elems:ident => $body:expr) => {
        match $slice {
            SectionSlice::U8($elems) => $body,
            SectionSlice::U32($elems) => $body,
            SectionSlice::U64($elems) => $body,
            SectionSlice::F32($elems) => $body,
        }
    };
}

impl SectionSlice<'_> {
    fn raw_len(&self) -> u64 {
        each_slice!(self, e => std::mem::size_of_val(*e) as u64)
    }
}

struct SectionWriter {
    out: BufWriter<File>,
    cursor: u64,
}

impl SectionWriter {
    fn pad_to(&mut self, target: u64) -> Result<(), SnapshotError> {
        const ZEROS: [u8; 4096] = [0u8; 4096];
        let mut gap = (target - self.cursor) as usize;
        while gap > 0 {
            let step = gap.min(ZEROS.len());
            self.out.write_all(&ZEROS[..step])?;
            gap -= step;
        }
        self.cursor = target;
        Ok(())
    }

    /// Streams one raw section: pad to `align`, then encode `elems`
    /// little-endian in chunks while folding the CRC.
    fn section_raw<T: Pod>(&mut self, elems: &[T], align: u64) -> Result<DirEntry, SnapshotError> {
        let offset = align_up(self.cursor, align);
        self.pad_to(offset)?;
        let mut crc = Crc32::new();
        let mut buf = Vec::with_capacity(CHUNK.min(elems.len()) * T::SIZE);
        for chunk in elems.chunks(CHUNK) {
            buf.clear();
            for &e in chunk {
                e.to_le(&mut buf);
            }
            crc.update(&buf);
            self.out.write_all(&buf)?;
        }
        let raw_len = (elems.len() * T::SIZE) as u64;
        self.cursor = offset + raw_len;
        Ok(DirEntry {
            offset,
            raw_len,
            enc_len: raw_len,
            elem_size: T::SIZE as u32,
            encoding: SectionEncoding::Raw,
            crc: crc.finish(),
        })
    }

    /// Streams one encoded section at the current cursor (no
    /// alignment), folding the CRC over the encoded bytes.
    fn section_encoded<T: Pod>(
        &mut self,
        elems: &[T],
        encoding: SectionEncoding,
    ) -> Result<DirEntry, SnapshotError> {
        let offset = self.cursor;
        let mut crc = Crc32::new();
        let mut enc_len = 0u64;
        if encoding == SectionEncoding::EliasFano {
            // Elias-Fano sizes its regions from the whole section, so
            // it cannot stream; the monotone sections it wins on (key
            // and offset arrays) are small enough to buffer.
            let buf = encode::encode_section(elems, encoding);
            crc.update(&buf);
            self.out.write_all(&buf)?;
            enc_len = buf.len() as u64;
        } else {
            let mut enc = SectionEncoder::new(encoding);
            let mut buf = Vec::new();
            for chunk in elems.chunks(CHUNK) {
                buf.clear();
                enc.extend(chunk, &mut buf);
                crc.update(&buf);
                self.out.write_all(&buf)?;
                enc_len += buf.len() as u64;
            }
        }
        self.cursor = offset + enc_len;
        Ok(DirEntry {
            offset,
            raw_len: (elems.len() * T::SIZE) as u64,
            enc_len,
            elem_size: T::SIZE as u32,
            encoding,
            crc: crc.finish(),
        })
    }
}

/// Extracts one index's parameter group, checking the per-table sketch
/// configs agree with the index-level one.
fn group_of<S, F, D>(
    ix: &HybridLshIndex<S, F, D, FrozenStore>,
) -> Result<GroupParams, SnapshotError>
where
    S: hlsh_vec::PointSet,
    F: SnapshotFamily + hlsh_families::LshFamily<S::Point>,
    D: hlsh_vec::Distance<S::Point>,
{
    for table in ix.raw_tables() {
        let (.., config) = table.store().sections();
        if config.is_some_and(|c| c != ix.hll_config()) {
            return Err(SnapshotError::Inconsistent(
                "table sketch config disagrees with the index HLL config",
            ));
        }
    }
    let mut fw = ParamWriter::new();
    // The family-parameter codec is only defined over [f32] points, but
    // `ix` may hold `DenseDataset` or `Arc<DenseDataset>`; the family
    // value itself is point-type independent.
    SnapshotFamily::encode_params(ix.family(), &mut fw);
    Ok(GroupParams {
        family: fw.into_bytes(),
        tables: ix.tables(),
        k: ix.k(),
        precision: ix.hll_config().precision(),
        hll_seed: ix.hll_config().seed(),
        lazy: ix.lazy_threshold(),
        alpha: ix.cost_model().alpha(),
        beta_scan: ix.cost_model().beta(),
        beta_cand: ix.cost_model().beta_cand(),
    })
}

/// Runs every save-side cross-check and assembles the scalar params.
fn validate<F, D>(
    rnnr: &ShardedIndex<DenseDataset, F, D, FrozenStore>,
    topk: Option<&ShardedTopKIndex<DenseDataset, F, D, FrozenStore>>,
) -> Result<RawParams, SnapshotError>
where
    F: SnapshotFamily,
    D: SnapshotDistance,
{
    let shards = rnnr.shards();
    let n = rnnr.len();
    let assignment = rnnr.assignment();
    let first = shards.first().ok_or(SnapshotError::Inconsistent("index has no shards"))?;
    if n > u32::MAX as usize {
        return Err(SnapshotError::Inconsistent("point count exceeds the id space"));
    }
    if shards.len() > MAX_SHARDS {
        return Err(SnapshotError::Inconsistent("shard count exceeds the format cap"));
    }
    let dim = first.data().dim();
    let rnnr_group = group_of(first)?;
    if rnnr_group.tables > MAX_TABLES {
        return Err(SnapshotError::Inconsistent("table count exceeds the format cap"));
    }
    for shard in shards {
        if shard.data().dim() != dim
            || group_of(shard)? != rnnr_group
            || shard.family() != first.family()
        {
            return Err(SnapshotError::Inconsistent("shards disagree on index parameters"));
        }
    }

    // Cross-check the ladder against the radius index before promising
    // the loader it can share one data copy between them.
    let mut topk_raw = None;
    if let Some(tk) = topk {
        same_partition(rnnr, tk).map_err(SnapshotError::Inconsistent)?;
        if tk.schedule().levels() > MAX_LEVELS {
            return Err(SnapshotError::Inconsistent("schedule level count exceeds the format cap"));
        }
        let reference = tk.shards().first().expect("assignment implies at least one shard");
        let mut level_groups = Vec::with_capacity(tk.schedule().levels());
        for (l, level) in reference.levels().iter().enumerate() {
            let g = group_of(level)?;
            if g.tables > MAX_TABLES {
                return Err(SnapshotError::Inconsistent("table count exceeds the format cap"));
            }
            for shard in tk.shards() {
                if group_of(&shard.levels()[l])? != g
                    || shard.levels()[l].family() != level.family()
                {
                    return Err(SnapshotError::Inconsistent(
                        "top-k shards disagree on level parameters",
                    ));
                }
            }
            level_groups.push(g);
        }
        topk_raw = Some(TopKParams {
            base: tk.schedule().base(),
            ratio: tk.schedule().ratio(),
            levels: level_groups,
        });
    }

    Ok(RawParams {
        distance_tag: D::TAG,
        family_tag: F::TAG,
        n,
        dim,
        seed: assignment.seed(),
        shards: shards.len(),
        rnnr: rnnr_group,
        topk: topk_raw,
    })
}

/// Encodes the g-function sets: the radius index's tables, then every
/// top-k level's tables. Every shard of a rung holds the same set by
/// construction (sampled or decoded once), so shard 0's is the set; v2
/// stores each once, v1 once per shard.
fn gfn_sets<F, D>(
    rnnr: &ShardedIndex<DenseDataset, F, D, FrozenStore>,
    topk: Option<&ShardedTopKIndex<DenseDataset, F, D, FrozenStore>>,
) -> [Vec<u8>; 2]
where
    F: SnapshotFamily,
    D: SnapshotDistance,
{
    let (mut radius, mut ladder) = (ParamWriter::new(), ParamWriter::new());
    for table in rnnr.shards()[0].raw_tables() {
        F::encode_gfn(table.g(), &mut radius);
    }
    for level in topk.iter().flat_map(|tk| tk.shards()[0].levels()) {
        for table in level.raw_tables() {
            F::encode_gfn(table.g(), &mut ladder);
        }
    }
    [radius.into_bytes(), ladder.into_bytes()]
}

/// Collects every section payload in the format's fixed schema order:
/// per shard its owner list, point data and radius-table stores; then
/// per shard every top-k level's stores.
fn collect_sections<'a, F, D>(
    rnnr: &'a ShardedIndex<DenseDataset, F, D, FrozenStore>,
    topk: Option<&'a ShardedTopKIndex<DenseDataset, F, D, FrozenStore>>,
) -> Vec<SectionSlice<'a>>
where
    F: SnapshotFamily,
    D: SnapshotDistance,
{
    let mut out = Vec::new();
    let push_store = |out: &mut Vec<SectionSlice<'a>>, store: &'a FrozenStore| {
        let (keys, prefix, offsets, members, bits, rank, regs, _) = store.sections();
        out.push(SectionSlice::U64(keys));
        out.push(SectionSlice::U32(prefix));
        out.push(SectionSlice::U64(offsets));
        out.push(SectionSlice::U32(members));
        out.push(SectionSlice::U64(bits));
        out.push(SectionSlice::U32(rank));
        out.push(SectionSlice::U8(regs));
    };
    for (s, shard) in rnnr.shards().iter().enumerate() {
        out.push(SectionSlice::U32(rnnr.global_ids(s)));
        out.push(SectionSlice::F32(shard.data().as_flat()));
        for table in shard.raw_tables() {
            push_store(&mut out, table.store());
        }
    }
    if let Some(tk) = topk {
        for shard in tk.shards() {
            for level in shard.levels() {
                for table in level.raw_tables() {
                    push_store(&mut out, table.store());
                }
            }
        }
    }
    out
}

/// Serialises a sharded radius index — and optionally the sharded top-k
/// ladder built over the **same** data and partition — to `path` in the
/// current (v2) format of `docs/SNAPSHOT.md`: per-section encodings,
/// packed encoded sections, page-aligned raw sections, one shared
/// g-function area.
///
/// Shard data is stored once: when `topk` is given, the writer verifies
/// it shares the radius index's assignment, owner lists and per-shard
/// rows, and the loader reconstructs both indexes over one shared copy.
/// Returns [`SnapshotError::Inconsistent`] if the two indexes disagree
/// (e.g. they were built from different builds of the data).
pub fn save_snapshot<F, D>(
    path: &Path,
    rnnr: &ShardedIndex<DenseDataset, F, D, FrozenStore>,
    topk: Option<&ShardedTopKIndex<DenseDataset, F, D, FrozenStore>>,
) -> Result<SaveStats, SnapshotError>
where
    F: SnapshotFamily,
    D: SnapshotDistance,
{
    let raw = validate(rnnr, topk)?;
    let dir_count = raw.expected_sections();

    // Scalars, then each g-function set exactly once.
    let mut pw = ParamWriter::new();
    raw.encode(&mut pw);
    let mut param = pw.into_bytes();
    for set in gfn_sets(rnnr, topk) {
        param.extend_from_slice(&set);
    }

    let param_off = HEADER_LEN as u64;
    let param_len = param.len() as u64;
    let dir_off = param_off + param_len;
    let dir_len = (dir_count * DIR_ENTRY_LEN) as u64;

    let file = File::create(path)?;
    let mut sw = SectionWriter { out: BufWriter::new(file), cursor: 0 };
    sw.out.write_all(&[0u8; HEADER_LEN])?;
    sw.out.write_all(&param)?;
    sw.cursor = dir_off;
    sw.pad_to(dir_off + dir_len)?;

    let slices = collect_sections(rnnr, topk);
    debug_assert_eq!(slices.len(), dir_count);
    let mut entries: Vec<Option<DirEntry>> = vec![None; dir_count];
    let mut stats = SaveStats {
        bytes: 0,
        sections: dir_count,
        raw_payload_bytes: 0,
        encoded_payload_bytes: 0,
        raw_sections: 0,
        varint_sections: 0,
        delta_sections: 0,
        ef_sections: 0,
    };

    // Pass A: encoded sections, packed tight right after the directory.
    let mut plans = Vec::with_capacity(slices.len());
    for (i, slice) in slices.iter().enumerate() {
        stats.raw_payload_bytes += slice.raw_len();
        let (encoding, _) = each_slice!(slice, e => encode::plan(e));
        plans.push(encoding);
        match encoding {
            SectionEncoding::Raw => {}
            SectionEncoding::Varint => stats.varint_sections += 1,
            SectionEncoding::DeltaVarint => stats.delta_sections += 1,
            SectionEncoding::EliasFano => stats.ef_sections += 1,
        }
        if encoding != SectionEncoding::Raw {
            let entry = each_slice!(slice, e => sw.section_encoded(e, encoding))?;
            stats.encoded_payload_bytes += entry.enc_len;
            entries[i] = Some(entry);
        }
    }

    // Pass B: raw sections, aligned for the zero-copy path — runtime
    // page size for page-sized-and-up sections, 64 bytes for small
    // ones.
    let page = page_size().max(PAGE);
    for (i, slice) in slices.iter().enumerate() {
        if plans[i] != SectionEncoding::Raw {
            continue;
        }
        let align = if slice.raw_len() >= RAW_PAGE_ALIGN_MIN { page } else { RAW_ALIGN };
        let entry = each_slice!(slice, e => sw.section_raw(e, align))?;
        stats.raw_sections += 1;
        stats.encoded_payload_bytes += entry.enc_len;
        entries[i] = Some(entry);
    }

    let total_len = sw.cursor;
    let mut dir_bytes = Vec::with_capacity(dir_len as usize);
    for entry in &entries {
        dir_bytes.extend_from_slice(&entry.expect("every section written in pass A or B").encode());
    }
    let header = Header {
        version: VERSION,
        total_len,
        param_off,
        param_len,
        dir_off,
        dir_count: dir_count as u32,
        param_crc: crc32(&param),
        dir_crc: crc32(&dir_bytes),
    };
    sw.out.seek(SeekFrom::Start(0))?;
    sw.out.write_all(&header.encode())?;
    sw.out.seek(SeekFrom::Start(dir_off))?;
    sw.out.write_all(&dir_bytes)?;
    sw.out.flush()?;
    stats.bytes = total_len;
    Ok(stats)
}

/// Serialises in the original v1 layout: every section raw and
/// page-aligned, 24-byte directory entries, the g-function area
/// repeated per shard. Retained so compatibility tests and the
/// `snapshot` bench bin can produce v1 files to hold the
/// version-dispatched reader to its contract; new code should call
/// [`save_snapshot`].
pub fn save_snapshot_v1<F, D>(
    path: &Path,
    rnnr: &ShardedIndex<DenseDataset, F, D, FrozenStore>,
    topk: Option<&ShardedTopKIndex<DenseDataset, F, D, FrozenStore>>,
) -> Result<SaveStats, SnapshotError>
where
    F: SnapshotFamily,
    D: SnapshotDistance,
{
    let raw = validate(rnnr, topk)?;
    let dir_count = raw.expected_sections();

    // Scalars first, then every g-function verbatim: all shards'
    // radius tables, then all shards' ladder tables (the v1 layout).
    let mut pw = ParamWriter::new();
    raw.encode(&mut pw);
    let mut param = pw.into_bytes();
    for set in gfn_sets(rnnr, topk) {
        param.extend_from_slice(&set.repeat(raw.shards));
    }

    let param_off = HEADER_LEN as u64;
    let param_len = param.len() as u64;
    let dir_off = param_off + param_len;
    let dir_len = (dir_count * DIR_ENTRY_LEN_V1) as u64;

    let file = File::create(path)?;
    let mut sw = SectionWriter { out: BufWriter::new(file), cursor: 0 };
    sw.out.write_all(&[0u8; HEADER_LEN])?;
    sw.out.write_all(&param)?;
    sw.cursor = dir_off;
    sw.pad_to(dir_off + dir_len)?;

    let slices = collect_sections(rnnr, topk);
    debug_assert_eq!(slices.len(), dir_count);
    let mut entries = Vec::with_capacity(dir_count);
    let mut raw_payload = 0u64;
    for slice in &slices {
        // v1 alignment rule: every section starts on a 4096 boundary.
        let entry = each_slice!(slice, e => sw.section_raw(e, PAGE))?;
        raw_payload += entry.raw_len;
        entries.push(entry);
    }

    let total_len = sw.cursor;
    let mut dir_bytes = Vec::with_capacity(dir_len as usize);
    for entry in &entries {
        dir_bytes.extend_from_slice(&entry.encode_v1());
    }
    let header = Header {
        version: VERSION_V1,
        total_len,
        param_off,
        param_len,
        dir_off,
        dir_count: dir_count as u32,
        param_crc: crc32(&param),
        dir_crc: crc32(&dir_bytes),
    };
    sw.out.seek(SeekFrom::Start(0))?;
    sw.out.write_all(&header.encode())?;
    sw.out.seek(SeekFrom::Start(dir_off))?;
    sw.out.write_all(&dir_bytes)?;
    sw.out.flush()?;
    Ok(SaveStats {
        bytes: total_len,
        sections: dir_count,
        raw_payload_bytes: raw_payload,
        encoded_payload_bytes: raw_payload,
        raw_sections: dir_count,
        varint_sections: 0,
        delta_sections: 0,
        ef_sections: 0,
    })
}
