//! The pinned on-disk primitives: header, section directory, CRC-32,
//! and the little-endian parameter codec.
//!
//! Everything here is **format**, not policy: byte layouts are fixed by
//! `docs/SNAPSHOT.md` and guarded by [`VERSION`]. All multi-byte values
//! are little-endian regardless of host; decoding is total (every
//! malformed input maps to a [`SnapshotError`], never a panic), in the
//! same style as the wire protocol's frame decoder.

use super::SnapshotError;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"HLSHSNAP";

/// Current format version, written by [`save_snapshot`]. The loader is
/// version-dispatched and still reads [`VERSION_V1`] files; see the
/// compatibility policy in `docs/SNAPSHOT.md`.
///
/// [`save_snapshot`]: super::save_snapshot
pub const VERSION: u32 = 2;

/// The original format version: raw page-aligned sections only, 24-byte
/// directory entries, g-functions repeated per shard in the param
/// block. Still written by [`save_snapshot_v1`](super::save_snapshot_v1)
/// for compatibility tests and benchmarks.
pub const VERSION_V1: u32 = 1;

/// Endianness canary, written little-endian. A loader that reads it
/// back as anything but this value is mis-decoding the file.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// The format's page-size floor. In v1 every section offset is a
/// multiple of this; in v2 it is the alignment floor for *large* raw
/// sections (the writer aligns them to the runtime page size, which is
/// always a multiple of 4096 on supported hosts), so a page-aligned
/// mmap base keeps every raw section slice aligned for any element type
/// up to 8 bytes.
pub const PAGE: u64 = 4096;

/// v2 alignment for raw sections smaller than one page: enough for any
/// element type, without burning most of a page on padding per section.
pub const RAW_ALIGN: u64 = 64;

/// Raw sections at or above this many bytes are page-aligned in v2 (so
/// the mmap path wastes no partial pages on them); smaller ones are
/// [`RAW_ALIGN`]-aligned.
pub const RAW_PAGE_ALIGN_MIN: u64 = PAGE;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 64;

/// Size of one v2 directory entry in bytes.
pub const DIR_ENTRY_LEN: usize = 32;

/// Size of one v1 directory entry in bytes.
pub const DIR_ENTRY_LEN_V1: usize = 24;

/// Rounds `v` up to the next multiple of [`PAGE`].
pub fn page_align(v: u64) -> u64 {
    v.div_ceil(PAGE) * PAGE
}

/// Rounds `v` up to the next multiple of `align` (a power of two).
pub fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    v.div_ceil(align) * align
}

/// How a section's payload is stored on disk. The tag lives in each v2
/// directory entry; v1 files are all-[`Raw`](SectionEncoding::Raw).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionEncoding {
    /// Verbatim little-endian elements — the only encoding the
    /// zero-copy mmap path can serve without materialising.
    Raw,
    /// LEB128 varints, one per element (integer element types only).
    /// Wins on small-valued arrays such as bucket members and owners.
    Varint,
    /// First element as a varint, then varint deltas between
    /// consecutive elements. Wins on sorted/monotone arrays such as
    /// CSR offsets and prefix tables.
    DeltaVarint,
    /// Elias-Fano: fixed-width low bits plus a unary high-bit bitmap.
    /// Wins on monotone arrays whose deltas are too large for varints
    /// to beat raw — the sorted 64-bit bucket-key arrays, whose nearly
    /// uniform spacing costs ~`log2(universe / n) + 2` bits per key.
    EliasFano,
}

impl SectionEncoding {
    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            SectionEncoding::Raw => 0,
            SectionEncoding::Varint => 1,
            SectionEncoding::DeltaVarint => 2,
            SectionEncoding::EliasFano => 3,
        }
    }

    /// Decodes a tag byte.
    pub fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        match tag {
            0 => Ok(SectionEncoding::Raw),
            1 => Ok(SectionEncoding::Varint),
            2 => Ok(SectionEncoding::DeltaVarint),
            3 => Ok(SectionEncoding::EliasFano),
            _ => Err(SnapshotError::Malformed("unknown section encoding tag")),
        }
    }
}

// --- CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) ---

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut b = 0;
        while b < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            b += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Incremental CRC-32 state, for checksumming sections as they stream
/// through the writer.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The finished checksum.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// --- header ---

/// The fixed 64-byte file header (identical layout in v1 and v2; only
/// the `version` word and the directory entry size behind `dir_off`
/// differ).
///
/// ```text
/// off  size  field
///   0     8  magic        b"HLSHSNAP"
///   8     4  version      u32 (1 or 2)
///  12     4  endian       u32 canary 0x0A0B0C0D
///  16     8  total_len    u64, exact file length
///  24     8  param_off    u64 (always 64)
///  32     8  param_len    u64
///  40     8  dir_off      u64 (= param_off + param_len)
///  48     4  dir_count    u32, number of directory entries
///  52     4  param_crc    u32 over the param block bytes
///  56     4  dir_crc      u32 over the directory bytes
///  60     4  header_crc   u32 over bytes 0..60
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version ([`VERSION`] or [`VERSION_V1`]).
    pub version: u32,
    /// Exact file length in bytes.
    pub total_len: u64,
    /// Byte offset of the parameter block.
    pub param_off: u64,
    /// Byte length of the parameter block.
    pub param_len: u64,
    /// Byte offset of the section directory.
    pub dir_off: u64,
    /// Number of directory entries.
    pub dir_count: u32,
    /// CRC-32 of the parameter block.
    pub param_crc: u32,
    /// CRC-32 of the directory bytes.
    pub dir_crc: u32,
}

impl Header {
    /// Size in bytes of one directory entry under this header's format
    /// version.
    pub fn dir_entry_len(&self) -> usize {
        if self.version == VERSION_V1 {
            DIR_ENTRY_LEN_V1
        } else {
            DIR_ENTRY_LEN
        }
    }

    /// Serialises the header to its 64-byte form (computing the
    /// trailing header CRC).
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
        out[16..24].copy_from_slice(&self.total_len.to_le_bytes());
        out[24..32].copy_from_slice(&self.param_off.to_le_bytes());
        out[32..40].copy_from_slice(&self.param_len.to_le_bytes());
        out[40..48].copy_from_slice(&self.dir_off.to_le_bytes());
        out[48..52].copy_from_slice(&self.dir_count.to_le_bytes());
        out[52..56].copy_from_slice(&self.param_crc.to_le_bytes());
        out[56..60].copy_from_slice(&self.dir_crc.to_le_bytes());
        let crc = crc32(&out[..60]);
        out[60..64].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a header: magic, version, endian canary and
    /// the header's own CRC. Structural plausibility of the offsets
    /// (within `total_len`, non-overlapping) is checked here too, so
    /// downstream reads can trust the ranges.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let le_u32 =
            |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4-byte range"));
        let le_u64 =
            |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8-byte range"));
        if bytes[0..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = le_u32(8);
        if !(version == VERSION_V1 || version == VERSION) {
            return Err(SnapshotError::BadVersion(version));
        }
        if le_u32(12) != ENDIAN_TAG {
            return Err(SnapshotError::BadEndian);
        }
        if le_u32(60) != crc32(&bytes[..60]) {
            return Err(SnapshotError::ChecksumMismatch("header"));
        }
        let header = Self {
            version,
            total_len: le_u64(16),
            param_off: le_u64(24),
            param_len: le_u64(32),
            dir_off: le_u64(40),
            dir_count: le_u32(48),
            param_crc: le_u32(52),
            dir_crc: le_u32(56),
        };
        let dir_len = header.dir_count as u64 * header.dir_entry_len() as u64;
        if header.param_off != HEADER_LEN as u64
            || header.dir_off != header.param_off + header.param_len
            || header.dir_off + dir_len > header.total_len
        {
            return Err(SnapshotError::Malformed("header offsets out of range"));
        }
        Ok(header)
    }
}

// --- section directory ---

/// One directory entry describing a section's on-disk form.
///
/// The 32-byte v2 layout:
///
/// ```text
/// off  size  field
///   0     8  offset     u64, byte offset of the on-disk payload
///   8     8  raw_len    u64, decoded payload length in bytes
///  16     8  enc_len    u64, on-disk payload length (= raw_len if Raw)
///  24     1  elem_size  u8 (1, 4 or 8)
///  25     1  encoding   u8 SectionEncoding tag
///  26     2  reserved   u16, must be 0
///  28     4  crc        u32 CRC-32 over the on-disk payload bytes
/// ```
///
/// v1 entries (24 bytes: offset, byte_len, elem_size as `u32`, crc) are
/// parsed by [`decode_v1`](DirEntry::decode_v1) into the same struct
/// with `enc_len == raw_len` and [`SectionEncoding::Raw`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Byte offset of the on-disk payload. Raw sections are aligned
    /// ([`PAGE`] in v1; in v2, page-aligned when at least
    /// [`RAW_PAGE_ALIGN_MIN`] bytes, else [`RAW_ALIGN`]); encoded
    /// sections are packed with no alignment.
    pub offset: u64,
    /// Decoded payload length in bytes (a multiple of `elem_size`).
    pub raw_len: u64,
    /// On-disk payload length in bytes. Equals `raw_len` for raw
    /// sections; for encoded sections it is the varint stream length,
    /// and each element costs at least one encoded byte
    /// (`raw_len / elem_size <= enc_len`), so a corrupt entry can never
    /// demand an allocation larger than the file itself.
    pub enc_len: u64,
    /// Size of one decoded element in bytes (1, 4 or 8).
    pub elem_size: u32,
    /// How the payload is stored on disk.
    pub encoding: SectionEncoding,
    /// CRC-32 of the on-disk payload bytes (encoded form for encoded
    /// sections).
    pub crc: u32,
}

impl DirEntry {
    /// Number of decoded elements.
    pub fn elem_count(&self) -> u64 {
        self.raw_len / self.elem_size as u64
    }

    /// Serialises the entry to its 32-byte v2 form.
    pub fn encode(&self) -> [u8; DIR_ENTRY_LEN] {
        let mut out = [0u8; DIR_ENTRY_LEN];
        out[0..8].copy_from_slice(&self.offset.to_le_bytes());
        out[8..16].copy_from_slice(&self.raw_len.to_le_bytes());
        out[16..24].copy_from_slice(&self.enc_len.to_le_bytes());
        out[24] = self.elem_size as u8;
        out[25] = self.encoding.tag();
        // bytes 26..28 reserved, zero
        out[28..32].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    /// Serialises the entry to the 24-byte v1 form (raw sections only —
    /// v1 has no encoding tag).
    pub fn encode_v1(&self) -> [u8; DIR_ENTRY_LEN_V1] {
        debug_assert_eq!(self.encoding, SectionEncoding::Raw);
        debug_assert_eq!(self.raw_len, self.enc_len);
        let mut out = [0u8; DIR_ENTRY_LEN_V1];
        out[0..8].copy_from_slice(&self.offset.to_le_bytes());
        out[8..16].copy_from_slice(&self.raw_len.to_le_bytes());
        out[16..20].copy_from_slice(&self.elem_size.to_le_bytes());
        out[20..24].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    /// Parses one 32-byte v2 entry and checks its structural invariants
    /// against the file length: alignment (raw sections), element
    /// divisibility, the decoded-length bound, range.
    pub fn decode(bytes: &[u8], total_len: u64) -> Result<Self, SnapshotError> {
        if bytes.len() < DIR_ENTRY_LEN {
            return Err(SnapshotError::Truncated);
        }
        let entry = Self {
            offset: u64::from_le_bytes(bytes[0..8].try_into().expect("8-byte range")),
            raw_len: u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte range")),
            enc_len: u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte range")),
            elem_size: bytes[24] as u32,
            encoding: SectionEncoding::from_tag(bytes[25])?,
            crc: u32::from_le_bytes(bytes[28..32].try_into().expect("4-byte range")),
        };
        if bytes[26] != 0 || bytes[27] != 0 {
            return Err(SnapshotError::Malformed("reserved directory bytes not zero"));
        }
        if !matches!(entry.elem_size, 1 | 4 | 8) {
            return Err(SnapshotError::Malformed("unsupported section element size"));
        }
        if !entry.raw_len.is_multiple_of(entry.elem_size as u64) {
            return Err(SnapshotError::Malformed("section length not a multiple of element size"));
        }
        match entry.encoding {
            SectionEncoding::Raw => {
                if entry.enc_len != entry.raw_len {
                    return Err(SnapshotError::Malformed(
                        "raw section declares distinct encoded length",
                    ));
                }
                let align = if entry.raw_len >= RAW_PAGE_ALIGN_MIN { PAGE } else { RAW_ALIGN };
                if !entry.offset.is_multiple_of(align) {
                    return Err(SnapshotError::Malformed("raw section offset misaligned"));
                }
            }
            SectionEncoding::Varint | SectionEncoding::DeltaVarint | SectionEncoding::EliasFano => {
                // Varints are only defined over the integer elements.
                if !matches!(entry.elem_size, 4 | 8) {
                    return Err(SnapshotError::Malformed(
                        "encoded section with non-integer element size",
                    ));
                }
                // Each element costs >= 1 encoded byte: bounds the
                // decode allocation by the on-disk length.
                if entry.raw_len / entry.elem_size as u64 > entry.enc_len {
                    return Err(SnapshotError::Malformed(
                        "encoded section over-declares its decoded length",
                    ));
                }
            }
        }
        let end = entry.offset.checked_add(entry.enc_len);
        if end.is_none_or(|e| e > total_len) {
            return Err(SnapshotError::Truncated);
        }
        Ok(entry)
    }

    /// Parses one 24-byte v1 entry (always raw, page-aligned) and
    /// checks the v1 structural invariants.
    pub fn decode_v1(bytes: &[u8], total_len: u64) -> Result<Self, SnapshotError> {
        if bytes.len() < DIR_ENTRY_LEN_V1 {
            return Err(SnapshotError::Truncated);
        }
        let byte_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte range"));
        let entry = Self {
            offset: u64::from_le_bytes(bytes[0..8].try_into().expect("8-byte range")),
            raw_len: byte_len,
            enc_len: byte_len,
            elem_size: u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte range")),
            encoding: SectionEncoding::Raw,
            crc: u32::from_le_bytes(bytes[20..24].try_into().expect("4-byte range")),
        };
        if !entry.offset.is_multiple_of(PAGE) {
            return Err(SnapshotError::Malformed("section offset not page-aligned"));
        }
        if !matches!(entry.elem_size, 1 | 4 | 8) {
            return Err(SnapshotError::Malformed("unsupported section element size"));
        }
        if !entry.raw_len.is_multiple_of(entry.elem_size as u64) {
            return Err(SnapshotError::Malformed("section length not a multiple of element size"));
        }
        let end = entry.offset.checked_add(entry.raw_len);
        if end.is_none_or(|e| e > total_len) {
            return Err(SnapshotError::Truncated);
        }
        Ok(entry)
    }
}

// --- little-endian parameter codec ---

/// Appends little-endian parameter values to a growing byte buffer
/// (the param-block writer).
#[derive(Debug, Default)]
pub struct ParamWriter {
    buf: Vec<u8>,
}

impl ParamWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed opaque byte blob (used for the
    /// family-specific parameter groups, so readers that do not know
    /// the family — e.g. the manifest parser — can skip them).
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed `f32` slice by bit pattern.
    pub fn f32_slice(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a length-prefixed `f64` slice by bit pattern.
    pub fn f64_slice(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// The finished param-block bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Total little-endian decoder over a param block: every read is
/// bounds-checked and returns [`SnapshotError::Truncated`] past the
/// end, mirroring the wire protocol's frame decoder.
#[derive(Debug)]
pub struct ParamReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ParamReader<'a> {
    /// A reader over the whole block.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte range")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte range")))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8-byte range")))
    }

    /// Reads a length-prefixed opaque byte blob (the counterpart of
    /// [`ParamWriter::blob`]).
    pub fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed `f32` slice, capping the declared length
    /// at what the block can actually hold (so a corrupt length cannot
    /// trigger a huge allocation).
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len.checked_mul(4).ok_or(SnapshotError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads a length-prefixed `f64` slice (same overflow guard as
    /// [`f32_vec`](Self::f32_vec)).
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len.checked_mul(8).ok_or(SnapshotError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Takes the unread remainder of the block, consuming it. The loader
    /// takes the g-function area this way, to decode each set once and
    /// check v1's per-shard repeats byte for byte.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Asserts the block was consumed exactly; trailing bytes mean the
    /// reader and writer disagree on the layout.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing bytes in param block"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut inc = Crc32::new();
        inc.update(b"1234");
        inc.update(b"56789");
        assert_eq!(inc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let h = Header {
            version: VERSION,
            total_len: 8192,
            param_off: 64,
            param_len: 100,
            dir_off: 164,
            dir_count: 3,
            param_crc: 7,
            dir_crc: 9,
        };
        let bytes = h.encode();
        assert_eq!(Header::decode(&bytes).expect("round trip"), h);

        // A v1 header round-trips too, with the smaller entry size.
        let v1 = Header { version: VERSION_V1, ..h };
        let decoded = Header::decode(&v1.encode()).expect("v1 round trip");
        assert_eq!(decoded, v1);
        assert_eq!(decoded.dir_entry_len(), DIR_ENTRY_LEN_V1);
        assert_eq!(h.dir_entry_len(), DIR_ENTRY_LEN);

        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert!(matches!(Header::decode(&bad_magic), Err(SnapshotError::BadMagic)));

        let mut bad_version = bytes;
        bad_version[8] = 99;
        // Re-sign so the version check (not the CRC) fires.
        let crc = crc32(&bad_version[..60]);
        bad_version[60..64].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(Header::decode(&bad_version), Err(SnapshotError::BadVersion(99))));

        let mut flipped = bytes;
        flipped[20] ^= 1; // corrupt total_len, leave the CRC stale
        assert!(matches!(Header::decode(&flipped), Err(SnapshotError::ChecksumMismatch("header"))));

        assert!(matches!(Header::decode(&bytes[..40]), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn dir_entry_round_trip_and_rejections() {
        let e = DirEntry {
            offset: 8192,
            raw_len: 8192,
            enc_len: 8192,
            elem_size: 8,
            encoding: SectionEncoding::Raw,
            crc: 5,
        };
        assert_eq!(DirEntry::decode(&e.encode(), 1 << 20).expect("round trip"), e);
        assert_eq!(e.elem_count(), 1024);

        // Large raw sections must be page-aligned; small ones only need
        // the 64-byte floor.
        let unaligned = DirEntry { offset: 8192 + 64, ..e };
        assert!(DirEntry::decode(&unaligned.encode(), 1 << 20).is_err());
        let small = DirEntry { offset: 8192 + 64, raw_len: 24, enc_len: 24, ..e };
        assert!(DirEntry::decode(&small.encode(), 1 << 20).is_ok());
        let small_unaligned = DirEntry { offset: 8192 + 32, raw_len: 24, enc_len: 24, ..e };
        assert!(DirEntry::decode(&small_unaligned.encode(), 1 << 20).is_err());

        let ragged = DirEntry { raw_len: 8193, enc_len: 8193, ..e };
        assert!(DirEntry::decode(&ragged.encode(), 1 << 20).is_err());
        let overrun = DirEntry { offset: 4096, raw_len: 8192, enc_len: 8192, ..e };
        assert!(matches!(DirEntry::decode(&overrun.encode(), 8192), Err(SnapshotError::Truncated)));
        let raw_with_enc = DirEntry { enc_len: 100, ..e };
        assert!(DirEntry::decode(&raw_with_enc.encode(), 1 << 20).is_err());

        // Encoded sections: unaligned offsets are fine, but an entry
        // whose decoded length could not possibly fit its encoded bytes
        // is rejected before any allocation.
        let enc = DirEntry {
            offset: 999,
            raw_len: 800,
            enc_len: 300,
            elem_size: 4,
            encoding: SectionEncoding::Varint,
            crc: 5,
        };
        assert_eq!(DirEntry::decode(&enc.encode(), 1 << 20).expect("round trip"), enc);
        let oversold = DirEntry { raw_len: 4 * 301, ..enc };
        assert!(matches!(
            DirEntry::decode(&oversold.encode(), 1 << 20),
            Err(SnapshotError::Malformed(_))
        ));
        let enc_bytes = DirEntry { elem_size: 1, raw_len: 100, ..enc };
        assert!(DirEntry::decode(&enc_bytes.encode(), 1 << 20).is_err());

        // Unknown encoding tags and non-zero reserved bytes.
        let mut bad_tag = enc.encode();
        bad_tag[25] = 7;
        assert!(matches!(
            DirEntry::decode(&bad_tag, 1 << 20),
            Err(SnapshotError::Malformed("unknown section encoding tag"))
        ));
        let mut bad_reserved = enc.encode();
        bad_reserved[26] = 1;
        assert!(DirEntry::decode(&bad_reserved, 1 << 20).is_err());

        // v1 entries decode into the same struct, raw by construction.
        let v1 = DirEntry::decode_v1(&e.encode_v1(), 1 << 20).expect("v1 round trip");
        assert_eq!(v1, e);
        let v1_unaligned = DirEntry { offset: 64, raw_len: 24, enc_len: 24, ..e };
        assert!(DirEntry::decode_v1(&v1_unaligned.encode_v1(), 1 << 20).is_err());
    }

    #[test]
    fn param_codec_round_trips_and_is_total() {
        let mut w = ParamWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.5);
        w.f32_slice(&[1.0, -2.5]);
        w.f64_slice(&[3.25]);
        let bytes = w.into_bytes();

        let mut r = ParamReader::new(&bytes);
        assert_eq!(r.u8().expect("u8"), 7);
        assert_eq!(r.u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(r.u64().expect("u64"), u64::MAX - 1);
        assert_eq!(r.f64().expect("f64"), -0.5);
        assert_eq!(r.f32_vec().expect("f32 vec"), vec![1.0, -2.5]);
        assert_eq!(r.f64_vec().expect("f64 vec"), vec![3.25]);
        r.finish().expect("fully consumed");

        // Truncated at every offset: total decoding, no panic.
        for cut in 0..bytes.len() {
            let mut r = ParamReader::new(&bytes[..cut]);
            let result: Result<(), SnapshotError> = (|| {
                r.u8()?;
                r.u32()?;
                r.u64()?;
                r.f64()?;
                r.f32_vec()?;
                r.f64_vec()?;
                Ok(())
            })();
            assert!(result.is_err(), "cut at {cut} must fail");
        }

        // Trailing bytes are rejected.
        let mut r = ParamReader::new(&bytes);
        r.u8().expect("u8");
        assert!(r.finish().is_err());
    }

    #[test]
    fn page_alignment_math() {
        assert_eq!(page_align(0), 0);
        assert_eq!(page_align(1), 4096);
        assert_eq!(page_align(4096), 4096);
        assert_eq!(page_align(4097), 8192);
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 16384), 16384);
    }
}
