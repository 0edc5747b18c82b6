//! The [`SnapshotSource`] abstraction: one loader, two byte suppliers.
//!
//! * [`SnapshotSource::Read`] — buffered reads into owned vectors,
//!   decoding little-endian explicitly (works on any host) and
//!   verifying every section's CRC. [`preload`](SnapshotSource::preload)
//!   pulls every section's on-disk bytes in **offset order** — one
//!   forward pass over the file instead of directory-order seeks — and
//!   later `section` calls consume the staged buffers.
//! * [`SnapshotSource::Mmap`] — the whole file mapped once; raw
//!   sections become zero-copy [`Section::shared`] views into the
//!   mapping. Per-section CRC verification of raw sections is **off by
//!   default** here, because checksumming would fault in every page and
//!   forfeit the lazy cold start that is the point of mapping; the
//!   header, param block and directory are always verified, and
//!   `verify: true` opts back into full checksumming for paranoid
//!   loads.
//!
//! Varint/delta-encoded sections (v2) are decoded into owned arrays in
//! **every** mode, and since decoding touches each encoded byte anyway,
//! their CRCs are always verified — even under plain
//! [`LoadMode::Mmap`](super::LoadMode::Mmap).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

use hlsh_vec::Section;

use super::encode::decode_section;
use super::format::{crc32, DirEntry, SectionEncoding};
use super::mmap::{Mmap, MmapSection};
use super::SnapshotError;

mod sealed {
    /// Seals [`Pod`](super::Pod) to the four primitive element types
    /// the snapshot format uses — the soundness of the mmap cast
    /// depends on no other type ever implementing it.
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f32 {}
}

/// A plain-old-data section element: fixed size, valid for every bit
/// pattern, with an explicit little-endian codec for the buffered read
/// path. Sealed to `u8`/`u32`/`u64`/`f32` (the only element types the
/// format defines); [`PointId`](hlsh_vec::PointId) is `u32`.
pub trait Pod: Copy + Send + Sync + std::fmt::Debug + 'static + sealed::Sealed {
    /// Element size in bytes (= `size_of::<Self>()`, pinned on disk).
    const SIZE: usize;

    /// Decodes one element from exactly [`SIZE`](Self::SIZE) bytes.
    fn from_le(bytes: &[u8]) -> Self;

    /// Appends the element's little-endian encoding to `out`.
    fn to_le(self, out: &mut Vec<u8>);

    /// The element as an unsigned integer, for the varint codecs.
    /// `None` for element types the codecs do not cover (`f32`, and
    /// `u8`, where a varint can never beat the raw byte).
    fn to_u64(self) -> Option<u64>;

    /// The inverse of [`to_u64`](Self::to_u64); `None` when `v` is out
    /// of range for the element type (a decode-side range check).
    fn from_u64(v: u64) -> Option<Self>;
}

impl Pod for u8 {
    const SIZE: usize = 1;
    fn from_le(bytes: &[u8]) -> Self {
        bytes[0]
    }
    fn to_le(self, out: &mut Vec<u8>) {
        out.push(self);
    }
    fn to_u64(self) -> Option<u64> {
        None
    }
    fn from_u64(_v: u64) -> Option<Self> {
        None
    }
}

impl Pod for u32 {
    const SIZE: usize = 4;
    fn from_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("4-byte element"))
    }
    fn to_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn to_u64(self) -> Option<u64> {
        Some(self as u64)
    }
    fn from_u64(v: u64) -> Option<Self> {
        u32::try_from(v).ok()
    }
}

impl Pod for u64 {
    const SIZE: usize = 8;
    fn from_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8-byte element"))
    }
    fn to_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn to_u64(self) -> Option<u64> {
        Some(self)
    }
    fn from_u64(v: u64) -> Option<Self> {
        Some(v)
    }
}

impl Pod for f32 {
    const SIZE: usize = 4;
    fn from_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().expect("4-byte element"))
    }
    fn to_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn to_u64(self) -> Option<u64> {
        None
    }
    fn from_u64(_v: u64) -> Option<Self> {
        None
    }
}

/// Where a loader's bytes come from; see the module docs for the two
/// variants' verification contracts.
#[derive(Debug)]
pub enum SnapshotSource {
    /// Buffered reads into owned arrays (always CRC-verified).
    Read {
        /// The open snapshot file.
        file: File,
        /// Per-section staged bytes, indexed like the directory; filled
        /// by [`preload`](SnapshotSource::preload) in offset order and
        /// taken by `section` calls. Empty when preloading was skipped
        /// (sections then fall back to positioned reads).
        preloaded: Vec<Option<Vec<u8>>>,
    },
    /// Zero-copy views into one shared mapping.
    Mmap {
        /// The mapped file.
        map: Arc<Mmap>,
        /// Whether to checksum every raw section despite the paging
        /// cost (encoded sections are always checksummed).
        verify: bool,
    },
}

impl SnapshotSource {
    /// A buffered-read source over `file`.
    pub fn read(file: File) -> Self {
        SnapshotSource::Read { file, preloaded: Vec::new() }
    }

    /// Maps `file` (of known `total_len` bytes) and serves zero-copy
    /// sections from the mapping.
    pub fn mmap(file: &File, total_len: u64, verify: bool) -> Result<Self, SnapshotError> {
        Ok(SnapshotSource::Mmap { map: Arc::new(Mmap::map(file, total_len)?), verify })
    }

    /// Issues readahead advice over the whole mapping (no-op for the
    /// read source) — `LoadMode::Auto`'s prefetch pass.
    pub fn advise_prefetch(&self) {
        if let SnapshotSource::Mmap { map, .. } = self {
            map.advise_prefetch();
        }
    }

    /// Reads `len` raw bytes at `offset` into an owned buffer — used
    /// for the header, param block and directory, which are always
    /// materialised and verified whatever the section path.
    pub fn bytes(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, SnapshotError> {
        match self {
            SnapshotSource::Read { file, .. } => {
                file.seek(SeekFrom::Start(offset))?;
                let mut buf = vec![0u8; len];
                file.read_exact(&mut buf).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        SnapshotError::Truncated
                    } else {
                        SnapshotError::Io(e)
                    }
                })?;
                Ok(buf)
            }
            SnapshotSource::Mmap { map, .. } => {
                let offset = usize::try_from(offset).map_err(|_| SnapshotError::Truncated)?;
                let end = offset.checked_add(len).ok_or(SnapshotError::Truncated)?;
                let bytes = map.as_bytes().get(offset..end).ok_or(SnapshotError::Truncated)?;
                Ok(bytes.to_vec())
            }
        }
    }

    /// Stages every section's on-disk bytes in one forward pass over
    /// the file, ordered by offset rather than directory position. A
    /// no-op for the mmap source (the mapping already serves any order)
    /// and when called twice.
    pub fn preload(&mut self, entries: &[DirEntry]) -> Result<(), SnapshotError> {
        let SnapshotSource::Read { file, preloaded } = self else {
            return Ok(());
        };
        if !preloaded.is_empty() {
            return Ok(());
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entries[i].offset);
        let mut staged: Vec<Option<Vec<u8>>> = vec![None; entries.len()];
        for i in order {
            let entry = &entries[i];
            let len = usize::try_from(entry.enc_len).map_err(|_| SnapshotError::Truncated)?;
            file.seek(SeekFrom::Start(entry.offset))?;
            let mut buf = vec![0u8; len];
            file.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    SnapshotError::Truncated
                } else {
                    SnapshotError::Io(e)
                }
            })?;
            staged[i] = Some(buf);
        }
        *preloaded = staged;
        Ok(())
    }

    /// Materialises directory section `index` as a typed [`Section`].
    ///
    /// The entry's element size must match `T` (the caller walks the
    /// directory against the format's fixed section schema); `index` is
    /// the entry's directory position, keying the
    /// [`preload`](Self::preload) stage. Empty sections come back owned
    /// regardless of source.
    pub fn section<T: Pod>(
        &mut self,
        index: usize,
        entry: &DirEntry,
    ) -> Result<Section<T>, SnapshotError> {
        if entry.elem_size as usize != T::SIZE {
            return Err(SnapshotError::Malformed("section element size disagrees with schema"));
        }
        let raw_len = usize::try_from(entry.raw_len).map_err(|_| SnapshotError::Truncated)?;
        let enc_len = usize::try_from(entry.enc_len).map_err(|_| SnapshotError::Truncated)?;
        let count = raw_len / T::SIZE;
        if count == 0 && enc_len == 0 {
            return Ok(Section::new());
        }
        match entry.encoding {
            SectionEncoding::Raw => match self {
                SnapshotSource::Read { .. } => {
                    let bytes = self.staged_bytes(index, entry)?;
                    if crc32(&bytes) != entry.crc {
                        return Err(SnapshotError::ChecksumMismatch("section"));
                    }
                    Ok(Section::Owned(bytes.chunks_exact(T::SIZE).map(T::from_le).collect()))
                }
                SnapshotSource::Mmap { map, verify } => {
                    if *verify {
                        let bytes = Self::mapped_bytes(map, entry)?;
                        if crc32(bytes) != entry.crc {
                            return Err(SnapshotError::ChecksumMismatch("section"));
                        }
                    }
                    let view = MmapSection::<T>::new(Arc::clone(map), entry.offset, count)?;
                    Ok(Section::shared(Arc::new(view)))
                }
            },
            encoding => {
                // Encoded sections are fully read in every mode, so the
                // CRC is always verified before decoding.
                match self {
                    SnapshotSource::Read { .. } => {
                        let bytes = self.staged_bytes(index, entry)?;
                        if crc32(&bytes) != entry.crc {
                            return Err(SnapshotError::ChecksumMismatch("section"));
                        }
                        Ok(Section::Owned(decode_section::<T>(&bytes, count, encoding)?))
                    }
                    SnapshotSource::Mmap { map, .. } => {
                        let bytes = Self::mapped_bytes(map, entry)?;
                        if crc32(bytes) != entry.crc {
                            return Err(SnapshotError::ChecksumMismatch("section"));
                        }
                        Ok(Section::Owned(decode_section::<T>(bytes, count, encoding)?))
                    }
                }
            }
        }
    }

    /// The on-disk bytes of one section from the read source: the
    /// preloaded stage when present, a positioned read otherwise.
    fn staged_bytes(&mut self, index: usize, entry: &DirEntry) -> Result<Vec<u8>, SnapshotError> {
        if let SnapshotSource::Read { preloaded, .. } = self {
            if let Some(slot) = preloaded.get_mut(index) {
                if let Some(bytes) = slot.take() {
                    return Ok(bytes);
                }
            }
        }
        let len = usize::try_from(entry.enc_len).map_err(|_| SnapshotError::Truncated)?;
        self.bytes(entry.offset, len)
    }

    /// The on-disk byte range of one section inside the mapping.
    fn mapped_bytes<'m>(map: &'m Arc<Mmap>, entry: &DirEntry) -> Result<&'m [u8], SnapshotError> {
        let offset = usize::try_from(entry.offset).map_err(|_| SnapshotError::Truncated)?;
        let len = usize::try_from(entry.enc_len).map_err(|_| SnapshotError::Truncated)?;
        let end = offset.checked_add(len).ok_or(SnapshotError::Truncated)?;
        map.as_bytes().get(offset..end).ok_or(SnapshotError::Truncated)
    }
}
