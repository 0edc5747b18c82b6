//! Hand-rolled read-only memory mapping — the one `unsafe` module in
//! the workspace.
//!
//! The container this engine ships in has no network access, so the
//! usual mmap crates are out; the two raw syscalls are declared here
//! directly. The module's job is to confine every unsafe obligation to
//! one screen of code:
//!
//! * the mapping is `PROT_READ`/`MAP_PRIVATE`, so no alias can write
//!   through it and sharing `&[T]` views across threads is sound;
//! * [`MmapSection`] only hands out element types from the sealed
//!   [`Pod`] set (`u8`/`u32`/`u64`/`f32`), all of
//!   which are valid for every bit pattern;
//! * alignment is checked at construction against the page-aligned
//!   section offsets the snapshot format guarantees;
//! * the byte→element reinterpretation is only compiled on
//!   little-endian hosts — on big-endian targets [`Mmap::map`] refuses
//!   and the loader falls back to the buffered read path.
#![allow(unsafe_code)]

use std::fs::File;
use std::marker::PhantomData;
use std::sync::Arc;

use hlsh_vec::SliceBacking;

use super::source::Pod;
use super::SnapshotError;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    /// `madvise` advice values — identical on Linux and macOS.
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_WILLNEED: c_int = 3;
    /// `sysconf` name for the page size; the value differs per OS, so
    /// it is only defined where we know it.
    #[cfg(target_os = "linux")]
    pub const SC_PAGESIZE: c_int = 30;
    #[cfg(target_os = "macos")]
    pub const SC_PAGESIZE: c_int = 29;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        pub fn sysconf(name: c_int) -> c_long;
    }
}

/// Whether [`Mmap::map`] can succeed on this host (64-bit unix,
/// little-endian). `LoadMode::Auto` falls back to the buffered read
/// path when it cannot.
pub fn mmap_supported() -> bool {
    cfg!(all(unix, target_pointer_width = "64", target_endian = "little"))
}

/// The runtime page size in bytes, from `sysconf(_SC_PAGESIZE)`, cached
/// after the first call. Falls back to 4096 when the host does not
/// expose it (or reports something implausible — the snapshot format's
/// alignment floor is 4096, so smaller values are rounded up to it).
pub fn page_size() -> u64 {
    static CACHED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        #[cfg(all(
            unix,
            target_pointer_width = "64",
            any(target_os = "linux", target_os = "macos")
        ))]
        {
            // SAFETY: sysconf is a pure query; a negative or zero
            // return means "unknown" and falls through to the default.
            let v = unsafe { sys::sysconf(sys::SC_PAGESIZE) };
            if v >= 4096 && (v as u64).is_power_of_two() {
                return v as u64;
            }
        }
        4096
    })
}

/// A whole snapshot file mapped read-only. Dropping the mapping
/// unmaps it; [`MmapSection`]s keep it alive through an [`Arc`], so a
/// loaded index can outlive the loader.
#[derive(Debug)]
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ, private) for its whole
// lifetime, so shared references into it are sound from any thread.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `len` bytes of `file` read-only from offset 0.
    ///
    /// Fails with [`SnapshotError::MmapUnavailable`] on platforms the
    /// wrapper does not cover (non-unix, 32-bit, or big-endian hosts —
    /// the zero-copy views reinterpret little-endian file bytes
    /// in place); callers fall back to the buffered read path.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map(file: &File, len: u64) -> Result<Self, SnapshotError> {
        use std::os::unix::io::AsRawFd;

        if cfg!(target_endian = "big") {
            return Err(SnapshotError::MmapUnavailable("big-endian host"));
        }
        if len == 0 {
            return Err(SnapshotError::Truncated);
        }
        let len =
            usize::try_from(len).map_err(|_| SnapshotError::MmapUnavailable("file too large"))?;
        // SAFETY: a fresh read-only private mapping of a file we hold
        // open; the kernel picks the address. Failure is reported via
        // MAP_FAILED, checked below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(SnapshotError::Io(std::io::Error::last_os_error()));
        }
        Ok(Self { ptr: ptr as *const u8, len })
    }

    /// Unsupported-platform stub; the loader reports a typed error and
    /// the caller can retry with the buffered read path.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn map(_file: &File, _len: u64) -> Result<Self, SnapshotError> {
        Err(SnapshotError::MmapUnavailable("mmap wrapper requires a 64-bit unix host"))
    }

    /// Advises the kernel to read the whole mapping ahead
    /// (`MADV_SEQUENTIAL` then `MADV_WILLNEED`), turning demand-paged
    /// faults into sequential readahead. Best-effort: advice is a hint
    /// and failures are ignored — the mapping stays correct either way.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn advise_prefetch(&self) {
        // SAFETY: ptr/len describe a live mapping owned by self;
        // madvise does not invalidate it, and errors are advisory.
        unsafe {
            let addr = self.ptr as *mut std::os::raw::c_void;
            sys::madvise(addr, self.len, sys::MADV_SEQUENTIAL);
            sys::madvise(addr, self.len, sys::MADV_WILLNEED);
        }
    }

    /// No-op stub on hosts without the mmap wrapper.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn advise_prefetch(&self) {}

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; the bytes are plain initialised memory for as long as
        // the mapping lives.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        // SAFETY: exactly the range returned by mmap, unmapped once.
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

/// One typed section view into a shared mapping: the zero-copy backing
/// a [`Section`](hlsh_vec::Section) borrows its elements from.
#[derive(Debug)]
pub struct MmapSection<T> {
    map: Arc<Mmap>,
    /// Byte offset of the first element (validated aligned for `T`).
    offset: usize,
    /// Element count.
    len: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Pod> MmapSection<T> {
    /// A view of `len` elements of `T` at byte `offset` of `map`.
    ///
    /// Rejects out-of-range and misaligned views with typed errors —
    /// after this check, [`slice`](SliceBacking::slice) is infallible.
    pub fn new(map: Arc<Mmap>, offset: u64, len: usize) -> Result<Self, SnapshotError> {
        let offset = usize::try_from(offset).map_err(|_| SnapshotError::Truncated)?;
        let byte_len = len.checked_mul(std::mem::size_of::<T>()).ok_or(SnapshotError::Truncated)?;
        let end = offset.checked_add(byte_len).ok_or(SnapshotError::Truncated)?;
        if end > map.as_bytes().len() {
            return Err(SnapshotError::Truncated);
        }
        if !(map.as_bytes().as_ptr() as usize + offset).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(SnapshotError::Malformed("section not aligned for its element type"));
        }
        Ok(Self { map, offset, len, _elem: PhantomData })
    }
}

impl<T: Pod> SliceBacking<T> for MmapSection<T> {
    fn slice(&self) -> &[T] {
        let bytes =
            &self.map.as_bytes()[self.offset..self.offset + self.len * std::mem::size_of::<T>()];
        // SAFETY: range and alignment were validated in `new`; `T` is
        // one of the sealed Pod primitives, valid for every bit
        // pattern; the mapping is immutable and outlives the borrow
        // via the Arc. Only compiled little-endian (see `Mmap::map`),
        // so the in-file LE layout is the in-memory layout.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    fn maps_a_file_and_reads_typed_views() {
        let dir = std::env::temp_dir().join("hlsh-snapshot-mmap-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("map-{}.bin", std::process::id()));
        let mut payload = vec![0u8; 4096 + 16];
        payload[4096..4104].copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        payload[4104..4108].copy_from_slice(&1.5f32.to_le_bytes());
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(&payload))
            .expect("write fixture");

        let file = File::open(&path).expect("open fixture");
        let map = Arc::new(Mmap::map(&file, payload.len() as u64).expect("map fixture"));
        assert_eq!(map.as_bytes().len(), payload.len());

        let words = MmapSection::<u64>::new(Arc::clone(&map), 4096, 1).expect("u64 view");
        assert_eq!(words.slice(), &[0x0102_0304_0506_0708]);
        let floats = MmapSection::<f32>::new(Arc::clone(&map), 4104, 1).expect("f32 view");
        assert_eq!(floats.slice(), &[1.5]);

        // Out-of-range and misaligned views are typed errors.
        assert!(MmapSection::<u64>::new(Arc::clone(&map), 4096, 1000).is_err());
        assert!(MmapSection::<u64>::new(Arc::clone(&map), 4097, 1).is_err());

        // Prefetch advice is best-effort and must not disturb the data.
        map.advise_prefetch();
        assert_eq!(words.slice(), &[0x0102_0304_0506_0708]);

        drop((words, floats, map));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_size_is_sane_and_cached() {
        let ps = page_size();
        assert!(ps >= 4096, "page size {ps} below the format floor");
        assert!(ps.is_power_of_two());
        assert_eq!(page_size(), ps);
    }
}
