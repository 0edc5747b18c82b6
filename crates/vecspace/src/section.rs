//! Copy-on-write storage backing for flat arrays.
//!
//! A [`Section<T>`] is a flat array that is either *owned* (a plain
//! `Vec<T>`, the result of building in memory or of a buffered snapshot
//! read) or *shared* (a view into memory owned elsewhere — in practice
//! a page of a memory-mapped snapshot file held behind an `Arc`).
//! Read paths see `&[T]` through [`Deref`] either way,
//! so the query engine never branches on the backing; write paths call
//! [`to_mut`](Section::to_mut), which clones a shared backing into an
//! owned vector first (classic copy-on-write).
//!
//! The shared arm is deliberately a trait object rather than a concrete
//! mmap type: this crate stays `unsafe`-free, and the one `unsafe`
//! implementation of [`SliceBacking`] (the `mmap` region of
//! `hlsh-core`'s snapshot loader) lives next to the code that
//! guarantees its invariants.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Memory that can lend out a typed flat slice for as long as it lives.
///
/// Implementations must return the *same* slice on every call (the
/// backing is immutable); `Send + Sync` is required because sections
/// are shared across the scoped-thread batch engines.
pub trait SliceBacking<T>: Send + Sync {
    /// The backed slice.
    fn slice(&self) -> &[T];
}

impl<T: Send + Sync> SliceBacking<T> for Vec<T> {
    fn slice(&self) -> &[T] {
        self
    }
}

/// A flat array with a copy-on-write backing: owned (`Vec<T>`) or
/// shared (a borrowed view into an `Arc`-owned region, e.g. one section
/// of a memory-mapped snapshot).
pub enum Section<T> {
    /// Heap-owned storage.
    Owned(Vec<T>),
    /// Storage owned elsewhere, alive as long as the `Arc` is.
    Shared(Arc<dyn SliceBacking<T>>),
}

impl<T> Section<T> {
    /// An empty owned section.
    pub fn new() -> Self {
        Section::Owned(Vec::new())
    }

    /// Wraps a shared backing.
    pub fn shared(backing: Arc<dyn SliceBacking<T>>) -> Self {
        Section::Shared(backing)
    }

    /// The backed slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Section::Owned(v) => v,
            Section::Shared(b) => b.slice(),
        }
    }

    /// Whether the section borrows a shared backing (e.g. an mmap)
    /// rather than owning its elements.
    pub fn is_shared(&self) -> bool {
        matches!(self, Section::Shared(_))
    }

    /// Heap elements this section owns: the vector capacity for owned
    /// sections, 0 for shared ones (their bytes live in the backing —
    /// for a memory-mapped snapshot, in the page cache, not the heap).
    pub fn heap_capacity(&self) -> usize {
        match self {
            Section::Owned(v) => v.capacity(),
            Section::Shared(_) => 0,
        }
    }

    /// Mutable access to the elements, converting a shared backing into
    /// an owned vector first (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T>
    where
        T: Clone,
    {
        if let Section::Shared(b) = self {
            *self = Section::Owned(b.slice().to_vec());
        }
        match self {
            Section::Owned(v) => v,
            Section::Shared(_) => unreachable!("shared backing was just copied out"),
        }
    }

    /// Consumes the section into an owned vector, copying a shared
    /// backing out.
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        match self {
            Section::Owned(v) => v,
            Section::Shared(b) => b.slice().to_vec(),
        }
    }
}

impl<T> Deref for Section<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Default for Section<T> {
    fn default() -> Self {
        Section::new()
    }
}

impl<T> From<Vec<T>> for Section<T> {
    fn from(v: Vec<T>) -> Self {
        Section::Owned(v)
    }
}

impl<T: Clone> Clone for Section<T> {
    fn clone(&self) -> Self {
        match self {
            Section::Owned(v) => Section::Owned(v.clone()),
            // Cloning a shared section clones the handle, not the
            // bytes: both clones keep reading the same backing.
            Section::Shared(b) => Section::Shared(Arc::clone(b)),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.is_shared() { "Shared" } else { "Owned" };
        f.debug_tuple(tag).field(&self.as_slice()).finish()
    }
}

/// Equality is by contents, never by backing: an mmap-loaded section
/// equals the owned section it was written from. Two views of one
/// shared backing compare equal without a scan.
impl<T: PartialEq> PartialEq for Section<T> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.as_slice(), other.as_slice()) || self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for Section<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_round_trip_and_equality() {
        let a: Section<u32> = vec![1, 2, 3].into();
        let b = Section::Owned(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert!(!a.is_shared());
        assert!(a.heap_capacity() >= 3);
    }

    #[test]
    fn shared_backing_is_cow() {
        let backing: Arc<dyn SliceBacking<u32>> = Arc::new(vec![5u32, 6, 7]);
        let mut s = Section::shared(Arc::clone(&backing));
        assert!(s.is_shared());
        assert_eq!(s.heap_capacity(), 0);
        assert_eq!(&s[..], &[5, 6, 7]);
        // Contents-equality across backings.
        assert_eq!(s, Section::Owned(vec![5, 6, 7]));

        // Clone shares the handle; mutation copies out.
        let t = s.clone();
        s.to_mut().push(8);
        assert!(!s.is_shared());
        assert_eq!(&s[..], &[5, 6, 7, 8]);
        assert!(t.is_shared());
        assert_eq!(&t[..], &[5, 6, 7]);
    }

    #[test]
    fn default_is_empty_owned() {
        let s: Section<u8> = Section::default();
        assert!(s.is_empty());
        assert!(!s.is_shared());
        assert_eq!(s.into_vec(), Vec::<u8>::new());
    }
}
