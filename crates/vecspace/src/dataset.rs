//! The [`PointSet`] abstraction shared by dense and binary data sets.

/// Identifier of a point inside a data set.
///
/// The whole pipeline (buckets, candidate sets, HyperLogLog elements)
/// works on indexes rather than point payloads; `u32` halves bucket
/// memory versus `usize` and comfortably covers the paper's largest data
/// set (CoverType, n = 581,012).
pub type PointId = u32;

/// A finite indexed collection of points of one type.
///
/// `Point` is an unsized borrow target (`[f32]` for dense data, `[u64]`
/// for packed binary data) so that both dataset layouts hand out
/// zero-copy views.
pub trait PointSet {
    /// Borrowed point type.
    type Point: ?Sized;

    /// Number of points.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows point `i`.
    ///
    /// # Panics
    /// Implementations panic if `i >= self.len()`.
    fn point(&self, i: usize) -> &Self::Point;

    /// The set's row-major dense `f32` storage `(flat, dim)`, if it has
    /// one. Point `i` must be `flat[i·dim .. (i+1)·dim]`.
    ///
    /// This is the dispatch hook for the vectorized one-to-many
    /// verification kernels ([`crate::kernels`]): metrics that know a
    /// dense kernel ask for the view and fall back to per-point
    /// [`Distance::distance`](crate::Distance::distance) calls when it
    /// is `None` (the default).
    fn dense_view(&self) -> Option<(&[f32], usize)> {
        None
    }

    /// The contiguous dense storage of points `start .. start + len`,
    /// if the set has a dense view — the input shape of the
    /// point-blocked hashing kernel ([`crate::kernels::matmat`]): index
    /// construction hashes one such block per kernel call instead of
    /// one point at a time.
    ///
    /// # Panics
    /// Panics if `start + len` exceeds the set's length (via the slice
    /// bounds of the dense view).
    fn dense_block(&self, start: usize, len: usize) -> Option<&[f32]> {
        self.dense_view().map(|(flat, dim)| &flat[start * dim..(start + len) * dim])
    }

    /// The set's row-major packed binary storage `(words,
    /// words_per_row)`, if it has one. Point `i` must be
    /// `words[i·wpr .. (i+1)·wpr]` with `wpr > 0`.
    ///
    /// The binary counterpart of [`dense_view`](Self::dense_view):
    /// [`Hamming`](crate::Hamming) asks for it to run the popcount scan
    /// and verification kernels ([`crate::kernels::hamming_scan`]) and
    /// falls back to per-point `distance()` calls when it is `None`
    /// (the default).
    fn binary_view(&self) -> Option<(&[u64], usize)> {
        None
    }
}

impl<T: PointSet + ?Sized> PointSet for &T {
    type Point = T::Point;

    fn len(&self) -> usize {
        (**self).len()
    }

    fn point(&self, i: usize) -> &Self::Point {
        (**self).point(i)
    }

    fn dense_view(&self) -> Option<(&[f32], usize)> {
        (**self).dense_view()
    }

    fn binary_view(&self) -> Option<(&[u64], usize)> {
        (**self).binary_view()
    }
}

// `Arc<S>` as a point set lets several indexes share one immutable copy
// of the data — the layout of the top-k index family, where every
// radius level owns its own tables but all levels verify candidates
// against the same points.
impl<T: PointSet + ?Sized> PointSet for std::sync::Arc<T> {
    type Point = T::Point;

    fn len(&self) -> usize {
        (**self).len()
    }

    fn point(&self, i: usize) -> &Self::Point {
        (**self).point(i)
    }

    fn dense_view(&self) -> Option<(&[f32], usize)> {
        (**self).dense_view()
    }

    fn binary_view(&self) -> Option<(&[u64], usize)> {
        (**self).binary_view()
    }
}

/// A point set that accepts appended points (streaming ingestion).
///
/// Implemented by [`crate::DenseDataset`] and [`crate::BinaryDataset`];
/// enables the core index's `insert` to grow the index
/// online (HyperLogLog sketches are insert-friendly; deletion is *not*
/// supported because a sketch cannot retract an element).
pub trait GrowablePointSet: PointSet {
    /// Appends one point, which becomes index `len() - 1`.
    ///
    /// # Panics
    /// Implementations panic on shape mismatch (wrong dimensionality /
    /// bit width).
    fn push_point(&mut self, p: &Self::Point);
}

/// A point set that can extract an owned copy of a subset of its rows.
///
/// This is the sharding hook: a sharded index partitions global point
/// ids across shards and materialises each shard's rows contiguously,
/// so every shard keeps a dense view (and with it the one-to-many
/// verification and block-hashing kernels). Implemented by
/// [`crate::DenseDataset`] and [`crate::BinaryDataset`].
pub trait SubsetPointSet: PointSet + Sized {
    /// Returns a new set holding exactly the rows `ids`, in the given
    /// order: row `i` of the result is a copy of row `ids[i]` of
    /// `self`.
    ///
    /// # Panics
    /// Implementations panic if any id is out of bounds.
    fn subset(&self, ids: &[PointId]) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Three;
    impl PointSet for Three {
        type Point = str;
        fn len(&self) -> usize {
            3
        }
        fn point(&self, i: usize) -> &str {
            ["a", "b", "c"][i]
        }
    }

    #[test]
    fn default_is_empty() {
        assert!(!Three.is_empty());
        assert_eq!(Three.point(1), "b");
    }

    #[test]
    fn reference_and_arc_delegate() {
        let by_ref: &Three = &Three;
        assert_eq!(by_ref.len(), 3);
        assert_eq!(by_ref.point(2), "c");
        assert!(by_ref.dense_view().is_none());
        assert!(by_ref.binary_view().is_none());
        let shared = std::sync::Arc::new(Three);
        assert_eq!(shared.len(), 3);
        assert_eq!(shared.point(0), "a");
        assert!(shared.dense_view().is_none());
        assert!(shared.binary_view().is_none());
    }
}
