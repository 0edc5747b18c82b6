//! Packed binary vectors for Hamming space.
//!
//! The MNIST experiment in the paper first compresses each image into a
//! 64-bit SimHash fingerprint and then searches in Hamming space with bit
//! sampling. [`BinaryVec`] stores an arbitrary number of bits packed into
//! `u64` words; [`BinaryDataset`] is the row-major collection.

use crate::dataset::PointSet;

/// A fixed-width bit vector packed into `u64` words (little-endian bit
/// order: bit `i` lives in word `i / 64`, position `i % 64`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BinaryVec {
    bits: usize,
    words: Vec<u64>,
}

impl BinaryVec {
    /// An all-zero vector of `bits` bits.
    ///
    /// # Panics
    /// Panics if `bits == 0`.
    pub fn zeros(bits: usize) -> Self {
        assert!(bits > 0, "bit width must be positive");
        Self { bits, words: vec![0; bits.div_ceil(64)] }
    }

    /// Wraps a single `u64` as a 64-bit vector (SimHash fingerprints).
    pub fn from_u64(word: u64) -> Self {
        Self { bits: 64, words: vec![word] }
    }

    /// Builds from a boolean slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::zeros(bools.len().max(1));
        if bools.is_empty() {
            return Self { bits: 0, words: vec![] };
        }
        for (i, &b) in bools.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.bits()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.bits()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.bits, "bit index {i} out of range {}", self.bits);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`, returning the new value.
    pub fn flip(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Underlying packed words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Hamming distance between two packed word slices of equal length.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Hamming distance between two [`BinaryVec`]s.
///
/// # Panics
/// Panics if the bit widths differ.
#[inline]
pub fn hamming(a: &BinaryVec, b: &BinaryVec) -> u32 {
    assert_eq!(a.bits, b.bits, "bit width mismatch");
    hamming_words(&a.words, &b.words)
}

/// Jaccard distance `1 − |a ∩ b| / |a ∪ b|` over set-bit sets. Two empty
/// sets have distance `0`.
pub fn jaccard_distance(a: &BinaryVec, b: &BinaryVec) -> f64 {
    assert_eq!(a.bits, b.bits, "bit width mismatch");
    let mut inter = 0u64;
    let mut union = 0u64;
    for (x, y) in a.words.iter().zip(&b.words) {
        inter += (x & y).count_ones() as u64;
        union += (x | y).count_ones() as u64;
    }
    if union == 0 {
        0.0
    } else {
        1.0 - inter as f64 / union as f64
    }
}

/// A data set of equal-width binary vectors stored as one flat word
/// buffer, analogous to [`crate::DenseDataset`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BinaryDataset {
    bits: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BinaryDataset {
    /// Creates an empty data set of `bits`-wide vectors.
    ///
    /// # Panics
    /// Panics if `bits == 0`.
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0, "bit width must be positive");
        Self { bits, words_per_row: bits.div_ceil(64), data: Vec::new() }
    }

    /// Builds a 64-bit fingerprint data set from raw `u64`s.
    pub fn from_fingerprints(fps: &[u64]) -> Self {
        Self { bits: 64, words_per_row: 1, data: fps.to_vec() }
    }

    /// Appends one vector.
    ///
    /// # Panics
    /// Panics if the bit width differs.
    pub fn push(&mut self, v: &BinaryVec) {
        assert_eq!(v.bits(), self.bits, "bit width mismatch");
        self.data.extend_from_slice(v.words());
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.words_per_row).unwrap_or(0)
    }

    /// Whether the data set holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bit width of every vector.
    #[inline]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Borrow row `i` as packed words.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        let start = i * self.words_per_row;
        &self.data[start..start + self.words_per_row]
    }

    /// Iterator over all rows (packed words).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        self.data.chunks_exact(self.words_per_row.max(1))
    }

    /// Removes the rows with the given (sorted, unique) indexes and
    /// returns them as a new data set, preserving order.
    ///
    /// # Panics
    /// Panics if indexes are not strictly increasing or out of bounds.
    pub fn split_off_rows(&mut self, indexes: &[usize]) -> BinaryDataset {
        for w in indexes.windows(2) {
            assert!(w[0] < w[1], "indexes must be strictly increasing");
        }
        if let Some(&last) = indexes.last() {
            assert!(last < self.len(), "index {last} out of bounds");
        }
        let wpr = self.words_per_row;
        let mut removed = BinaryDataset::new(self.bits);
        let mut kept = Vec::with_capacity(self.data.len() - indexes.len() * wpr);
        let mut next = indexes.iter().copied().peekable();
        for (i, row) in self.data.chunks_exact(wpr).enumerate() {
            if next.peek() == Some(&i) {
                removed.data.extend_from_slice(row);
                next.next();
            } else {
                kept.extend_from_slice(row);
            }
        }
        self.data = kept;
        removed
    }
}

impl crate::dataset::GrowablePointSet for BinaryDataset {
    /// Appends packed words directly (the word count must match the
    /// data set's row width).
    #[inline]
    fn push_point(&mut self, p: &[u64]) {
        assert_eq!(p.len(), self.words_per_row, "word-count mismatch");
        self.data.extend_from_slice(p);
    }
}

impl crate::dataset::SubsetPointSet for BinaryDataset {
    fn subset(&self, ids: &[crate::dataset::PointId]) -> Self {
        let wpr = self.words_per_row;
        let mut data = Vec::with_capacity(ids.len() * wpr);
        for &id in ids {
            data.extend_from_slice(self.row(id as usize));
        }
        Self { bits: self.bits, words_per_row: wpr, data }
    }
}

impl PointSet for BinaryDataset {
    type Point = [u64];

    #[inline]
    fn len(&self) -> usize {
        BinaryDataset::len(self)
    }

    #[inline]
    fn point(&self, i: usize) -> &[u64] {
        self.row(i)
    }

    /// `None` only for the zero-width `Default` set, which holds no rows.
    fn binary_view(&self) -> Option<(&[u64], usize)> {
        (self.words_per_row > 0).then_some((&self.data, self.words_per_row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_get_set_flip() {
        let mut v = BinaryVec::zeros(100);
        assert_eq!(v.bits(), 100);
        assert!(!v.get(63));
        v.set(63, true);
        v.set(64, true);
        assert!(v.get(63));
        assert!(v.get(64));
        assert_eq!(v.count_ones(), 2);
        assert!(!v.flip(63));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BinaryVec::zeros(10);
        let _ = v.get(10);
    }

    #[test]
    fn from_u64_round_trip() {
        let v = BinaryVec::from_u64(0b1011);
        assert!(v.get(0) && v.get(1) && !v.get(2) && v.get(3));
        assert_eq!(v.words(), &[0b1011]);
    }

    #[test]
    fn from_bools_matches_get() {
        let bools = [true, false, true, true, false];
        let v = BinaryVec::from_bools(&bools);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(v.get(i), b);
        }
    }

    #[test]
    fn hamming_counts_differing_bits() {
        let a = BinaryVec::from_u64(0b1100);
        let b = BinaryVec::from_u64(0b1010);
        assert_eq!(hamming(&a, &b), 2);
        assert_eq!(hamming(&a, &a), 0);
    }

    #[test]
    fn hamming_multi_word() {
        let mut a = BinaryVec::zeros(130);
        let mut b = BinaryVec::zeros(130);
        a.set(0, true);
        a.set(64, true);
        a.set(129, true);
        b.set(129, true);
        assert_eq!(hamming(&a, &b), 2);
    }

    #[test]
    fn jaccard_basics() {
        let a = BinaryVec::from_u64(0b0111);
        let b = BinaryVec::from_u64(0b1110);
        // inter = 2 (bits 1,2), union = 4
        assert!((jaccard_distance(&a, &b) - 0.5).abs() < 1e-12);
        let z = BinaryVec::from_u64(0);
        assert_eq!(jaccard_distance(&z, &z), 0.0);
        assert_eq!(jaccard_distance(&a, &a), 0.0);
    }

    #[test]
    fn dataset_push_row_round_trip() {
        let mut ds = BinaryDataset::new(64);
        ds.push(&BinaryVec::from_u64(7));
        ds.push(&BinaryVec::from_u64(9));
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(0), &[7]);
        assert_eq!(ds.row(1), &[9]);
        assert_eq!(ds.rows().count(), 2);
    }

    #[test]
    fn dataset_from_fingerprints() {
        let ds = BinaryDataset::from_fingerprints(&[1, 2, 3]);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.bits(), 64);
        assert_eq!(ds.row(2), &[3]);
    }

    #[test]
    fn dataset_split_off_rows() {
        let mut ds = BinaryDataset::from_fingerprints(&[10, 11, 12, 13]);
        let removed = ds.split_off_rows(&[1, 3]);
        assert_eq!(removed.len(), 2);
        assert_eq!(removed.row(0), &[11]);
        assert_eq!(removed.row(1), &[13]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(0), &[10]);
        assert_eq!(ds.row(1), &[12]);
    }

    #[test]
    fn binary_view_exposes_the_slab_and_forwards() {
        let ds = BinaryDataset::from_fingerprints(&[4, 5, 6]);
        assert_eq!(ds.binary_view(), Some((&[4u64, 5, 6][..], 1)));
        let by_ref = &ds;
        assert_eq!(PointSet::binary_view(&by_ref), ds.binary_view());
        assert_eq!(std::sync::Arc::new(ds.clone()).binary_view(), ds.binary_view());
        assert!(BinaryDataset::default().binary_view().is_none());
    }

    #[test]
    fn hamming_words_zero_on_equal() {
        assert_eq!(hamming_words(&[u64::MAX, 0], &[u64::MAX, 0]), 0);
        assert_eq!(hamming_words(&[u64::MAX], &[0]), 64);
    }
}
