//! Candidate deduplication over a reusable id bitmap.
//!
//! The LSH arm of Algorithm 2 merges the `L` probed buckets into one
//! duplicate-free candidate list before verification — the `α` term of
//! Eq. 1, paid once per collision. Bucket members are dense point ids
//! in `0..n`, so membership fits one bit per id: [`SeenBitmap`] tests
//! and sets that bit with no hashing and no probing, and keeps the
//! candidates in first-collision order, exactly as the hash-set loop it
//! replaces did.
//!
//! The bitmap is all-zero between calls. A call zeroes only the words
//! of the ids it emitted (every set bit belongs to one of them), so a
//! query pays `O(collisions + candidates)`, never `O(n)`, however large
//! the id space.

use hlsh_vec::PointId;

use crate::hasher::FxHashSet;

/// The level query's reusable dedup scratch, one per engine. Every
/// source whose members are dense ids dedups on the bitmap; the
/// segmented sources, whose members are sparse global ids, dedup on the
/// hash set. Either fills the candidate list.
#[derive(Debug, Default)]
pub(crate) struct Dedup {
    pub(crate) bitmap: SeenBitmap,
    pub(crate) set: FxHashSet<PointId>,
    pub(crate) cands: Vec<PointId>,
}

/// A one-bit-per-id seen set, reused across queries (one per engine,
/// so one per thread).
#[derive(Clone, Debug, Default)]
pub(crate) struct SeenBitmap {
    words: Vec<u64>,
}

impl SeenBitmap {
    /// Appends to `out` every id of `lists` (walked in order) not met
    /// earlier in this call, in first-occurrence order, then resets the
    /// bitmap. Every id must be below `id_space`.
    ///
    /// The loop has no branch on the data: each id is written at the
    /// output cursor, which advances only when the id's bit was clear.
    /// `out` grows by one list's length at a time, so it never holds
    /// more than the candidates plus the largest list.
    ///
    /// # Panics
    /// Panics if an id is not below `id_space` rounded up to a multiple
    /// of 64.
    pub(crate) fn dedup_into<'a>(
        &mut self,
        id_space: usize,
        lists: impl IntoIterator<Item = &'a [PointId]>,
        out: &mut Vec<PointId>,
    ) {
        let need = id_space.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        let start = out.len();
        let mut k = start;
        for list in lists {
            out.resize(k + list.len(), 0);
            for &id in list {
                let word = &mut self.words[id as usize >> 6];
                let bit = 1u64 << (id & 63);
                let fresh = *word & bit == 0;
                *word |= bit;
                out[k] = id;
                k += usize::from(fresh);
            }
            out.truncate(k);
        }
        for &id in &out[start..] {
            self.words[id as usize >> 6] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_first_occurrence_order_and_resets() {
        let mut seen = SeenBitmap::default();
        let lists: [&[PointId]; 3] = [&[5, 3, 5, 130], &[3, 0, 64], &[130, 7, 0]];
        let mut out = vec![99];
        seen.dedup_into(200, lists, &mut out);
        assert_eq!(out, vec![99, 5, 3, 130, 0, 64, 7]);
        assert!(seen.words.iter().all(|&w| w == 0), "bitmap must be clean after a call");

        // Reused at a smaller id space: same answer, no stale bits.
        let mut again = Vec::new();
        seen.dedup_into(10, [&[7u32, 7, 1][..]], &mut again);
        assert_eq!(again, vec![7, 1]);
    }

    #[test]
    fn matches_a_hash_set_on_dense_collisions() {
        let lists: Vec<Vec<PointId>> =
            (0..20u32).map(|t| (0..300u32).map(|i| (i * 7 + t * 13) % 1000).collect()).collect();
        let mut expect = Vec::new();
        let mut set = std::collections::HashSet::new();
        for &id in lists.iter().flatten() {
            if set.insert(id) {
                expect.push(id);
            }
        }
        let mut seen = SeenBitmap::default();
        let mut out = Vec::new();
        seen.dedup_into(1000, lists.iter().map(Vec::as_slice), &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_input_emits_nothing() {
        let mut seen = SeenBitmap::default();
        let mut out = Vec::new();
        seen.dedup_into(0, std::iter::empty(), &mut out);
        assert!(out.is_empty());
    }
}
