//! A single hash-table bucket with its (lazily materialised)
//! HyperLogLog sketch.
//!
//! Algorithm 1 of the paper inserts each point into one bucket per
//! table and updates that bucket's HLL. §3.2 adds the space
//! optimisation implemented here: buckets smaller than the register
//! count `m` skip the sketch entirely — their members are hashed into
//! the query-time merge accumulator on demand, which yields the exact
//! same merged sketch for strictly less memory.

use hlsh_hll::{HllConfig, HyperLogLog, MergeAccumulator, SketchRef};
use hlsh_vec::PointId;

/// One bucket: the member list plus an optional sketch.
#[derive(Clone, Debug)]
pub struct Bucket {
    members: Vec<PointId>,
    sketch: Option<HyperLogLog>,
}

impl Bucket {
    /// Creates an empty bucket.
    pub fn new() -> Self {
        Self { members: Vec::new(), sketch: None }
    }

    /// Decomposes the bucket into its member list and optional sketch
    /// (used when freezing a hashmap store into the CSR arena).
    pub fn into_parts(self) -> (Vec<PointId>, Option<HyperLogLog>) {
        (self.members, self.sketch)
    }

    /// The materialised sketch, if any.
    #[inline]
    pub fn sketch(&self) -> Option<&HyperLogLog> {
        self.sketch.as_ref()
    }

    /// A borrowed view of this bucket, the common currency of every
    /// [`BucketStore`](crate::store::BucketStore) backend.
    #[inline]
    pub fn as_view(&self) -> BucketRef<'_> {
        BucketRef { members: &self.members, sketch: self.sketch.as_ref().map(HyperLogLog::view) }
    }

    /// Inserts a point, materialising the sketch once the bucket
    /// reaches `lazy_threshold` members (the paper suggests `m`).
    ///
    /// When the sketch exists it is updated incrementally, so an insert
    /// is `O(1)` either way.
    pub fn insert(&mut self, id: PointId, config: HllConfig, lazy_threshold: usize) {
        self.members.push(id);
        match &mut self.sketch {
            Some(s) => s.insert(id as u64),
            None => {
                if self.members.len() >= lazy_threshold {
                    let mut s = HyperLogLog::new(config);
                    for &m in &self.members {
                        s.insert(m as u64);
                    }
                    self.sketch = Some(s);
                }
            }
        }
    }

    /// Inserts a whole run of members at once (the bulk path of the
    /// blocked build pipeline). Equivalent to — and byte-identical in
    /// every observable to — inserting the ids one by one with
    /// [`insert`](Self::insert): HyperLogLog registers are element-wise
    /// maxima, so materialising the sketch after the extend sees the
    /// same element set as materialising it mid-stream.
    pub fn insert_run(&mut self, ids: &[PointId], config: HllConfig, lazy_threshold: usize) {
        self.members.extend_from_slice(ids);
        match &mut self.sketch {
            Some(s) => {
                for &id in ids {
                    s.insert(id as u64);
                }
            }
            None => {
                if self.members.len() >= lazy_threshold {
                    let mut s = HyperLogLog::new(config);
                    for &m in &self.members {
                        s.insert(m as u64);
                    }
                    self.sketch = Some(s);
                }
            }
        }
    }

    /// Number of members (bucket size, the `#collisions` contribution).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the bucket is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member point ids.
    #[inline]
    pub fn members(&self) -> &[PointId] {
        &self.members
    }

    /// Whether the sketch has been materialised.
    pub fn has_sketch(&self) -> bool {
        self.sketch.is_some()
    }

    /// Contributes this bucket to a query-time merge: register-wise max
    /// if the sketch exists, raw member hashing otherwise (paper §3.2).
    pub fn contribute_to(&self, acc: &mut MergeAccumulator) {
        match &self.sketch {
            Some(s) => acc.add_sketch(s),
            None => acc.add_raw(self.members.iter().map(|&m| m as u64)),
        }
    }

    /// Heap bytes used by this bucket (member list + sketch registers).
    pub fn memory_bytes(&self) -> usize {
        self.members.capacity() * std::mem::size_of::<PointId>()
            + self.sketch.as_ref().map_or(0, |s| s.memory_bytes())
    }
}

impl Default for Bucket {
    fn default() -> Self {
        Self::new()
    }
}

/// A borrowed view of one bucket: member slice plus optional sketch.
///
/// Both storage backends hand out this type — the hashmap store borrows
/// straight from a [`Bucket`], the frozen store from its register slab —
/// so every query path (single-probe, multi-probe, covering) is
/// backend-agnostic. The sketch is a [`SketchRef`] (config tag + raw
/// register slice), which lets the frozen backend serve sketches with
/// zero per-bucket heap objects.
#[derive(Clone, Copy, Debug)]
pub struct BucketRef<'a> {
    pub(crate) members: &'a [PointId],
    pub(crate) sketch: Option<SketchRef<'a>>,
}

impl<'a> BucketRef<'a> {
    /// Builds a view from raw parts (storage backends only).
    #[inline]
    pub fn from_parts(members: &'a [PointId], sketch: Option<SketchRef<'a>>) -> Self {
        Self { members, sketch }
    }

    /// Number of members (the `#collisions` contribution).
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the bucket is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member point ids.
    #[inline]
    pub fn members(&self) -> &'a [PointId] {
        self.members
    }

    /// The materialised sketch, if any, as a borrowed view.
    #[inline]
    pub fn sketch(&self) -> Option<SketchRef<'a>> {
        self.sketch
    }

    /// Whether the sketch has been materialised.
    #[inline]
    pub fn has_sketch(&self) -> bool {
        self.sketch.is_some()
    }

    /// Contributes this bucket to a query-time merge: register-wise max
    /// straight from the backing registers if the sketch exists, raw
    /// member hashing otherwise (paper §3.2).
    pub fn contribute_to(&self, acc: &mut MergeAccumulator) {
        match self.sketch {
            Some(s) => acc.add_sketch_ref(s),
            None => acc.add_raw(self.members.iter().map(|&m| m as u64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HllConfig {
        HllConfig::new(7, 123)
    }

    #[test]
    fn small_bucket_has_no_sketch() {
        let mut b = Bucket::new();
        for i in 0..100 {
            b.insert(i, cfg(), 128);
        }
        assert_eq!(b.len(), 100);
        assert!(!b.has_sketch());
    }

    #[test]
    fn sketch_materialises_at_threshold() {
        let mut b = Bucket::new();
        for i in 0..127 {
            b.insert(i, cfg(), 128);
        }
        assert!(!b.has_sketch());
        b.insert(127, cfg(), 128);
        assert!(b.has_sketch());
        // Further inserts keep it up to date.
        b.insert(128, cfg(), 128);
        assert_eq!(b.len(), 129);
    }

    #[test]
    fn lazy_and_eager_buckets_merge_identically() {
        // A bucket below threshold (raw path) and the same bucket above
        // threshold (sketch path) must contribute the same registers.
        let members: Vec<PointId> = (0..200).collect();

        let mut lazy = Bucket::new();
        for &m in &members {
            lazy.insert(m, cfg(), usize::MAX); // never materialise
        }
        let mut eager = Bucket::new();
        for &m in &members {
            eager.insert(m, cfg(), 1); // materialise immediately
        }
        assert!(!lazy.has_sketch());
        assert!(eager.has_sketch());

        let mut acc_lazy = MergeAccumulator::new(cfg());
        lazy.contribute_to(&mut acc_lazy);
        let mut acc_eager = MergeAccumulator::new(cfg());
        eager.contribute_to(&mut acc_eager);
        let (s_lazy, s_eager) = (acc_lazy.into_sketch(), acc_eager.into_sketch());
        assert_eq!(s_lazy.registers(), s_eager.registers());
    }

    #[test]
    fn threshold_one_materialises_on_first_insert() {
        let mut b = Bucket::new();
        b.insert(9, cfg(), 1);
        assert!(b.has_sketch());
        assert_eq!(b.members(), &[9]);
    }

    #[test]
    fn memory_accounting_includes_sketch() {
        let mut small = Bucket::new();
        small.insert(0, cfg(), usize::MAX);
        let mut big = Bucket::new();
        big.insert(0, cfg(), 1);
        assert!(big.memory_bytes() >= small.memory_bytes() + 128);
    }

    #[test]
    fn duplicate_ids_count_as_collisions_but_not_distinct() {
        // The same id inserted twice (cannot happen from Algorithm 1,
        // but the types allow it) grows len but not the sketch estimate.
        let mut b = Bucket::new();
        b.insert(5, cfg(), 1);
        b.insert(5, cfg(), 1);
        assert_eq!(b.len(), 2);
        let mut acc = MergeAccumulator::new(cfg());
        b.contribute_to(&mut acc);
        assert!((acc.estimate() - 1.0).abs() < 0.5);
    }
}
