//! One LSH hash table: a shared g-function plus a pluggable bucket
//! store.

use std::sync::Arc;

use hlsh_families::GFunction;
use hlsh_hll::HllConfig;
use hlsh_vec::PointId;

use crate::bucket::BucketRef;
use crate::store::{BucketStore, FrozenStore, MapStore};

/// A single hash table `T_j` with hash function `g_j`, generic over its
/// storage backend `B` ([`MapStore`] while building/streaming,
/// [`FrozenStore`] after [`freeze`](Self::freeze)).
/// The g-function is a shared handle: table `j` of every part of one
/// rung (shard, memtable, segment) holds the same `Arc`.
#[derive(Clone, Debug)]
pub struct HashTable<G, B = MapStore> {
    g: Arc<G>,
    store: B,
}

impl<G, B: BucketStore> HashTable<G, B> {
    /// Creates an empty table around a sampled g-function.
    pub fn new(g: Arc<G>) -> Self {
        Self { g, store: B::new() }
    }

    /// Assembles a table from a g-function and an already-built store —
    /// the blocked build pipeline's terminal step, which builds stores
    /// for all `L` tables in parallel and zips them back together.
    pub fn from_parts(g: Arc<G>, store: B) -> Self {
        Self { g, store }
    }

    /// The table's g-function, as the handle every table of the rung
    /// shares (method calls and `&G` arguments deref through it).
    pub fn g(&self) -> &Arc<G> {
        &self.g
    }

    /// The storage backend.
    pub fn store(&self) -> &B {
        &self.store
    }

    /// Number of non-empty buckets.
    pub fn bucket_count(&self) -> usize {
        self.store.bucket_count()
    }

    /// Iterates over all buckets (order is backend-defined).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, BucketRef<'_>)> + '_ {
        self.store.iter()
    }

    /// Looks up the bucket for a raw key (used by multi-probe and
    /// covering LSH, which address perturbed keys directly).
    pub fn bucket_for_key(&self, key: u64) -> Option<BucketRef<'_>> {
        self.store.get(key)
    }

    /// Total heap bytes of all buckets.
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }

    /// Inserts a point (Algorithm 1 lines 3–4: insert into bucket
    /// `g_i(x)` and update that bucket's HLL).
    ///
    /// # Panics
    /// Panics on an immutable backend ([`FrozenStore`]).
    pub fn insert<P: ?Sized>(
        &mut self,
        id: PointId,
        point: &P,
        config: HllConfig,
        lazy_threshold: usize,
    ) where
        G: GFunction<P>,
    {
        let key = self.g.bucket_key(point);
        self.store.insert(key, id, config, lazy_threshold);
    }

    /// Looks up the bucket matching a query point.
    pub fn bucket<P: ?Sized>(&self, q: &P) -> Option<BucketRef<'_>>
    where
        G: GFunction<P>,
    {
        self.store.get(self.g.bucket_key(q))
    }
}

impl<G> HashTable<G, MapStore> {
    /// Converts to the read-optimised frozen backend. Lookups keep
    /// returning byte-identical buckets; inserts panic.
    pub fn freeze(self) -> HashTable<G, FrozenStore> {
        HashTable { g: self.g, store: self.store.freeze() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsh_families::sampling::rng_stream;
    use hlsh_families::{BitSampling, LshFamily};
    use hlsh_vec::BinaryVec;

    fn cfg() -> HllConfig {
        HllConfig::new(7, 5)
    }

    #[test]
    fn insert_and_lookup() {
        let family = BitSampling::new(64);
        let g = family.sample(8, &mut rng_stream(3, 0));
        let mut t: HashTable<_> = HashTable::new(Arc::new(g));
        let a = BinaryVec::from_u64(0xFFFF_0000_FFFF_0000);
        let b = BinaryVec::from_u64(0x0000_FFFF_0000_FFFF);
        t.insert(0, a.words(), cfg(), 128);
        t.insert(1, a.words(), cfg(), 128);
        t.insert(2, b.words(), cfg(), 128);

        let bucket_a = t.bucket(a.words()).expect("bucket for a");
        assert!(bucket_a.members().contains(&0));
        assert!(bucket_a.members().contains(&1));
        // a and b differ in every sampled coordinate, so almost surely
        // land in different buckets; at minimum, bucket counts are sane.
        assert!(t.bucket_count() >= 1 && t.bucket_count() <= 2);
    }

    #[test]
    fn missing_bucket_is_none() {
        let family = BitSampling::new(64);
        let g = family.sample(8, &mut rng_stream(4, 0));
        let t: HashTable<_> = HashTable::new(Arc::new(g));
        let q = BinaryVec::from_u64(42);
        assert!(t.bucket(q.words()).is_none());
        assert_eq!(t.bucket_count(), 0);
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn bucket_for_key_matches_bucket() {
        let family = BitSampling::new(64);
        let g = family.sample(8, &mut rng_stream(5, 0));
        let mut t: HashTable<_> = HashTable::new(Arc::new(g));
        let p = BinaryVec::from_u64(12345);
        t.insert(7, p.words(), cfg(), 128);
        let key = t.g().bucket_key(p.words());
        assert_eq!(
            t.bucket_for_key(key).map(|b| b.members()),
            t.bucket(p.words()).map(|b| b.members())
        );
    }

    #[test]
    fn freeze_preserves_lookups() {
        let family = BitSampling::new(64);
        let g = family.sample(10, &mut rng_stream(6, 0));
        let mut t: HashTable<_> = HashTable::new(Arc::new(g));
        let points: Vec<BinaryVec> = (0..300u64)
            .map(|i| BinaryVec::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        for (id, p) in points.iter().enumerate() {
            t.insert(id as PointId, p.words(), cfg(), 16);
        }

        let frozen = t.clone().freeze();
        assert_eq!(frozen.bucket_count(), t.bucket_count());
        for p in &points {
            let a = t.bucket(p.words()).expect("map bucket");
            let b = frozen.bucket(p.words()).expect("frozen bucket");
            assert_eq!(a.members(), b.members());
            assert_eq!(a.has_sketch(), b.has_sketch());
        }
    }
}
