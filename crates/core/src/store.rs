//! Pluggable bucket storage backends.
//!
//! A [`HashTable`](crate::table::HashTable) delegates all bucket
//! storage to a [`BucketStore`]. Two backends ship:
//!
//! * [`MapStore`] — the build-time and streaming backend: a
//!   `FxHashMap<u64, Bucket>` that accepts inserts in any order.
//! * [`FrozenStore`] — the read-optimised backend: a CSR-style arena
//!   (sorted key array, offset array, one contiguous member slab, one
//!   contiguous HLL register slab addressed through a presence bitmap)
//!   built by [`freeze`](crate::table::HashTable::freeze). A lookup is
//!   a binary search over a dense `u64` array plus slice borrows — no
//!   pointer chasing, no per-bucket allocation of any kind, and members
//!   of neighbouring buckets share cache lines during multi-probe
//!   sweeps.
//!
//! Both backends hand out [`BucketRef`] views, so every query path is
//! backend-agnostic.

use hlsh_hll::{HllConfig, SketchRef};
use hlsh_vec::{PointId, Section};

use crate::bucket::{Bucket, BucketRef};
use crate::hasher::FxHashMap;

/// Borrowed view of a [`FrozenStore`]'s seven flat arrays plus its
/// sketch config, in on-disk section order (keys, prefix, offsets,
/// members, presence bitmap, rank table, register slab).
pub(crate) type StoreSections<'a> = (
    &'a Section<u64>,
    &'a Section<u32>,
    &'a Section<u64>,
    &'a Section<PointId>,
    &'a Section<u64>,
    &'a Section<u32>,
    &'a Section<u8>,
    Option<HllConfig>,
);

/// Storage of a hash table's buckets, keyed by the 64-bit bucket key.
pub trait BucketStore {
    /// Creates an empty store.
    fn new() -> Self
    where
        Self: Sized;

    /// Inserts a point into the bucket for `key` (Algorithm 1 lines
    /// 3–4: append the member and update the bucket's lazy HLL).
    ///
    /// # Panics
    /// Immutable backends ([`FrozenStore`]) panic.
    fn insert(&mut self, key: u64, id: PointId, config: HllConfig, lazy_threshold: usize);

    /// Inserts a whole run of members into the bucket for `key` — the
    /// bulk entry point of the blocked build pipeline, which groups a
    /// table's `(key, id)` pairs by key before touching the store. The
    /// default loops [`insert`](Self::insert); [`MapStore`] overrides
    /// it with one entry lookup per run. Observables are byte-identical
    /// to the per-id loop either way.
    ///
    /// # Panics
    /// Immutable backends ([`FrozenStore`]) panic — they bulk-build
    /// through [`from_runs`](Self::from_runs) instead.
    fn insert_run(&mut self, key: u64, ids: &[PointId], config: HllConfig, lazy_threshold: usize) {
        for &id in ids {
            self.insert(key, id, config, lazy_threshold);
        }
    }

    /// Builds a whole store from key-grouped runs (the blocked build
    /// pipeline's terminal stage). The default creates an empty store
    /// and replays [`insert_run`](Self::insert_run); [`FrozenStore`]
    /// overrides it to lay out its CSR arena directly from the runs,
    /// skipping the intermediate hashmap entirely.
    ///
    /// The result is byte-identical to per-point inserts of the same
    /// `(key, id)` sequence (followed by a freeze, for the frozen
    /// backend).
    fn from_runs(runs: &crate::pipeline::KeyRuns, config: HllConfig, lazy_threshold: usize) -> Self
    where
        Self: Sized,
    {
        let mut store = Self::new();
        for (key, ids) in runs.iter() {
            store.insert_run(key, ids, config, lazy_threshold);
        }
        store
    }

    /// Looks up the bucket for a raw key.
    fn get(&self, key: u64) -> Option<BucketRef<'_>>;

    /// Number of non-empty buckets.
    fn bucket_count(&self) -> usize;

    /// Iterates over all `(key, bucket)` pairs. Iteration order is
    /// backend-defined (arbitrary for [`MapStore`], ascending key order
    /// for [`FrozenStore`]).
    fn iter(&self) -> Box<dyn Iterator<Item = (u64, BucketRef<'_>)> + '_>;

    /// Total heap bytes held by the store.
    fn memory_bytes(&self) -> usize;
}

/// The hashmap-backed build/streaming store.
#[derive(Clone, Debug, Default)]
pub struct MapStore {
    buckets: FxHashMap<u64, Bucket>,
}

impl BucketStore for MapStore {
    fn new() -> Self {
        Self::default()
    }

    fn insert(&mut self, key: u64, id: PointId, config: HllConfig, lazy_threshold: usize) {
        self.buckets.entry(key).or_default().insert(id, config, lazy_threshold);
    }

    fn insert_run(&mut self, key: u64, ids: &[PointId], config: HllConfig, lazy_threshold: usize) {
        self.buckets.entry(key).or_default().insert_run(ids, config, lazy_threshold);
    }

    /// Like the default replay, but the bucket table is reserved up
    /// front — the run count *is* the final bucket count, so no rehash
    /// ever happens mid-build.
    fn from_runs(
        runs: &crate::pipeline::KeyRuns,
        config: HllConfig,
        lazy_threshold: usize,
    ) -> Self {
        let mut store = Self::default();
        store.buckets.reserve(runs.len());
        for (key, ids) in runs.iter() {
            store.insert_run(key, ids, config, lazy_threshold);
        }
        store
    }

    fn get(&self, key: u64) -> Option<BucketRef<'_>> {
        self.buckets.get(&key).map(Bucket::as_view)
    }

    fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (u64, BucketRef<'_>)> + '_> {
        Box::new(self.buckets.iter().map(|(&k, b)| (k, b.as_view())))
    }

    fn memory_bytes(&self) -> usize {
        self.buckets.values().map(Bucket::memory_bytes).sum()
    }
}

impl MapStore {
    /// Converts into the read-optimised CSR arena. Member order within
    /// each bucket is preserved, so query outputs are byte-identical
    /// across backends; sketch registers are copied into one contiguous
    /// slab (byte-identical registers, zero per-bucket allocations).
    ///
    /// # Panics
    /// Panics if sketched buckets disagree on their [`HllConfig`]
    /// (cannot happen through a [`HashTable`](crate::table::HashTable),
    /// which threads one config through every insert).
    pub fn freeze(self) -> FrozenStore {
        let mut entries: Vec<(u64, Bucket)> = self.buckets.into_iter().collect();
        entries.sort_unstable_by_key(|(k, _)| *k);

        let total_members: usize = entries.iter().map(|(_, b)| b.len()).sum();
        let mut keys = Vec::with_capacity(entries.len());
        let mut offsets = Vec::with_capacity(entries.len() + 1);
        let mut members = Vec::with_capacity(total_members);
        let mut sketch_config: Option<HllConfig> = None;
        let mut sketch_bits = vec![0u64; entries.len().div_ceil(64)];
        let mut registers: Vec<u8> = Vec::new();
        offsets.push(0u64);
        for (i, (key, bucket)) in entries.into_iter().enumerate() {
            let (bucket_members, sketch) = bucket.into_parts();
            keys.push(key);
            members.extend_from_slice(&bucket_members);
            offsets.push(members.len() as u64);
            if let Some(s) = sketch {
                match sketch_config {
                    None => sketch_config = Some(s.config()),
                    Some(c) => {
                        assert_eq!(c, s.config(), "mixed HllConfigs in one store")
                    }
                }
                sketch_bits[i / 64] |= 1u64 << (i % 64);
                registers.extend_from_slice(s.registers());
            }
        }
        let prefix = prefix_table(&keys);
        let sketch_rank = rank_table(&sketch_bits);
        FrozenStore {
            keys: keys.into(),
            prefix: prefix.into(),
            offsets: offsets.into(),
            members: members.into(),
            sketch_config,
            sketch_bits: sketch_bits.into(),
            sketch_rank: sketch_rank.into(),
            registers: registers.into(),
        }
    }
}

/// The read-optimised frozen store: a CSR-style arena with zero
/// pointers per bucket.
///
/// Layout (for `B` buckets holding `M` members total, `P` of them
/// sketched with `m` registers each):
///
/// ```text
/// keys:         [u64; B]          sorted bucket keys
/// prefix:       [u32; 257]        key range per top byte (search accelerator)
/// offsets:      [u64; B + 1]      member-slab extents per bucket
/// members:      [PointId; M]      one contiguous slab
/// sketch_bits:  [u64; ⌈B/64⌉]     presence bitmap: bucket i sketched?
/// sketch_rank:  [u32; ⌈B/64⌉]     popcount prefix sums for O(1) rank
/// registers:    [u8; P·m]         one contiguous register slab
/// ```
///
/// Lookup = binary search on `keys` + two offset reads; a sketched
/// bucket's registers are the `rank(i)`-th `m`-byte row of the slab,
/// where `rank(i)` counts sketched buckets before `i` via the bitmap —
/// no `Option<HyperLogLog>` array, no per-bucket heap allocation of any
/// kind survives freezing. Because bucket keys are well-mixed hash
/// outputs, the top-byte prefix table narrows each search to ≈ `B/256`
/// keys (a handful of probes even for millions of buckets).
///
/// Equality compares the full arena contents — two stores are equal iff
/// they hold the same buckets with the same members and sketch
/// registers — which is exactly the byte-identity assertion the blocked
/// build pipeline's CI gate needs. (A [`Section`] compares by contents,
/// so an mmap-loaded store equals the owned store that wrote it.)
///
/// Every array is a [`Section`]: heap-owned after a build or a buffered
/// snapshot read, borrowed zero-copy from the mapping after an mmap
/// snapshot load. `offsets` is pinned to `u64` (not `usize`) because it
/// is persisted verbatim in the snapshot format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenStore {
    keys: Section<u64>,
    prefix: Section<u32>,
    offsets: Section<u64>,
    members: Section<PointId>,
    /// Config shared by every packed sketch; `None` iff no bucket is
    /// sketched (then `registers` is empty and the bitmap all-zero).
    sketch_config: Option<HllConfig>,
    sketch_bits: Section<u64>,
    sketch_rank: Section<u32>,
    registers: Section<u8>,
}

fn prefix_table(keys: &[u64]) -> Vec<u32> {
    let mut prefix = vec![0u32; 257];
    for &key in keys {
        prefix[(key >> 56) as usize + 1] += 1;
    }
    for p in 1..prefix.len() {
        prefix[p] += prefix[p - 1];
    }
    prefix
}

/// Per-word popcount prefix sums over the presence bitmap:
/// `rank[w] = popcount(bits[..w])`.
fn rank_table(bits: &[u64]) -> Vec<u32> {
    let mut rank = Vec::with_capacity(bits.len());
    let mut total = 0u32;
    for &word in bits {
        rank.push(total);
        total += word.count_ones();
    }
    rank
}

impl FrozenStore {
    /// Whether bucket `i` carries a packed sketch.
    #[inline]
    fn is_sketched(&self, i: usize) -> bool {
        (self.sketch_bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of sketched buckets before bucket `i` = this bucket's row
    /// in the register slab.
    #[inline]
    fn sketch_row(&self, i: usize) -> usize {
        let word = i / 64;
        let below = self.sketch_bits[word] & ((1u64 << (i % 64)) - 1);
        self.sketch_rank[word] as usize + below.count_ones() as usize
    }

    /// The borrowed sketch view for bucket `i`, straight out of the
    /// register slab.
    #[inline]
    fn sketch_at(&self, i: usize) -> Option<SketchRef<'_>> {
        if !self.is_sketched(i) {
            return None;
        }
        let config = self.sketch_config.expect("bitmap bit set without a sketch config");
        let m = config.registers();
        let row = self.sketch_row(i);
        Some(SketchRef::new(config, &self.registers[row * m..(row + 1) * m]))
    }

    fn bucket_at(&self, i: usize) -> BucketRef<'_> {
        BucketRef::from_parts(
            &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            self.sketch_at(i),
        )
    }

    /// Total members across all buckets (the slab length).
    pub fn member_slots(&self) -> usize {
        self.members.len()
    }

    /// Bytes of the packed register slab (= sketched buckets × register
    /// count; exposed for memory-accounting tests).
    pub fn sketch_slab_bytes(&self) -> usize {
        self.registers.len()
    }

    /// The seven flat arrays plus the sketch config, in on-disk section
    /// order — the snapshot writer's view of the arena.
    pub(crate) fn sections(&self) -> StoreSections<'_> {
        (
            &self.keys,
            &self.prefix,
            &self.offsets,
            &self.members,
            &self.sketch_bits,
            &self.sketch_rank,
            &self.registers,
            self.sketch_config,
        )
    }

    /// Reassembles an arena from its seven flat arrays (the snapshot
    /// loader's entry point), verifying every structural invariant the
    /// query paths rely on so no lookup can panic even if the arrays
    /// came from a corrupt file. The checks only touch the small
    /// metadata arrays (`prefix`, `offsets`, bitmap, rank) — the member
    /// and register slabs stay untouched, which is what keeps the mmap
    /// load path lazy.
    ///
    /// `sketch_config` is the config every packed sketch uses; it is
    /// dropped when no bucket is sketched (empty register slab), which
    /// restores the `None` ⟺ empty-slab invariant.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_sections(
        keys: Section<u64>,
        prefix: Section<u32>,
        offsets: Section<u64>,
        members: Section<PointId>,
        sketch_config: Option<HllConfig>,
        sketch_bits: Section<u64>,
        sketch_rank: Section<u32>,
        registers: Section<u8>,
    ) -> Result<Self, &'static str> {
        let nbuckets = keys.len();
        if prefix.len() != 257 {
            return Err("prefix table must have 257 entries");
        }
        if offsets.len() != nbuckets + 1 {
            return Err("offset array length must be bucket count + 1");
        }
        if offsets.first() != Some(&0) {
            return Err("offset array must start at 0");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset array must be non-decreasing");
        }
        if *offsets.last().expect("offsets verified non-empty") != members.len() as u64 {
            return Err("last offset must equal member slab length");
        }
        if prefix.first() != Some(&0) || prefix.windows(2).any(|w| w[0] > w[1]) {
            return Err("prefix table must be a non-decreasing prefix sum from 0");
        }
        if prefix.last() != Some(&(nbuckets as u32)) {
            return Err("prefix table must end at the bucket count");
        }
        let words = nbuckets.div_ceil(64);
        if sketch_bits.len() != words || sketch_rank.len() != words {
            return Err("presence bitmap and rank table must have one word per 64 buckets");
        }
        if sketch_rank.as_slice() != rank_table(&sketch_bits).as_slice() {
            return Err("rank table disagrees with presence bitmap");
        }
        if !nbuckets.is_multiple_of(64) {
            if let Some(&last) = sketch_bits.last() {
                if last >> (nbuckets % 64) != 0 {
                    return Err("presence bitmap has bits beyond the bucket count");
                }
            }
        }
        let sketched: u64 = sketch_bits.iter().map(|w| w.count_ones() as u64).sum();
        match sketch_config {
            Some(c) if sketched > 0 => {
                if registers.len() as u64 != sketched * c.registers() as u64 {
                    return Err("register slab length must be sketched buckets × register count");
                }
            }
            _ => {
                if sketched > 0 {
                    return Err("presence bitmap set without a sketch config");
                }
                if !registers.is_empty() {
                    return Err("register slab must be empty when no bucket is sketched");
                }
            }
        }
        Ok(Self {
            keys,
            prefix,
            offsets,
            members,
            sketch_config: if sketched > 0 { sketch_config } else { None },
            sketch_bits,
            sketch_rank,
            registers,
        })
    }
}

impl BucketStore for FrozenStore {
    fn new() -> Self {
        Self {
            keys: Section::new(),
            prefix: vec![0; 257].into(),
            offsets: vec![0].into(),
            members: Section::new(),
            sketch_config: None,
            sketch_bits: Section::new(),
            sketch_rank: Section::new(),
            registers: Section::new(),
        }
    }

    fn insert(&mut self, _key: u64, _id: PointId, _config: HllConfig, _lazy_threshold: usize) {
        panic!("FrozenStore is immutable; insert into a MapStore before freezing");
    }

    /// Lays the CSR arena out directly from the key-grouped runs — the
    /// blocked build pipeline's zero-hashmap path. Runs arrive in
    /// ascending key order with members in insertion order, which is
    /// exactly the layout [`MapStore::freeze`] produces, so the result
    /// is byte-identical to building a `MapStore` from the same
    /// `(key, id)` sequence and freezing it.
    fn from_runs(
        runs: &crate::pipeline::KeyRuns,
        config: HllConfig,
        lazy_threshold: usize,
    ) -> Self {
        let nbuckets = runs.len();
        let mut keys = Vec::with_capacity(nbuckets);
        let mut offsets = Vec::with_capacity(nbuckets + 1);
        let mut members = Vec::with_capacity(runs.total_members());
        let mut sketch_config: Option<HllConfig> = None;
        let mut sketch_bits = vec![0u64; nbuckets.div_ceil(64)];
        let mut registers: Vec<u8> = Vec::new();
        offsets.push(0u64);
        let mut scratch = hlsh_hll::HyperLogLog::new(config);
        for (i, (key, ids)) in runs.iter().enumerate() {
            debug_assert!(keys.last().is_none_or(|&k| k < key), "runs must ascend by key");
            keys.push(key);
            members.extend_from_slice(ids);
            offsets.push(members.len() as u64);
            if ids.len() >= lazy_threshold {
                if sketch_config.is_none() {
                    sketch_config = Some(config);
                }
                scratch.clear();
                for &id in ids {
                    scratch.insert(id as u64);
                }
                sketch_bits[i / 64] |= 1u64 << (i % 64);
                registers.extend_from_slice(scratch.registers());
            }
        }
        let prefix = prefix_table(&keys);
        let sketch_rank = rank_table(&sketch_bits);
        FrozenStore {
            keys: keys.into(),
            prefix: prefix.into(),
            offsets: offsets.into(),
            members: members.into(),
            sketch_config,
            sketch_bits: sketch_bits.into(),
            sketch_rank: sketch_rank.into(),
            registers: registers.into(),
        }
    }

    fn get(&self, key: u64) -> Option<BucketRef<'_>> {
        let p = (key >> 56) as usize;
        let (lo, hi) = (self.prefix[p] as usize, self.prefix[p + 1] as usize);
        self.keys[lo..hi].binary_search(&key).ok().map(|i| self.bucket_at(lo + i))
    }

    fn bucket_count(&self) -> usize {
        self.keys.len()
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (u64, BucketRef<'_>)> + '_> {
        Box::new(self.keys.iter().enumerate().map(|(i, &k)| (k, self.bucket_at(i))))
    }

    /// Exact heap bytes of the arena: the seven flat arrays, nothing
    /// else — there are no per-bucket allocations left to estimate.
    /// Mmap-backed sections report zero: their bytes live in the page
    /// cache, not this process's heap.
    fn memory_bytes(&self) -> usize {
        self.keys.heap_capacity() * std::mem::size_of::<u64>()
            + self.prefix.heap_capacity() * std::mem::size_of::<u32>()
            + self.offsets.heap_capacity() * std::mem::size_of::<u64>()
            + self.members.heap_capacity() * std::mem::size_of::<PointId>()
            + self.sketch_bits.heap_capacity() * std::mem::size_of::<u64>()
            + self.sketch_rank.heap_capacity() * std::mem::size_of::<u32>()
            + self.registers.heap_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HllConfig {
        HllConfig::new(7, 99)
    }

    fn populated_map() -> MapStore {
        let mut m = MapStore::new();
        // Three buckets, one crossing the lazy threshold.
        for id in 0..200u32 {
            m.insert(17, id, cfg(), 128);
        }
        for id in 200..205u32 {
            m.insert(3, id, cfg(), 128);
        }
        m.insert(u64::MAX, 999, cfg(), 128);
        m
    }

    #[test]
    fn map_and_frozen_agree_on_every_key() {
        let map = populated_map();
        let frozen = map.clone().freeze();
        assert_eq!(map.bucket_count(), frozen.bucket_count());
        for key in [3u64, 17, u64::MAX, 0, 12345] {
            match (map.get(key), frozen.get(key)) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.members(), b.members(), "members for key {key}");
                    assert_eq!(a.has_sketch(), b.has_sketch(), "sketch presence for key {key}");
                    if let (Some(sa), Some(sb)) = (a.sketch(), b.sketch()) {
                        assert_eq!(sa.registers(), sb.registers());
                    }
                }
                (None, None) => {}
                (a, b) => panic!("key {key}: map {:?} vs frozen {:?}", a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn frozen_iterates_in_key_order() {
        let frozen = populated_map().freeze();
        let keys: Vec<u64> = frozen.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![3, 17, u64::MAX]);
        assert_eq!(frozen.member_slots(), 206);
    }

    #[test]
    #[should_panic(expected = "immutable")]
    fn frozen_insert_panics() {
        let mut frozen = populated_map().freeze();
        frozen.insert(1, 1, cfg(), 128);
    }

    #[test]
    fn empty_stores_behave() {
        let map = MapStore::new();
        let frozen = MapStore::new().freeze();
        assert_eq!(map.bucket_count(), 0);
        assert_eq!(frozen.bucket_count(), 0);
        assert!(map.get(0).is_none());
        assert!(frozen.get(0).is_none());
        assert_eq!(frozen.iter().count(), 0);
    }

    #[test]
    fn frozen_lookup_has_no_allocation_per_hit() {
        // Structural check: the returned view borrows the slab.
        let frozen = populated_map().freeze();
        let a = frozen.get(17).unwrap();
        let b = frozen.get(17).unwrap();
        assert_eq!(a.members().as_ptr(), b.members().as_ptr());
    }

    #[test]
    fn memory_accounting_is_positive_and_comparable() {
        let map = populated_map();
        let frozen = map.clone().freeze();
        assert!(map.memory_bytes() > 0);
        assert!(frozen.memory_bytes() > 0);
        // The frozen arena must at least hold the member slab.
        assert!(frozen.memory_bytes() >= 206 * std::mem::size_of::<PointId>());
    }

    #[test]
    fn frozen_sketches_live_in_one_slab() {
        // One bucket (200 members) crosses the lazy threshold of 128,
        // the other two stay raw: the slab holds exactly one sketch's
        // registers and memory accounting is the closed-form sum of the
        // flat arrays — no per-bucket sketch heap objects remain.
        let frozen = populated_map().freeze();
        let m = cfg().registers();
        assert_eq!(frozen.sketch_slab_bytes(), m);
        let expected = frozen.keys.heap_capacity() * std::mem::size_of::<u64>()
            + frozen.prefix.heap_capacity() * std::mem::size_of::<u32>()
            + frozen.offsets.heap_capacity() * std::mem::size_of::<u64>()
            + frozen.members.heap_capacity() * std::mem::size_of::<PointId>()
            + frozen.sketch_bits.heap_capacity() * std::mem::size_of::<u64>()
            + frozen.sketch_rank.heap_capacity() * std::mem::size_of::<u32>()
            + frozen.registers.heap_capacity();
        assert_eq!(frozen.memory_bytes(), expected);

        // The sketched bucket's view borrows straight from the slab.
        let sketched = frozen.get(17).unwrap().sketch().expect("bucket 17 is sketched");
        assert_eq!(sketched.registers().as_ptr(), frozen.registers.as_ptr());
        assert!(frozen.get(3).unwrap().sketch().is_none());

        // Slab registers are byte-identical to the owned-sketch path.
        let map = populated_map();
        let owned = map.get(17).unwrap();
        assert_eq!(owned.sketch().unwrap().registers(), sketched.registers());
        assert_eq!(
            owned.sketch().unwrap().estimate().to_bits(),
            sketched.estimate().to_bits(),
            "estimates must be byte-identical, not merely close"
        );
    }

    #[test]
    fn from_sections_round_trips_and_rejects_malformed() {
        let frozen = populated_map().freeze();
        let (keys, prefix, offsets, members, bits, rank, regs, config) = {
            let (k, p, o, m, b, r, g, c) = frozen.sections();
            (k.clone(), p.clone(), o.clone(), m.clone(), b.clone(), r.clone(), g.clone(), c)
        };
        let rebuilt = FrozenStore::from_sections(
            keys.clone(),
            prefix.clone(),
            offsets.clone(),
            members.clone(),
            config,
            bits.clone(),
            rank.clone(),
            regs.clone(),
        )
        .expect("faithful sections reassemble");
        assert_eq!(rebuilt, frozen);

        // Each structural invariant is enforced, never panicked on.
        let bad_prefix = FrozenStore::from_sections(
            keys.clone(),
            vec![0u32; 13].into(),
            offsets.clone(),
            members.clone(),
            config,
            bits.clone(),
            rank.clone(),
            regs.clone(),
        );
        assert!(bad_prefix.is_err());
        let truncated_offsets = FrozenStore::from_sections(
            keys.clone(),
            prefix.clone(),
            offsets[..offsets.len() - 1].to_vec().into(),
            members.clone(),
            config,
            bits.clone(),
            rank.clone(),
            regs.clone(),
        );
        assert!(truncated_offsets.is_err());
        let short_slab = FrozenStore::from_sections(
            keys.clone(),
            prefix.clone(),
            offsets.clone(),
            members[..members.len() - 1].to_vec().into(),
            config,
            bits.clone(),
            rank.clone(),
            regs.clone(),
        );
        assert!(short_slab.is_err());
        let bad_rank = FrozenStore::from_sections(
            keys,
            prefix,
            offsets,
            members,
            config,
            bits,
            vec![7u32; rank.len()].into(),
            regs,
        );
        assert!(bad_rank.is_err());
    }

    #[test]
    fn rank_lookup_handles_many_buckets() {
        // >64 buckets exercises multi-word bitmap/rank arithmetic:
        // every 3rd bucket sketched, interleaved with raw ones.
        let mut map = MapStore::new();
        for b in 0..200u64 {
            let key = b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let n = if b % 3 == 0 { 10 } else { 2 };
            for id in 0..n {
                map.insert(key, (b * 100 + id) as u32, cfg(), 5);
            }
        }
        let frozen = map.clone().freeze();
        for (key, bucket) in map.iter() {
            let f = frozen.get(key).expect("key survives freeze");
            assert_eq!(bucket.members(), f.members());
            assert_eq!(bucket.has_sketch(), f.has_sketch());
            if let (Some(a), Some(b)) = (bucket.sketch(), f.sketch()) {
                assert_eq!(a.registers(), b.registers());
            }
        }
        let sketched = (0..200u64).filter(|b| b % 3 == 0).count();
        assert_eq!(frozen.sketch_slab_bytes(), sketched * cfg().registers());
    }
}
