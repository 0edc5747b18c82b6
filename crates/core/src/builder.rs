//! Fluent construction of a [`HybridLshIndex`].

use std::sync::Arc;

use hlsh_families::sampling::rng_stream;
use hlsh_families::LshFamily;
use hlsh_hll::HllConfig;
use hlsh_vec::{Distance, PointId, PointSet};

use crate::cost::CostModel;
use crate::index::HybridLshIndex;
use crate::pipeline::{BuildPipeline, DEFAULT_BLOCK};
use crate::store::FrozenStore;

/// How Algorithm 1 construction walks the data.
///
/// Both modes produce byte-identical indexes (same bucket contents,
/// same sketch registers after a freeze) — asserted by
/// `tests/build_parity.rs`; [`Blocked`](BuildMode::Blocked) is the
/// default and the faster path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildMode {
    /// The literal per-point loop: for each point, for each table, one
    /// `bucket_key` + one hashmap insert. Kept as the reference
    /// baseline (and the `build` bench's comparison arm).
    PerPoint,
    /// The staged pipeline: hash `block` points per kernel call, group
    /// keys, bulk-insert runs (see [`crate::pipeline`]).
    Blocked {
        /// Points hashed per kernel call.
        block: usize,
    },
}

impl Default for BuildMode {
    fn default() -> Self {
        BuildMode::Blocked { block: DEFAULT_BLOCK }
    }
}

/// Configures and builds a [`HybridLshIndex`].
///
/// Defaults follow the paper's experimental setting (§4.1): `L = 50`
/// tables, HLL precision 7 (`m = 128`), lazy-sketch threshold `m`, and
/// automatic cost-model calibration on the indexed data when no model
/// is supplied. Construction runs the blocked pipeline by default
/// ([`BuildMode`]).
#[derive(Clone, Debug)]
pub struct IndexBuilder<F, D> {
    family: F,
    distance: D,
    l: usize,
    k: usize,
    hll_precision: u8,
    lazy_threshold: Option<usize>,
    seed: u64,
    cost: Option<CostModel>,
    parallel: bool,
    mode: BuildMode,
}

impl<F, D> IndexBuilder<F, D> {
    /// Starts a builder around a family and distance.
    pub fn new(family: F, distance: D) -> Self {
        Self {
            family,
            distance,
            l: 50,
            k: 8,
            hll_precision: 7,
            lazy_threshold: None,
            seed: 0,
            cost: None,
            parallel: true,
            mode: BuildMode::default(),
        }
    }

    /// Sets the number of hash tables `L` (default 50, the paper's
    /// setting).
    pub fn tables(mut self, l: usize) -> Self {
        self.l = l;
        self
    }

    /// Sets the concatenation width `k` (default 8). See
    /// [`hlsh_families::k_paper`] for the paper's rule deriving `k`
    /// from `δ`, `L` and `p₁`.
    pub fn hash_len(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the HLL precision (register count `m = 2^precision`,
    /// default 7 → `m = 128`).
    pub fn hll_precision(mut self, precision: u8) -> Self {
        self.hll_precision = precision;
        self
    }

    /// Sets the bucket size at which a sketch is materialised
    /// (default: the register count `m`, the paper's suggestion).
    pub fn lazy_threshold(mut self, threshold: usize) -> Self {
        self.lazy_threshold = Some(threshold);
        self
    }

    /// Seeds all randomness (g-function sampling and the HLL element
    /// hash). Two builds with equal seeds are identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Supplies an explicit cost model; without one, `build` calibrates
    /// `α` and `β` on the indexed data (the paper's procedure).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Disables the multi-threaded build (tables are built in parallel
    /// by default).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Selects the construction walk ([`BuildMode::Blocked`] is the
    /// default).
    pub fn build_mode(mut self, mode: BuildMode) -> Self {
        self.mode = mode;
        self
    }

    /// Forces the per-point Algorithm 1 loop (the baseline the blocked
    /// pipeline is benchmarked against).
    pub fn per_point(self) -> Self {
        self.build_mode(BuildMode::PerPoint)
    }

    /// Sets the blocked pipeline's block size (points per hashing
    /// kernel call), switching to [`BuildMode::Blocked`] if needed.
    ///
    /// # Panics
    /// `build` panics if `block == 0`.
    pub fn block_size(self, block: usize) -> Self {
        self.build_mode(BuildMode::Blocked { block })
    }

    /// Resolves the cost model exactly as [`build`](Self::build) would
    /// on `data`: the explicit model if one was supplied, calibration
    /// otherwise. The sharded builders use this to calibrate once on
    /// the full data set and hand every shard the same model — a
    /// prerequisite of shard-merge byte-identity.
    pub(crate) fn resolve_cost<S>(&self, data: &S) -> CostModel
    where
        S: PointSet,
        D: Distance<S::Point>,
    {
        self.cost.unwrap_or_else(|| {
            if data.len() >= 2 {
                // The paper calibrates on ~10k points / 100 queries.
                let sample = 10_000.min(100 * data.len());
                CostModel::calibrate(data, &self.distance, sample, self.seed)
            } else {
                CostModel::from_ratio(1.0)
            }
        })
    }

    /// The HLL configuration every index this builder builds shares
    /// (precision and element-hash seed).
    pub(crate) fn hll_config(&self) -> HllConfig {
        HllConfig::new(self.hll_precision, self.seed ^ 0x48_4C_4C)
    }

    /// Samples the `L` g-functions — the deterministic part of every
    /// build (it depends only on the builder's seed and knobs, never on
    /// the data). Every index built for one rung from this one set
    /// shares it: the sharded and segmented builds call this once per
    /// rung and hand the set to [`build_mapped`](Self::build_mapped).
    pub(crate) fn prepare<P: ?Sized>(&self) -> Vec<Arc<F::GFn>>
    where
        F: LshFamily<P>,
    {
        assert!(self.l > 0, "need at least one hash table");
        assert!(self.k > 0, "need at least one atom per g-function");
        (0..self.l)
            .map(|j| Arc::new(self.family.sample(self.k, &mut rng_stream(self.seed, j as u64))))
            .collect()
    }

    /// Like [`build`](Self::build) but decides the cost model at the
    /// call site: `Some(model)` uses it, `None` calibrates on the data
    /// (overriding any earlier [`cost_model`](Self::cost_model) call).
    pub fn build_with_cost<S>(mut self, data: S, cost: Option<CostModel>) -> HybridLshIndex<S, F, D>
    where
        S: PointSet + Sync,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
    {
        self.cost = cost;
        self.build(data)
    }

    /// Builds the index over `data` (Algorithm 1).
    ///
    /// # Panics
    /// Panics if `L == 0` or `k == 0`.
    pub fn build<S>(self, data: S) -> HybridLshIndex<S, F, D>
    where
        S: PointSet + Sync,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
    {
        let gfns = self.prepare();
        self.build_mapped(data, gfns, None)
    }

    /// [`build`](Self::build) over an already-sampled g-function set
    /// (from [`prepare`](Self::prepare) on this builder), with an
    /// optional id renaming: row `i` is indexed under id `id_map[i]`.
    /// The renaming is the sharded build's global-id hook
    /// (`pub(crate)`: a renamed index is only coherent behind a sharded
    /// engine that translates members back to rows).
    pub(crate) fn build_mapped<S>(
        self,
        data: S,
        gfns: Vec<Arc<F::GFn>>,
        id_map: Option<&[PointId]>,
    ) -> HybridLshIndex<S, F, D>
    where
        S: PointSet + Sync,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
    {
        let hll_config = self.hll_config();
        let lazy_threshold = self.lazy_threshold.unwrap_or(hll_config.registers());
        let cost = self.resolve_cost(&data);
        HybridLshIndex::construct(
            data,
            self.family,
            self.distance,
            gfns,
            hll_config,
            lazy_threshold,
            cost,
            self.k,
            self.parallel,
            self.mode,
            id_map,
        )
    }

    /// Builds the index with every table already in the read-optimised
    /// CSR arena ([`FrozenStore`]) — the right call for
    /// build-once/query-many workloads. Under the default
    /// [`BuildMode::Blocked`] the arenas are laid out straight from the
    /// pipeline's key-grouped runs with no intermediate hashmap; under
    /// [`BuildMode::PerPoint`] this is `build(..).freeze()`. Both are
    /// byte-identical. See [`HybridLshIndex::freeze`].
    pub fn build_frozen<S>(self, data: S) -> HybridLshIndex<S, F, D, FrozenStore>
    where
        S: PointSet + Sync,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
    {
        let gfns = self.prepare();
        self.build_frozen_mapped(data, gfns, None)
    }

    /// [`build_frozen`](Self::build_frozen) over an already-sampled set
    /// with the sharded build's id renaming; see
    /// [`build_mapped`](Self::build_mapped).
    pub(crate) fn build_frozen_mapped<S>(
        self,
        data: S,
        gfns: Vec<Arc<F::GFn>>,
        id_map: Option<&[PointId]>,
    ) -> HybridLshIndex<S, F, D, FrozenStore>
    where
        S: PointSet + Sync,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
    {
        match self.mode {
            BuildMode::PerPoint => self.build_mapped(data, gfns, id_map).freeze(),
            BuildMode::Blocked { block } => {
                let hll_config = self.hll_config();
                let lazy_threshold = self.lazy_threshold.unwrap_or(hll_config.registers());
                let cost = self.resolve_cost(&data);
                HybridLshIndex::construct_frozen(
                    data,
                    self.family,
                    self.distance,
                    gfns,
                    hll_config,
                    lazy_threshold,
                    cost,
                    self.k,
                    self.parallel,
                    BuildPipeline::with_block(block),
                    id_map,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsh_families::BitSampling;
    use hlsh_vec::{BinaryDataset, Hamming};

    fn tiny_data() -> BinaryDataset {
        BinaryDataset::from_fingerprints(&[0, 1, 3, 0xFF, 0xFFFF, u64::MAX])
    }

    #[test]
    fn builder_defaults_match_paper() {
        let idx = IndexBuilder::new(BitSampling::new(64), Hamming)
            .hash_len(4)
            .seed(1)
            .cost_model(CostModel::from_ratio(1.0))
            .build(tiny_data());
        assert_eq!(idx.tables(), 50);
        assert_eq!(idx.k(), 4);
        assert_eq!(idx.hll_config().registers(), 128);
        assert_eq!(idx.len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one hash table")]
    fn zero_tables_rejected() {
        let _ = IndexBuilder::new(BitSampling::new(64), Hamming).tables(0).build(tiny_data());
    }

    #[test]
    #[should_panic(expected = "at least one atom")]
    fn zero_k_rejected() {
        let _ = IndexBuilder::new(BitSampling::new(64), Hamming).hash_len(0).build(tiny_data());
    }

    #[test]
    fn same_seed_same_index() {
        let build = |seed| {
            IndexBuilder::new(BitSampling::new(64), Hamming)
                .tables(8)
                .hash_len(6)
                .seed(seed)
                .cost_model(CostModel::from_ratio(1.0))
                .build(tiny_data())
        };
        let a = build(7);
        let b = build(7);
        let c = build(8);
        let q = [0u64];
        assert_eq!(a.explain(&q[..]).collisions, b.explain(&q[..]).collisions);
        assert_eq!(a.explain(&q[..]).cand_size_estimate, b.explain(&q[..]).cand_size_estimate);
        // A different seed almost surely samples different coords.
        let _ = c; // (collision counts may coincide; just ensure it builds)
    }

    #[test]
    fn auto_calibration_kicks_in() {
        let idx = IndexBuilder::new(BitSampling::new(64), Hamming)
            .tables(4)
            .hash_len(4)
            .seed(3)
            .build(tiny_data());
        assert!(idx.cost_model().alpha() > 0.0);
        assert!(idx.cost_model().beta() > 0.0);
    }

    #[test]
    fn sequential_build_equals_parallel_build() {
        let data = || {
            BinaryDataset::from_fingerprints(
                &(0..500u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect::<Vec<_>>(),
            )
        };
        let par = IndexBuilder::new(BitSampling::new(64), Hamming)
            .tables(6)
            .hash_len(8)
            .seed(11)
            .cost_model(CostModel::from_ratio(1.0))
            .build(data());
        let seq = IndexBuilder::new(BitSampling::new(64), Hamming)
            .tables(6)
            .hash_len(8)
            .seed(11)
            .cost_model(CostModel::from_ratio(1.0))
            .sequential()
            .build(data());
        let q = [0xABCDu64];
        let (ep, es) = (par.explain(&q[..]), seq.explain(&q[..]));
        assert_eq!(ep.collisions, es.collisions);
        assert_eq!(ep.cand_size_estimate, es.cand_size_estimate);
        let sp = par.stats();
        let ss = seq.stats();
        assert_eq!(sp, ss);
    }
}
