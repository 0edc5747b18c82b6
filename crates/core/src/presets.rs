//! The canonical mixture-serving parameterisation.
//!
//! The `serve` binary and the `throughput`/`topk`/`snapshot` bench
//! binaries all index the same `benchmark_mixture` corpus with the
//! same builder settings, so their numbers are directly comparable
//! (a socket-path measurement against `serve` can be read next to an
//! in-process `BENCH_*.json` baseline). Those settings used to be
//! copy-pasted per binary; [`MixturePreset`] is now the single source
//! of truth, and it is what the serve binary checks a snapshot's
//! [`SnapshotManifest`] against before trusting a file.

use crate::builder::IndexBuilder;
use crate::cost::CostModel;
use crate::schedule::RadiusSchedule;
use crate::segmented::{SegmentedIndex, SegmentedTopKIndex};
use crate::sharded::{ShardAssignment, ShardedIndex, ShardedTopKIndex};
use crate::snapshot::codec::{SnapshotDistance, SnapshotFamily};
use crate::snapshot::SnapshotManifest;
use crate::store::FrozenStore;
use hlsh_families::PStableL2;
use hlsh_vec::{DenseDataset, PointId, L2};

/// The standard mixture-workload serving configuration: an L2
/// p-stable family over the `benchmark_mixture` corpus, sharded, with
/// an optional top-k ladder. Field defaults mirror the historical
/// `serve` CLI defaults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixturePreset {
    /// Corpus size.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Master seed: shard assignment, sampling and data generation.
    pub seed: u64,
    /// Shard count.
    pub shards: usize,
    /// Top-k schedule levels (ignored when no ladder is built).
    pub levels: usize,
    /// Mixture cluster radius; also the base of the top-k schedule.
    pub radius: f64,
}

impl Default for MixturePreset {
    fn default() -> Self {
        Self { n: 20_000, dim: 24, seed: 23, shards: 2, levels: 4, radius: 1.5 }
    }
}

impl MixturePreset {
    /// Hash tables per index.
    pub const TABLES: usize = 20;
    /// Hash width of the rNNR index.
    pub const RNNR_HASH_LEN: usize = 7;
    /// Hash width of each top-k ladder level.
    pub const TOPK_HASH_LEN: usize = 6;
    /// β/α ratio of the cost model.
    pub const COST_RATIO: f64 = 6.0;

    /// The shard assignment this preset serves under.
    pub fn assignment(&self) -> ShardAssignment {
        ShardAssignment::new(self.seed, self.shards)
    }

    /// The top-k radius schedule (doubling from `radius`).
    pub fn schedule(&self) -> RadiusSchedule {
        RadiusSchedule::doubling(self.radius, self.levels)
    }

    /// Builder for the rNNR index at the preset's serving radius.
    pub fn rnnr_builder(&self) -> IndexBuilder<PStableL2, L2> {
        IndexBuilder::new(PStableL2::new(self.dim, 2.0 * self.radius), L2)
            .tables(Self::TABLES)
            .hash_len(Self::RNNR_HASH_LEN)
            .seed(self.seed)
            .cost_model(CostModel::from_ratio(Self::COST_RATIO))
    }

    /// Builder for one top-k ladder level at radius `r`.
    pub fn level_builder(&self, r: f64) -> IndexBuilder<PStableL2, L2> {
        IndexBuilder::new(PStableL2::new(self.dim, 2.0 * r), L2)
            .tables(Self::TABLES)
            .hash_len(Self::TOPK_HASH_LEN)
            .seed(self.seed)
            .cost_model(CostModel::from_ratio(Self::COST_RATIO))
    }

    /// Builds the frozen sharded rNNR index over `data`.
    pub fn build_rnnr(
        &self,
        data: DenseDataset,
    ) -> ShardedIndex<DenseDataset, PStableL2, L2, FrozenStore> {
        ShardedIndex::build_frozen(data, self.assignment(), self.rnnr_builder())
    }

    /// Builds the frozen sharded top-k ladder over `data`.
    pub fn build_topk(
        &self,
        data: DenseDataset,
    ) -> ShardedTopKIndex<DenseDataset, PStableL2, L2, FrozenStore> {
        ShardedTopKIndex::build_frozen(data, self.assignment(), self.schedule(), |_, r| {
            self.level_builder(r)
        })
    }

    /// Builds the LSM-segmented (living) rNNR index over `data` with
    /// global ids `0..n` — same parameters as [`build_rnnr`]
    /// (same seed, assignment, cost model), so its answers are
    /// byte-identical to the frozen build until the first mutation,
    /// and byte-identical to a rebuild on the survivors after.
    ///
    /// [`build_rnnr`]: Self::build_rnnr
    pub fn build_live_rnnr(&self, data: DenseDataset) -> SegmentedIndex<PStableL2, L2> {
        let ids: Vec<PointId> = (0..data.len() as PointId).collect();
        SegmentedIndex::build_bulk(data, &ids, self.assignment(), self.rnnr_builder())
    }

    /// Builds the LSM-segmented (living) top-k ladder over `data` with
    /// global ids `0..n`; the living twin of
    /// [`build_topk`](Self::build_topk).
    pub fn build_live_topk(&self, data: DenseDataset) -> SegmentedTopKIndex<PStableL2, L2> {
        let ids: Vec<PointId> = (0..data.len() as PointId).collect();
        SegmentedTopKIndex::build_bulk(data, &ids, self.assignment(), self.schedule(), |_, r| {
            self.level_builder(r)
        })
    }

    /// Fails fast when a snapshot's manifest disagrees with this
    /// preset — before any section is read. `want_topk` is whether the
    /// caller intends to serve top-k queries; a snapshot may carry a
    /// ladder the caller then ignores, but a missing ladder cannot be
    /// conjured at load time.
    pub fn check_manifest(
        &self,
        manifest: &SnapshotManifest,
        want_topk: bool,
    ) -> Result<(), String> {
        let mut mismatches = Vec::new();
        let mut expect = |what: &str, want: String, got: String| {
            if want != got {
                mismatches.push(format!("{what}: snapshot has {got}, CLI wants {want}"));
            }
        };
        expect(
            "family",
            <PStableL2 as SnapshotFamily>::TAG.to_string(),
            manifest.family_tag.to_string(),
        );
        expect(
            "distance",
            <L2 as SnapshotDistance>::TAG.to_string(),
            manifest.distance_tag.to_string(),
        );
        expect("n", self.n.to_string(), manifest.n.to_string());
        expect("dim", self.dim.to_string(), manifest.dim.to_string());
        expect("seed", self.seed.to_string(), manifest.seed.to_string());
        expect("shards", self.shards.to_string(), manifest.shards.to_string());
        expect("tables", Self::TABLES.to_string(), manifest.tables.to_string());
        expect("hash_len", Self::RNNR_HASH_LEN.to_string(), manifest.k.to_string());
        match (&manifest.topk, want_topk) {
            (None, true) => {
                mismatches.push("top-k: snapshot has no ladder; pass --no-topk".to_string())
            }
            (Some(tk), true) => {
                expect("levels", self.levels.to_string(), tk.levels.to_string());
                expect("schedule base", format!("{}", self.radius), format!("{}", tk.base));
                expect("schedule ratio", "2".to_string(), format!("{}", tk.ratio));
            }
            // A present-but-unwanted ladder is fine: the caller drops it.
            (_, false) => {}
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::TopKManifest;

    fn manifest_for(p: &MixturePreset) -> SnapshotManifest {
        SnapshotManifest {
            family_tag: <PStableL2 as SnapshotFamily>::TAG,
            distance_tag: <L2 as SnapshotDistance>::TAG,
            n: p.n,
            dim: p.dim,
            seed: p.seed,
            shards: p.shards,
            tables: MixturePreset::TABLES,
            k: MixturePreset::RNNR_HASH_LEN,
            topk: Some(TopKManifest { base: p.radius, ratio: 2.0, levels: p.levels }),
        }
    }

    #[test]
    fn matching_manifest_passes() {
        let p = MixturePreset::default();
        let m = manifest_for(&p);
        assert_eq!(p.check_manifest(&m, true), Ok(()));
        assert_eq!(p.check_manifest(&m, false), Ok(()));
    }

    #[test]
    fn each_scalar_mismatch_is_reported() {
        let p = MixturePreset::default();
        for (mutate, needle) in [
            (
                Box::new(|m: &mut SnapshotManifest| m.n += 1) as Box<dyn Fn(&mut SnapshotManifest)>,
                "n:",
            ),
            (Box::new(|m: &mut SnapshotManifest| m.dim += 1), "dim:"),
            (Box::new(|m: &mut SnapshotManifest| m.seed ^= 1), "seed:"),
            (Box::new(|m: &mut SnapshotManifest| m.shards += 1), "shards:"),
            (Box::new(|m: &mut SnapshotManifest| m.tables += 1), "tables:"),
            (Box::new(|m: &mut SnapshotManifest| m.k += 1), "hash_len:"),
            (Box::new(|m: &mut SnapshotManifest| m.family_tag = 99), "family:"),
            (Box::new(|m: &mut SnapshotManifest| m.topk = None), "top-k:"),
        ] {
            let mut m = manifest_for(&p);
            mutate(&mut m);
            let err = p.check_manifest(&m, true).expect_err("must be rejected");
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn unwanted_ladder_is_not_an_error() {
        let p = MixturePreset::default();
        let mut m = manifest_for(&p);
        m.topk = None;
        assert_eq!(p.check_manifest(&m, false), Ok(()));
        // Even a ladder with a different shape is ignored when unwanted.
        let mut m = manifest_for(&p);
        if let Some(tk) = &mut m.topk {
            tk.levels += 3;
        }
        assert_eq!(p.check_manifest(&m, false), Ok(()));
    }

    #[test]
    fn builders_share_the_preset_scalars() {
        let p = MixturePreset { dim: 8, ..MixturePreset::default() };
        assert_eq!(p.assignment().shards(), p.shards);
        assert_eq!(p.schedule().levels(), p.levels);
        assert_eq!(p.schedule().base(), p.radius);
    }
}
