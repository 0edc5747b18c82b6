//! Blocked-construction byte-identity: the staged build pipeline
//! (block-hash → key-group → bulk insert) must produce **exactly** the
//! same index as the per-point Algorithm 1 loop — same bucket keys,
//! same member order, same sketch registers — on every family and both
//! storage backends. CI runs this as the build-parity gate.

use hybrid_lsh::index::pipeline::BuildPipeline;
use hybrid_lsh::prelude::*;
use hybrid_lsh::vec::PointId;

/// Frozen-store equality across every table of two indexes (the
/// `FrozenStore` `PartialEq` compares the full CSR arena: keys,
/// offsets, member slab, sketch bitmap and register slab).
macro_rules! assert_tables_identical {
    ($a:expr, $b:expr, $ctx:expr) => {{
        let (a, b) = ($a, $b);
        assert_eq!(a.tables(), b.tables(), "{}: table count", $ctx);
        for j in 0..a.tables() {
            assert_eq!(
                a.raw_tables()[j].store(),
                b.raw_tables()[j].store(),
                "{}: table {j} diverged",
                $ctx
            );
        }
    }};
}

fn mixture(n: usize, dim: usize) -> DenseDataset {
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(dim, n, 1.5, 71);
    data
}

#[test]
fn blocked_build_is_byte_identical_to_per_point_pstable() {
    // The CI gate's fixed-seed configuration: p-stable L2 on dense
    // mixture data, enough points that buckets cross the lazy-sketch
    // threshold, a dimension that exercises lane remainders.
    let data = mixture(4_000, 28);
    let builder = || {
        IndexBuilder::new(PStableL2::new(28, 2.0), L2)
            .tables(12)
            .hash_len(6)
            .seed(42)
            .lazy_threshold(16)
            .cost_model(CostModel::from_ratio(4.0))
    };
    let per_point = builder().per_point().build(data.clone()).freeze();
    for block in [1usize, 64, 256, 8192] {
        let blocked = builder().block_size(block).build(data.clone()).freeze();
        assert_tables_identical!(&per_point, &blocked, format!("map path, block={block}"));
        let direct = builder().block_size(block).build_frozen(data.clone());
        assert_tables_identical!(&per_point, &direct, format!("frozen path, block={block}"));
    }
}

#[test]
fn blocked_build_is_byte_identical_to_per_point_simhash() {
    let mut data = mixture(2_000, 19);
    data.normalize_l2();
    let builder = || {
        IndexBuilder::new(SimHash::new(19), UnitCosine)
            .tables(10)
            .hash_len(12)
            .seed(9)
            .lazy_threshold(8)
            .cost_model(CostModel::from_ratio(4.0))
    };
    let per_point = builder().per_point().build(data.clone()).freeze();
    let direct = builder().build_frozen(data.clone()); // default blocked mode
    assert_tables_identical!(&per_point, &direct, "simhash");
}

#[test]
fn blocked_build_is_byte_identical_to_per_point_bitsampling() {
    // Binary data has no dense block view: the blocked pipeline falls
    // back to per-point hashing inside each block, but key-grouping and
    // bulk insertion still run — the result must stay identical.
    let fps: Vec<u64> = (0..1500u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let data = BinaryDataset::from_fingerprints(&fps);
    let builder = || {
        IndexBuilder::new(BitSampling::new(64), Hamming)
            .tables(8)
            .hash_len(10)
            .seed(4)
            .lazy_threshold(8)
            .cost_model(CostModel::from_ratio(4.0))
    };
    let per_point = builder().per_point().build(data.clone()).freeze();
    let direct = builder().build_frozen(data.clone());
    assert_tables_identical!(&per_point, &direct, "bit sampling");
}

#[test]
fn blocked_and_per_point_indexes_answer_identically() {
    let data = mixture(3_000, 16);
    let builder = || {
        IndexBuilder::new(PStableL2::new(16, 2.4), L2)
            .tables(10)
            .hash_len(5)
            .seed(13)
            .cost_model(CostModel::from_ratio(6.0))
    };
    let a = builder().per_point().build(data.clone());
    let b = builder().build_frozen(data.clone());
    for qi in (0..3_000).step_by(311) {
        let q = data.row(qi).to_vec();
        for strategy in Strategy::ALL {
            let oa = a.query_with_strategy(&q[..], 1.2, strategy);
            let ob = b.query_with_strategy(&q[..], 1.2, strategy);
            assert_eq!(oa.ids, ob.ids, "q={qi} {strategy}");
            assert_eq!(oa.report.executed, ob.report.executed, "q={qi} {strategy}");
            assert_eq!(
                oa.report.cand_size_estimate.to_bits(),
                ob.report.cand_size_estimate.to_bits(),
                "q={qi} {strategy}: merged sketch estimates must be byte-identical"
            );
        }
    }
}

#[test]
fn pipeline_hash_points_matches_per_point_keys_on_binary_fallback() {
    use hybrid_lsh::families::{GFunction, LshFamily};
    let fps: Vec<u64> = (0..130u64).map(|i| i.wrapping_mul(0xABCD_EF12_3456_789B)).collect();
    let data = BinaryDataset::from_fingerprints(&fps);
    let g = BitSampling::new(64).sample(9, &mut hybrid_lsh::families::sampling::rng_stream(8, 0));
    let keys = BuildPipeline::with_block(32).hash_points(&g, &data);
    assert_eq!(keys.len(), fps.len());
    for (id, &key) in keys.iter().enumerate() {
        assert_eq!(key, g.bucket_key(data.row(id)), "id {id}");
    }
}

#[test]
fn bulk_insert_run_matches_per_id_inserts() {
    use hybrid_lsh::index::store::{BucketStore, MapStore};
    use hybrid_lsh::prelude::HllConfig;
    let config = HllConfig::new(6, 77);
    // Split one bucket's members across several runs, straddling the
    // lazy threshold, plus a second bucket fed per-id.
    let mut bulk = MapStore::new();
    bulk.insert_run(5, &[0, 1, 2], config, 4);
    bulk.insert_run(5, &[3, 4, 5, 6], config, 4);
    bulk.insert_run(9, &[7], config, 4);
    let mut per_id = MapStore::new();
    for id in 0..7 {
        per_id.insert(5, id as PointId, config, 4);
    }
    per_id.insert(9, 7, config, 4);
    assert_eq!(bulk.freeze(), per_id.freeze());
}

#[test]
fn sharded_ladder_frozen_build_equals_build_then_freeze() {
    // The sharded ladder built straight into frozen arenas must equal
    // the map-store build frozen afterwards: store for store on every
    // shard's every rung, in answers, and in snapshot bytes.
    let data = mixture(1_500, 12);
    let schedule = RadiusSchedule::doubling(0.8, 4);
    let level_builder = |li: usize, r: f64| {
        IndexBuilder::new(PStableL2::new(12, 2.0 * r), L2)
            .tables(6)
            .hash_len(5)
            .seed(31 + li as u64)
            .lazy_threshold(8)
            .cost_model(CostModel::from_ratio(4.0))
    };
    let rnnr_builder = || level_builder(0, 1.0);
    let queries: Vec<Vec<f32>> = (0..24).map(|i| data.row(i * 61).to_vec()).collect();
    let dir = std::env::temp_dir().join("hlsh-build-parity");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for shards in [1usize, 2, 4] {
        let assignment = ShardAssignment::new(5, shards);
        let direct =
            ShardedTopKIndex::build_frozen(data.clone(), assignment, schedule, level_builder);
        let frozen =
            ShardedTopKIndex::build(data.clone(), assignment, schedule, level_builder).freeze();
        assert_eq!(direct.shards().len(), shards);
        for (s, (a, b)) in direct.shards().iter().zip(frozen.shards()).enumerate() {
            assert_eq!(a.levels().len(), schedule.levels(), "shard {s}");
            assert_eq!(b.levels().len(), schedule.levels(), "shard {s}");
            for (li, (la, lb)) in a.levels().iter().zip(b.levels()).enumerate() {
                assert_tables_identical!(la, lb, format!("shards={shards} shard {s} rung {li}"));
            }
        }
        assert_eq!(
            direct.query_topk_batch(&queries, 10),
            frozen.query_topk_batch(&queries, 10),
            "shards={shards}: answers and reports"
        );

        let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, rnnr_builder());
        let pid = std::process::id();
        let (pa, pb) = (
            dir.join(format!("direct-{shards}-{pid}.hlsh")),
            dir.join(format!("frozen-{shards}-{pid}.hlsh")),
        );
        save_snapshot(&pa, &rnnr, Some(&direct)).expect("save direct");
        save_snapshot(&pb, &rnnr, Some(&frozen)).expect("save frozen");
        let (ba, bb) = (std::fs::read(&pa).expect("read"), std::fs::read(&pb).expect("read"));
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        assert!(ba == bb, "shards={shards}: snapshot bytes differ ({} vs {})", ba.len(), bb.len());
    }
}
