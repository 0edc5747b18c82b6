//! One g-function set per rung: every shard of a sharded build, and
//! every shard of a loaded snapshot, holds the very allocation of each
//! of its rung's `L` g-functions — sampled or decoded once, shared by
//! `Arc`. (The living index's memtables and segments are pinned by the
//! `segmented` module's own tests.)

use std::path::PathBuf;
use std::sync::Arc;

use hybrid_lsh::datagen::benchmark_mixture;
use hybrid_lsh::prelude::*;

fn builder(dim: usize, seed: u64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(dim, 2.5), L2)
        .tables(4)
        .hash_len(4)
        .seed(seed)
        .lazy_threshold(8)
        .cost_model(CostModel::from_ratio(4.0))
}

/// Asserts that every shard's table `j` holds shard 0's g-function `j`.
fn assert_one_set<B: BucketStore>(
    shards: &[&HybridLshIndex<impl PointSet<Point = [f32]>, PStableL2, L2, B>],
    ctx: &str,
) {
    let first = shards[0].raw_tables();
    for (s, shard) in shards.iter().enumerate() {
        assert_eq!(shard.raw_tables().len(), first.len(), "{ctx}: shard {s}");
        for (j, (table, want)) in shard.raw_tables().iter().zip(first).enumerate() {
            assert!(Arc::ptr_eq(table.g(), want.g()), "{ctx}: shard {s} table {j}");
        }
    }
}

fn assert_rnnr_shared<B: BucketStore>(
    index: &ShardedIndex<DenseDataset, PStableL2, L2, B>,
    ctx: &str,
) {
    assert_one_set(&index.shards().iter().collect::<Vec<_>>(), ctx);
}

fn assert_ladder_shared<B: BucketStore>(
    ladder: &ShardedTopKIndex<DenseDataset, PStableL2, L2, B>,
    ctx: &str,
) {
    for li in 0..ladder.schedule().levels() {
        let rung: Vec<_> = ladder.shards().iter().map(|shard| &shard.levels()[li]).collect();
        assert_one_set(&rung, &format!("{ctx} rung {li}"));
    }
}

#[test]
fn every_shard_of_a_rung_shares_one_g_function_set() {
    let (n, dim, seed) = (400usize, 8usize, 5u64);
    let (data, _) = benchmark_mixture(dim, n, 1.25, seed);
    let schedule = RadiusSchedule::doubling(0.9, 3);
    let levels = |li: usize, _| builder(dim, seed.wrapping_add(li as u64)).tables(3 + li);
    let path: PathBuf =
        std::env::temp_dir().join(format!("hlsh-shared-gfns-{}.hlsh", std::process::id()));

    for shards in [2usize, 4] {
        let assignment = ShardAssignment::new(seed, shards);
        let ctx = format!("shards={shards}");
        let mapped = ShardedIndex::build(data.clone(), assignment, builder(dim, seed));
        assert_rnnr_shared(&mapped, &format!("{ctx} build"));
        assert_rnnr_shared(&mapped.freeze(), &format!("{ctx} build + freeze"));
        let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, builder(dim, seed));
        assert_rnnr_shared(&rnnr, &format!("{ctx} build_frozen"));
        let ladder = ShardedTopKIndex::build(data.clone(), assignment, schedule, levels);
        assert_ladder_shared(&ladder, &format!("{ctx} ladder build"));
        let ladder = ShardedTopKIndex::build_frozen(data.clone(), assignment, schedule, levels);
        assert_ladder_shared(&ladder, &format!("{ctx} ladder build_frozen"));

        save_snapshot(&path, &rnnr, Some(&ladder)).expect("save");
        for mode in [LoadMode::Read, LoadMode::Mmap] {
            let loaded = load_snapshot::<PStableL2, L2>(&path, mode).expect("load");
            assert_rnnr_shared(&loaded.rnnr, &format!("{ctx} {mode:?} load"));
            let ladder = loaded.topk.expect("ladder saved");
            assert_ladder_shared(&ladder, &format!("{ctx} {mode:?} load ladder"));
        }
    }
    std::fs::remove_file(&path).ok();
}
