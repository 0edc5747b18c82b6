//! One g-function set per rung: every shard of a sharded build, and
//! every shard of a loaded snapshot, holds the very allocation of each
//! of its rung's `L` g-functions — sampled or decoded once, shared by
//! `Arc`. (The living index's memtables and segments are pinned by the
//! `segmented` module's own tests.)
//!
//! One row store per served structure: a service fuses its rNNR index
//! and ladder, so every rung of a frozen shard, and every rung of a
//! living segment, indexes the very allocation of that shard's or
//! segment's rows — and the fusion refuses inputs that do not cover
//! the same points.

use std::path::PathBuf;
use std::sync::Arc;

use hybrid_lsh::datagen::benchmark_mixture;
use hybrid_lsh::index::SegmentedServed;
use hybrid_lsh::prelude::*;
use hybrid_lsh::server::{LiveLshService, QueryService, ShardedLshService};

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

/// Asserts that every rung of every shard of a frozen service indexes
/// one `Arc` of that shard's rows, and returns each shard's row
/// address.
fn assert_one_row_store(
    svc: &ShardedLshService<DenseDataset, PStableL2, L2>,
    ctx: &str,
) -> Vec<usize> {
    let levels = svc.info().topk_levels as usize;
    svc.with_rnnr(|index| {
        let rows = index.shards().iter().enumerate().map(|(s, shard)| {
            let rungs = shard.levels();
            assert_eq!(rungs.len(), 1 + levels, "{ctx}: shard {s} rung count");
            for (li, rung) in rungs.iter().enumerate() {
                assert!(Arc::ptr_eq(rung.data(), rungs[0].data()), "{ctx}: shard {s} rung {li}");
            }
            rungs[0].data().section().as_ptr() as usize
        });
        rows.collect()
    })
}

#[test]
fn every_rung_of_a_frozen_service_shares_one_row_store() {
    let (n, dim, seed) = (400usize, 8usize, 5u64);
    let (data, _) = benchmark_mixture(dim, n, 1.25, seed);
    let schedule = RadiusSchedule::doubling(0.9, 3);
    let levels = |li: usize, _| builder(dim, seed.wrapping_add(li as u64)).tables(3 + li);
    let path: PathBuf =
        std::env::temp_dir().join(format!("hlsh-shared-rows-{}.hlsh", std::process::id()));

    for shards in [1usize, 3] {
        let assignment = ShardAssignment::new(seed, shards);
        let ctx = format!("shards={shards}");
        let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, builder(dim, seed));
        let ladder = ShardedTopKIndex::build_frozen(data.clone(), assignment, schedule, levels);
        save_snapshot(&path, &rnnr, Some(&ladder)).expect("save");
        // Built in process: the rNNR index's own rows become the store.
        let before: Vec<usize> =
            rnnr.shards().iter().map(|s| s.data().section().as_ptr() as usize).collect();
        let svc = ShardedLshService::new(rnnr, Some(ladder), dim);
        assert_eq!(assert_one_row_store(&svc, &format!("{ctx} built")), before, "{ctx}: moved");

        for mode in [LoadMode::Read, LoadMode::Mmap] {
            let loaded = load_snapshot::<PStableL2, L2>(&path, mode).expect("load");
            let svc = ShardedLshService::new(loaded.rnnr, loaded.topk, dim);
            assert_one_row_store(&svc, &format!("{ctx} {mode:?} load"));
        }
        let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, builder(dim, seed));
        assert_one_row_store(&ShardedLshService::new(rnnr, None, dim), &format!("{ctx} no ladder"));
    }
    std::fs::remove_file(&path).ok();
}

/// Asserts that every rung of every segment of one living structure
/// indexes one `Arc` of that segment's slab.
fn assert_one_slab(index: &SegmentedServed<PStableL2, L2>, levels: usize, ctx: &str) {
    let segments: usize = index.segment_counts().iter().sum();
    assert_eq!(index.segment_rungs().count(), segments, "{ctx}: one LSM");
    assert!(segments > 0, "{ctx}: no segment to check");
    for (si, rungs) in index.segment_rungs().enumerate() {
        assert_eq!(rungs.len(), 1 + levels, "{ctx}: segment {si} rung count");
        for (li, rung) in rungs.iter().enumerate() {
            assert!(Arc::ptr_eq(rung.data(), rungs[0].data()), "{ctx}: segment {si} rung {li}");
        }
    }
}

#[test]
fn every_rung_of_a_living_segment_shares_one_slab() {
    let (n, dim, seed) = (300usize, 8usize, 9u64);
    let (data, _) = benchmark_mixture(dim, n, 1.25, seed);
    let schedule = RadiusSchedule::doubling(0.9, 2);
    let levels = |li: usize, _| builder(dim, seed.wrapping_add(li as u64)).tables(3 + li);
    let assignment = ShardAssignment::new(seed, 2);
    let ids: Vec<PointId> = (0..n as PointId).collect();

    // A bulk build served by one living service.
    let rnnr = SegmentedIndex::build_bulk(data.clone(), &ids, assignment, builder(dim, seed));
    let ladder = SegmentedTopKIndex::build_bulk(data.clone(), &ids, assignment, schedule, levels);
    let svc = LiveLshService::new(rnnr, Some(ladder));
    svc.with_rnnr(|index| assert_one_slab(index, 2, "bulk"));
    let (cut, rest) = ids.split_at(100);
    assert_eq!(svc.delete_batch(cut).expect("delete"), 100);
    svc.with_rnnr(|index| assert_one_slab(index, 2, "service deletes"));

    // Small LSM knobs: inserts flush every 8 rows per shard and the
    // 3-segment budget forces merges.
    let rnnr = SegmentedIndex::with_limits(dim, assignment, builder(dim, seed), 8, 3);
    let ladder = SegmentedTopKIndex::with_limits(dim, assignment, schedule, levels, 8, 3);
    let mut index = SegmentedServed::fuse(rnnr, Some(ladder));
    for &id in &ids {
        index.insert(id, data.row(id as usize)).expect("insert");
    }
    assert!(index.segment_counts().iter().all(|&c| c == 3), "the budget merged");
    assert_one_slab(&index, 2, "inserts, flushes and merges");
    for &id in rest.iter().step_by(3) {
        index.delete(id).expect("delete");
    }
    assert_one_slab(&index, 2, "deletes");
    index.flush();
    index.compact();
    assert_eq!(index.segment_counts(), vec![1, 1], "compacted");
    assert_one_slab(&index, 2, "flush and compact");
}

/// A small frozen pair: the rNNR index over `rnnr_data`, the ladder
/// over `ladder_data` under `ladder_assignment`.
fn frozen_pair(
    rnnr_data: DenseDataset,
    ladder_data: DenseDataset,
    ladder_assignment: ShardAssignment,
) -> ShardedLshService<DenseDataset, PStableL2, L2> {
    let schedule = RadiusSchedule::doubling(0.9, 2);
    let rnnr = ShardedIndex::build_frozen(rnnr_data, ShardAssignment::new(3, 2), builder(8, 3));
    let levels = |_, _| builder(8, 3);
    let ladder = ShardedTopKIndex::build_frozen(ladder_data, ladder_assignment, schedule, levels);
    ShardedLshService::new(rnnr, Some(ladder), 8)
}

#[test]
#[should_panic(expected = "sharded under the same assignment")]
fn frozen_fusion_refuses_another_assignment() {
    let (data, _) = benchmark_mixture(8, 120, 1.25, 3);
    frozen_pair(data.clone(), data, ShardAssignment::new(4, 2));
}

/// The mixture corpus, and a copy of it with row 17 moved.
fn corpus_and_changed_copy(n: usize) -> (DenseDataset, DenseDataset) {
    let (data, _) = benchmark_mixture(8, n, 1.25, 3);
    let mut changed = DenseDataset::new(8);
    for i in 0..data.len() {
        let mut row = data.row(i).to_vec();
        if i == 17 {
            row[0] += 1.0;
        }
        changed.push(&row);
    }
    (data, changed)
}

#[test]
#[should_panic(expected = "must hold the same rows")]
fn frozen_fusion_refuses_a_changed_row() {
    let (data, changed) = corpus_and_changed_copy(120);
    frozen_pair(data, changed, ShardAssignment::new(3, 2));
}

/// A small living pair: both empty with a 4-row flush threshold, then
/// fed the same 30 points; `ladder` may then diverge.
fn living_pair(
    ladder_assignment: ShardAssignment,
    ladder: impl FnOnce(&mut SegmentedTopKIndex<PStableL2, L2>),
) -> LiveLshService<PStableL2, L2> {
    let (data, _) = benchmark_mixture(8, 30, 1.25, 3);
    let schedule = RadiusSchedule::doubling(0.9, 2);
    let assignment = ShardAssignment::new(3, 2);
    let mut rnnr = SegmentedIndex::with_limits(8, assignment, builder(8, 3), 4, 8);
    let levels = |_, _| builder(8, 3);
    let mut topk = SegmentedTopKIndex::with_limits(8, ladder_assignment, schedule, levels, 4, 8);
    for i in 0..data.len() {
        rnnr.insert(i as PointId, data.row(i)).expect("insert");
        topk.insert(i as PointId, data.row(i)).expect("insert");
    }
    ladder(&mut topk);
    LiveLshService::new(rnnr, Some(topk))
}

#[test]
#[should_panic(expected = "sharded under the same assignment")]
fn living_fusion_refuses_another_assignment() {
    living_pair(ShardAssignment::new(4, 2), |_| {});
}

#[test]
#[should_panic(expected = "must hold the same rows")]
fn living_fusion_refuses_a_changed_row() {
    let (data, changed) = corpus_and_changed_copy(60);
    let (assignment, schedule) = (ShardAssignment::new(3, 2), RadiusSchedule::doubling(0.9, 2));
    let ids: Vec<PointId> = (0..60).collect();
    let rnnr = SegmentedIndex::build_bulk(data, &ids, assignment, builder(8, 3));
    let levels = |_, _| builder(8, 3);
    let ladder = SegmentedTopKIndex::build_bulk(changed, &ids, assignment, schedule, levels);
    LiveLshService::new(rnnr, Some(ladder));
}

#[test]
#[should_panic(expected = "must hold the same rows")]
fn living_fusion_refuses_a_ladder_flushed_at_another_point() {
    living_pair(ShardAssignment::new(3, 2), |topk| topk.flush());
}
