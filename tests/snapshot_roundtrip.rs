//! Snapshot determinism contract: queries against a loaded snapshot
//! are byte-identical to queries against the index that wrote it —
//! every load mode (`Read`, zero-copy `Mmap`, `MmapVerify`, and `Auto`,
//! which picks from the file length), across shard counts {1, 2, 4},
//! for both `query_batch` and `query_topk_batch`. The v2 writer picks
//! per-section encodings, so this suite also pins both varint codecs'
//! decode paths.
//!
//! Nothing may be re-sampled or re-derived at load time, so every
//! g-function, sketch slab, cost coefficient and owner list must
//! round-trip verbatim; any drift shows up here as a changed id set,
//! ranking, or walk report.

use std::path::PathBuf;
use std::sync::Arc;

use hybrid_lsh::datagen::benchmark_mixture;
use hybrid_lsh::prelude::*;
use hybrid_lsh::Strategy;

/// A unique temp path per test so parallel test binaries never collide.
fn temp_snapshot(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hlsh-snapshot-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{}.hlsh", tag, std::process::id()))
}

fn rnnr_builder(dim: usize, seed: u64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(dim, 2.6), L2)
        .tables(5)
        .hash_len(4)
        .seed(seed)
        .lazy_threshold(8)
        .cost_model(CostModel::from_ratio(4.0))
}

const MODES: [LoadMode; 4] = [LoadMode::Read, LoadMode::Mmap, LoadMode::MmapVerify, LoadMode::Auto];

fn assert_rnnr_identical(
    expect: &[hybrid_lsh::QueryOutput],
    got: &[hybrid_lsh::QueryOutput],
    ctx: &str,
) {
    assert_eq!(expect.len(), got.len(), "{ctx}: batch length");
    for (qi, (e, g)) in expect.iter().zip(got).enumerate() {
        assert_eq!(e.ids, g.ids, "{ctx}: ids of query {qi}");
        // All report fields except the wall-clock timings.
        assert_eq!(e.report.executed, g.report.executed, "{ctx}: arm of query {qi}");
        assert_eq!(e.report.collisions, g.report.collisions, "{ctx}: collisions of query {qi}");
        assert_eq!(
            e.report.cand_size_estimate.to_bits(),
            g.report.cand_size_estimate.to_bits(),
            "{ctx}: sketch estimate of query {qi}"
        );
        assert_eq!(
            e.report.cand_size_actual, g.report.cand_size_actual,
            "{ctx}: candidate count of query {qi}"
        );
        assert_eq!(e.report.output_size, g.report.output_size, "{ctx}: output size of query {qi}");
    }
}

#[test]
fn rnnr_and_topk_round_trip_byte_identical_across_shards_and_modes() {
    let (n, dim, seed, r, k) = (600usize, 10usize, 42u64, 1.3f64, 12usize);
    let (data, _) = benchmark_mixture(dim, n, r, seed);
    let queries: Vec<Vec<f32>> = (0..n).step_by(37).map(|i| data.row(i).to_vec()).collect();
    let schedule = RadiusSchedule::doubling(0.9, 3);

    for shards in [1usize, 2, 4] {
        let assignment = ShardAssignment::new(seed ^ 0xA5, shards);
        let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, rnnr_builder(dim, seed));
        let topk = ShardedTopKIndex::build(data.clone(), assignment, schedule, |li, radius| {
            rnnr_builder(dim, seed.wrapping_add(li as u64))
                .cost_model(CostModel::from_ratio(4.0))
                .tables(4 + li)
                .hash_len(3)
                .seed(seed ^ (radius.to_bits()))
        })
        .freeze();

        let expect_rnnr = rnnr.query_batch(&queries, r);
        let expect_topk = topk.query_topk_batch(&queries, k);

        let path = temp_snapshot(&format!("roundtrip-{shards}"));
        let stats = save_snapshot(&path, &rnnr, Some(&topk)).expect("save");
        assert!(stats.bytes > 0 && stats.sections > 0);

        // The manifest is readable without instantiating family types.
        let manifest = read_manifest(&path).expect("manifest");
        assert_eq!(manifest.n, n);
        assert_eq!(manifest.dim, dim);
        assert_eq!(manifest.shards, shards);
        assert_eq!(manifest.seed, seed ^ 0xA5);
        assert_eq!(manifest.tables, 5);
        assert_eq!(manifest.k, 4);
        let tk = manifest.topk.expect("ladder was snapshotted");
        assert_eq!(tk.levels, schedule.levels());
        assert_eq!(tk.base, schedule.base());
        assert_eq!(tk.ratio, schedule.ratio());

        for mode in MODES {
            let loaded = load_snapshot::<PStableL2, L2>(&path, mode).expect("load");
            let ctx = format!("shards={shards} mode={mode:?}");
            assert_eq!(loaded.manifest, manifest, "{ctx}: manifest");

            let got_rnnr = loaded.rnnr.query_batch(&queries, r);
            assert_rnnr_identical(&expect_rnnr, &got_rnnr, &ctx);
            // Every strategy, not just the hybrid default.
            for strategy in Strategy::ALL {
                for (qi, q) in queries.iter().enumerate() {
                    let e = rnnr.query_with_strategy(&q[..], r, strategy);
                    let g = loaded.rnnr.query_with_strategy(&q[..], r, strategy);
                    assert_eq!(e.ids, g.ids, "{ctx} {strategy} q={qi}");
                    assert_eq!(e.report.executed, g.report.executed, "{ctx} {strategy} q={qi}");
                    assert_eq!(e.report.collisions, g.report.collisions, "{ctx} {strategy} q={qi}");
                }
            }

            let ladder = loaded.topk.expect("ladder survives the round trip");
            let got_topk = ladder.query_topk_batch(&queries, k);
            assert_eq!(expect_topk, got_topk, "{ctx}: topk batch");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn rnnr_only_snapshot_round_trips_without_a_ladder() {
    let (n, dim, seed, r) = (300usize, 8usize, 7u64, 1.2f64);
    let (data, _) = benchmark_mixture(dim, n, r, seed);
    let queries: Vec<Vec<f32>> = (0..n).step_by(29).map(|i| data.row(i).to_vec()).collect();

    let rnnr =
        ShardedIndex::build_frozen(data, ShardAssignment::new(seed, 2), rnnr_builder(dim, seed));
    let expect = rnnr.query_batch(&queries, r);

    let path = temp_snapshot("rnnr-only");
    save_snapshot(&path, &rnnr, None).expect("save");
    let manifest = read_manifest(&path).expect("manifest");
    assert!(manifest.topk.is_none());

    for mode in MODES {
        let loaded = load_snapshot::<PStableL2, L2>(&path, mode).expect("load");
        assert!(loaded.topk.is_none());
        assert_rnnr_identical(&expect, &loaded.rnnr.query_batch(&queries, r), &format!("{mode:?}"));
    }
    std::fs::remove_file(&path).ok();
}

/// `LoadMode::Auto` decides from the host and the file length alone:
/// it writes nothing next to the snapshot, and on a host that can map
/// files a small snapshot comes back mapped and prefetched.
#[test]
fn auto_load_leaves_the_directory_as_it_was() {
    let (n, dim, seed) = (200usize, 6usize, 5u64);
    let (data, _) = benchmark_mixture(dim, n, 1.2, seed);
    let rnnr =
        ShardedIndex::build_frozen(data, ShardAssignment::new(seed, 2), rnnr_builder(dim, seed));
    // A directory of this test's own, so no sibling's files come and go.
    let dir = std::env::temp_dir().join(format!("hlsh-auto-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("auto.hlsh");
    save_snapshot(&path, &rnnr, None).expect("save");
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();

    let loaded = load_snapshot::<PStableL2, L2>(&path, LoadMode::Auto).expect("load");
    assert_eq!(listing(), before, "an Auto load must not write next to the snapshot");
    let plan = loaded.plan.expect("Auto reports its plan");
    if hybrid_lsh::index::snapshot::mmap::mmap_supported() {
        assert_eq!(plan.backend, hybrid_lsh::index::snapshot::PlannedBackend::Mmap);
        assert!(plan.prefetch, "a small file is prefetched whole");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A second family/metric pair (SimHash under cosine) exercises the
/// other codec arm: hyperplane g-functions instead of p-stable ones.
#[test]
fn simhash_cosine_snapshot_round_trips() {
    let (n, dim, seed) = (250usize, 12usize, 11u64);
    let (mut data, _) = benchmark_mixture(dim, n, 1.0, seed);
    data.normalize_l2();
    let queries: Vec<Vec<f32>> = (0..n).step_by(23).map(|i| data.row(i).to_vec()).collect();

    let rnnr = ShardedIndex::build_frozen(
        data,
        ShardAssignment::new(seed, 3),
        IndexBuilder::new(SimHash::new(dim), Cosine)
            .tables(6)
            .hash_len(5)
            .seed(seed)
            .cost_model(CostModel::from_ratio(5.0)),
    );
    let r = 0.25;
    let expect = rnnr.query_batch(&queries, r);

    let path = temp_snapshot("simhash");
    save_snapshot(&path, &rnnr, None).expect("save");
    for mode in MODES {
        let loaded = load_snapshot::<SimHash, Cosine>(&path, mode).expect("load");
        assert_rnnr_identical(&expect, &loaded.rnnr.query_batch(&queries, r), &format!("{mode:?}"));
    }
    std::fs::remove_file(&path).ok();
}

/// An mmap-loaded index must stay valid after the loader and its local
/// state are gone (the mapping is kept alive by the sections), and
/// across threads (the mapping is `Send + Sync`).
#[test]
fn mmap_loaded_index_outlives_the_loader_and_crosses_threads() {
    let (n, dim, seed, r) = (200usize, 6usize, 3u64, 1.2f64);
    let (data, _) = benchmark_mixture(dim, n, r, seed);
    let q: Vec<f32> = data.row(5).to_vec();

    let rnnr =
        ShardedIndex::build_frozen(data, ShardAssignment::new(seed, 2), rnnr_builder(dim, seed));
    let expect = rnnr.query(&q[..], r);

    let path = temp_snapshot("outlive");
    save_snapshot(&path, &rnnr, None).expect("save");
    let loaded = {
        // The file handle and loader scope end here; the mapping must
        // keep the sections readable regardless.
        load_snapshot::<PStableL2, L2>(&path, LoadMode::Mmap).expect("load")
    };
    std::fs::remove_file(&path).ok(); // unlinked file: mapping stays valid on unix

    let index = Arc::new(loaded.rnnr);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let index = Arc::clone(&index);
            let q = q.clone();
            std::thread::spawn(move || index.query(&q[..], r).ids)
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("thread"), expect.ids);
    }
}
