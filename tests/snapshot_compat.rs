//! Format backward compatibility: v1 snapshot files (written by the
//! retained [`save_snapshot_v1`] writer) must keep loading through the
//! version-dispatched reader, in every load mode, with query results
//! byte-identical to both the source index and a v2 file of the same
//! index.
//!
//! [`save_snapshot_v1`]: hybrid_lsh::index::snapshot::save_snapshot_v1

use std::path::PathBuf;

use hybrid_lsh::datagen::benchmark_mixture;
use hybrid_lsh::index::snapshot::format::SectionEncoding;
use hybrid_lsh::index::snapshot::{save_snapshot_v1, SectionInfo};
use hybrid_lsh::prelude::*;

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hlsh-snapshot-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("compat-{}-{}.hlsh", tag, std::process::id()))
}

fn builder(dim: usize, seed: u64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(dim, 2.5), L2)
        .tables(4)
        .hash_len(4)
        .seed(seed)
        .lazy_threshold(8)
        .cost_model(CostModel::from_ratio(4.0))
}

const MODES: [LoadMode; 4] = [LoadMode::Read, LoadMode::Mmap, LoadMode::MmapVerify, LoadMode::Auto];

#[test]
fn v1_files_load_byte_identical_to_v2_across_modes_and_shards() {
    let (n, dim, seed, r, k) = (500usize, 8usize, 17u64, 1.25f64, 10usize);
    let (data, _) = benchmark_mixture(dim, n, r, seed);
    let queries: Vec<Vec<f32>> = (0..n).step_by(31).map(|i| data.row(i).to_vec()).collect();
    let schedule = RadiusSchedule::doubling(0.9, 2);

    for shards in [1usize, 2, 4] {
        let assignment = ShardAssignment::new(seed, shards);
        let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, builder(dim, seed));
        let topk = ShardedTopKIndex::build(data.clone(), assignment, schedule, |li, _| {
            builder(dim, seed.wrapping_add(li as u64)).tables(3 + li)
        })
        .freeze();
        let expect_rnnr = rnnr.query_batch(&queries, r);
        let expect_topk = topk.query_topk_batch(&queries, k);

        let v1_path = temp_path(&format!("v1-{shards}"));
        let v2_path = temp_path(&format!("v2-{shards}"));
        let v1_stats = save_snapshot_v1(&v1_path, &rnnr, Some(&topk)).expect("save v1");
        let v2_stats = save_snapshot(&v2_path, &rnnr, Some(&topk)).expect("save v2");

        // The two writers declare their versions, and the v2 file is
        // strictly smaller (packed encoded sections, tighter alignment,
        // one g-function area instead of one per shard).
        let v1_layout = read_layout(&v1_path).expect("v1 layout");
        let v2_layout = read_layout(&v2_path).expect("v2 layout");
        assert_eq!(v1_layout.version, 1);
        assert_eq!(v2_layout.version, 2);
        assert_eq!(v1_layout.sections.len(), v2_layout.sections.len());
        assert!(
            v2_stats.bytes < v1_stats.bytes,
            "v2 ({}) must be smaller than v1 ({})",
            v2_stats.bytes,
            v1_stats.bytes
        );
        // Same decoded payload either way; v1 never compresses.
        assert_eq!(v1_stats.raw_payload_bytes, v2_stats.raw_payload_bytes);
        assert_eq!(v1_stats.encoded_payload_bytes, v1_stats.raw_payload_bytes);
        assert!(v2_stats.encoded_payload_bytes < v2_stats.raw_payload_bytes);
        assert!(v2_stats.varint_sections + v2_stats.delta_sections > 0);

        // Both versions and the live index agree bit-for-bit in every
        // load mode.
        for path in [&v1_path, &v2_path] {
            let manifest = read_manifest(path).expect("manifest");
            assert_eq!(manifest.n, n);
            assert_eq!(manifest.shards, shards);
            for mode in MODES {
                let loaded = load_snapshot::<PStableL2, L2>(path, mode).expect("load");
                let ctx = format!("{} shards={shards} mode={mode:?}", path.display());
                assert_eq!(loaded.manifest, manifest, "{ctx}: manifest");
                let got = loaded.rnnr.query_batch(&queries, r);
                for (qi, (e, g)) in expect_rnnr.iter().zip(&got).enumerate() {
                    assert_eq!(e.ids, g.ids, "{ctx}: ids of query {qi}");
                    assert_eq!(e.report.executed, g.report.executed, "{ctx}: arm of query {qi}");
                    assert_eq!(
                        e.report.collisions, g.report.collisions,
                        "{ctx}: collisions of query {qi}"
                    );
                }
                let ladder = loaded.topk.expect("ladder survives");
                assert_eq!(expect_topk, ladder.query_topk_batch(&queries, k), "{ctx}: topk");
            }
        }
        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
    }
}

#[test]
fn v2_layout_labels_follow_the_schema_and_stats_add_up() {
    let (n, dim, seed) = (200usize, 6usize, 23u64);
    let (data, _) = benchmark_mixture(dim, n, 1.2, seed);
    let rnnr = ShardedIndex::build_frozen(data, ShardAssignment::new(seed, 2), builder(dim, seed));
    let path = temp_path("layout");
    save_snapshot(&path, &rnnr, None).expect("save");

    let layout = read_layout(&path).expect("layout");
    assert_eq!(layout.version, 2);
    // 2 shards × (owners + data + 4 tables × 7 arrays).
    assert_eq!(layout.sections.len(), 2 * (2 + 4 * 7));
    assert_eq!(layout.sections[0].label, "shard0/owners");
    assert_eq!(layout.sections[1].label, "shard0/data");
    assert_eq!(layout.sections[2].label, "shard0/rnnr/t0/keys");
    assert_eq!(layout.sections[8].label, "shard0/rnnr/t0/regs");
    let per_shard = 2 + 4 * 7;
    assert_eq!(layout.sections[per_shard].label, "shard1/owners");

    let (raw, encoded): (Vec<_>, Vec<_>) =
        layout.sections.iter().partition(|s| s.encoding == SectionEncoding::Raw);
    let bytes = |secs: &[&SectionInfo]| secs.iter().map(|s| s.enc_len).sum::<u64>();
    assert!(bytes(&raw) + bytes(&encoded) < layout.file_len, "sections fit inside the file");
    assert!(bytes(&raw) > 0, "point data always stays raw");
    assert!(bytes(&encoded) > 0, "offsets/prefix always compress");

    std::fs::remove_file(&path).ok();
}
