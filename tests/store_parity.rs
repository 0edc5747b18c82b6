//! Storage-backend parity and batch-engine equivalence.
//!
//! The refactor's contract: (1) `FrozenStore` is observationally
//! identical to `MapStore` for any insert sequence; (2) `query_batch`
//! returns byte-identical ids (and the same executed arm) as a
//! sequential `query` loop, on any thread count, on both backends.

use hybrid_lsh::hll::HllConfig;
use hybrid_lsh::index::store::{BucketStore, MapStore};
use hybrid_lsh::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

// Both globs export a `Strategy`; the index's enum is the one we mean.
use hybrid_lsh::{Strategy, VerifyMode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary insert sequences — including duplicate ids, key
    /// collisions, and lazy thresholds low enough to materialise
    /// sketches — freezing preserves every observable: bucket count,
    /// per-key membership (order included), sketch presence and sketch
    /// registers. Thawing restores mutability without loss.
    #[test]
    fn frozen_store_matches_map_store(
        inserts in vec((0u64..12, 0u32..500), 0..400),
        lazy_threshold in 1usize..40,
        seed in 0u64..1000,
    ) {
        let config = HllConfig::new(5, seed);
        let mut map = MapStore::new();
        for &(key, id) in &inserts {
            // Spread keys so adjacent test keys don't share buckets.
            map.insert(key.wrapping_mul(0x9E37_79B9_7F4A_7C15), id, config, lazy_threshold);
        }
        let frozen = map.clone().freeze();

        prop_assert_eq!(map.bucket_count(), frozen.bucket_count());
        for probe_key in (0u64..16).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            match (map.get(probe_key), frozen.get(probe_key)) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.members(), b.members());
                    prop_assert_eq!(a.has_sketch(), b.has_sketch());
                    if let (Some(sa), Some(sb)) = (a.sketch(), b.sketch()) {
                        prop_assert_eq!(sa.registers(), sb.registers());
                    }
                }
                (None, None) => {}
                (a, b) => {
                    prop_assert!(false, "presence mismatch: map {} frozen {}",
                        a.is_some(), b.is_some());
                }
            }
        }

        // Frozen iteration is sorted and covers exactly the map's keys.
        let frozen_keys: Vec<u64> = frozen.iter().map(|(k, _)| k).collect();
        prop_assert!(frozen_keys.windows(2).all(|w| w[0] < w[1]));
        let mut map_keys: Vec<u64> = map.iter().map(|(k, _)| k).collect();
        map_keys.sort_unstable();
        prop_assert_eq!(&frozen_keys, &map_keys);

        // Thaw round-trips.
        let thawed = frozen.thaw();
        prop_assert_eq!(thawed.bucket_count(), map.bucket_count());
        for (key, bucket) in map.iter() {
            let t = thawed.get(key).expect("key lost in thaw");
            prop_assert_eq!(bucket.members(), t.members());
        }
    }
}

type MixtureIndex<B> = HybridLshIndex<DenseDataset, PStableL2, L2, B>;

/// Builds the mixture-workload index pair (hashmap + frozen) and the
/// held-out query list shared by the equivalence tests.
fn mixture_setup() -> (MixtureIndex<MapStore>, MixtureIndex<FrozenStore>, Vec<Vec<f32>>, f64) {
    let dim = 16;
    let r = 1.4;
    let make_data = || {
        let (mut data, _) = hybrid_lsh::datagen::benchmark_mixture(dim, 3_000, r, 77);
        let q_rows: Vec<usize> = (0..60).map(|i| i * 49).collect();
        let queries = data.split_off_rows(&q_rows);
        (data, queries)
    };
    let (data, queries_ds) = make_data();
    let queries: Vec<Vec<f32>> =
        (0..queries_ds.len()).map(|i| queries_ds.row(i).to_vec()).collect();
    // β/α = 2: hard queries (mega-cluster collisions in most of the 12
    // tables) cost more than 2n and flip to the linear arm; easy ones
    // stay on LSH — the split the equivalence tests must cover.
    let build = |data| {
        IndexBuilder::new(PStableL2::new(dim, 2.0 * r), L2)
            .tables(12)
            .hash_len(6)
            .seed(5)
            .cost_model(CostModel::from_ratio(2.0))
            .build(data)
    };
    let map_index = build(data);
    let frozen_index = build(make_data().0).freeze();
    (map_index, frozen_index, queries, r)
}

#[test]
fn query_batch_equals_sequential_loop_on_mixture() {
    let (map_index, _frozen_index, queries, r) = mixture_setup();
    for strategy in Strategy::ALL {
        let sequential: Vec<QueryOutput> =
            queries.iter().map(|q| map_index.query_with_strategy(q, r, strategy)).collect();
        // Mixture data must exercise BOTH arms under Hybrid, or the
        // equivalence claim is vacuous.
        if matches!(strategy, Strategy::Hybrid) {
            let linear = sequential
                .iter()
                .filter(|o| {
                    matches!(o.report.executed, hybrid_lsh::index::search::ExecutedArm::Linear)
                })
                .count();
            assert!(linear > 0, "no hard queries in the mixture workload");
            assert!(linear < queries.len(), "no easy queries in the mixture workload");
        }
        for threads in [Some(1), Some(2), Some(4), None] {
            let batch = map_index.query_batch_with_strategy(&queries, r, strategy, threads);
            assert_eq!(batch.len(), sequential.len());
            for (qi, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                assert_eq!(b.ids, s.ids, "{strategy} query {qi} ({threads:?} threads)");
                assert_eq!(b.report.executed, s.report.executed);
                assert_eq!(b.report.collisions, s.report.collisions);
            }
        }
    }
}

#[test]
fn frozen_index_answers_identically_on_mixture() {
    let (map_index, frozen_index, queries, r) = mixture_setup();
    let map_out = map_index.query_batch(&queries, r);
    let frozen_out = frozen_index.query_batch(&queries, r);
    for (qi, (a, b)) in map_out.iter().zip(&frozen_out).enumerate() {
        assert_eq!(a.ids, b.ids, "query {qi}");
        assert_eq!(a.report.executed, b.report.executed);
        assert_eq!(a.report.collisions, b.report.collisions);
        assert_eq!(a.report.cand_size_estimate, b.report.cand_size_estimate);
    }
    // Strategy decisions must be the same per-query, so strategy
    // distribution across backends matches exactly too.
    assert_eq!(map_index.stats().member_slots, frozen_index.stats().member_slots);
}

/// Multi-probe with one probe per table is the single-probe level query:
/// under every strategy, the same ids in the same order, the same arm,
/// collisions, estimate bits and exact candidate count. Returns how many
/// Hybrid queries took the linear arm.
fn assert_one_probe_is_single_probe<S, F, D, B, Q>(
    index: &HybridLshIndex<S, F, D, B>,
    queries: &[Q],
    r: f64,
    label: &str,
) -> usize
where
    S: PointSet,
    F: LshFamily<S::Point>,
    F::GFn: hybrid_lsh::probe::ProbeSequence<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
    Q: AsRef<S::Point>,
{
    let mut linear = 0;
    for strategy in Strategy::ALL {
        for (qi, q) in queries.iter().enumerate() {
            let q = q.as_ref();
            let multi = hybrid_lsh::probe::multiprobe_query(index, q, r, 1, strategy);
            let single = index.query_with_strategy(q, r, strategy);
            let (m, s) = (&multi.report, &single.report);
            assert_eq!(multi.ids, single.ids, "{label} {strategy} query {qi}");
            assert_eq!(m.executed, s.executed, "{label} {strategy} query {qi}");
            assert_eq!(m.collisions, s.collisions, "{label} {strategy} query {qi}");
            assert_eq!(
                m.cand_size_estimate.to_bits(),
                s.cand_size_estimate.to_bits(),
                "{label} {strategy} query {qi}"
            );
            assert_eq!(m.cand_size_actual, s.cand_size_actual, "{label} {strategy} query {qi}");
            if strategy == Strategy::Hybrid {
                linear += usize::from(s.executed == hybrid_lsh::index::search::ExecutedArm::Linear);
            }
        }
    }
    linear
}

#[test]
fn multiprobe_works_on_frozen_backend() {
    let (map_index, frozen_index, queries, r) = mixture_setup();
    for q in queries.iter().take(12) {
        let a = hybrid_lsh::probe::multiprobe_query(&map_index, q, r, 6, Strategy::LshOnly);
        let b = hybrid_lsh::probe::multiprobe_query(&frozen_index, q, r, 6, Strategy::LshOnly);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.report.collisions, b.report.collisions);
    }

    // T = 1 ≡ single probe, for each family on both stores. Hybrid
    // must take both arms on every corpus, or the arm comparison is
    // vacuous.
    let both_arms = |linear: usize, n: usize, label: &str| {
        assert!(linear > 0 && linear < n, "{label}: {linear} of {n} Hybrid queries linear");
    };
    let n = queries.len();
    both_arms(assert_one_probe_is_single_probe(&map_index, &queries, r, "p-stable map"), n, "l2");
    both_arms(
        assert_one_probe_is_single_probe(&frozen_index, &queries, r, "p-stable frozen"),
        n,
        "l2",
    );

    // SimHash over the same mixture corpus, cosine distance.
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(16, 3_000, 1.4, 77);
    let simhash = || {
        IndexBuilder::new(SimHash::new(16), Cosine)
            .tables(8)
            .hash_len(6)
            .seed(3)
            .cost_model(CostModel::from_ratio(2.0))
    };
    let map = simhash().build(data.clone());
    let frozen = simhash().build(data).freeze();
    for r in [0.05, 0.2] {
        both_arms(assert_one_probe_is_single_probe(&map, &queries, r, "simhash map"), n, "simhash");
        both_arms(
            assert_one_probe_is_single_probe(&frozen, &queries, r, "simhash frozen"),
            n,
            "simhash",
        );
    }

    // Bit sampling over fingerprints with one dense cluster: queries in
    // the cluster go linear, the rest stay on LSH.
    let fps: Vec<u64> = (0..2_000u64)
        .map(|i| {
            if i < 500 {
                0xABCD_EF01_2345_6789 ^ (i % 3)
            } else {
                hybrid_lsh::hll::hash::splitmix64(i / 4)
            }
        })
        .collect();
    let bit_queries: Vec<Vec<u64>> =
        (0..40).map(|i| vec![fps[i * 49] ^ (1u64 << (i % 64))]).collect();
    let bits = || {
        IndexBuilder::new(BitSampling::new(64), Hamming)
            .tables(6)
            .hash_len(10)
            .seed(8)
            .cost_model(CostModel::from_ratio(1.0))
    };
    let map = bits().build(BinaryDataset::from_fingerprints(&fps));
    let frozen = bits().build(BinaryDataset::from_fingerprints(&fps)).freeze();
    let m = bit_queries.len();
    both_arms(assert_one_probe_is_single_probe(&map, &bit_queries, 4.0, "bits map"), m, "bits");
    both_arms(
        assert_one_probe_is_single_probe(&frozen, &bit_queries, 4.0, "bits frozen"),
        m,
        "bits",
    );
}

/// The packed register slab must be observationally lossless: every
/// sketched bucket's cardinality estimate is *byte-identical* (not
/// merely close) between the per-bucket `HyperLogLog` path and the
/// frozen slab's `SketchRef` path, per table and per key.
#[test]
fn frozen_slab_sketch_estimates_are_byte_identical() {
    let (map_index, frozen_index, _queries, _r) = mixture_setup();
    let mut sketched = 0usize;
    for (mt, ft) in map_index.raw_tables().iter().zip(frozen_index.raw_tables()) {
        for (key, mb) in mt.buckets() {
            let fb = ft.bucket_for_key(key).expect("key lost in freeze");
            assert_eq!(mb.has_sketch(), fb.has_sketch(), "sketch presence for key {key}");
            if let (Some(ms), Some(fs)) = (mb.sketch(), fb.sketch()) {
                assert_eq!(ms.registers(), fs.registers(), "registers for key {key}");
                assert_eq!(
                    ms.estimate().to_bits(),
                    fs.estimate().to_bits(),
                    "estimate for key {key} must be byte-identical"
                );
                sketched += 1;
            }
        }
    }
    assert!(sketched > 0, "mixture workload must materialise some sketches");
}

/// The kernelized S3 filter (batched one-to-many verification) and the
/// scalar per-candidate loop must produce identical ids and identical
/// executed arms on the mixture corpus — the engine-level guarantee
/// that kernel rounding never flips an accept/reject decision at the
/// tested radius.
#[test]
fn kernel_and_scalar_verify_modes_agree_on_mixture() {
    let (map_index, frozen_index, queries, r) = mixture_setup();
    for strategy in Strategy::ALL {
        let mut kernel_engine = QueryEngine::with_verify_mode(VerifyMode::Kernel);
        let mut scalar_engine = QueryEngine::with_verify_mode(VerifyMode::Scalar);
        assert_eq!(kernel_engine.verify_mode(), VerifyMode::Kernel);
        for (qi, q) in queries.iter().enumerate() {
            let k = kernel_engine.query_with_strategy(&map_index, q, r, strategy);
            let s = scalar_engine.query_with_strategy(&map_index, q, r, strategy);
            assert_eq!(k.ids, s.ids, "{strategy} query {qi}");
            assert_eq!(k.report.executed, s.report.executed, "{strategy} query {qi}");
            assert_eq!(k.report.cand_size_actual, s.report.cand_size_actual);

            let kf = kernel_engine.query_with_strategy(&frozen_index, q, r, strategy);
            assert_eq!(kf.ids, s.ids, "frozen {strategy} query {qi}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot round trip is one more backend-parity claim: the
    /// frozen stores that come back from disk — via buffered read and
    /// via zero-copy mmap — must answer `query_batch` and
    /// `query_topk_batch` byte-identically to the in-memory index that
    /// was saved, for arbitrary mixture corpora and shard counts.
    #[test]
    fn snapshot_round_trip_preserves_query_and_topk_batches(
        n in 120usize..320,
        shards_idx in 0usize..3,
        seed in 0u64..400,
        k in 1usize..16,
    ) {
        let dim = 8;
        let r = 1.3;
        let shards = [1usize, 2, 4][shards_idx];
        let (data, _) = hybrid_lsh::datagen::benchmark_mixture(dim, n, r, seed);
        let queries: Vec<Vec<f32>> = (0..n).step_by(31).map(|i| data.row(i).to_vec()).collect();
        let builder = |s: u64| {
            IndexBuilder::new(PStableL2::new(dim, 2.0 * r), L2)
                .tables(4)
                .hash_len(4)
                .seed(s)
                .lazy_threshold(8)
                .cost_model(CostModel::from_ratio(3.0))
        };
        let assignment = ShardAssignment::new(seed ^ 0x5A, shards);
        let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, builder(seed));
        let topk = ShardedTopKIndex::build(
            data,
            assignment,
            RadiusSchedule::doubling(0.9, 2),
            |li, _| builder(seed.wrapping_add(li as u64)),
        )
        .freeze();
        let expect_rnnr = rnnr.query_batch(&queries, r);
        let expect_topk = topk.query_topk_batch(&queries, k);

        let dir = std::env::temp_dir().join("hlsh-snapshot-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("parity-{}-{seed}-{n}-{shards}.hlsh", std::process::id()));
        hybrid_lsh::save_snapshot(&path, &rnnr, Some(&topk)).expect("save");

        for mode in [hybrid_lsh::LoadMode::Read, hybrid_lsh::LoadMode::Mmap] {
            let loaded =
                hybrid_lsh::load_snapshot::<PStableL2, L2>(&path, mode).expect("load");
            let got_rnnr = loaded.rnnr.query_batch(&queries, r);
            for (qi, (e, g)) in expect_rnnr.iter().zip(&got_rnnr).enumerate() {
                prop_assert_eq!(&e.ids, &g.ids, "{:?} query {}", mode, qi);
                // Everything but the wall-clock timing fields.
                prop_assert_eq!(e.report.executed, g.report.executed, "{:?} query {}", mode, qi);
                prop_assert_eq!(e.report.collisions, g.report.collisions, "{:?} query {}", mode, qi);
                prop_assert_eq!(
                    e.report.cand_size_estimate.to_bits(),
                    g.report.cand_size_estimate.to_bits(),
                    "{:?} query {}", mode, qi
                );
            }
            let ladder = loaded.topk.expect("ladder round-trips");
            prop_assert_eq!(&expect_topk, &ladder.query_topk_batch(&queries, k), "{:?}", mode);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn frozen_index_thaws_back_to_streaming() {
    let (map_index, frozen_index, queries, r) = mixture_setup();
    let mut thawed = frozen_index.thaw();
    let grown_id = thawed.insert(&queries[0]);
    assert_eq!(grown_id as usize, map_index.len());
    // The fresh point is its own exact neighbor now.
    let out = thawed.query(&queries[0], r);
    assert!(out.ids.contains(&grown_id));
}
