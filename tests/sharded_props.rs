//! Shard-merge equivalence: a [`ShardedIndex`] must report exactly the
//! unsharded index's rNNR id set (canonical ascending order), and a
//! [`ShardedTopKIndex`] must produce byte-identical `(distance, id)`
//! rankings and walk reports — across shard counts {1, 2, 4, 7}, both
//! storage backends, and both verify modes. A Hamming / bit-sampling
//! corpus runs the same checks through the popcount kernels and the
//! shard engines' bitmap dedup of global ids.

use hybrid_lsh::prelude::*;
use proptest::prelude::*;

// Both globs export a `Strategy`; the index's enum is the one we mean.
use hybrid_lsh::Strategy;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn mixture(n: usize, dim: usize, seed: u64) -> DenseDataset {
    let (data, _) = hybrid_lsh::datagen::benchmark_mixture(dim, n, 1.3, seed);
    data
}

fn rnnr_builder(dim: usize, seed: u64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(dim, 2.6), L2)
        .tables(6)
        .hash_len(4)
        .seed(seed)
        .lazy_threshold(8)
        .cost_model(CostModel::from_ratio(4.0))
}

/// 64-bit fingerprints in clusters of eight near-duplicates (a base
/// word with about two random bits flipped per member), so buckets
/// collide heavily and the dedup has real duplicates to remove.
fn fingerprints(n: usize, seed: u64) -> BinaryDataset {
    let mix = |x: u64| {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let fps: Vec<u64> = (0..n as u64)
        .map(|i| {
            let noise = mix(seed ^ (i << 8)) & mix(seed ^ (i << 8) ^ 1) & mix(seed ^ (i << 8) ^ 2);
            mix(seed.wrapping_mul(31) ^ (i / 8)) ^ (noise & mix(i) & mix(i ^ seed))
        })
        .collect();
    BinaryDataset::from_fingerprints(&fps)
}

fn hamming_builder(seed: u64) -> IndexBuilder<BitSampling, Hamming> {
    IndexBuilder::new(BitSampling::new(64), Hamming)
        .tables(8)
        .hash_len(10)
        .seed(seed)
        .lazy_threshold(8)
        .cost_model(CostModel::from_ratio(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// rNNR: for every strategy, the sharded output ids equal the
    /// unsharded ids sorted ascending (same set — the shard merge's
    /// canonical order is ascending), on the map and frozen backends
    /// and under both verify modes.
    #[test]
    fn sharded_rnnr_ids_match_unsharded(
        seed in 0u64..300,
        shard_idx in 0usize..4,
        n in 150usize..350,
        qsel in 1usize..29,
    ) {
        let dim = 12;
        let shards = SHARD_COUNTS[shard_idx];
        let data = mixture(n, dim, seed);
        let unsharded = rnnr_builder(dim, seed).build(data.clone());
        let sharded =
            ShardedIndex::build(data.clone(), ShardAssignment::new(seed ^ 0xA5, shards), rnnr_builder(dim, seed));
        let frozen = ShardedIndex::build_frozen(
            data.clone(),
            ShardAssignment::new(seed ^ 0xA5, shards),
            rnnr_builder(dim, seed),
        );
        let r = 1.3;
        for qi in (0..n).step_by(qsel) {
            let q = data.row(qi).to_vec();
            for strategy in Strategy::ALL {
                let mut expect = unsharded.query_with_strategy(&q[..], r, strategy).ids;
                expect.sort_unstable();
                let got = sharded.query_with_strategy(&q[..], r, strategy);
                prop_assert_eq!(&got.ids, &expect, "map shards={} q={} {}", shards, qi, strategy);
                let got_frozen = frozen.query_with_strategy(&q[..], r, strategy);
                prop_assert_eq!(&got_frozen.ids, &expect, "frozen shards={} q={} {}", shards, qi, strategy);

                // Global decision statistics match the unsharded ones.
                let un = unsharded.query_with_strategy(&q[..], r, strategy);
                prop_assert_eq!(got.report.executed, un.report.executed);
                prop_assert_eq!(got.report.collisions, un.report.collisions);

                // Scalar verification agrees with the kernel default.
                let mut scalar = ShardedQueryEngine::with_verify_mode(VerifyMode::Scalar);
                let got_scalar = scalar.query_with_strategy(&sharded, &q[..], r, strategy);
                prop_assert_eq!(&got_scalar.ids, &expect, "scalar shards={} q={}", shards, qi);
            }
        }
    }

    /// Top-k: the sharded ladder's `(distance, id)` rankings and walk
    /// reports are byte-identical to the unsharded [`TopKIndex`], on
    /// both backends and under both verify modes, for every shard
    /// count.
    #[test]
    fn sharded_topk_matches_unsharded(
        seed in 0u64..300,
        shard_idx in 0usize..4,
        n in 120usize..260,
        k in 1usize..12,
    ) {
        let dim = 10;
        let shards = SHARD_COUNTS[shard_idx];
        let data = mixture(n, dim, seed);
        let schedule = RadiusSchedule::doubling(0.9, 3);
        let level_builder = move |_li: usize, r: f64| {
            IndexBuilder::new(PStableL2::new(dim, 2.0 * r), L2)
                .tables(6)
                .hash_len(4)
                .seed(seed)
                .lazy_threshold(8)
                .cost_model(CostModel::from_ratio(4.0))
        };
        let unsharded = TopKIndex::build(data.clone(), schedule, level_builder);
        let assignment = ShardAssignment::new(seed ^ 0x51, shards);
        let sharded = ShardedTopKIndex::build(data.clone(), assignment, schedule, level_builder);
        let queries: Vec<Vec<f32>> = (0..n).step_by(23).map(|qi| data.row(qi).to_vec()).collect();
        for q in &queries {
            let expect = unsharded.query_topk(&q[..], k);
            let got = sharded.query_topk(&q[..], k);
            // TopKOutput equality covers neighbors (distance bits
            // included) and the report minus wall time.
            prop_assert_eq!(&got, &expect, "map shards={} k={}", shards, k);

            let mut scalar = ShardedTopKEngine::with_verify_mode(VerifyMode::Scalar);
            let got_scalar = scalar.query_topk(&sharded, &q[..], k);
            prop_assert_eq!(&got_scalar, &expect, "scalar shards={} k={}", shards, k);
        }

        // Frozen backend and batch path: byte-identical again.
        let frozen = sharded.freeze();
        let batch = frozen.query_topk_batch(&queries, k);
        for (qi, q) in queries.iter().enumerate() {
            let expect = unsharded.query_topk(&q[..], k);
            prop_assert_eq!(&batch[qi], &expect, "frozen batch shards={} q={}", shards, qi);
        }
    }

    /// Hamming space: sharded rNNR ids, executed arm, collision count
    /// and distinct-candidate count equal the unsharded index's, and
    /// the sharded top-k ladder equals the unsharded one, for every
    /// shard count, backend and verify mode.
    #[test]
    fn sharded_hamming_matches_unsharded(
        seed in 0u64..300,
        shard_idx in 0usize..4,
        n in 200usize..500,
        k in 1usize..12,
    ) {
        let shards = SHARD_COUNTS[shard_idx];
        let data = fingerprints(n, seed);
        let unsharded = hamming_builder(seed).build(data.clone());
        let assignment = ShardAssignment::new(seed ^ 0x3C, shards);
        let sharded = ShardedIndex::build(data.clone(), assignment, hamming_builder(seed));
        let frozen = ShardedIndex::build_frozen(data.clone(), assignment, hamming_builder(seed));
        let mut deduped = 0usize;
        for qi in (0..n).step_by(17) {
            let q = data.row(qi).to_vec();
            for r in [2.0, 6.0, 12.0] {
                for strategy in Strategy::ALL {
                    let un = unsharded.query_with_strategy(&q[..], r, strategy);
                    let mut expect = un.ids.clone();
                    expect.sort_unstable();
                    let got = sharded.query_with_strategy(&q[..], r, strategy);
                    prop_assert_eq!(&got.ids, &expect, "map shards={} q={} r={} {}", shards, qi, r, strategy);
                    prop_assert_eq!(got.report.executed, un.report.executed);
                    prop_assert_eq!(got.report.collisions, un.report.collisions);
                    prop_assert_eq!(got.report.cand_size_actual, un.report.cand_size_actual);
                    if let Some(cands) = un.report.cand_size_actual {
                        deduped += un.report.collisions - cands;
                    }
                    let got_frozen = frozen.query_with_strategy(&q[..], r, strategy);
                    prop_assert_eq!(&got_frozen.ids, &expect, "frozen shards={} q={}", shards, qi);

                    let mut scalar = ShardedQueryEngine::with_verify_mode(VerifyMode::Scalar);
                    let got_scalar = scalar.query_with_strategy(&sharded, &q[..], r, strategy);
                    prop_assert_eq!(&got_scalar.ids, &expect, "scalar shards={} q={}", shards, qi);
                }
            }
        }

        prop_assert!(deduped > 0, "the corpus must give the dedup duplicates to remove");

        let schedule = RadiusSchedule::doubling(2.0, 3);
        let level_builder = move |_li: usize, _r: f64| hamming_builder(seed);
        let unsharded = TopKIndex::build(data.clone(), schedule, level_builder);
        let sharded = ShardedTopKIndex::build(data.clone(), assignment, schedule, level_builder);
        for qi in (0..n).step_by(29) {
            let q = data.row(qi).to_vec();
            let expect = unsharded.query_topk(&q[..], k);
            prop_assert_eq!(&sharded.query_topk(&q[..], k), &expect, "top-k shards={} k={}", shards, k);
            let mut scalar = ShardedTopKEngine::with_verify_mode(VerifyMode::Scalar);
            prop_assert_eq!(&scalar.query_topk(&sharded, &q[..], k), &expect, "scalar top-k shards={}", shards);
        }
    }
}
