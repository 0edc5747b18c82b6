//! End-to-end integration tests spanning every crate: data generation →
//! family → index → hybrid query → recall against exact ground truth.

// Queries and ground truth are parallel arrays; indexed loops are intentional.
#![allow(clippy::needless_range_loop)]
use hybrid_lsh::datagen::{corel_like, covertype_like, ground_truth, mnist_like, webspam_like};
use hybrid_lsh::index::search::ExecutedArm;
use hybrid_lsh::prelude::*;

/// Builds + queries one dense configuration and checks the rNNR
/// contract: precision 1 (never report a far point), recall ≥ target.
fn check_dense<F: LshFamily<[f32]>>(
    mut data: DenseDataset,
    family: F,
    metric: impl Distance<[f32]>,
    r: f64,
    k: usize,
    l: usize,
    min_recall: f64,
) {
    let q_rows: Vec<usize> = (0..10).map(|i| i * (data.len() / 10)).collect();
    let queries = data.split_off_rows(&q_rows);
    let index =
        IndexBuilder::new(family, metric.clone()).tables(l).hash_len(k).seed(77).build(data);
    let truth = ground_truth(index.data(), &queries, &metric, r);
    let mut recalls = Vec::new();
    for qi in 0..queries.len() {
        let out = index.query(queries.row(qi), r);
        let rep = hybrid_lsh::index::evaluate_recall(&out.ids, &truth[qi]);
        assert!(rep.precision() >= 1.0 - 1e-12, "query {qi} reported a point outside the radius");
        recalls.push(rep.recall());
    }
    let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
    assert!(mean >= min_recall, "mean recall {mean} below {min_recall}");
}

#[test]
fn webspam_simhash_pipeline() {
    let family = SimHash::new(254);
    let r = 0.08;
    let k = k_paper(0.1, 20, family.collision_prob(r));
    check_dense(webspam_like(1_500, 3), family, UnitCosine, r, k, 20, 0.85);
}

#[test]
fn corel_pstable_l2_pipeline() {
    let r = 0.45;
    let (k, w) = PaperParams::default().pstable_k_w(hybrid_lsh::vec::MetricKind::L2, r);
    check_dense(corel_like(1_500, 4), PStableL2::new(32, w), L2, r, k, 50, 0.85);
}

#[test]
fn covertype_pstable_l1_pipeline() {
    let r = 3_500.0;
    let (k, w) = PaperParams::default().pstable_k_w(hybrid_lsh::vec::MetricKind::L1, r);
    check_dense(covertype_like(1_500, 5), PStableL1::new(54, w), L1, r, k, 50, 0.85);
}

#[test]
fn mnist_bitsampling_pipeline() {
    let mut data = mnist_like(2_000, 6);
    let q_rows: Vec<usize> = (0..10).map(|i| i * 190).collect();
    let queries = data.split_off_rows(&q_rows);
    let family = BitSampling::new(64);
    let r = 14.0;
    let k = k_paper(0.1, 30, family.collision_prob(r));
    let index = IndexBuilder::new(family, Hamming).tables(30).hash_len(k).seed(8).build(data);
    let truth = ground_truth(index.data(), &queries, &Hamming, r);
    for qi in 0..queries.len() {
        let out = index.query(queries.row(qi), r);
        let rep = hybrid_lsh::index::evaluate_recall(&out.ids, &truth[qi]);
        assert!(rep.precision() >= 1.0 - 1e-12);
        // Per-query recall must meet the 1 − δ bound with slack for the
        // ceil-k rule and sampling noise.
        assert!(rep.recall() >= 0.7, "query {qi} recall {}", rep.recall());
    }
}

#[test]
fn linear_strategy_is_exact_everywhere() {
    let mut data = webspam_like(800, 9);
    let queries = data.split_off_rows(&[1, 100, 700]);
    let index =
        IndexBuilder::new(SimHash::new(254), UnitCosine).tables(8).hash_len(10).seed(1).build(data);
    let truth = ground_truth(index.data(), &queries, &UnitCosine, 0.1);
    for qi in 0..queries.len() {
        let mut out = index.query_with_strategy(queries.row(qi), 0.1, Strategy::LinearOnly).ids;
        out.sort_unstable();
        assert_eq!(out, truth[qi], "linear arm must equal brute force");
    }
}

#[test]
fn hybrid_switches_arms_on_duplicate_heavy_data() {
    // All-identical data: every bucket holds everything → candSize ≈ n
    // → the linear arm is provably cheaper (dedup is pure overhead).
    let data = DenseDataset::from_rows(8, (0..600).map(|_| [0.5f32; 8]));
    let index = IndexBuilder::new(PStableL2::new(8, 1.0), L2)
        .tables(10)
        .hash_len(4)
        .seed(2)
        .cost_model(CostModel::from_ratio(2.0))
        .build(data);
    let out = index.query(&[0.5f32; 8], 0.1);
    assert_eq!(out.report.executed, ExecutedArm::Linear);
    assert_eq!(out.ids.len(), 600);

    // Spread data: tiny buckets → LSH arm.
    let data = DenseDataset::from_rows(
        8,
        (0..600).map(|i| {
            let mut v = [0.0f32; 8];
            v[0] = i as f32 * 100.0;
            v
        }),
    );
    let index = IndexBuilder::new(PStableL2::new(8, 1.0), L2)
        .tables(10)
        .hash_len(4)
        .seed(2)
        .cost_model(CostModel::from_ratio(2.0))
        .build(data);
    let out = index.query(&[0.0f32; 8], 0.1);
    assert_eq!(out.report.executed, ExecutedArm::Lsh);
    assert!(out.ids.contains(&0));
}

#[test]
fn candsize_estimate_tracks_exact_count() {
    // Table 1's claim: the merged-HLL estimate lands within ~10% of the
    // exact distinct candidate count (m = 128 ⇒ σ ≈ 9.2%; allow 3σ).
    let mut data = webspam_like(2_000, 12);
    let queries = data.split_off_rows(&[0, 500, 1_000, 1_500]);
    let index = IndexBuilder::new(SimHash::new(254), UnitCosine)
        .tables(20)
        .hash_len(12)
        .seed(4)
        .build(data);
    for qi in 0..queries.len() {
        let q = queries.row(qi);
        let est = index.explain(q).cand_size_estimate;
        let exact = index.exact_cand_size(q) as f64;
        if exact > 200.0 {
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.28, "query {qi}: estimate {est} vs exact {exact}");
        }
    }
}

#[test]
fn rebuilds_are_deterministic() {
    let build = || {
        let data = mnist_like(500, 3);
        IndexBuilder::new(BitSampling::new(64), Hamming)
            .tables(12)
            .hash_len(10)
            .seed(99)
            .cost_model(CostModel::from_ratio(1.0))
            .build(data)
    };
    let (a, b) = (build(), build());
    let q = [0xDEAD_BEEFu64];
    let (oa, ob) = (a.query(&q[..], 20.0), b.query(&q[..], 20.0));
    assert_eq!(oa.ids, ob.ids);
    assert_eq!(oa.report.collisions, ob.report.collisions);
    assert_eq!(oa.report.cand_size_estimate, ob.report.cand_size_estimate);
}

#[test]
fn multiprobe_beats_single_probe_recall_with_few_tables() {
    let mut data = mnist_like(2_000, 14);
    let q_rows: Vec<usize> = (0..8).map(|i| i * 200).collect();
    let queries = data.split_off_rows(&q_rows);
    let family = BitSampling::new(64);
    let index = IndexBuilder::new(family, Hamming)
        .tables(4) // deliberately too few for single-probe
        .hash_len(14)
        .seed(6)
        .cost_model(CostModel::from_ratio(1e12)) // force the LSH arm
        .build(data);
    let truth = ground_truth(index.data(), &queries, &Hamming, 14.0);
    let recall_at = |probes: usize| {
        let mut total = 0.0;
        for qi in 0..queries.len() {
            let out = hybrid_lsh::probe::multiprobe_query(
                &index,
                queries.row(qi),
                14.0,
                probes,
                Strategy::LshOnly,
            );
            total += hybrid_lsh::index::evaluate_recall(&out.ids, &truth[qi]).recall();
        }
        total / queries.len() as f64
    };
    let single = recall_at(1);
    let multi = recall_at(24);
    assert!(
        multi >= single + 0.03 || multi > 0.98,
        "multi-probe recall {multi} did not improve on {single}"
    );
}

#[test]
fn covering_index_is_exact_within_radius() {
    // Within the guarantee radius the LSH arm has zero false negatives,
    // so every strategy reports the exact set — on the hashmap store and
    // on the frozen store, whose answers also match the hashmap's in
    // order.
    let data = mnist_like(1_200, 18);
    let mut queries = vec![data.row(17)[0]];
    queries.extend((0..12).map(|i| data.row(i * 97)[0] ^ (1u64 << i)));
    let build = |data| {
        hybrid_lsh::probe::CoveringLshIndex::build(
            data,
            Hamming,
            64,
            6,
            3,
            4,
            CostModel::from_ratio(1.0),
        )
    };
    let frozen = build(mnist_like(1_200, 18)).freeze();
    let map = build(data);
    let mut linear = 0;
    for (qi, &q) in queries.iter().enumerate() {
        for r in [3.0, 6.0] {
            let mut exact = map.query(&[q], r, Strategy::LinearOnly).ids;
            exact.sort_unstable();
            for strategy in Strategy::ALL {
                let on_map = map.query(&[q], r, strategy);
                let on_frozen = frozen.query(&[q], r, strategy);
                assert_eq!(on_frozen.ids, on_map.ids, "{strategy} query {qi} r={r}");
                assert_eq!(on_frozen.report.executed, on_map.report.executed);
                if strategy == Strategy::Hybrid {
                    linear += usize::from(on_map.report.executed == ExecutedArm::Linear);
                }
                let mut got = on_frozen.ids;
                got.sort_unstable();
                assert_eq!(
                    got, exact,
                    "covering LSH must have zero false negatives ({strategy}, query {qi}, r={r})"
                );
            }
        }
    }
    // Hybrid must take both arms, or its agreement is vacuous.
    assert!(linear > 0 && linear < 2 * queries.len(), "{linear} Hybrid queries linear");
}

#[test]
fn io_round_trip_feeds_the_index() {
    // libsvm text → parser → index → query: the path a user of the real
    // Webspam file would take.
    let mut text = String::new();
    for i in 0..200 {
        let x = (i % 20) as f32 * 0.05;
        text.push_str(&format!("+1 1:{x} 2:{:.2} 3:1.0\n", 1.0 - x));
    }
    let (mut data, labels) = hybrid_lsh::vec::io::parse_libsvm(text.as_bytes(), 3).unwrap();
    assert_eq!(labels.len(), 200);
    data.normalize_l2();
    let queries = data.split_off_rows(&[0]);
    let index =
        IndexBuilder::new(SimHash::new(3), UnitCosine).tables(10).hash_len(4).seed(0).build(data);
    let out = index.query(queries.row(0), 0.05);
    assert!(!out.ids.is_empty());
}
