//! One [`Engine`] driven through every deployment in turn — the single,
//! sharded and segmented rNNR indexes and their three top-k ladders,
//! then back again — must answer exactly as a fresh engine does on each
//! call: the same ids in the same order, the same report (minus its
//! `*_nanos` timings) and the same top-k rankings and walk reports.
//!
//! The indexes differ in `n` and in HLL precision, so the engine's
//! dedup scratch is reused across id spaces of different sizes and its
//! merge accumulator is recreated whenever the sketch configuration
//! changes between calls. Both verify modes run.

use hybrid_lsh::datagen::benchmark_mixture;
use hybrid_lsh::prelude::*;
use hybrid_lsh::{Engine, RnnrIndex, Strategy, TopKLadder, VerifyMode};

const DIM: usize = 8;
const R: f64 = 1.3;

fn builder(precision: u8, seed: u64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(DIM, 2.0 * R), L2)
        .tables(6)
        .hash_len(4)
        .hll_precision(precision)
        .lazy_threshold(4)
        .seed(seed)
        .cost_model(CostModel::from_ratio(3.0))
}

fn ladder_builder(precision: u8) -> impl Fn(usize, f64) -> IndexBuilder<PStableL2, L2> + Copy {
    move |li, r| {
        IndexBuilder::new(PStableL2::new(DIM, 2.0 * r), L2)
            .tables(6)
            .hash_len(4)
            .hll_precision(precision)
            .seed(31 + li as u64)
            .cost_model(CostModel::from_ratio(3.0))
    }
}

fn corpus(n: usize, seed: u64) -> DenseDataset {
    benchmark_mixture(DIM, n, R, seed).0
}

/// A living index after inserts, deletes and a flush, so the queries
/// see a memtable, segments and tombstones.
fn churned<L>(
    mut index: hybrid_lsh::index::Segmented<PStableL2, L2, L>,
    data: &DenseDataset,
) -> hybrid_lsh::index::Segmented<PStableL2, L2, L> {
    for row in 0..data.len() {
        index.insert(row as PointId, data.row(row)).unwrap();
        if row % 5 == 4 {
            index.delete(row as PointId - 3).unwrap();
        }
        if row == data.len() / 2 {
            index.flush();
        }
    }
    index
}

fn same_rnnr(got: &QueryOutput, want: &QueryOutput, ctx: &str) {
    assert_eq!(got.ids, want.ids, "{ctx}: ids");
    let (g, w) = (got.report, want.report);
    assert_eq!(g.executed, w.executed, "{ctx}: arm");
    assert_eq!(g.collisions, w.collisions, "{ctx}: collisions");
    assert_eq!(g.cand_size_estimate.to_bits(), w.cand_size_estimate.to_bits(), "{ctx}: estimate");
    assert_eq!(g.cand_size_actual, w.cand_size_actual, "{ctx}: exact count");
    assert_eq!(g.output_size, w.output_size, "{ctx}: output size");
}

/// Every strategy on every query through the reused `engine`, each
/// checked against a fresh engine.
fn check_rnnr<I>(engine: &mut Engine, index: &I, queries: &[Vec<f32>], ctx: &str)
where
    I: RnnrIndex<Point = [f32]>,
{
    for strategy in Strategy::ALL {
        for (qi, q) in queries.iter().enumerate() {
            let got = engine.query_with_strategy(index, q, R, strategy);
            let want = Engine::with_verify_mode(engine.verify_mode())
                .query_with_strategy(index, q, R, strategy);
            same_rnnr(&got, &want, &format!("{ctx} {strategy} query {qi}"));
        }
    }
}

fn check_topk<I>(engine: &mut Engine, ladder: &I, queries: &[Vec<f32>], ctx: &str)
where
    I: TopKLadder<Point = [f32]>,
{
    for strategy in Strategy::ALL {
        for k in [1, 7, 40] {
            for (qi, q) in queries.iter().enumerate() {
                let got = engine.query_topk_with(ladder, q, k, strategy);
                let want = Engine::with_verify_mode(engine.verify_mode())
                    .query_topk_with(ladder, q, k, strategy);
                assert_eq!(got, want, "{ctx} {strategy} k={k} query {qi}");
            }
        }
    }
}

#[test]
fn one_engine_across_deployments_equals_fresh_engines() {
    let schedule = RadiusSchedule::doubling(0.8, 3);
    let single = builder(6, 1).build(corpus(1_400, 1)).freeze();
    let sharded_data = corpus(600, 2);
    let sharded =
        ShardedIndex::build(sharded_data.clone(), ShardAssignment::new(5, 3), builder(9, 2));
    let segmented = churned(
        SegmentedIndex::with_limits(DIM, ShardAssignment::new(7, 2), builder(4, 3), 64, 3),
        &corpus(900, 3),
    );
    let ladder = TopKIndex::build(corpus(500, 4), schedule, ladder_builder(8)).freeze();
    let sharded_ladder = ShardedTopKIndex::build(
        sharded_data,
        ShardAssignment::new(5, 2),
        schedule,
        ladder_builder(5),
    );
    let segmented_ladder = churned(
        SegmentedTopKIndex::with_limits(
            DIM,
            ShardAssignment::new(7, 2),
            schedule,
            ladder_builder(7),
            64,
            3,
        ),
        &corpus(700, 5),
    );
    let queries: Vec<Vec<f32>> = {
        let pool = corpus(1_400, 1);
        (0..pool.len())
            .step_by(97)
            .map(|i| pool.row(i).iter().map(|x| x + 0.05).collect())
            .collect()
    };

    for verify in [VerifyMode::Kernel, VerifyMode::Scalar] {
        let mut engine = Engine::with_verify_mode(verify);
        for round in 0..2 {
            let ctx = |name: &str| format!("{verify:?} round {round} {name}");
            check_rnnr(&mut engine, &single, &queries, &ctx("single"));
            check_topk(&mut engine, &ladder, &queries, &ctx("ladder"));
            check_rnnr(&mut engine, &sharded, &queries, &ctx("sharded"));
            check_topk(&mut engine, &segmented_ladder, &queries, &ctx("segmented ladder"));
            check_rnnr(&mut engine, &segmented, &queries, &ctx("segmented"));
            check_topk(&mut engine, &sharded_ladder, &queries, &ctx("sharded ladder"));
            check_rnnr(&mut engine, &single, &queries, &ctx("single again"));
        }
    }
}
