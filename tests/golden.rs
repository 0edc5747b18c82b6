//! Golden answer digest: every deployment's answers on a fixed seeded
//! matrix, folded into one FNV-1a digest per row and compared with the
//! committed `tests/golden/answers.txt`.
//!
//! The other byte-identity gates compare deployments with each other
//! (sharded ≡ unsharded, batch ≡ sequential, socket ≡ in-process); a
//! change that moves every deployment the same way — in the shared
//! level query, in the arm decision, in a kernel — passes all of them.
//! This one pins the answers themselves. A row hashes, per query, the
//! ids in order, the executed arm, the collision count, the estimate's
//! bits, the exact candidate count and the output size; a top-k row
//! hashes every `(id, distance bits)` pair and the walk report. No
//! `*_nanos` field is hashed. The matrix:
//!
//! - the single index, map and frozen, over p-stable (L2), SimHash
//!   (cosine) and bit sampling (Hamming);
//! - multi-probe at T ∈ {1, 3} over the same indexes, and covering LSH;
//! - the sharded rNNR index and top-k ladder at {1, 2, 4} shards;
//! - the segmented rNNR index and ladder after a seeded insert / delete
//!   / flush / compact history;
//! - the single top-k ladder, on a corpus whose walks take the exact
//!   fallback and defer levels;
//! - one batch call per deployment, and the frozen and living services'
//!   batch entry points;
//! - a `Coordinator` over {1, 2, 4} shard-node servers on 127.0.0.1,
//!   answering the same batch through the shard protocol;
//! - the bytes `save_snapshot` writes for a small `MixturePreset`.
//!
//! Every strategy runs, and both verify modes wherever an engine takes
//! one. Every index has an explicit `CostModel`: calibration measures
//! the host, so a calibrated model would make the digests host-bound.
//! The kernels have a fixed lane and fold schedule and use no FMA, so
//! the digests should not depend on the host either; only x86-64 has
//! been checked.
//!
//! A change that moves a row on purpose rewrites the file from the
//! copy this test leaves in Cargo's per-target scratch directory, and
//! names the changed rows and the reason.

use std::fmt::Write as _;
use std::path::Path;

use hybrid_lsh::datagen::benchmark_mixture;
use hybrid_lsh::index::search::ExecutedArm;
use hybrid_lsh::prelude::*;
use hybrid_lsh::probe::{multiprobe_query, CoveringLshIndex};
use hybrid_lsh::server::{
    spawn, Coordinator, CoordinatorConfig, LiveLshService, QueryService, ServerConfig,
    ShardNodeService, ShardedLshService,
};
use hybrid_lsh::{Strategy, VerifyMode};

const MODES: [VerifyMode; 2] = [VerifyMode::Kernel, VerifyMode::Scalar];

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn ids(&mut self, ids: &[PointId]) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.u64(u64::from(id));
        }
    }

    fn pairs(&mut self, pairs: impl ExactSizeIterator<Item = (PointId, f64)>) {
        self.u64(pairs.len() as u64);
        for (id, dist) in pairs {
            self.u64(u64::from(id));
            self.u64(dist.to_bits());
        }
    }

    /// An rNNR answer: ids in order and the report minus its timings.
    fn rnnr(&mut self, out: &QueryOutput) {
        self.ids(&out.ids);
        let r = &out.report;
        self.u64(matches!(r.executed, ExecutedArm::Lsh) as u64);
        self.u64(r.collisions as u64);
        self.u64(r.cand_size_estimate.to_bits());
        self.u64(r.cand_size_actual.map_or(u64::MAX, |c| c as u64));
        self.u64(r.output_size as u64);
    }

    /// A top-k answer: every `(id, distance bits)` and the walk report
    /// minus its timing.
    fn topk(&mut self, out: &TopKOutput) {
        self.pairs(out.neighbors.iter().map(|n| (n.id, n.dist)));
        let r = &out.report;
        for v in [r.levels_executed, r.levels_skipped, r.verified] {
            self.u64(v as u64);
        }
        self.u64(r.early_exit as u64);
        self.u64(r.exact_fallback as u64);
    }
}

/// The digest rows, in file order.
#[derive(Default)]
struct Rows(Vec<(String, u64)>);

impl Rows {
    fn push(&mut self, name: impl Into<String>, fnv: Fnv) {
        self.0.push((name.into(), fnv.0));
    }

    fn render(&self) -> String {
        let mut text = String::new();
        for (name, digest) in &self.0 {
            writeln!(text, "{name} {digest:016x}").unwrap();
        }
        text
    }
}

fn mode_name(verify: VerifyMode) -> &'static str {
    match verify {
        VerifyMode::Kernel => "kernel",
        VerifyMode::Scalar => "scalar",
    }
}

fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Hybrid => "hybrid",
        Strategy::LshOnly => "lsh",
        Strategy::LinearOnly => "linear",
    }
}

/// Dense queries: every `step`-th row nudged off its point, so queries
/// land both inside the dense clusters and in the sparse background.
fn dense_queries(data: &DenseDataset, step: usize) -> Vec<Vec<f32>> {
    (0..data.len())
        .step_by(step)
        .enumerate()
        .map(|(qi, i)| {
            let mut q = data.row(i).to_vec();
            let dim = q.len();
            q[qi % dim] += 0.125;
            q
        })
        .collect()
}

fn pstable(dim: usize, r: f64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(dim, 2.0 * r), L2)
        .tables(12)
        .hash_len(6)
        .seed(5)
        .cost_model(CostModel::from_ratio(2.0))
}

fn simhash(dim: usize) -> IndexBuilder<SimHash, Cosine> {
    IndexBuilder::new(SimHash::new(dim), Cosine)
        .tables(8)
        .hash_len(6)
        .seed(3)
        .cost_model(CostModel::from_ratio(2.0))
}

fn bits() -> IndexBuilder<BitSampling, Hamming> {
    IndexBuilder::new(BitSampling::new(64), Hamming)
        .tables(6)
        .hash_len(10)
        .seed(8)
        .cost_model(CostModel::from_ratio(1.0))
}

/// Fingerprints with one dense near-duplicate cluster (its queries go
/// linear) over a spread background (its queries stay on LSH).
fn fingerprints() -> Vec<u64> {
    (0..2_000u64)
        .map(|i| {
            if i < 500 {
                0xABCD_EF01_2345_6789 ^ (i % 3)
            } else {
                hybrid_lsh::hll::hash::splitmix64(i / 4)
            }
        })
        .collect()
}

/// Every strategy × verify mode of one single index through a reused
/// engine, plus multi-probe at T ∈ {1, 3} on every strategy.
fn single_rows<S, F, D, B, Q>(
    rows: &mut Rows,
    name: &str,
    index: &HybridLshIndex<S, F, D, B>,
    queries: &[Q],
    r: f64,
) where
    S: PointSet,
    F: LshFamily<S::Point>,
    F::GFn: hybrid_lsh::probe::ProbeSequence<S::Point>,
    D: Distance<S::Point>,
    B: BucketStore,
    Q: AsRef<S::Point>,
{
    for verify in MODES {
        let mut engine = QueryEngine::with_verify_mode(verify);
        for strategy in Strategy::ALL {
            let mut fnv = Fnv::new();
            for q in queries {
                fnv.rnnr(&engine.query_with_strategy(index, q.as_ref(), r, strategy));
            }
            rows.push(
                format!("single/{name}/{}/{}", strategy_name(strategy), mode_name(verify)),
                fnv,
            );
        }
    }
    for probes in [1, 3] {
        for strategy in Strategy::ALL {
            let mut fnv = Fnv::new();
            for q in queries {
                fnv.rnnr(&multiprobe_query(index, q.as_ref(), r, probes, strategy));
            }
            rows.push(format!("multiprobe/{name}/t{probes}/{}", strategy_name(strategy)), fnv);
        }
    }
}

fn single_index_rows(rows: &mut Rows) {
    // p-stable over the mixture corpus: β/α = 2 sends the mega-cluster
    // queries linear and keeps the rest on LSH.
    let (dim, r) = (16, 1.4);
    let (data, _) = benchmark_mixture(dim, 3_000, r, 77);
    let queries = dense_queries(&data, 53);
    let map = pstable(dim, r).build(data.clone());
    single_rows(rows, "pstable/map", &map, &queries, r);
    let frozen = pstable(dim, r).build(data.clone()).freeze();
    single_rows(rows, "pstable/frozen", &frozen, &queries, r);

    // SimHash over the same corpus, cosine distance, two radii.
    let map = simhash(dim).build(data.clone());
    let frozen = simhash(dim).build(data).freeze();
    for r in [0.05, 0.2] {
        single_rows(rows, &format!("simhash-r{r}/map"), &map, &queries, r);
        single_rows(rows, &format!("simhash-r{r}/frozen"), &frozen, &queries, r);
    }

    // Bit sampling over fingerprints.
    let fps = fingerprints();
    let queries: Vec<Vec<u64>> = (0..40).map(|i| vec![fps[i * 49] ^ (1u64 << (i % 64))]).collect();
    let map = bits().build(BinaryDataset::from_fingerprints(&fps));
    single_rows(rows, "bits/map", &map, &queries, 4.0);
    let frozen = bits().build(BinaryDataset::from_fingerprints(&fps)).freeze();
    single_rows(rows, "bits/frozen", &frozen, &queries, 4.0);
}

fn covering_rows(rows: &mut Rows) {
    let fps = fingerprints();
    let build = |fps: &[u64]| {
        CoveringLshIndex::build(
            BinaryDataset::from_fingerprints(fps),
            Hamming,
            64,
            6,
            3,
            4,
            CostModel::from_ratio(1.0),
        )
    };
    let map = build(&fps);
    let frozen = build(&fps).freeze();
    let queries: Vec<u64> = (0..30).map(|i| fps[i * 61] ^ (0b101u64 << (i % 60))).collect();
    for r in [3.0, 6.0] {
        for strategy in Strategy::ALL {
            let (mut on_map, mut on_frozen) = (Fnv::new(), Fnv::new());
            for q in &queries {
                on_map.rnnr(&map.query(&[*q], r, strategy));
                on_frozen.rnnr(&frozen.query(&[*q], r, strategy));
            }
            rows.push(format!("covering/map/r{r}/{}", strategy_name(strategy)), on_map);
            rows.push(format!("covering/frozen/r{r}/{}", strategy_name(strategy)), on_frozen);
        }
    }
}

fn level_builder(dim: usize) -> impl Fn(usize, f64) -> IndexBuilder<PStableL2, L2> + Copy {
    move |li, r| {
        IndexBuilder::new(PStableL2::new(dim, 2.0 * r), L2)
            .tables(8)
            .hash_len(4)
            .seed(7 + li as u64)
            .cost_model(CostModel::from_ratio(4.0))
    }
}

fn sharded_rows(rows: &mut Rows) {
    let (dim, r) = (16, 1.3);
    let (data, _) = benchmark_mixture(dim, 2_400, r, 31);
    let queries = dense_queries(&data, 71);
    let schedule = RadiusSchedule::doubling(0.9, 4);
    for shards in [1usize, 2, 4] {
        let assignment = ShardAssignment::new(17, shards);
        let rnnr = ShardedIndex::build(data.clone(), assignment, pstable(dim, r));
        let frozen = ShardedIndex::build_frozen(data.clone(), assignment, pstable(dim, r));
        for verify in MODES {
            let mut engine = ShardedQueryEngine::with_verify_mode(verify);
            for strategy in Strategy::ALL {
                let (mut on_map, mut on_frozen) = (Fnv::new(), Fnv::new());
                for q in &queries {
                    on_map.rnnr(&engine.query_with_strategy(&rnnr, q, r, strategy));
                    on_frozen.rnnr(&engine.query_with_strategy(&frozen, q, r, strategy));
                }
                let tail = format!("{}/{}", strategy_name(strategy), mode_name(verify));
                rows.push(format!("sharded/s{shards}/map/{tail}"), on_map);
                rows.push(format!("sharded/s{shards}/frozen/{tail}"), on_frozen);
            }
        }

        let ladder =
            ShardedTopKIndex::build(data.clone(), assignment, schedule, level_builder(dim));
        for verify in MODES {
            let mut engine = ShardedTopKEngine::with_verify_mode(verify);
            for strategy in Strategy::ALL {
                for k in [1, 10, 60] {
                    let mut fnv = Fnv::new();
                    for q in &queries {
                        fnv.topk(&engine.query_topk_with(&ladder, q, k, strategy));
                    }
                    rows.push(
                        format!(
                            "sharded-topk/s{shards}/k{k}/{}/{}",
                            strategy_name(strategy),
                            mode_name(verify)
                        ),
                        fnv,
                    );
                }
            }
        }
    }
}

/// A small seeded generator for the segmented history.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = hybrid_lsh::hll::hash::splitmix64(self.0);
        self.0 % n
    }
}

fn segmented_rows(rows: &mut Rows) {
    let (dim, r) = (8, 1.3);
    let (pool, _) = benchmark_mixture(dim, 1_500, r, 13);
    let queries = dense_queries(&pool, 37);
    let schedule = RadiusSchedule::doubling(0.9, 4);
    let assignment = ShardAssignment::new(29, 2);
    let builder = IndexBuilder::new(PStableL2::new(dim, 2.0 * r), L2)
        .tables(8)
        .hash_len(4)
        .seed(19)
        .cost_model(CostModel::from_ratio(4.0));
    let mut rnnr = SegmentedIndex::with_limits(dim, assignment, builder, 96, 3);
    let mut ladder =
        SegmentedTopKIndex::with_limits(dim, assignment, schedule, level_builder(dim), 96, 3);

    // Insert the pool in a shuffled order, deleting a live id about one
    // step in four, flushing and compacting now and then.
    let mut rng = Rng(0x5EED);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut live: Vec<PointId> = Vec::new();
    for (step, &row) in order.iter().enumerate() {
        let id = row as PointId;
        rnnr.insert(id, pool.row(row)).unwrap();
        ladder.insert(id, pool.row(row)).unwrap();
        live.push(id);
        if rng.below(4) == 0 {
            let gone = live.swap_remove(rng.below(live.len() as u64) as usize);
            rnnr.delete(gone).unwrap();
            ladder.delete(gone).unwrap();
        }
        if step % 500 == 499 {
            rnnr.flush();
            ladder.flush();
        }
        if step == 1_100 {
            rnnr.compact();
            ladder.compact();
        }
    }
    assert!(rnnr.segment_counts().iter().sum::<usize>() > 1, "history must leave segments");

    for verify in MODES {
        let mut engine = SegmentedQueryEngine::with_verify_mode(verify);
        for strategy in Strategy::ALL {
            let mut fnv = Fnv::new();
            for q in &queries {
                fnv.rnnr(&engine.query_with_strategy(&rnnr, q, r, strategy));
            }
            rows.push(format!("segmented/{}/{}", strategy_name(strategy), mode_name(verify)), fnv);
        }
        let mut engine = SegmentedTopKEngine::with_verify_mode(verify);
        for strategy in Strategy::ALL {
            for k in [1, 10, 60] {
                let mut fnv = Fnv::new();
                for q in &queries {
                    fnv.topk(&engine.query_topk_with(&ladder, q, k, strategy));
                }
                rows.push(
                    format!(
                        "segmented-topk/k{k}/{}/{}",
                        strategy_name(strategy),
                        mode_name(verify)
                    ),
                    fnv,
                );
            }
        }
    }

    // The living service's batch entry points over the same history.
    let service = LiveLshService::new(rnnr, Some(ladder));
    let mut fnv = Fnv::new();
    for ids in service.rnnr_batch(&queries, r, Some(2)).unwrap() {
        fnv.ids(&ids);
    }
    rows.push("batch/live-service/rnnr", fnv);
    let mut fnv = Fnv::new();
    for pairs in service.topk_batch(&queries, 10, Some(2)).unwrap() {
        fnv.pairs(pairs.into_iter());
    }
    rows.push("batch/live-service/topk", fnv);
}

/// A corpus on which walks take every path: a duplicate cluster at the
/// origin, a banded ring further out and a background too far to ever
/// collide. With k beyond the cluster, levels predicted to hold only
/// the cluster are deferred, then either revisited once the ring fills
/// the heap or skipped when the heap stays underfull and the exact
/// fallback runs.
fn ladder_corpus() -> DenseDataset {
    let mut rows: Vec<[f32; 2]> = (0..5).map(|_| [0.0f32, 0.0]).collect();
    rows.extend((0..80).map(|i| [20.0 + (i % 8) as f32 * 0.3, (i / 8) as f32 * 0.3]));
    rows.extend((0..120).map(|i| [1e5 + (i as f32) * 1e4, 7e4]));
    rows.extend((0..300).map(|i| [(i % 25) as f32 * 2.0, (i / 25) as f32 * 2.0 + 40.0]));
    DenseDataset::from_rows(2, rows)
}

fn ladder_rows(rows: &mut Rows) {
    let data = ladder_corpus();
    let schedule = RadiusSchedule::doubling(1.0, 6);
    let build = |data| {
        TopKIndex::build(data, schedule, |li, r| {
            IndexBuilder::new(PStableL2::new(2, 2.0 * r), L2)
                .tables(8)
                .hash_len(4)
                .seed(9 + li as u64)
                .cost_model(CostModel::from_ratio(if li % 2 == 0 { 1e9 } else { 3.0 }))
        })
    };
    let map = build(data.clone());
    let frozen = build(data.clone()).freeze();
    let mut queries: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![0.1, -0.1], vec![21.0, 1.0]];
    queries.extend((0..data.len()).step_by(29).map(|i| data.row(i).to_vec()));
    let (mut fallbacks, mut skips) = (0, 0);
    for verify in MODES {
        let mut engine = TopKEngine::with_verify_mode(verify);
        for strategy in Strategy::ALL {
            for k in [1, 6, 8, 40] {
                let (mut on_map, mut on_frozen) = (Fnv::new(), Fnv::new());
                for q in &queries {
                    let out = engine.query_topk_with(&map, q, k, strategy);
                    fallbacks += usize::from(out.report.exact_fallback);
                    skips += out.report.levels_skipped;
                    on_map.topk(&out);
                    on_frozen.topk(&engine.query_topk_with(&frozen, q, k, strategy));
                }
                let tail = format!("k{k}/{}/{}", strategy_name(strategy), mode_name(verify));
                rows.push(format!("topk/map/{tail}"), on_map);
                rows.push(format!("topk/frozen/{tail}"), on_frozen);
            }
        }
    }
    assert!(fallbacks > 0, "the ladder rows must take the exact fallback");
    assert!(skips > 0, "the ladder rows must defer levels");
}

/// One batch call per deployment (two threads, so the batch path's
/// fan-out runs), the frozen service's entry points, and a coordinator
/// fleet at each shard count.
fn batch_rows(rows: &mut Rows) {
    let (dim, r) = (16, 1.3);
    let (data, _) = benchmark_mixture(dim, 2_000, r, 41);
    let queries = dense_queries(&data, 43);
    let schedule = RadiusSchedule::doubling(0.9, 3);
    let fold_rnnr = |outs: Vec<QueryOutput>| {
        let mut fnv = Fnv::new();
        outs.iter().for_each(|o| fnv.rnnr(o));
        fnv
    };
    let fold_topk = |outs: Vec<TopKOutput>| {
        let mut fnv = Fnv::new();
        outs.iter().for_each(|o| fnv.topk(o));
        fnv
    };

    let single = pstable(dim, r).build(data.clone()).freeze();
    for strategy in Strategy::ALL {
        let outs = single.query_batch_with_strategy(&queries, r, strategy, Some(2));
        rows.push(format!("batch/single/{}", strategy_name(strategy)), fold_rnnr(outs));
    }
    let ladder = TopKIndex::build(data.clone(), schedule, level_builder(dim)).freeze();
    let outs = ladder.query_topk_batch_with(&queries, 10, Strategy::Hybrid, Some(2));
    rows.push("batch/topk", fold_topk(outs));

    let assignment = ShardAssignment::new(3, 2);
    let sharded = ShardedIndex::build_frozen(data.clone(), assignment, pstable(dim, r));
    for strategy in Strategy::ALL {
        let outs = sharded.query_batch_with_strategy(&queries, r, strategy, Some(2));
        rows.push(format!("batch/sharded/{}", strategy_name(strategy)), fold_rnnr(outs));
    }
    let sharded_ladder =
        ShardedTopKIndex::build_frozen(data.clone(), assignment, schedule, level_builder(dim));
    let outs = sharded_ladder.query_topk_batch_with(&queries, 10, Strategy::Hybrid, Some(2));
    rows.push("batch/sharded-topk", fold_topk(outs));

    let service = ShardedLshService::new(sharded, Some(sharded_ladder), dim);
    let mut fnv = Fnv::new();
    for ids in service.rnnr_batch(&queries, r, Some(2)).unwrap() {
        fnv.ids(&ids);
    }
    rows.push("batch/sharded-service/rnnr", fnv);
    let mut fnv = Fnv::new();
    for pairs in service.topk_batch(&queries, 10, Some(2)).unwrap() {
        fnv.pairs(pairs.into_iter());
    }
    rows.push("batch/sharded-service/topk", fnv);

    // The distributed deployment over the same build: one shard-node
    // server per shard on 127.0.0.1, and a coordinator that merges their
    // summaries and decides every query globally.
    for shards in [1, 2, 4] {
        let assignment = ShardAssignment::new(3, shards);
        let fleet: Vec<_> = (0..shards as u32)
            .map(|sid| {
                let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, pstable(dim, r));
                let ladder = ShardedTopKIndex::build_frozen(
                    data.clone(),
                    assignment,
                    schedule,
                    level_builder(dim),
                );
                let node =
                    ShardNodeService::new(ShardedLshService::new(rnnr, Some(ladder), dim), sid);
                spawn(std::sync::Arc::new(node), "127.0.0.1:0", ServerConfig::default()).unwrap()
            })
            .collect();
        let addrs: Vec<String> = fleet.iter().map(|h| h.local_addr().to_string()).collect();
        let coordinator = Coordinator::connect(&addrs, CoordinatorConfig::default()).unwrap();
        let mut fnv = Fnv::new();
        for ids in coordinator.rnnr_batch(&queries, r, Some(2)).unwrap() {
            fnv.ids(&ids);
        }
        rows.push(format!("batch/coordinator/{shards}/rnnr"), fnv);
        let mut fnv = Fnv::new();
        for pairs in coordinator.topk_batch(&queries, 10, Some(2)).unwrap() {
            fnv.pairs(pairs.into_iter());
        }
        rows.push(format!("batch/coordinator/{shards}/topk"), fnv);
    }
}

fn snapshot_rows(rows: &mut Rows) {
    let preset = hybrid_lsh::index::MixturePreset { n: 2_000, ..Default::default() };
    let (data, _) = benchmark_mixture(preset.dim, preset.n, preset.radius, preset.seed);
    let rnnr = preset.build_rnnr(data.clone());
    let topk = preset.build_topk(data);
    let dir = std::env::temp_dir().join("hlsh-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("mixture-{}.hlsh", std::process::id()));
    save_snapshot(&path, &rnnr, Some(&topk)).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut fnv = Fnv::new();
    fnv.u64(bytes.len() as u64);
    fnv.bytes(&bytes);
    rows.push("snapshot/mixture-n2000", fnv);
}

#[test]
fn answers_match_the_committed_digests() {
    let mut rows = Rows::default();
    single_index_rows(&mut rows);
    covering_rows(&mut rows);
    sharded_rows(&mut rows);
    segmented_rows(&mut rows);
    ladder_rows(&mut rows);
    batch_rows(&mut rows);
    snapshot_rows(&mut rows);
    let actual = rows.render();

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/answers.txt");
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-answers.txt");
    std::fs::write(&written, &actual).unwrap();
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if actual != expected {
        let expected: Vec<&str> = expected.lines().collect();
        let changed: Vec<&str> = actual.lines().filter(|line| !expected.contains(line)).collect();
        panic!(
            "{} of {} golden rows changed (this run's digests are in {}):\n{}",
            changed.len(),
            rows.0.len(),
            written.display(),
            changed.join("\n")
        );
    }
}
