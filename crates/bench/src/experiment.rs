//! The shared experiment runner behind every table/figure binary.
//!
//! For each (data set, radius) pair the runner rebuilds the index with
//! the paper's per-radius parameters (`k` from the δ-rule for the
//! sign-bit families; fixed `k` with radius-proportional `w` for the
//! p-stable families), measures the three strategies of Figure 2 over
//! the query set, and collects the instrumentation behind Table 1
//! (relative HLL cost and candSize error), Figure 3 (output sizes,
//! linear-call fraction) and the §4.2 recall remark.

use std::time::Instant;

use hlsh_core::probe::{multiprobe_query, ProbeSequence};
use hlsh_core::search::ExecutedArm;
use hlsh_core::{CostModel, HybridLshIndex, IndexBuilder, QueryOutput, Strategy};
use hlsh_datagen::{ground_truth, BinaryWorkload, DenseWorkload};
use hlsh_families::{k_paper, BitSampling, LshFamily, PStableL1, PStableL2, PaperDataset, SimHash};
use hlsh_vec::stats::Welford;
use hlsh_vec::{Distance, Hamming, PointSet, UnitCosine, L1, L2};

use crate::args::CommonArgs;

/// Full configuration of one experiment run.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Total generated points (queries are split off this count).
    pub n: usize,
    /// Query-set size (paper: 100).
    pub queries: usize,
    /// Repetitions to average (paper: 5).
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Hash tables `L` (paper: 50).
    pub l: usize,
    /// Failure probability δ (paper: 0.1).
    pub delta: f64,
    /// HLL precision (paper: 7 → m = 128).
    pub hll_precision: u8,
    /// Probes per table (1 = classic; >1 = multi-probe ablation).
    pub probes_per_table: usize,
    /// Lazy small-bucket sketches (paper §3.2 trick) on/off.
    pub lazy: bool,
    /// Force a fixed `β/α` ratio. `None` (default) calibrates α and β
    /// on the indexed data exactly as the paper does (§4.2 calibrates
    /// on a random sample of queries and data points). The published
    /// per-dataset constants (10, 10, 6, 1) belong to the authors'
    /// Python implementation and are exposed through
    /// [`PaperDataset::beta_over_alpha`] for the `ablate_ratio` sweep.
    pub ratio_override: Option<f64>,
}

impl ExperimentConfig {
    /// Builds the config for one data set from common CLI arguments.
    pub fn from_args(args: &CommonArgs, dataset: PaperDataset) -> Self {
        Self {
            n: args.n_for(dataset),
            queries: args.queries,
            runs: args.runs,
            seed: args.seed,
            l: 50,
            delta: 0.1,
            hll_precision: 7,
            probes_per_table: 1,
            lazy: true,
            ratio_override: None,
        }
    }
}

/// All measurements for one (data set, radius) point.
#[derive(Clone, Copy, Debug)]
pub struct RadiusRow {
    /// Data set.
    pub dataset: PaperDataset,
    /// Query radius.
    pub radius: f64,
    /// Concatenation width used.
    pub k: usize,
    /// Mean CPU seconds for the whole query set, hybrid strategy.
    pub hybrid_secs: f64,
    /// Mean CPU seconds, classic LSH.
    pub lsh_secs: f64,
    /// Mean CPU seconds, linear scan.
    pub linear_secs: f64,
    /// Fraction of hybrid queries that executed the linear arm
    /// (Figure 3 right).
    pub ls_call_frac: f64,
    /// Exact output-size statistics over the query set (Figure 3 left).
    pub out_min: usize,
    /// Mean exact output size.
    pub out_avg: f64,
    /// Maximum exact output size.
    pub out_max: usize,
    /// Mean per-query recall of hybrid search.
    pub hybrid_recall: f64,
    /// Mean per-query recall of classic LSH.
    pub lsh_recall: f64,
    /// Mean fraction of hybrid query time spent in HLL merge/estimate
    /// (Table 1 "% Cost").
    pub hll_cost_frac: f64,
    /// Mean relative error of the candSize estimate (Table 1
    /// "% Error").
    pub hll_err_mean: f64,
    /// Standard deviation of that error.
    pub hll_err_std: f64,
}

/// Runs the full radius sweep for one data set.
pub fn run_dataset(dataset: PaperDataset, cfg: &ExperimentConfig) -> Vec<RadiusRow> {
    match dataset {
        PaperDataset::Webspam => run_webspam(cfg),
        PaperDataset::CoverType => run_covertype(cfg),
        PaperDataset::Corel => run_corel(cfg),
        PaperDataset::Mnist => run_mnist(cfg),
    }
}

fn run_webspam(cfg: &ExperimentConfig) -> Vec<RadiusRow> {
    let w = DenseWorkload::paper(PaperDataset::Webspam, cfg.n, cfg.queries, cfg.seed);
    let cost = resolve_cost(cfg, &w.data, &UnitCosine);
    w.radii
        .iter()
        .map(|&r| {
            let family = SimHash::new(w.data.dim());
            let k = k_paper(cfg.delta, cfg.l, family.collision_prob(r)).min(64);
            measure_radius(
                w.data.clone(),
                &w.queries,
                family,
                UnitCosine,
                r,
                k,
                cost,
                PaperDataset::Webspam,
                cfg,
            )
        })
        .collect()
}

fn run_covertype(cfg: &ExperimentConfig) -> Vec<RadiusRow> {
    let w = DenseWorkload::paper(PaperDataset::CoverType, cfg.n, cfg.queries, cfg.seed);
    let cost = resolve_cost(cfg, &w.data, &L1);
    w.radii
        .iter()
        .map(|&r| {
            // Paper §4.1: k = 8, w = 4r for L1.
            let family = PStableL1::new(w.data.dim(), 4.0 * r);
            measure_radius(
                w.data.clone(),
                &w.queries,
                family,
                L1,
                r,
                8,
                cost,
                PaperDataset::CoverType,
                cfg,
            )
        })
        .collect()
}

fn run_corel(cfg: &ExperimentConfig) -> Vec<RadiusRow> {
    let w = DenseWorkload::paper(PaperDataset::Corel, cfg.n, cfg.queries, cfg.seed);
    let cost = resolve_cost(cfg, &w.data, &L2);
    w.radii
        .iter()
        .map(|&r| {
            // Paper §4.1: k = 7, w = 2r for L2.
            let family = PStableL2::new(w.data.dim(), 2.0 * r);
            measure_radius(
                w.data.clone(),
                &w.queries,
                family,
                L2,
                r,
                7,
                cost,
                PaperDataset::Corel,
                cfg,
            )
        })
        .collect()
}

fn run_mnist(cfg: &ExperimentConfig) -> Vec<RadiusRow> {
    let w = BinaryWorkload::paper(cfg.n, cfg.queries, cfg.seed);
    let cost = resolve_cost(cfg, &w.data, &Hamming);
    w.radii
        .iter()
        .map(|&r| {
            let family = BitSampling::new(64);
            let k = k_paper(cfg.delta, cfg.l, family.collision_prob(r)).min(64);
            measure_radius(
                w.data.clone(),
                &w.queries,
                family,
                Hamming,
                r,
                k,
                cost,
                PaperDataset::Mnist,
                cfg,
            )
        })
        .collect()
}

/// Resolves the cost model for a workload: a forced ratio if the
/// config carries one, otherwise a single calibration on the data that
/// is reused across the whole radius sweep (the paper's procedure —
/// one β/α per data set).
pub fn resolve_cost<S, D>(cfg: &ExperimentConfig, data: &S, distance: &D) -> CostModel
where
    S: PointSet,
    D: Distance<S::Point>,
{
    let cost = match cfg.ratio_override {
        Some(ratio) => CostModel::from_ratio(ratio),
        None => CostModel::calibrate(data, distance, 10_000.min(100 * data.len().max(1)), cfg.seed),
    };
    eprintln!(
        "[calibration] α = {:.1} ns, β_scan = {:.1} ns, β_cand = {:.1} ns (β/α = {:.1})",
        cost.alpha(),
        cost.beta(),
        cost.beta_cand(),
        cost.ratio()
    );
    cost
}

/// Builds the index for one radius and measures everything. Public so
/// the ablation binaries can sweep a single radius with custom
/// family/parameter combinations.
// Queries and truth are parallel arrays; the indexed loop is intentional.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
pub fn measure_radius<S, Q, F, D>(
    data: S,
    queries: &Q,
    family: F,
    distance: D,
    r: f64,
    k: usize,
    cost: CostModel,
    dataset: PaperDataset,
    cfg: &ExperimentConfig,
) -> RadiusRow
where
    S: PointSet + Sync,
    Q: PointSet<Point = S::Point> + Sync,
    F: LshFamily<S::Point> + Sync,
    F::GFn: ProbeSequence<S::Point> + Send + Sync,
    D: Distance<S::Point> + Sync,
{
    let m = 1usize << cfg.hll_precision;
    let index = IndexBuilder::new(family, distance.clone())
        .tables(cfg.l)
        .hash_len(k)
        .hll_precision(cfg.hll_precision)
        .lazy_threshold(if cfg.lazy { m } else { 1 })
        .seed(cfg.seed)
        .build_with_cost(data, Some(cost));

    // Exact answers: output-size stats + recall reference.
    let truth = ground_truth(index.data(), queries, &distance, r);
    let (mut out_min, mut out_max, mut out_sum) = (usize::MAX, 0usize, 0usize);
    for t in &truth {
        out_min = out_min.min(t.len());
        out_max = out_max.max(t.len());
        out_sum += t.len();
    }
    let nq = queries.len().max(1);

    // Timed passes. Single-probe sweeps go through the batch engine
    // (sharded across cores, per-thread scratch reuse); multi-probe
    // still walks the per-query path.
    let timed = |strategy: Strategy| -> f64 {
        let mut total = 0.0;
        for _ in 0..cfg.runs {
            let t0 = Instant::now();
            if cfg.probes_per_table <= 1 {
                let outs = index.query_batch_set(queries, r, strategy, None);
                std::hint::black_box(outs.iter().map(|o| o.ids.len()).sum::<usize>());
            } else {
                for qi in 0..queries.len() {
                    let out =
                        run_query(&index, queries.point(qi), r, strategy, cfg.probes_per_table);
                    std::hint::black_box(out.ids.len());
                }
            }
            total += t0.elapsed().as_secs_f64();
        }
        total / cfg.runs as f64
    };
    let hybrid_secs = timed(Strategy::Hybrid);
    let lsh_secs = timed(Strategy::LshOnly);
    let linear_secs = timed(Strategy::LinearOnly);

    // Instrumentation pass (untimed): strategy decisions, HLL cost and
    // error, recall.
    let mut ls_calls = 0usize;
    let mut hll_cost = Welford::new();
    let mut hll_err = Welford::new();
    let mut hybrid_recall = Welford::new();
    let mut lsh_recall = Welford::new();
    for qi in 0..queries.len() {
        let q = queries.point(qi);
        let hybrid = run_query(&index, q, r, Strategy::Hybrid, cfg.probes_per_table);
        if hybrid.report.executed == ExecutedArm::Linear {
            ls_calls += 1;
        }
        hll_cost.push(hybrid.report.hll_cost_fraction());
        // candSize error: exact size from the report when the LSH arm
        // ran, recomputed (untimed) otherwise.
        let exact = match hybrid.report.cand_size_actual {
            Some(c) => c,
            None => index.exact_cand_size(q),
        };
        if exact > 0 {
            hll_err.push((hybrid.report.cand_size_estimate - exact as f64).abs() / exact as f64);
        }
        hybrid_recall.push(recall_of(&hybrid, &truth[qi]));
        let lsh = run_query(&index, q, r, Strategy::LshOnly, cfg.probes_per_table);
        lsh_recall.push(recall_of(&lsh, &truth[qi]));
    }

    RadiusRow {
        dataset,
        radius: r,
        k,
        hybrid_secs,
        lsh_secs,
        linear_secs,
        ls_call_frac: ls_calls as f64 / nq as f64,
        out_min: if out_min == usize::MAX { 0 } else { out_min },
        out_avg: out_sum as f64 / nq as f64,
        out_max,
        hybrid_recall: hybrid_recall.mean(),
        lsh_recall: lsh_recall.mean(),
        hll_cost_frac: hll_cost.mean(),
        hll_err_mean: hll_err.mean(),
        hll_err_std: hll_err.std_dev(),
    }
}

fn run_query<S, F, D>(
    index: &HybridLshIndex<S, F, D>,
    q: &S::Point,
    r: f64,
    strategy: Strategy,
    probes: usize,
) -> QueryOutput
where
    S: PointSet,
    F: LshFamily<S::Point>,
    F::GFn: ProbeSequence<S::Point>,
    D: Distance<S::Point>,
{
    if probes <= 1 {
        index.query_with_strategy(q, r, strategy)
    } else {
        multiprobe_query(index, q, r, probes, strategy)
    }
}

/// One row of the shard-count sweep: construction and batch-query
/// throughput of a [`ShardedIndex`](hlsh_core::ShardedIndex) at one
/// shard count, frozen backend, on the mixture workload.
#[derive(Clone, Copy, Debug)]
pub struct ShardSweepRow {
    /// Number of shards.
    pub shards: usize,
    /// Median seconds to build all shards (parallel, direct-frozen).
    pub build_secs: f64,
    /// Indexed points per second during construction.
    pub build_points_per_sec: f64,
    /// Hybrid `query_batch` throughput (median of the runs).
    pub batch_queries_per_sec: f64,
}

/// Sweeps shard counts on the mixture workload: for each count, builds
/// a sharded frozen index (parallel shard construction, blocked
/// pipeline) and measures hybrid batch-query throughput. The first
/// row's query outputs are asserted equal across all counts — the
/// shard-merge determinism contract — before any timing is reported.
pub fn shard_sweep(
    dim: usize,
    n: usize,
    queries: usize,
    radius: f64,
    seed: u64,
    shard_counts: &[usize],
    runs: usize,
) -> Vec<ShardSweepRow> {
    use hlsh_core::{ShardAssignment, ShardedIndex};
    use hlsh_families::PStableL2;
    use hlsh_vec::L2;

    assert!(queries < n, "query count must be below n");
    let (mut data, _) = hlsh_datagen::benchmark_mixture(dim, n, radius, seed);
    let q_rows: Vec<usize> = (0..queries).map(|i| i * (n / queries)).collect();
    let queries_ds = data.split_off_rows(&q_rows);
    let query_vecs: Vec<Vec<f32>> =
        (0..queries_ds.len()).map(|i| queries_ds.row(i).to_vec()).collect();
    let builder = || {
        IndexBuilder::new(PStableL2::new(dim, 2.0 * radius), L2)
            .tables(20)
            .hash_len(8)
            .seed(seed)
            .cost_model(CostModel::from_ratio(6.0))
    };

    let mut reference: Option<Vec<Vec<u32>>> = None;
    shard_counts
        .iter()
        .map(|&shards| {
            let assignment = ShardAssignment::new(seed, shards);
            let build_secs = {
                let mut secs = Vec::with_capacity(runs);
                for _ in 0..runs {
                    let t0 = Instant::now();
                    std::hint::black_box(
                        ShardedIndex::build_frozen(data.clone(), assignment, builder()).len(),
                    );
                    secs.push(t0.elapsed().as_secs_f64());
                }
                secs.sort_by(|a, b| a.total_cmp(b));
                secs[secs.len() / 2]
            };
            let index = ShardedIndex::build_frozen(data.clone(), assignment, builder());

            // Determinism gate: every shard count reports the same ids.
            let ids: Vec<Vec<u32>> =
                index.query_batch(&query_vecs, radius).into_iter().map(|o| o.ids).collect();
            match &reference {
                None => reference = Some(ids),
                Some(expect) => {
                    assert_eq!(expect, &ids, "shard count {shards} changed query outputs")
                }
            }

            let mut qps = Vec::with_capacity(runs);
            for _ in 0..runs {
                let t0 = Instant::now();
                let outs = index.query_batch(&query_vecs, radius);
                std::hint::black_box(outs.iter().map(|o| o.ids.len()).sum::<usize>());
                qps.push(query_vecs.len() as f64 / t0.elapsed().as_secs_f64());
            }
            qps.sort_by(|a, b| a.total_cmp(b));
            ShardSweepRow {
                shards,
                build_secs,
                build_points_per_sec: data.len() as f64 / build_secs,
                batch_queries_per_sec: qps[qps.len() / 2],
            }
        })
        .collect()
}

/// Macro-averaged recall@k of top-k outputs against exact top-k ground
/// truth (the [`hlsh_datagen::ground_truth_topk`] format): per query,
/// `|reported ∩ truth| / |truth|`, averaged over the query set. Empty
/// truth counts as full recall.
pub fn recall_at_k(outputs: &[hlsh_core::TopKOutput], truth: &[Vec<(u32, f64)>]) -> f64 {
    assert_eq!(outputs.len(), truth.len(), "outputs and truth must be parallel");
    if outputs.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    for (out, t) in outputs.iter().zip(truth) {
        if t.is_empty() {
            total += 1.0;
            continue;
        }
        let truth_ids: std::collections::HashSet<u32> = t.iter().map(|&(id, _)| id).collect();
        let hits = out.neighbors.iter().filter(|n| truth_ids.contains(&n.id)).count();
        total += hits as f64 / truth_ids.len() as f64;
    }
    total / outputs.len() as f64
}

fn recall_of(out: &QueryOutput, truth: &[u32]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let set: std::collections::HashSet<u32> = truth.iter().copied().collect();
    let hits = out.ids.iter().filter(|id| set.contains(id)).count();
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(n: usize) -> ExperimentConfig {
        ExperimentConfig {
            n,
            queries: 8,
            runs: 1,
            seed: 9,
            l: 8,
            delta: 0.1,
            hll_precision: 7,
            probes_per_table: 1,
            lazy: true,
            ratio_override: None,
        }
    }

    #[test]
    fn mnist_rows_are_complete() {
        let rows = run_dataset(PaperDataset::Mnist, &tiny_cfg(600));
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.hybrid_secs > 0.0);
            assert!(row.lsh_secs > 0.0);
            assert!(row.linear_secs > 0.0);
            assert!(row.out_max >= row.out_min);
            assert!((0.0..=1.0).contains(&row.ls_call_frac));
            assert!((0.0..=1.0).contains(&row.hybrid_recall));
            assert!(row.k >= 1 && row.k <= 64);
        }
        // Radii ascend with the paper sweep.
        assert_eq!(rows[0].radius, 12.0);
        assert_eq!(rows[5].radius, 17.0);
    }

    #[test]
    fn webspam_hybrid_recall_at_least_lsh() {
        // Hybrid falls back to exact scans on hard queries, so its mean
        // recall must not be below classic LSH by more than noise.
        let rows = run_dataset(PaperDataset::Webspam, &tiny_cfg(1_500));
        for row in &rows {
            assert!(
                row.hybrid_recall >= row.lsh_recall - 0.05,
                "r={}: hybrid {} < lsh {}",
                row.radius,
                row.hybrid_recall,
                row.lsh_recall
            );
        }
    }

    #[test]
    fn corel_and_covertype_run() {
        let rows = run_dataset(PaperDataset::Corel, &tiny_cfg(800));
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].k, 7);
        let rows = run_dataset(PaperDataset::CoverType, &tiny_cfg(800));
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].k, 8);
    }

    #[test]
    fn recall_at_k_counts_hits() {
        use hlsh_core::{Neighbor, TopKOutput, TopKReport};
        let report = TopKReport {
            levels_executed: 1,
            levels_skipped: 0,
            early_exit: false,
            exact_fallback: false,
            verified: 2,
            total_nanos: 0,
        };
        let out = |ids: &[u32]| TopKOutput {
            neighbors: ids.iter().map(|&id| Neighbor { id, dist: id as f64 }).collect(),
            report,
        };
        // Query 0: 1 of 2 truth ids found; query 1: both found.
        let outputs = vec![out(&[1, 9]), out(&[4, 5])];
        let truth = vec![vec![(1u32, 0.0), (2, 1.0)], vec![(4u32, 0.0), (5, 1.0)]];
        assert!((recall_at_k(&outputs, &truth) - 0.75).abs() < 1e-12);
        // Empty truth counts as full recall; empty inputs are 1.0.
        assert_eq!(recall_at_k(&[out(&[])], &[vec![]]), 1.0);
        assert_eq!(recall_at_k(&[], &[]), 1.0);
    }

    #[test]
    fn shard_sweep_rows_are_complete_and_deterministic() {
        let rows = shard_sweep(8, 400, 16, 1.2, 3, &[1, 2, 4], 1);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.build_secs > 0.0);
            assert!(row.build_points_per_sec > 0.0);
            assert!(row.batch_queries_per_sec > 0.0);
        }
        assert_eq!(rows[0].shards, 1);
        assert_eq!(rows[2].shards, 4);
    }

    #[test]
    fn multiprobe_config_runs() {
        let mut cfg = tiny_cfg(500);
        cfg.probes_per_table = 4;
        cfg.l = 4;
        let rows = run_dataset(PaperDataset::Mnist, &cfg);
        assert_eq!(rows.len(), 6);
    }
}
