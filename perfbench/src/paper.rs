//! `paper-hamming` and `paper-webspam`: the Figure 2 procedure on the
//! MNIST-Hamming and Webspam-cosine analogs. One index per Figure 2
//! radius (the paper's L = 50, m = 128 and δ = 0.1 k-rule), the
//! paper's fixed β/α, and sequential single-query library calls.

use std::time::Instant;

use hlsh_core::{CostModel, HybridLshIndex, IndexBuilder, QueryEngine, Strategy};
use hlsh_datagen::{BinaryWorkload, DenseWorkload};
use hlsh_families::{k_paper, BitSampling, LshFamily, PaperDataset, SimHash};
use hlsh_vec::{Distance, Hamming, PointSet, UnitCosine};

use crate::common::{self, check_exact_set, check_rnnr, recall, Rng, Sample};
use crate::layers::IndexTrace;
use crate::{Args, Outcome};

/// Tables `L`, as in the paper.
const TABLES: usize = 50;
/// HLL precision 7, so m = 128 registers.
const HLL_PRECISION: u8 = 7;
/// Failure probability δ of the k-rule.
const DELTA: f64 = 0.1;
/// Held-out queries, as in the paper.
const QUERIES: usize = 100;
/// Seed of the corpus and the hash functions. Fixed, so every run
/// indexes the same points with the same functions and the arm mix
/// (and so `neighbors_found`) repeats exactly; `--seed` orders the
/// query tape.
const CORPUS_SEED: u64 = 42;
/// MNIST analog size: 0.3 × the paper's 60 000.
pub const HAMMING_N: usize = 18_000;
/// Webspam analog size: 0.05 × the paper's 350 000.
pub const WEBSPAM_N: usize = 17_500;
/// Set-ups are repeated while their total stays under this budget…
const SETUP_BUDGET_S: f64 = 3.0;
/// …up to this many times.
const MAX_SETUPS: usize = 9;
/// Mean Hybrid recall per radius must reach `1 − δ − RECALL_SLACK`.
const RECALL_SLACK: f64 = 0.05;

/// Runs `paper-hamming`.
pub fn hamming(args: &Args) -> Outcome {
    let w = BinaryWorkload::paper(HAMMING_N, QUERIES, CORPUS_SEED);
    let dists = reference(&w.data, &w.queries, |a, b| common::hamming(a, b) as f64);
    run(
        args,
        w.data,
        &w.queries,
        &w.radii,
        BitSampling::new(64),
        Hamming,
        PaperDataset::Mnist,
        &dists,
        0.0,
    )
}

/// Runs `paper-webspam`.
pub fn webspam(args: &Args) -> Outcome {
    let w = DenseWorkload::paper(PaperDataset::Webspam, WEBSPAM_N, QUERIES, CORPUS_SEED);
    let dists = reference(&w.data, &w.queries, common::unit_cosine);
    let family = SimHash::new(w.data.dim());
    run(
        args,
        w.data,
        &w.queries,
        &w.radii,
        family,
        UnitCosine,
        PaperDataset::Webspam,
        &dists,
        common::COSINE_TOL,
    )
}

/// Reference distances `[query][point]` from the benchmark's own code.
fn reference<S: PointSet>(
    data: &S,
    queries: &S,
    d: impl Fn(&S::Point, &S::Point) -> f64,
) -> Vec<Vec<f64>> {
    (0..queries.len())
        .map(|qi| (0..data.len()).map(|i| d(queries.point(qi), data.point(i))).collect())
        .collect()
}

/// FNV-1a over an answer, to hold later rounds to the checked first one.
fn digest(ids: &[u32]) -> u64 {
    ids.iter().fold(0xCBF2_9CE4_8422_2325, |h, &id| (h ^ id as u64).wrapping_mul(0x100_0000_01B3))
}

#[allow(clippy::too_many_arguments)]
fn run<S, F, D>(
    args: &Args,
    data: S,
    queries: &S,
    radii: &[f64],
    family: F,
    distance: D,
    dataset: PaperDataset,
    dists: &[Vec<f64>],
    tol: f64,
) -> Outcome
where
    S: PointSet + Clone + Sync,
    F: LshFamily<S::Point> + Clone + Sync,
    F::GFn: Send + Sync,
    D: Distance<S::Point> + Clone + Sync,
{
    let mut out = Outcome::default();
    let cost = CostModel::from_ratio(dataset.beta_over_alpha());

    // Set-up: one index per radius, repeated while the repeats stay
    // cheap; `setup_s` is the median.
    let build = || -> Vec<HybridLshIndex<S, F, D>> {
        radii
            .iter()
            .map(|&r| {
                let k = k_paper(DELTA, TABLES, family.collision_prob(r)).min(64);
                IndexBuilder::new(family.clone(), distance.clone())
                    .tables(TABLES)
                    .hash_len(k)
                    .hll_precision(HLL_PRECISION)
                    .lazy_threshold(1 << HLL_PRECISION)
                    .seed(CORPUS_SEED)
                    .build_with_cost(data.clone(), Some(cost))
            })
            .collect()
    };
    let mut times = Vec::new();
    let mut indexes = Vec::new();
    while times.is_empty()
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(std::mem::take(&mut indexes));
        let t0 = Instant::now();
        indexes = build();
        times.push(t0.elapsed().as_secs_f64());
    }
    eprintln!("# set-up times (s): {times:?}");
    let setup = common::median(&times);
    out.metrics.set("setup_s", setup, "s");

    // Check pass: every Hybrid and LinearOnly answer against the
    // reference, recall per radius, and the neighbour count.
    let mut engine = QueryEngine::new();
    let mut digests = vec![vec![0u64; queries.len()]; radii.len()];
    let mut found = 0usize;
    for (ri, (index, &r)) in indexes.iter().zip(radii).enumerate() {
        let mut rec = 0.0;
        for qi in 0..queries.len() {
            let q = queries.point(qi);
            let hybrid = engine.query(index, q, r);
            out.attempted += 1;
            match check_rnnr(&hybrid.ids, |id| dists[qi].get(id as usize).copied(), r, tol, false) {
                Ok(n) => found += n,
                Err(e) => out.wrong(format!("hybrid r={r} query {qi}: {e}")),
            }
            rec += recall(&hybrid.ids, &dists[qi], r, tol);
            digests[ri][qi] = digest(&hybrid.ids);
            let linear = engine.query_with_strategy(index, q, r, Strategy::LinearOnly);
            out.attempted += 1;
            if let Err(e) = check_exact_set(&linear.ids, &dists[qi], r, tol) {
                out.wrong(format!("linear-only r={r} query {qi}: {e}"));
            }
        }
        let rec = rec / queries.len() as f64;
        eprintln!("# r={r}: k={}, mean hybrid recall {rec:.4}", index.k());
        if rec < 1.0 - DELTA - RECALL_SLACK {
            out.wrong(format!(
                "mean hybrid recall {rec:.4} at r={r} is below 1 − δ − {RECALL_SLACK}"
            ));
        }
    }
    out.metrics.set("neighbors_found", found as f64, "count");

    if args.trace {
        let mut trace = IndexTrace::default();
        for (index, &r) in indexes.iter().zip(radii) {
            trace.begin_radius(format!("{} r={r}", dataset.name()));
            for qi in (0..crate::layers::TRACE_REPS).flat_map(|_| 0..queries.len()) {
                let mut call =
                    |q: &S::Point, s: Strategy| engine.query_with_strategy(index, q, r, s);
                trace.query(&[index], None, queries.point(qi), r, index.len(), &mut call);
            }
        }
        if trace.decision_mismatches() > 0 {
            out.wrong(format!(
                "{} traced decisions differ from the engine",
                trace.decision_mismatches()
            ));
        }
        trace.report(&mut out.metrics);
        crate::mixture::reference_layers(args.seed, &mut out);
        let points = data.len() * radii.len();
        out.metrics.set("core.build_points_per_s", points as f64 / setup, "1/s");
        return out;
    }

    // Measured phase: whole rounds of every (radius, query) pair in a
    // seeded order, each a single timed library call.
    let mut rng = Rng::new(args.seed, 0x9A9E);
    let mut tape: Vec<(usize, usize)> =
        (0..radii.len()).flat_map(|ri| (0..queries.len()).map(move |qi| (ri, qi))).collect();
    let mut lat = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds || lat.len() < 1000 {
        rng.shuffle(&mut tape);
        for &(ri, qi) in &tape {
            let t = Instant::now();
            let o = engine.query(&indexes[ri], queries.point(qi), radii[ri]);
            lat.push(Sample {
                end_s: t0.elapsed().as_secs_f64(),
                ops: 1,
                ms: Some(t.elapsed().as_secs_f64() * 1e3),
            });
            out.attempted += 1;
            if digest(&o.ids) != digests[ri][qi] {
                out.wrong(format!("r={} query {qi}: answer changed between rounds", radii[ri]));
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    out.latency("query", lat, wall);
    out
}
