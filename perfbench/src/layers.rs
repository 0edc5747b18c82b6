//! The index-layer half of the traced run: for each query, the stages
//! of Algorithm 2 are called one by one through the layers' public
//! functions and timed — L × `bucket_key` (hlsh-families),
//! `bucket_for_key` (hlsh-core store), sketch merge plus estimate
//! (hlsh-hll), the cost decision, candidate dedup, and `verify_many` /
//! `scan_within` (hlsh-vec) — next to an untraced engine call on the
//! same query, so the stage sum can be held against the engine time.

use std::time::Instant;

use hlsh_core::hasher::FxHashSet;
use hlsh_core::search::ExecutedArm;
use hlsh_core::{BucketRef, BucketStore, HybridLshIndex, QueryOutput, Strategy};
use hlsh_families::{GFunction, LshFamily};
use hlsh_hll::MergeAccumulator;
use hlsh_vec::{Distance, PointId, PointSet};

use crate::common::Metrics;

/// Passes over the query set a traced run makes.
pub const TRACE_REPS: usize = 3;

/// Running totals of the index-layer spans (times in seconds).
#[derive(Debug, Default)]
pub struct IndexTrace {
    queries: usize,
    hash: f64,
    lookup: f64,
    merge: f64,
    dedup: f64,
    verify: f64,
    scan: f64,
    stage_sum: f64,
    traced_path: f64,
    engine: f64,
    collisions: u64,
    candidates: u64,
    est_err_sum: f64,
    est_err_n: usize,
    linear: usize,
    decision_mismatch: usize,
    /// Per radius: (label, hybrid, lsh-only, linear-only) engine seconds.
    arms: Vec<(String, f64, f64, f64)>,
}

impl IndexTrace {
    /// Opens a new radius bucket for the pure-strategy comparison.
    pub fn begin_radius(&mut self, label: String) {
        self.arms.push((label, 0.0, 0.0, 0.0));
    }

    /// Traces one query at radius `r` over an index split into
    /// `shards` (one shard for an unsharded index) whose buckets hold
    /// global ids; `local_of` maps a global id to its row in its own
    /// shard (`None`: ids are rows already). `engine` runs the
    /// program's own query path for a strategy; `n_total` is the point
    /// count the linear cost is charged for.
    pub fn query<S, F, D, B>(
        &mut self,
        shards: &[&HybridLshIndex<S, F, D, B>],
        local_of: Option<&[u32]>,
        q: &S::Point,
        r: f64,
        n_total: usize,
        engine: &mut dyn FnMut(&S::Point, Strategy) -> QueryOutput,
    ) where
        S: PointSet,
        F: LshFamily<S::Point>,
        D: Distance<S::Point>,
        B: BucketStore,
    {
        // Untraced engine calls: Hybrid, then the two pure arms.
        let t = Instant::now();
        let hybrid = engine(q, Strategy::Hybrid);
        let engine_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(engine(q, Strategy::LshOnly).ids.len());
        let lsh_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(engine(q, Strategy::LinearOnly).ids.len());
        let linear_s = t.elapsed().as_secs_f64();
        let arms = self.arms.last_mut().expect("begin_radius before query");
        arms.1 += engine_s;
        arms.2 += lsh_s;
        arms.3 += linear_s;
        self.engine += engine_s;

        // The traced path, stage by stage.
        let t_path = Instant::now();
        let t = Instant::now();
        let keys: Vec<Vec<u64>> = shards
            .iter()
            .map(|sh| sh.raw_tables().iter().map(|tb| tb.g().bucket_key(q)).collect())
            .collect();
        let hash = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let buckets: Vec<Vec<BucketRef<'_>>> = shards
            .iter()
            .zip(&keys)
            .map(|(sh, ks)| {
                sh.raw_tables().iter().zip(ks).filter_map(|(tb, &k)| tb.bucket_for_key(k)).collect()
            })
            .collect();
        let lookup = t.elapsed().as_secs_f64();
        let collisions: usize = buckets.iter().flatten().map(|b| b.len()).sum();

        let t = Instant::now();
        let mut acc = MergeAccumulator::new(shards[0].hll_config());
        for b in buckets.iter().flatten() {
            b.contribute_to(&mut acc);
        }
        let estimate = acc.estimate();
        let merge = t.elapsed().as_secs_f64();
        let prefer_lsh = shards[0].cost_model().prefer_lsh(collisions, estimate, n_total);

        let t = Instant::now();
        let cands: Vec<Vec<PointId>> = buckets
            .iter()
            .map(|bs| {
                let mut seen = FxHashSet::default();
                bs.iter()
                    .flat_map(|b| b.members())
                    .copied()
                    .filter(|&id| seen.insert(id))
                    .map(|id| local_of.map_or(id, |m| m[id as usize]))
                    .collect()
            })
            .collect();
        let dedup = t.elapsed().as_secs_f64();

        let mut out = Vec::new();
        let t = Instant::now();
        for (sh, c) in shards.iter().zip(&cands) {
            sh.distance().verify_many(sh.data(), c, q, r, &mut out);
        }
        let verify = t.elapsed().as_secs_f64();
        out.clear();
        let t = Instant::now();
        for sh in shards {
            sh.distance().scan_within(sh.data(), q, r, &mut out);
        }
        let scan = t.elapsed().as_secs_f64();
        std::hint::black_box(out.len());
        let traced_path = t_path.elapsed().as_secs_f64();

        // The traced path runs both arms; charge it only the one taken.
        let stage_sum = hash + lookup + merge + if prefer_lsh { dedup + verify } else { scan };
        let untaken = if prefer_lsh { scan } else { dedup + verify };
        let exact: usize = cands.iter().map(Vec::len).sum();
        if exact > 0 {
            self.est_err_sum += (estimate - exact as f64).abs() / exact as f64;
            self.est_err_n += 1;
        }
        if prefer_lsh != (hybrid.report.executed == ExecutedArm::Lsh) {
            self.decision_mismatch += 1;
        }
        self.queries += 1;
        self.hash += hash;
        self.lookup += lookup;
        self.merge += merge;
        self.dedup += dedup;
        self.verify += verify;
        self.scan += scan;
        self.stage_sum += stage_sum;
        self.traced_path += traced_path - untaken;
        self.collisions += collisions as u64;
        self.candidates += exact as u64;
        self.linear += usize::from(!prefer_lsh);
    }

    /// Queries whose traced decision differed from the engine's — the
    /// traced stages must reproduce the engine, so this must be zero.
    pub fn decision_mismatches(&self) -> usize {
        self.decision_mismatch
    }

    /// Writes the index-layer metrics and prints the per-radius Fig. 2
    /// comparison to stderr.
    pub fn report(&self, m: &mut Metrics) {
        let nq = self.queries.max(1) as f64;
        let us = |s: f64| s / nq * 1e6;
        m.set("families.hash_us", us(self.hash), "us");
        m.set("core.lookup_us", us(self.lookup), "us");
        m.set("core.collisions", self.collisions as f64 / nq, "count");
        m.set("hll.merge_us", us(self.merge), "us");
        m.set("hll.cost_share", self.merge / self.engine, "ratio");
        m.set("hll.est_rel_err", self.est_err_sum / self.est_err_n.max(1) as f64, "ratio");
        m.set("core.candidates", self.candidates as f64 / nq, "count");
        m.set("core.dedup_us", us(self.dedup), "us");
        m.set("vec.verify_us", us(self.verify), "us");
        m.set("vec.scan_us", us(self.scan), "us");
        m.set("core.engine_us", us(self.engine), "us");
        m.set("core.stage_sum_us", us(self.stage_sum), "us");
        m.set("core.stage_sum_ratio", self.stage_sum / self.engine, "ratio");
        m.set("core.trace_overhead_us", us(self.traced_path - self.engine), "us");
        m.set("core.linear_share", self.linear as f64 / nq, "ratio");
        let (mut hybrid, mut best, mut lsh, mut linear) = (0.0, 0.0, 0.0, 0.0);
        for (label, h, l, s) in &self.arms {
            eprintln!(
                "# fig2 {label}: hybrid {:.3} ms, lsh-only {:.3} ms, linear-only {:.3} ms, \
                 hybrid/best {:.3}",
                h * 1e3,
                l * 1e3,
                s * 1e3,
                h / l.min(*s)
            );
            hybrid += h;
            best += l.min(*s);
            lsh += l;
            linear += s;
        }
        m.set("core.hybrid_over_best", hybrid / best, "ratio");
        m.set("core.lsh_only_qps", nq / lsh, "1/s");
        m.set("core.linear_only_qps", nq / linear, "1/s");
        eprintln!(
            "# stages per query: hash {:.2} us + lookup {:.2} us + merge {:.2} us + arm = {:.2} us \
             vs engine {:.2} us (ratio {:.3}); traced path − engine = {:.2} us",
            us(self.hash),
            us(self.lookup),
            us(self.merge),
            us(self.stage_sum),
            us(self.engine),
            self.stage_sum / self.engine,
            us(self.traced_path - self.engine)
        );
    }
}
