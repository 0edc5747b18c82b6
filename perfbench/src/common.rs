//! Pure helpers shared by every workload: the seeded generator, order
//! statistics, the benchmark's own scalar distance code, answer checks
//! against it, the metric record and the process probes.
//!
//! Nothing here calls into the program's distance kernels or its
//! ground-truth helpers: answers are checked against arithmetic the
//! benchmark does itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// splitmix64 — a small, fully specified generator, so the same
/// `--seed` yields the same inputs on every build of the program.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.unit().max(1e-300);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// One completed operation of a measured phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Completion time, seconds after the phase started.
    pub end_s: f64,
    /// Operations it completed (queries in a request, points written).
    pub ops: u64,
    /// Its latency in ms, for the operations latency is reported on.
    pub ms: Option<f64>,
}

/// Throughput is taken per window of this many seconds…
const RATE_WINDOW_S: f64 = 1.0;
/// …the median latency per this many consecutive samples…
const P50_CHUNK: usize = 200;
/// …and the 99th percentile per this many, so ten samples lie beyond it.
const P99_CHUNK: usize = 1000;

/// The end-to-end figures of a measured phase: each the median over
/// windows of the phase, so a short stall moves one window, not the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median over `RATE_WINDOW_S` windows of operations per second.
    pub ops_per_s: f64,
    /// Median over `P50_CHUNK`-sample chunks of the chunk median.
    pub p50_ms: f64,
    /// Median over `P99_CHUNK`-sample chunks of the chunk 99th percentile.
    pub p99_ms: f64,
    /// Latency samples taken.
    pub samples: usize,
}

/// Splits `v` into runs of `size`, the short remainder joining the
/// last full run.
fn chunks(v: &[f64], size: usize) -> Vec<&[f64]> {
    let full = (v.len() / size).max(1);
    (0..full).map(|i| &v[i * size..if i + 1 == full { v.len() } else { (i + 1) * size }]).collect()
}

/// Summarizes the samples of a phase that lasted `wall` seconds.
pub fn summarize(mut samples: Vec<Sample>, wall: f64) -> Summary {
    samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let windows = (wall / RATE_WINDOW_S).round().max(1.0) as usize;
    let width = wall / windows as f64;
    let mut ops = vec![0u64; windows];
    for s in &samples {
        ops[((s.end_s / width) as usize).min(windows - 1)] += s.ops;
    }
    let rates: Vec<f64> = ops.iter().map(|&o| o as f64 / width).collect();
    let lat: Vec<f64> = samples.iter().filter_map(|s| s.ms).collect();
    let stat = |size: usize, p: f64| {
        let per: Vec<f64> = chunks(&lat, size)
            .into_iter()
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_by(f64::total_cmp);
                percentile(&c, p)
            })
            .collect();
        median(&per)
    };
    Summary {
        ops_per_s: median(&rates),
        p50_ms: stat(P50_CHUNK, 50.0),
        p99_ms: stat(P99_CHUNK, 99.0),
        samples: lat.len(),
    }
}

/// Hamming distance between two packed bit vectors.
pub fn hamming(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Cosine distance `1 − a·b` of two unit vectors, accumulated in f64.
pub fn unit_cosine(a: &[f32], b: &[f32]) -> f64 {
    1.0 - a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum::<f64>()
}

/// Euclidean distance, accumulated in f64.
pub fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x as f64 - y as f64).powi(2)).sum::<f64>().sqrt()
}

/// How far the program's f32-lane kernels may sit from the f64 scalar
/// reference. A point whose reference distance lies within this of the
/// radius may be reported or not; everywhere else the answer is exact.
pub const COSINE_TOL: f64 = 1e-5;
/// The same boundary slack for the L2 mixture corpus (radius 1.5).
pub const L2_TOL: f64 = 1e-4;

/// Checks one rNNR answer against reference distances: ids unique (and
/// ascending where the API promises it), every id in range and within
/// `r + tol`. Returns the number of true neighbours reported.
pub fn check_rnnr(
    ids: &[u32],
    dist: impl Fn(u32) -> Option<f64>,
    r: f64,
    tol: f64,
    ascending: bool,
) -> Result<usize, String> {
    if ascending {
        if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("ids not strictly ascending: {} then {}", w[0], w[1]));
        }
    } else {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("id {} reported twice", w[0]));
        }
    }
    for &id in ids {
        match dist(id) {
            None => return Err(format!("id {id} is not a live point")),
            Some(d) if d > r + tol => {
                return Err(format!("id {id} at distance {d} lies outside radius {r}"))
            }
            Some(_) => {}
        }
    }
    Ok(ids.len())
}

/// Checks that a linear-scan answer is the brute-force set: every
/// point with reference distance `≤ r − tol` is reported, and nothing
/// beyond `r + tol` (enforced by [`check_rnnr`]).
pub fn check_exact_set(ids: &[u32], dists: &[f64], r: f64, tol: f64) -> Result<(), String> {
    check_rnnr(ids, |id| dists.get(id as usize).copied(), r, tol, false)?;
    let reported: std::collections::HashSet<u32> = ids.iter().copied().collect();
    match dists
        .iter()
        .enumerate()
        .find(|&(id, &d)| d <= r - tol && !reported.contains(&(id as u32)))
    {
        Some((id, d)) => Err(format!("point {id} at distance {d} ≤ {r} was not reported")),
        None => Ok(()),
    }
}

/// Recall of one answer: the share of the points within `r − tol` that
/// it reports (1 when there are none).
pub fn recall(ids: &[u32], dists: &[f64], r: f64, tol: f64) -> f64 {
    let truth = dists.iter().filter(|&&d| d <= r - tol).count();
    if truth == 0 {
        return 1.0;
    }
    let hit = ids.iter().filter(|&&id| dists[id as usize] <= r - tol).count();
    hit as f64 / truth as f64
}

/// The `k`-th smallest value (1-based) of `dists`, or `+∞` when there
/// are fewer than `k`.
pub fn kth_smallest(dists: &[f64], k: usize) -> f64 {
    if k == 0 || k > dists.len() {
        return f64::INFINITY;
    }
    let mut v = dists.to_vec();
    let (_, kth, _) = v.select_nth_unstable_by(k - 1, f64::total_cmp);
    *kth
}

/// Checks one top-k answer: exactly `min(k, n)` entries in ascending
/// `(distance, id)` order, unique ids, each distance matching the
/// reference within `tol`. Returns how many entries are among the true
/// `k` nearest (reference distance within `tol` of the `k`-th).
pub fn check_topk(
    got: &[(u32, f64)],
    k: usize,
    n: usize,
    dist: impl Fn(u32) -> Option<f64>,
    kth: f64,
    tol: f64,
) -> Result<usize, String> {
    if got.len() != k.min(n) {
        return Err(format!("{} entries, expected min({k}, {n})", got.len()));
    }
    if let Some(w) = got.windows(2).find(|w| (w[0].1, w[0].0) >= (w[1].1, w[1].0)) {
        return Err(format!("entries out of (distance, id) order: {:?} then {:?}", w[0], w[1]));
    }
    let mut ids: Vec<u32> = got.iter().map(|e| e.0).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("id {} ranked twice", w[0]));
    }
    let mut found = 0;
    for &(id, d) in got {
        let want = dist(id).ok_or_else(|| format!("id {id} is not a live point"))?;
        if (d - want).abs() > tol {
            return Err(format!("id {id}: served distance {d}, reference {want}"));
        }
        if want <= kth + tol {
            found += 1;
        }
    }
    Ok(found)
}

/// Pool indexes in successive seeded shuffles of `0..pool`, so any
/// stretch of whole cycles uses every pool query equally often.
pub struct PoolCycle {
    rng: Rng,
    order: Vec<usize>,
    at: usize,
}

impl PoolCycle {
    /// A cycle over `0..pool` drawn from `rng`.
    pub fn new(pool: usize, rng: Rng) -> Self {
        Self { rng, order: (0..pool).collect(), at: pool }
    }

    /// The next `count` pool indexes.
    pub fn take(&mut self, count: usize) -> Vec<usize> {
        (0..count)
            .map(|_| {
                if self.at == self.order.len() {
                    self.rng.shuffle(&mut self.order);
                    self.at = 0;
                }
                self.at += 1;
                self.order[self.at - 1]
            })
            .collect()
    }
}

/// One operation of a living-index tape.
#[derive(Clone, Debug, PartialEq)]
pub enum TapeOp {
    /// Insert these fresh ids; row `i` of the vectors belongs to `ids[i]`.
    Insert(Vec<u32>),
    /// Delete these ids (all live before the tape, none inserted by it).
    Delete(Vec<u32>),
    /// One rNNR request over these query-pool indexes.
    Rnnr(Vec<usize>),
    /// One top-k request over these query-pool indexes.
    TopK(Vec<usize>),
}

/// Shape of a churn tape.
#[derive(Clone, Copy, Debug)]
pub struct TapeShape {
    /// Rounds; each holds one insert batch, one delete batch and
    /// `queries_per_round` query requests.
    pub rounds: usize,
    /// Ids per insert batch.
    pub insert_batch: usize,
    /// Ids per delete batch.
    pub delete_batch: usize,
    /// Query requests per round, alternating rNNR and top-k.
    pub queries_per_round: usize,
    /// Queries per query request.
    pub query_batch: usize,
    /// Size of the base corpus (ids `0..base`).
    pub base: usize,
    /// Size of the query pool.
    pub pool: usize,
}

/// A seeded churn tape: every insert uses fresh ids `base..`, every
/// delete draws base ids without replacement, so each id is touched by
/// at most one operation and the final live set does not depend on how
/// concurrent connections interleave the tape.
pub fn churn_tape(shape: TapeShape, seed: u64) -> Vec<TapeOp> {
    let deletes = shape.rounds * shape.delete_batch;
    assert!(deletes <= shape.base, "tape would delete more points than the corpus holds");
    let mut rng = Rng::new(seed, 0x7A9E);
    let mut victims: Vec<u32> = (0..shape.base as u32).collect();
    rng.shuffle(&mut victims);
    let mut next_id = shape.base as u32;
    let mut rnnr = PoolCycle::new(shape.pool, Rng::new(seed, 0x2A1));
    let mut topk = PoolCycle::new(shape.pool, Rng::new(seed, 0x2A2));
    let mut tape = Vec::new();
    for round in 0..shape.rounds {
        let mut ops = vec![
            TapeOp::Insert((0..shape.insert_batch as u32).map(|j| next_id + j).collect()),
            TapeOp::Delete(
                victims[round * shape.delete_batch..(round + 1) * shape.delete_batch].to_vec(),
            ),
        ];
        next_id += shape.insert_batch as u32;
        for j in 0..shape.queries_per_round {
            ops.push(if j % 2 == 0 {
                TapeOp::Rnnr(rnnr.take(shape.query_batch))
            } else {
                TapeOp::TopK(topk.take(shape.query_batch))
            });
        }
        rng.shuffle(&mut ops);
        tape.extend(ops);
    }
    tape
}

/// The printed record of one run: metrics by name with their units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} measured {value}");
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }

    /// Every metric as `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> + '_ {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    /// Keeps only the metrics `keep` accepts.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.0.retain(|k, _| keep(k));
    }

    /// The final result line.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Available cores — the cap on load threads and connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where per-run scratch directories live, under the working directory.
const SCRATCH: &str = ".perfbench_tmp";

/// Removes the scratch directories process `pid` created — the
/// watchdog's clean-up, which runs no destructors.
pub fn remove_scratch_of(pid: u32) {
    let tag = format!("-{pid}-");
    for entry in std::fs::read_dir(SCRATCH).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().contains(&tag) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    let _ = std::fs::remove_dir(SCRATCH);
}

/// A per-run scratch directory inside the working directory, removed
/// when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.perfbench_tmp/<tag>-<pid>-<nanos>` under the working
    /// directory.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(SCRATCH).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves no empty parent behind; fails harmlessly while another
        // run still owns a sibling.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn summary_is_robust_to_one_bad_window() {
        // 10 s at 100 ops/s with 1 ms latency, but second 4 stalls:
        // half the operations, each 50 ms.
        let mut v = Vec::new();
        for i in 0..1000 {
            let end_s = i as f64 / 100.0 + 0.005;
            let slow = (4.0..5.0).contains(&end_s);
            if slow && i % 2 == 1 {
                continue;
            }
            v.push(Sample { end_s, ops: 1, ms: Some(if slow { 50.0 } else { 1.0 }) });
        }
        let s = summarize(v, 10.0);
        assert_eq!(s.ops_per_s, 100.0);
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.samples, 950);
        // One 950-sample chunk: its p99 sees the stall.
        assert_eq!(s.p99_ms, 50.0);
        // Writes count towards throughput but carry no latency.
        let w = vec![
            Sample { end_s: 0.5, ops: 8, ms: None },
            Sample { end_s: 0.7, ops: 2, ms: Some(3.0) },
        ];
        let s = summarize(w, 1.0);
        assert_eq!((s.ops_per_s, s.p50_ms, s.samples), (10.0, 3.0, 1));
        assert_eq!(
            chunks(&[1.0; 2500], 1000).iter().map(|c| c.len()).collect::<Vec<_>>(),
            [1000, 1500]
        );
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(5, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(5, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(6, 1).next_u64());
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(7) < 7));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn reference_distances() {
        assert_eq!(hamming(&[0b1011, 0], &[0b0001, 1]), 3);
        assert!((l2(&[0.0, 3.0], &[4.0, 0.0]) - 5.0).abs() < 1e-12);
        assert!(unit_cosine(&[1.0, 0.0], &[1.0, 0.0]).abs() < 1e-12);
        assert!((unit_cosine(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rnnr_check_catches_each_fault() {
        let dists = [0.5, 1.0, 2.0, 1.0 + 1e-9];
        let d = |id: u32| dists.get(id as usize).copied();
        assert_eq!(check_rnnr(&[0, 1, 3], d, 1.0, 1e-6, true), Ok(3));
        assert!(check_rnnr(&[1, 0], d, 1.0, 0.0, true).is_err());
        assert!(check_rnnr(&[1, 0], d, 1.0, 0.0, false).is_ok());
        assert!(check_rnnr(&[0, 0], d, 1.0, 0.0, false).is_err());
        assert!(check_rnnr(&[2], d, 1.0, 0.0, true).is_err());
        assert!(check_rnnr(&[9], d, 1.0, 0.0, true).is_err());
        // The boundary point passes only within the stated slack.
        assert!(check_rnnr(&[3], d, 1.0, 0.0, true).is_err());
    }

    #[test]
    fn exact_set_and_recall() {
        let dists = [0.5, 1.0, 2.0, 1.0 - 1e-9];
        assert!(check_exact_set(&[0, 1, 3], &dists, 1.0, 1e-6).is_ok());
        // Boundary points within the slack may be left out…
        assert!(check_exact_set(&[0], &dists, 1.0, 1e-6).is_ok());
        // …but nothing clearly inside may.
        assert!(check_exact_set(&[1, 3], &dists, 1.0, 1e-6).is_err());
        assert_eq!(recall(&[0], &dists, 1.0, 0.0), 1.0 / 3.0);
        assert_eq!(recall(&[], &[5.0], 1.0, 0.0), 1.0);
    }

    #[test]
    fn topk_check() {
        let dists = [3.0, 1.0, 2.0, 1.0];
        let d = |id: u32| dists.get(id as usize).copied();
        let kth = kth_smallest(&dists, 2);
        assert_eq!(kth, 1.0);
        assert_eq!(check_topk(&[(1, 1.0), (3, 1.0)], 2, 4, d, kth, 0.0), Ok(2));
        assert_eq!(check_topk(&[(1, 1.0), (2, 2.0)], 2, 4, d, kth, 0.0), Ok(1));
        assert!(check_topk(&[(3, 1.0), (1, 1.0)], 2, 4, d, kth, 0.0).is_err());
        assert!(check_topk(&[(1, 1.0)], 2, 4, d, kth, 0.0).is_err());
        assert!(check_topk(&[(1, 1.5), (3, 1.0)], 2, 4, d, kth, 0.0).is_err());
        assert_eq!(check_topk(&[], 5, 0, d, f64::INFINITY, 0.0), Ok(0));
        assert_eq!(kth_smallest(&dists, 9), f64::INFINITY);
    }

    #[test]
    fn pool_cycle_is_balanced() {
        let mut c = PoolCycle::new(10, Rng::new(3, 0));
        let mut counts = [0; 10];
        for i in c.take(30) {
            counts[i] += 1;
        }
        assert_eq!(counts, [3; 10]);
        let a = PoolCycle::new(10, Rng::new(3, 0)).take(10);
        assert_eq!(a, PoolCycle::new(10, Rng::new(3, 0)).take(10));
        assert_ne!(a, PoolCycle::new(10, Rng::new(4, 0)).take(10));
    }

    #[test]
    fn churn_tape_touches_each_id_once() {
        let shape = TapeShape {
            rounds: 30,
            insert_batch: 8,
            delete_batch: 5,
            queries_per_round: 4,
            query_batch: 3,
            base: 500,
            pool: 20,
        };
        let tape = churn_tape(shape, 9);
        assert_eq!(tape, churn_tape(shape, 9));
        assert_ne!(tape, churn_tape(shape, 10));
        let mut touched = std::collections::HashSet::new();
        let (mut ins, mut del, mut q) = (0, 0, 0);
        for op in &tape {
            match op {
                TapeOp::Insert(ids) => {
                    ins += 1;
                    assert!(ids.iter().all(|&id| id >= 500 && touched.insert(id)));
                }
                TapeOp::Delete(ids) => {
                    del += 1;
                    assert!(ids.iter().all(|&id| id < 500 && touched.insert(id)));
                }
                TapeOp::Rnnr(p) | TapeOp::TopK(p) => {
                    q += 1;
                    assert_eq!(p.len(), 3);
                    assert!(p.iter().all(|&i| i < 20));
                }
            }
        }
        assert_eq!((ins, del, q), (30, 30, 120));
    }

    #[test]
    fn json_record_shape() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25, "s");
        m.set("a.b", 3.0, "count");
        assert_eq!(
            m.to_json(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
