//! Deterministic random sampling of projection vectors.
//!
//! `rand` (without `rand_distr`) provides only uniform draws, so the
//! standard normal and standard Cauchy variates needed by the p-stable
//! families are generated here: Box–Muller for N(0,1), inverse-CDF
//! (`tan`) for Cauchy. Every sampler takes an explicit RNG so the whole
//! pipeline is reproducible from one `u64` master seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent RNG stream from a master seed and stream id.
///
/// Streams are decorrelated by SplitMix64 mixing, so e.g. table `j` of
/// an index can use `rng_stream(seed, j)` without overlapping table
/// `j+1`.
pub fn rng_stream(master_seed: u64, stream: u64) -> StdRng {
    let mixed =
        hlsh_hll::hash::splitmix64(master_seed ^ stream.wrapping_mul(hlsh_hll::hash::GOLDEN_GAMMA));
    StdRng::seed_from_u64(mixed)
}

/// One uniform draw from `0..bound` (for samplers outside this crate,
/// which hold the stream without depending on `rand`).
pub fn uniform_below(rng: &mut StdRng, bound: u32) -> u32 {
    rng.gen_range(0..bound)
}

/// One standard normal variate via Box–Muller.
///
/// Uses the cosine branch only; the per-call cost is irrelevant because
/// sampling happens once at index-build time.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One standard Cauchy variate via inverse CDF: `tan(π(u − ½))`.
pub fn standard_cauchy(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen();
    (std::f64::consts::PI * (u - 0.5)).tan()
}

/// Fills a vector with i.i.d. standard normal components.
pub fn normal_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| standard_normal(rng) as f32).collect()
}

/// Fills a vector with i.i.d. standard Cauchy components.
pub fn cauchy_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| standard_cauchy(rng) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: f64 = rng_stream(1, 0).gen();
        let a2: f64 = rng_stream(1, 0).gen();
        let b: f64 = rng_stream(1, 1).gen();
        let c: f64 = rng_stream(2, 0).gen();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn normal_moments() {
        let mut rng = rng_stream(42, 0);
        let n = 40_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_symmetry() {
        let mut rng = rng_stream(7, 3);
        let n = 20_000;
        let positive = (0..n).filter(|_| standard_normal(&mut rng) > 0.0).count();
        let frac = positive as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive fraction {frac}");
    }

    #[test]
    fn cauchy_median_and_quartiles() {
        // Cauchy has no mean; check median ≈ 0 and quartiles ≈ ±1.
        let mut rng = rng_stream(11, 0);
        let mut xs: Vec<f64> = (0..40_000).map(|_| standard_cauchy(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        let q1 = xs[xs.len() / 4];
        let q3 = xs[3 * xs.len() / 4];
        assert!(median.abs() < 0.05, "median {median}");
        assert!((q1 + 1.0).abs() < 0.1, "q1 {q1}");
        assert!((q3 - 1.0).abs() < 0.1, "q3 {q3}");
    }

    #[test]
    fn vectors_have_requested_dim() {
        let mut rng = rng_stream(0, 0);
        assert_eq!(normal_vector(&mut rng, 17).len(), 17);
        assert_eq!(cauchy_vector(&mut rng, 5).len(), 5);
    }
}
