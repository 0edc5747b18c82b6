//! Criterion benches of the numeric kernels: chunked vs scalar
//! distance primitives across the paper's dimensionality range,
//! one-at-a-time vs one-to-many candidate verification, packed
//! matrix–vector hashing vs `k` separate scalar dot products, and the
//! Hamming popcount scan / one-to-many kernels vs the per-point loops.
//!
//! `d ∈ {16, 64, 256, 960}` spans Corel (32), CoverType (54), MNIST
//! (784) and GIST-like (960) regimes. The committed baseline lives in
//! `BENCH_kernels.json` at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hlsh_families::family::{combine_atoms, GFunction};
use hlsh_families::sampling::{normal_vector, rng_stream};
use hlsh_families::{LshFamily, PStableL2};
use hlsh_hll::hash::splitmix64;
use hlsh_vec::metric::{scan_scalar, verify_scalar};
use hlsh_vec::{dense, kernels, BinaryDataset, Distance, GrowablePointSet, Hamming, PointSet};

const DIMS: [usize; 4] = [16, 64, 256, 960];

fn filled(n: usize, phase: f32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.173 + phase).sin() * 2.0).collect()
}

fn bench_pair_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2_sq");
    for d in DIMS {
        let a = filled(d, 0.0);
        let b = filled(d, 1.9);
        group.bench_with_input(BenchmarkId::new("scalar", d), &d, |bch, _| {
            bch.iter(|| dense::l2_sq(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("chunked", d), &d, |bch, _| {
            bch.iter(|| kernels::l2_sq(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("dot");
    for d in DIMS {
        let a = filled(d, 0.4);
        let b = filled(d, 2.7);
        group.bench_with_input(BenchmarkId::new("scalar", d), &d, |bch, _| {
            bch.iter(|| dense::dot(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("chunked", d), &d, |bch, _| {
            bch.iter(|| kernels::dot(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("l1");
    for d in DIMS {
        let a = filled(d, 0.8);
        let b = filled(d, 3.1);
        group.bench_with_input(BenchmarkId::new("scalar", d), &d, |bch, _| {
            bch.iter(|| dense::l1(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("chunked", d), &d, |bch, _| {
            bch.iter(|| kernels::l1(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    group.finish();
}

/// S3 verification: per-candidate scalar distance calls (the pre-kernel
/// engine), per-candidate chunked calls, and the engine's one-to-many
/// kernel with its early-exit radius bound.
fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify");
    for d in [64usize, 256] {
        let n = 4096;
        let flat = filled(n * d, 0.3);
        let q = filled(d, 5.0);
        let ids: Vec<u32> = (0..n as u32).step_by(4).collect();
        // Median candidate distance: half accept, half (early-exit) reject.
        let mut dists: Vec<f64> = ids
            .iter()
            .map(|&id| kernels::l2_sq(&flat[id as usize * d..(id as usize + 1) * d], &q))
            .collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let r = dists[dists.len() / 2].sqrt();

        group.bench_with_input(BenchmarkId::new("one_at_a_time_scalar", d), &d, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::new();
                for &id in &ids {
                    let row = &flat[id as usize * d..(id as usize + 1) * d];
                    if dense::l2(std::hint::black_box(row), &q) <= r {
                        out.push(id);
                    }
                }
                std::hint::black_box(out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("one_at_a_time_chunked", d), &d, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::new();
                for &id in &ids {
                    let row = &flat[id as usize * d..(id as usize + 1) * d];
                    if kernels::l2(std::hint::black_box(row), &q) <= r {
                        out.push(id);
                    }
                }
                std::hint::black_box(out.len())
            })
        });
        // The engine's L2 verification kernel (unsquared radius), ids only.
        group.bench_with_input(BenchmarkId::new("l2_one_to_many", d), &d, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::<u32>::new();
                kernels::l2_one_to_many(std::hint::black_box(&flat), d, &ids, &q, r, &mut out);
                std::hint::black_box(out.len())
            })
        });
    }
    group.finish();
}

/// Per-query hashing cost: all K projections through the packed
/// matrix–vector kernel (the shipped `bucket_key`) vs the pre-change
/// construction of K separate scalar dot products.
fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("k_projections");
    let k = 7; // the paper's Corel setting
    for d in DIMS {
        let family = PStableL2::new(d, 4.0);
        let g = family.sample(k, &mut rng_stream(11, 0));
        // Reference rows/shifts sampled the same way the family does.
        let mut rng = rng_stream(11, 1);
        let rows: Vec<Vec<f32>> = (0..k).map(|_| normal_vector(&mut rng, d)).collect();
        let shifts: Vec<f64> = (0..k).map(|i| i as f64 * 0.37).collect();
        let q = filled(d, 1.2);

        group.bench_with_input(BenchmarkId::new("k_scalar_dots", d), &d, |bch, _| {
            bch.iter(|| {
                combine_atoms(rows.iter().zip(&shifts).map(|(row, b)| {
                    ((dense::dot(std::hint::black_box(row), &q) + b) / 4.0).floor() as i64 as u64
                }))
            })
        });
        group.bench_with_input(BenchmarkId::new("packed_matvec", d), &d, |bch, _| {
            bch.iter(|| g.bucket_key(std::hint::black_box(&q)))
        });
    }
    group.finish();
}

/// Both S3 arms in Hamming space (the MNIST analog's 64-bit
/// fingerprints, and 256-bit rows): the full linear scan and the
/// one-to-many verification of a random candidate list, each through
/// `Hamming`'s kernel dispatch and through the per-point scalar loop it
/// replaces. Same answers by construction; only the time differs.
fn bench_hamming(c: &mut Criterion) {
    let mut group = c.benchmark_group("hamming");
    let n = 16_384;
    for wpr in [1usize, 4] {
        let q: Vec<u64> = (0..wpr as u64).map(|w| splitmix64(w ^ 0x51)).collect();
        // Rows near q (each bit flipped with probability 1/8), so the
        // radius below both accepts and rejects (about 30% accepted at
        // 64 bits, about 7% at 256).
        let mut data = BinaryDataset::new(64 * wpr);
        for i in 0..n as u64 {
            let row: Vec<u64> = (0..wpr as u64)
                .map(|w| {
                    let h = |salt: u64| splitmix64((i * 8 + w) ^ (salt << 56));
                    q[w as usize] ^ (h(1) & h(2) & h(3))
                })
                .collect();
            data.push_point(&row);
        }
        let r = (6 * wpr) as f64;
        let ids: Vec<u32> = (0..4096u64).map(|i| (splitmix64(i) % n as u64) as u32).collect();
        let label = 64 * wpr;

        group.bench_with_input(BenchmarkId::new("scan_scalar", label), &wpr, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::<u32>::new();
                scan_scalar(&Hamming, std::hint::black_box(&data), &q[..], r, &mut out);
                std::hint::black_box(out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("scan_kernel", label), &wpr, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::new();
                Hamming.scan_within(std::hint::black_box(&data), &q[..], r, &mut out);
                std::hint::black_box(out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("verify_scalar", label), &wpr, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::<u32>::new();
                verify_scalar(&Hamming, std::hint::black_box(&data), &ids, &q[..], r, &mut out);
                std::hint::black_box(out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("one_to_many", label), &wpr, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::new();
                Hamming.verify_many(std::hint::black_box(&data), &ids, &q[..], r, &mut out);
                std::hint::black_box(out.len())
            })
        });
        assert!(data.binary_view().is_some(), "the kernel arms must take the binary view");
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(100))
        .measurement_time(std::time::Duration::from_millis(400));
    targets = bench_pair_kernels, bench_verify, bench_hashing, bench_hamming
}
criterion_main!(benches);
