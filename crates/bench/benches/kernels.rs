//! Criterion benches of the numeric kernels: chunked vs scalar
//! distance primitives across the paper's dimensionality range,
//! one-at-a-time vs one-to-many candidate verification, packed
//! matrix–vector hashing vs `k` separate scalar dot products, the
//! Hamming popcount scan / one-to-many kernels vs the per-point loops,
//! and the Webspam-shaped dense S3 arms: per-row `dot` vs eight-row
//! `dot_rows` vs the metric's filter fanned out over the cores, plus the
//! crossover that sizes the fan-out.
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
use hlsh_vec::{
    dense, kernels, BinaryDataset, DenseDataset, Distance, GrowablePointSet, Hamming, PointId,
    PointSet, UnitCosine,
};

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

/// `UnitCosine`'s S3 filter over `n` rows of `flat` without the
/// fan-out, given the per-row dot-product kernel it times.
fn unit_cosine_scan_rows(
    flat: &[f32],
    dim: usize,
    q: &[f32],
    r: f64,
    eight_rows: bool,
    out: &mut Vec<PointId>,
) {
    let n = flat.len() / dim;
    let row = |i: usize| &flat[i * dim..(i + 1) * dim];
    let mut first = 0;
    if eight_rows {
        while first + kernels::DOT_ROWS <= n {
            let dots = kernels::dot_rows(std::array::from_fn(|j| row(first + j)), q);
            for (j, dot) in dots.into_iter().enumerate() {
                if 1.0 - dot <= r {
                    out.push((first + j) as PointId);
                }
            }
            first += kernels::DOT_ROWS;
        }
    }
    for i in first..n {
        if 1.0 - kernels::dot(row(i), q) <= r {
            out.push(i as PointId);
        }
    }
}

/// The Webspam analog's dense S3 (17 400 unit rows × 254 dims,
/// `UnitCosine`). `webspam_scan` times the linear arm three ways — one
/// `dot` per row, eight interleaved rows per `dot_rows` call, and the
/// metric's `scan_within`, which also splits the rows over the cores —
/// and `webspam_verify` the LSH arm's verification of 5 700 random
/// candidates per row and in gathered groups of eight. `fan_out_split`
/// sizes the fan-out: the inline `dot_rows` scan against the same scan
/// cut into two halves on two scoped threads, at 256 KiB to 2 MiB of
/// rows per half; the split pays once each half carries more than the
/// spawn and join cost.
fn bench_dense_s3(c: &mut Criterion) {
    let (n, dim) = (17_400usize, 254usize);
    let mut data = DenseDataset::from_flat(filled(n * dim, 0.6), dim);
    data.normalize_l2();
    let flat = data.as_flat();
    let q = data.row(n / 3).to_vec();
    let r = 1.0;
    let ids: Vec<PointId> =
        (0..5_700u64).map(|i| (splitmix64(i ^ 0x77) % n as u64) as PointId).collect();

    let mut group = c.benchmark_group("webspam_scan");
    for (label, eight_rows) in [("dot", false), ("dot_rows", true)] {
        group.bench_with_input(BenchmarkId::new(label, n), &n, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::new();
                unit_cosine_scan_rows(std::hint::black_box(flat), dim, &q, r, eight_rows, &mut out);
                std::hint::black_box(out.len())
            })
        });
    }
    group.bench_with_input(BenchmarkId::new("fan_out", n), &n, |bch, _| {
        bch.iter(|| {
            let mut out = Vec::new();
            UnitCosine.scan_within(std::hint::black_box(&data), &q, r, &mut out);
            std::hint::black_box(out.len())
        })
    });
    group.finish();

    let mut group = c.benchmark_group("webspam_verify");
    let m = ids.len();
    group.bench_with_input(BenchmarkId::new("dot", m), &m, |bch, _| {
        bch.iter(|| {
            let mut out = Vec::<PointId>::new();
            for &id in std::hint::black_box(&ids) {
                let row = &flat[id as usize * dim..(id as usize + 1) * dim];
                if 1.0 - kernels::dot(row, &q) <= r {
                    out.push(id);
                }
            }
            std::hint::black_box(out.len())
        })
    });
    group.bench_with_input(BenchmarkId::new("dot_rows", m), &m, |bch, _| {
        bch.iter(|| {
            // Below the fan-out size (5 700 rows ≈ 5.5 MiB would split):
            // a worker-free inline call of the same metric filter.
            let mut out = Vec::new();
            for block in std::hint::black_box(&ids).chunks(1024) {
                UnitCosine.verify_many(&data, block, &q, r, &mut out);
            }
            std::hint::black_box(out.len())
        })
    });
    group.bench_with_input(BenchmarkId::new("fan_out", m), &m, |bch, _| {
        bch.iter(|| {
            let mut out = Vec::new();
            UnitCosine.verify_many(&data, std::hint::black_box(&ids), &q, r, &mut out);
            std::hint::black_box(out.len())
        })
    });
    group.finish();

    let mut group = c.benchmark_group("fan_out_split");
    let row_bytes = dim * std::mem::size_of::<f32>();
    for kib in [256usize, 512, 1024, 2048] {
        let half = kib * 1024 / row_bytes;
        let rows = &flat[..2 * half * dim];
        group.bench_with_input(BenchmarkId::new("inline", kib), &kib, |bch, _| {
            bch.iter(|| {
                let mut out = Vec::new();
                unit_cosine_scan_rows(std::hint::black_box(rows), dim, &q, r, true, &mut out);
                std::hint::black_box(out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("split2", kib), &kib, |bch, _| {
            bch.iter(|| {
                let (lo, hi) = std::hint::black_box(rows).split_at(half * dim);
                let mut out = Vec::new();
                let mut tail = Vec::new();
                std::thread::scope(|scope| {
                    scope.spawn(|| unit_cosine_scan_rows(hi, dim, &q, r, true, &mut tail));
                    unit_cosine_scan_rows(lo, dim, &q, r, true, &mut out);
                });
                out.extend(tail.iter().map(|&id| id + half as PointId));
                std::hint::black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(100))
        .measurement_time(std::time::Duration::from_millis(400));
    targets = bench_pair_kernels, bench_verify, bench_hashing, bench_hamming, bench_dense_s3
}
criterion_main!(benches);
