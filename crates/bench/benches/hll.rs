//! Criterion micro benches of the HyperLogLog primitives that gate the
//! hybrid overhead: insert, merge (the `O(mL)` query-time cost), and
//! estimation — across a sweep of register counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hlsh_hll::{HllConfig, HyperLogLog, MergeAccumulator};

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("hll_insert");
    for precision in [5u8, 7, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(1usize << precision),
            &precision,
            |b, &p| {
                let cfg = HllConfig::new(p, 1);
                let mut sketch = HyperLogLog::new(cfg);
                let mut i = 0u64;
                b.iter(|| {
                    sketch.insert(std::hint::black_box(i));
                    i = i.wrapping_add(1);
                });
            },
        );
    }
    group.finish();
}

fn bench_merge_l_tables(c: &mut Criterion) {
    // The paper's per-query overhead: merging L = 50 bucket sketches.
    let mut group = c.benchmark_group("hll_merge_50_buckets");
    for precision in [5u8, 7, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(1usize << precision),
            &precision,
            |b, &p| {
                let cfg = HllConfig::new(p, 2);
                let sketches: Vec<HyperLogLog> = (0..50)
                    .map(|t| {
                        let mut s = HyperLogLog::new(cfg);
                        for i in 0..1_000u64 {
                            s.insert(i * 50 + t);
                        }
                        s
                    })
                    .collect();
                b.iter(|| {
                    let mut acc = MergeAccumulator::new(cfg);
                    for s in &sketches {
                        acc.add_sketch(std::hint::black_box(s));
                    }
                    std::hint::black_box(acc.estimate())
                });
            },
        );
    }
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let cfg = HllConfig::new(7, 3);
    let mut sketch = HyperLogLog::new(cfg);
    for i in 0..100_000u64 {
        sketch.insert(i);
    }
    c.bench_function("hll_estimate_m128", |b| b.iter(|| std::hint::black_box(sketch.estimate())));
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_insert, bench_merge_l_tables, bench_estimate
}
criterion_main!(benches);
