//! Criterion benchmarks of the memory substrate: cache-simulator
//! throughput and the HBM transfer model.

use cape_mem::{CacheHierarchy, Hbm};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_cache_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("stream_64k_accesses", |b| {
        let mut h = CacheHierarchy::baseline_three_level(300);
        b.iter(|| {
            let mut total = 0u64;
            for i in 0..65_536u64 {
                total += h.access(i * 64, false);
            }
            total
        })
    });
    g.bench_function("hot_set_accesses", |b| {
        let mut h = CacheHierarchy::baseline_three_level(300);
        b.iter(|| {
            let mut total = 0u64;
            for i in 0..65_536u64 {
                total += h.access((i % 256) * 64, i % 7 == 0);
            }
            total
        })
    });
    g.finish();
}

fn bench_hbm_model(c: &mut Criterion) {
    let hbm = Hbm::default();
    c.bench_function("hbm_transfer_model", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for bytes in [512u64, 4096, 131_072, 4 << 20] {
                acc += hbm.transfer_cycles(bytes, 2.7);
            }
            acc
        })
    });
}

criterion_group!(benches, bench_cache_hierarchy, bench_hbm_model);
criterion_main!(benches);
