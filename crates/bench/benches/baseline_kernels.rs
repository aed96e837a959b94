//! Criterion benchmarks of the native baseline kernels: the host time
//! of each Phoenix app's instrumented reference implementation
//! (`Workload::run_baseline`), which `capebench` only runs as a check.

use cape_workloads::phoenix;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baseline_kernels");
    g.sample_size(10);
    for w in phoenix::tiny_suite() {
        g.bench_function(w.name(), |b| b.iter(|| w.run_baseline()));
    }
    g.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
