//! Program-granularity broadcast throughput.
//!
//! A vector instruction is compiled once and its whole microop program
//! fans out over the persistent worker pool in one broadcast. This bench
//! measures whole `vadd.vv` executions through that path at 1k/2k/4k
//! chains, plus the bulk transposed vector I/O against the per-element
//! path it replaced.
//!
//! The PR 4 tentpole adds the `block_kernel` group: whole instructions
//! through the block-SoA kernels (16 chains per block, auto-vectorized
//! contiguous-slice loops) for the three shapes the results file tracks —
//! `vadd.vv` (bit-serial adder), `vmslt.vv` (compare/flag walk) and
//! `vredsum.vs` (reduction-tree popcounts) — at 1k and 4k chains.

use cape_csb::{Csb, CsbGeometry, FaultConfig};
use cape_ucode::{CompiledOp, Sequencer, VectorOp};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const VADD: VectorOp = VectorOp::Add {
    vd: 3,
    vs1: 1,
    vs2: 2,
};

const VMSLT: VectorOp = VectorOp::Mslt {
    vd: 3,
    vs1: 1,
    vs2: 2,
    signed: true,
};

const VREDSUM: VectorOp = VectorOp::RedSum { vd: 3, vs: 1 };

fn csb(chains: usize) -> Csb {
    let mut csb = Csb::new(CsbGeometry::new(chains));
    let vals: Vec<u32> = (0..csb.max_vl())
        .map(|e| (e as u32).wrapping_mul(2_654_435_761))
        .collect();
    csb.write_vector(1, &vals);
    csb.write_vector(2, &vals);
    csb.set_active_window(0, csb.max_vl());
    csb
}

fn bench_vadd_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("vadd");
    g.sample_size(10);
    for chains in [1024usize, 2048, 4096] {
        let compiled = CompiledOp::compile(&VADD, 32);
        let mut program = csb(chains);
        g.bench_with_input(BenchmarkId::new("program", chains), &chains, |b, _| {
            b.iter(|| Sequencer::new(&mut program).run_program(&compiled))
        });
    }
    g.finish();
}

fn bench_masked_window(c: &mut Criterion) {
    // Partially-masked windows must still engage the pool (the old
    // threaded-path guard fell back to serial whenever any chain idled).
    let mut g = c.benchmark_group("vadd_masked");
    g.sample_size(10);
    let chains = 4096usize;
    let compiled = CompiledOp::compile(&VADD, 32);
    let mut m = csb(chains);
    let vl = m.max_vl() - 5000;
    m.set_active_window(3, vl);
    g.bench_with_input(BenchmarkId::new("program", chains), &chains, |b, _| {
        b.iter(|| Sequencer::new(&mut m).run_program(&compiled))
    });
    g.finish();
}

fn bench_vector_io(c: &mut Criterion) {
    let mut g = c.benchmark_group("vector_io");
    g.sample_size(10);
    for chains in [1024usize, 4096] {
        let mut m = csb(chains);
        let n = m.max_vl();
        let vals: Vec<u32> = (0..n).map(|e| e as u32 ^ 0xA5A5_5A5A).collect();
        g.bench_with_input(BenchmarkId::new("bulk_write", chains), &chains, |b, _| {
            b.iter(|| m.write_vector(4, &vals))
        });
        g.bench_with_input(BenchmarkId::new("bulk_read", chains), &chains, |b, _| {
            b.iter(|| m.read_vector(4, n))
        });
        g.bench_with_input(
            BenchmarkId::new("per_element_write", chains),
            &chains,
            |b, _| {
                b.iter(|| {
                    for (e, &v) in vals.iter().enumerate() {
                        m.write_element(5, e, v);
                    }
                })
            },
        );
    }
    g.finish();
}

fn bench_block_kernels(c: &mut Criterion) {
    // Whole instructions through the block-SoA kernel path (the program
    // path now runs 16-chain blocks per microop). Recorded per PR in
    // results/bench_pr4.json as host ns for vadd/vmslt/redsum.
    let mut g = c.benchmark_group("block_kernel");
    g.sample_size(10);
    for chains in [1024usize, 4096] {
        for (name, op) in [("vadd", VADD), ("vmslt", VMSLT), ("redsum", VREDSUM)] {
            let compiled = CompiledOp::compile(&op, 32);
            let mut m = csb(chains);
            g.bench_with_input(BenchmarkId::new(name, chains), &chains, |b, _| {
                b.iter(|| Sequencer::new(&mut m).run_program(&compiled))
            });
        }
    }
    g.finish();
}

fn bench_fault_overhead(c: &mut Criterion) {
    // PR 7: clean vs quiescent-armed fault mode over the same whole
    // instruction. Both run the same kernels; the armed path also folds
    // each row the program may write into its parity once before and
    // once after the plan, plus an O(touched blocks) syndrome drain at
    // broadcast boundaries, so the two bars should sit within a few
    // percent of each other (the old full-rescan model put the armed bar
    // at ~13x). Recorded in results/bench_pr7.json.
    let mut g = c.benchmark_group("fault_overhead");
    g.sample_size(10);
    let chains = 4096usize;
    let compiled = CompiledOp::compile(&VADD, 32);
    let mut clean = csb(chains);
    g.bench_with_input(BenchmarkId::new("vadd_clean", chains), &chains, |b, _| {
        b.iter(|| Sequencer::new(&mut clean).run_program(&compiled))
    });
    let mut armed = csb(chains);
    armed.enable_fault_injection(FaultConfig::quiescent(2));
    g.bench_with_input(
        BenchmarkId::new("vadd_quiescent", chains),
        &chains,
        |b, _| b.iter(|| Sequencer::new(&mut armed).run_program(&compiled)),
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_vadd_paths,
    bench_masked_window,
    bench_vector_io,
    bench_block_kernels,
    bench_fault_overhead
);
criterion_main!(benches);
