//! Release gate for cross-instruction microprogram fusion.
//!
//! 1. **Differential at serving scale:** the 64-job Phoenix stress mix
//!    (8 kernels × 8 instances) drains through `cape-engine` twice —
//!    fused windows on (default config) and off (`fusion_window = 1`) —
//!    and every job's output digest must be bit-identical between the
//!    two runs *and* to its solo-machine reference.
//! 2. **Performance:** on the 4k-chain Phoenix string-match scan (text
//!    CSB-resident, each sweep one whole window of short-microprogram
//!    ops), fused host wall-clock must be ≤ 0.7× the per-op path, and
//!    the fused `RunReport` must show the join-count collapse that
//!    buys it.
//! 3. **Mixed SEW:** the e8→e16 sweep variant must fuse each sweep into
//!    exactly one window (unchanged-`vl` `vsetvli` flush count zero) at
//!    ≤ 0.75× per-op host wall-clock.
//! 4. **Dead stores:** that same 32-op gate kernel at 40 sweeps must
//!    retire exactly 25 120 plan-level stores — a pin on the window
//!    compiler's tag-aware dead-store pass, whose digests and modeled
//!    cycles section 3 already checks against the per-op run.
//!
//! Panics (non-zero exit) on any violation, so CI runs it as-is in
//! `--release`.

use std::time::Instant;

use cape_bench::{fusion, section};
use cape_core::{CapeConfig, CapeMachine, RunReport};
use cape_engine::{Engine, EngineConfig, JobSpec};
use cape_mem::MainMemory;
use cape_workloads::{phoenix, run_cape, Workload};

const STRESS_CHAINS: usize = 4;
const INSTANCES_PER_KERNEL: usize = 8;
const GATE_RATIO: f64 = 0.7;
const MIXED_GATE_RATIO: f64 = 0.75;
const ITERS: usize = 40;
/// Plan-level stores the window compiler retires on the mixed-SEW gate
/// kernel at `ITERS` sweeps: 628 in each 32-op sweep window.
const MIXED_DEAD_STORES: u64 = 25_120;

fn job(w: &dyn Workload, instance: usize) -> JobSpec {
    let mut mem = MainMemory::new();
    let program = w.cape_setup(&mut mem);
    JobSpec::new(format!("{}#{instance}", w.name()), program, mem)
}

/// Drains the 64-job mix with the given fusion window and returns every
/// job's output digest, in submission order.
fn drain_digests(fusion_window: usize) -> Vec<u64> {
    let mut machine = CapeConfig::tiny(STRESS_CHAINS);
    machine.fusion_window = fusion_window;
    let suite = phoenix::tiny_suite();
    let mut engine = Engine::new(EngineConfig {
        queue_capacity: suite.len() * INSTANCES_PER_KERNEL,
        slice_vectors: 16,
        max_batch: INSTANCES_PER_KERNEL,
        machine,
        fault: None,
    });
    let mut ids = Vec::new();
    for instance in 0..INSTANCES_PER_KERNEL {
        for (k, w) in suite.iter().enumerate() {
            ids.push((engine.submit(job(w.as_ref(), instance)).expect("room"), k));
        }
    }
    assert_eq!(ids.len(), 64);
    let report = engine.run();
    assert_eq!(report.completed(), 64, "every job must halt cleanly");
    ids.iter()
        .map(|(id, k)| suite[*k].digest(engine.memory(*id).expect("finished")))
        .collect()
}

/// One timed run of the 4k-chain loop; returns host seconds, the
/// report, and the output digest.
fn timed_run(fusion_window: usize, program: &cape_isa::Program) -> (f64, RunReport, u64) {
    let mut config = fusion::config();
    config.fusion_window = fusion_window;
    let max_vl = config.max_vl();
    let mut machine = CapeMachine::new(config);
    let mut mem = fusion::input(max_vl);
    let t0 = Instant::now();
    let report = machine.run(program, &mut mem).expect("gate kernel runs");
    let dt = t0.elapsed().as_secs_f64();
    (dt, report, fusion::digest(&mem, max_vl))
}

/// Median of three timed runs (same machine shape, fresh state each).
fn median_run(fusion_window: usize, program: &cape_isa::Program) -> (f64, RunReport, u64) {
    let mut runs: Vec<(f64, RunReport, u64)> =
        (0..3).map(|_| timed_run(fusion_window, program)).collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(1)
}

fn main() {
    section("fusion-smoke — 64-job differential");
    let suite = phoenix::tiny_suite();
    let solo: Vec<u64> = suite
        .iter()
        .map(|w| run_cape(w.as_ref(), &CapeConfig::tiny(STRESS_CHAINS)).digest)
        .collect();
    let fused = drain_digests(32);
    let per_op = drain_digests(1);
    assert_eq!(fused.len(), per_op.len());
    let mut mismatches = 0;
    for (i, (f, p)) in fused.iter().zip(&per_op).enumerate() {
        let reference = solo[i % suite.len()];
        if *f != *p || *f != reference {
            eprintln!("DIGEST MISMATCH job {i}: fused {f:#x} per-op {p:#x} solo {reference:#x}");
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "{mismatches} jobs diverged under fusion");
    println!("64/64 digests bit-identical: fused == per-op == solo");

    section("fusion-smoke — 4k-chain Phoenix string-match wall-clock");
    let max_vl = fusion::config().max_vl();
    let program = fusion::phoenix_loop(max_vl, ITERS);
    let (fused_s, fused_report, fused_digest) = median_run(32, &program);
    let (plain_s, plain_report, plain_digest) = median_run(1, &program);
    assert_eq!(fused_digest, plain_digest, "4k-chain outputs diverged");
    assert_eq!(
        fused_report.cycles, plain_report.cycles,
        "modeled timing must be fusion-invariant"
    );
    assert!(plain_report.fused_windows == 0 && plain_report.fused_joins_saved == 0);
    assert!(
        fused_report.fused_windows > 0 && fused_report.fused_joins_saved > 0,
        "gate loop must actually fuse"
    );
    let ratio = fused_s / plain_s;
    println!("max_vl {max_vl}, {ITERS} iterations");
    println!(
        "fused   {:>8.1} ms  ({} windows, {} ops fused, {} joins saved)",
        fused_s * 1e3,
        fused_report.fused_windows,
        fused_report.fused_ops,
        fused_report.fused_joins_saved
    );
    println!("per-op  {:>8.1} ms", plain_s * 1e3);
    println!("ratio   {ratio:.3}x (gate: <= {GATE_RATIO}x)");
    assert!(
        ratio <= GATE_RATIO,
        "fusion regressed: fused/per-op host ratio {ratio:.3} > {GATE_RATIO}"
    );

    section("fusion-smoke — mixed-SEW sweep (e8 → e16 inside one window)");
    let mixed = fusion::phoenix_loop_mixed(max_vl, ITERS);
    let (mfused_s, mfused_report, mfused_digest) = median_run(32, &mixed);
    let (mplain_s, mplain_report, mplain_digest) = median_run(1, &mixed);
    assert_eq!(mfused_digest, mplain_digest, "mixed-SEW outputs diverged");
    assert_eq!(
        mfused_report.cycles, mplain_report.cycles,
        "mixed-SEW modeled timing must be fusion-invariant"
    );
    assert_eq!(
        mfused_report.window_flushes.vsetvli, 0,
        "unchanged-vl vsetvli retargets must not flush the window"
    );
    assert_eq!(
        mfused_report.window_flushes.capacity, ITERS as u64,
        "every sweep must end on a full window"
    );
    assert_eq!(
        mfused_report.fused_windows,
        ITERS as u64 + 1,
        "each mixed-SEW sweep must fuse into exactly one window"
    );
    let mratio = mfused_s / mplain_s;
    println!(
        "fused   {:>8.1} ms  ({} windows, {} ops fused, vsetvli flushes {})",
        mfused_s * 1e3,
        mfused_report.fused_windows,
        mfused_report.fused_ops,
        mfused_report.window_flushes.vsetvli
    );
    println!("per-op  {:>8.1} ms", mplain_s * 1e3);
    println!("ratio   {mratio:.3}x (gate: <= {MIXED_GATE_RATIO}x)");
    assert!(
        mratio <= MIXED_GATE_RATIO,
        "mixed-SEW fusion regressed: fused/per-op host ratio {mratio:.3} > {MIXED_GATE_RATIO}"
    );

    section("fusion-smoke — dead-store elimination on the mixed-SEW kernel");
    println!(
        "dead stores retired: {} (pinned: {MIXED_DEAD_STORES})",
        mfused_report.dead_stores_eliminated
    );
    assert_eq!(
        mfused_report.dead_stores_eliminated, MIXED_DEAD_STORES,
        "the window compiler's dead-store count drifted"
    );
    println!("\nfusion-smoke PASS");
}
