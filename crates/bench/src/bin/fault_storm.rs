//! Fault-storm stress gate: drives 64 concurrent Phoenix jobs through
//! `cape-engine` under seeded random fault injection and verifies the
//! self-healing contract — every job either completes with a digest
//! bit-identical to a clean run or fails with a typed
//! [`JobError`](cape_engine::JobError), no
//! silent corruption ever escapes, and every injected fault is
//! attributed to a detection event. Also measures the overhead of the
//! detection machinery (quiescent mode: parity scrub + checkpointing,
//! zero injections) and of riding out the storm itself, relative to the
//! fault-free fast path. Exits non-zero on any violation, so CI runs it
//! as a `fault-storm` gate in `--release`.

use cape_bench::section;
use cape_core::{CapeConfig, FaultConfig};
use cape_engine::{Engine, EngineConfig, EngineReport, FaultPolicy, JobId, JobSpec};
use cape_mem::MainMemory;
use cape_workloads::{phoenix, run_cape, Workload};

const CHAINS: usize = 4;
const INSTANCES_PER_KERNEL: usize = 8;
const STORM_SEED: u64 = 0x5707_11FA_17CA_9E06;

fn job(w: &dyn Workload, instance: usize) -> JobSpec {
    let mut mem = MainMemory::new();
    let program = w.cape_setup(&mut mem);
    JobSpec::new(format!("{}#{instance}", w.name()), program, mem)
        .with_priority((instance % 4) as u8)
}

/// Submits the full 64-job mix and drains it, returning the report, the
/// (job id, kernel index) pairs for digest verification, and the host
/// wall time of the drain in milliseconds.
fn serve(fault: Option<FaultPolicy>) -> (EngineReport, Vec<(JobId, usize)>, Engine, f64) {
    let suite = phoenix::tiny_suite();
    let mut engine = Engine::new(EngineConfig {
        queue_capacity: suite.len() * INSTANCES_PER_KERNEL,
        slice_vectors: 16,
        max_batch: INSTANCES_PER_KERNEL,
        machine: CapeConfig::tiny(CHAINS),
        fault,
    });
    let mut ids = Vec::new();
    for instance in 0..INSTANCES_PER_KERNEL {
        for (k, w) in suite.iter().enumerate() {
            let spec = job(w.as_ref(), instance);
            ids.push((engine.submit(spec).expect("queue sized for mix"), k));
        }
    }
    assert_eq!(ids.len(), 64);
    let t0 = std::time::Instant::now();
    let report = engine.run();
    let host_ms = t0.elapsed().as_secs_f64() * 1e3;
    (report, ids, engine, host_ms)
}

/// Every finished job must be bit-identical to its solo digest; every
/// unfinished job must carry a typed error. Returns (completed, failed).
fn audit(
    label: &str,
    report: &EngineReport,
    ids: &[(JobId, usize)],
    engine: &Engine,
    solo: &[u64],
) -> (usize, usize) {
    let suite = phoenix::tiny_suite();
    let (mut completed, mut failed) = (0, 0);
    for (id, k) in ids {
        let jr = report
            .jobs
            .iter()
            .find(|j| j.id == *id)
            .expect("every admitted job is reported");
        if jr.succeeded() {
            let digest = suite[*k].digest(engine.memory(*id).expect("finished"));
            assert_eq!(
                digest, solo[*k],
                "{label}: SILENT CORRUPTION — {} completed with a wrong digest",
                jr.name
            );
            completed += 1;
        } else {
            // `succeeded() == false` guarantees a typed JobError is
            // attached; surface it so the storm log shows the failure
            // taxonomy.
            let err = jr.error.as_ref().expect("failed jobs carry typed errors");
            println!("  {label}: {} failed typed: {err}", jr.name);
            failed += 1;
        }
    }
    (completed, failed)
}

fn main() {
    section("fault-storm — 64-tenant serving under seeded injection");
    let config = CapeConfig::tiny(CHAINS);
    let suite = phoenix::tiny_suite();
    let solo: Vec<u64> = suite
        .iter()
        .map(|w| run_cape(w.as_ref(), &config).digest)
        .collect();

    // Run 1 — fault-free fast path: the baseline for digests and cycles.
    let (clean, clean_ids, clean_engine, clean_ms) = serve(None);
    let (done, _) = audit("clean", &clean, &clean_ids, &clean_engine, &solo);
    assert_eq!(done, 64, "clean run must complete every job");
    assert_eq!(clean.retries, 0, "no retries without fault mode");

    // Run 2 — quiescent fault mode: detection tiers and checkpointing
    // armed, zero injections. Measures the pure cost of vigilance.
    let (quiet, quiet_ids, quiet_engine, quiet_ms) = serve(Some(FaultPolicy::quiescent()));
    let (done, _) = audit("quiescent", &quiet, &quiet_ids, &quiet_engine, &solo);
    assert_eq!(done, 64, "quiescent run must complete every job");
    assert_eq!(quiet.retries, 0, "nothing injected, nothing to retry");
    assert!(quiet.fault.scrubs > 0, "scrub must run in fault mode");
    assert_eq!(quiet.fault.injected_total(), 0);

    // Run 3 — the storm: all three fault classes armed under a fixed
    // seed, with enough spares that detected faults remap instead of
    // exhausting the machine.
    let storm_policy = FaultPolicy {
        csb: FaultConfig {
            seed: STORM_SEED,
            spare_blocks: 16,
            stuck_ppm: 1_500,
            transient_ppm: 3_000,
            dead_ppm: 300,
            max_faults: 12,
        },
        max_retries: 4,
        retry_backoff_cycles: 2_000,
        slice_fuel: 200_000,
    };
    let (storm, storm_ids, storm_engine, storm_ms) = serve(Some(storm_policy));
    let (completed, failed) = audit("storm", &storm, &storm_ids, &storm_engine, &solo);
    assert_eq!(completed + failed, 64, "every job accounted for");

    let f = &storm.fault;
    let overhead_quiescent = quiet.total_cycles as f64 / clean.total_cycles as f64;
    let overhead_storm = storm.total_cycles as f64 / clean.total_cycles as f64;

    println!("jobs completed          : {completed}/64 ({failed} failed typed)");
    println!(
        "faults injected         : {} ({} stuck / {} transient / {} dead)",
        f.injected_total(),
        f.injected_stuck,
        f.injected_transient,
        f.injected_dead
    );
    println!(
        "detections              : {} parity + {} scrub, {} attributed",
        f.detected_parity, f.detected_scrub, f.faults_attributed
    );
    println!(
        "healing                 : {} blocks remapped, {} spares left",
        f.blocks_remapped, storm.spare_blocks_free
    );
    println!(
        "scrub passes            : {} (quiescent run: {})",
        f.scrubs, quiet.fault.scrubs
    );
    println!("checkpointed retries    : {}", storm.retries);
    println!(
        "cycles clean/quiet/storm: {} / {} / {}",
        clean.total_cycles, quiet.total_cycles, storm.total_cycles
    );
    println!("overhead quiescent      : {overhead_quiescent:.3}x");
    println!("overhead under storm    : {overhead_storm:.3}x");
    println!(
        "host ms clean/quiet/storm: {clean_ms:.1} / {quiet_ms:.1} / {storm_ms:.1} ({:.2}x / {:.2}x)",
        quiet_ms / clean_ms,
        storm_ms / clean_ms
    );

    assert!(
        f.injected_total() > 0,
        "seed {STORM_SEED:#x} must inject at least one fault for the gate to mean anything"
    );
    assert!(
        f.fully_accounted(),
        "ACCOUNTING HOLE: {} faults injected but only {} attributed to detections",
        f.injected_total(),
        f.faults_attributed
    );
    assert!(
        storm.retries > 0,
        "detections must force checkpointed re-execution"
    );
    assert!(
        completed >= 48,
        "storm should ride out most jobs ({completed}/64 completed)"
    );
    // PR 7 perf gate: with incremental parity, quiescent fault mode is
    // an O(touched blocks) syndrome drain plus a fold of each written
    // row before and after every broadcast, not an O(all rows) rescan.
    // On a 2-vCPU host it measures 1.02-1.47x (median 1.11x over 10
    // runs); the 2.0x ceiling absorbs CI runner noise while still
    // failing loudly if a rescan ever creeps back (the pre-incremental
    // model measured ~13x here).
    let host_ratio = quiet_ms / clean_ms;
    assert!(
        host_ratio <= 2.0,
        "FAULT-MODE OVERHEAD REGRESSION: quiescent host wall-clock is \
         {host_ratio:.2}x the clean run (gate: <= 2.0x). Did a full-state \
         rescan sneak back into the parity path?"
    );
    println!("fault-storm: OK");
}
