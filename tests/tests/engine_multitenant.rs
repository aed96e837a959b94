//! Multi-tenant serving stress: many concurrent jobs on one shared
//! machine must behave exactly as if each ran alone on a fresh one.
//!
//! These tests back the engine's two core claims:
//!
//! * **Isolation** — with 64 jobs from the full Phoenix tiny suite
//!   interleaved through context switches, every job's output digest is
//!   bit-identical to a solo run on a fresh `CapeMachine`, including
//!   when one tenant takes a Section V-C page fault mid-batch.
//! * **Amortization** — batching same-kernel tenants makes the shared
//!   VCU program cache serve most hits across tenant boundaries
//!   (cross-tenant hit rate > 50% on the mixed job mix).

use cape_core::CapeConfig;
use cape_engine::{AdmissionError, Engine, EngineConfig, JobSpec};
use cape_mem::MainMemory;
use cape_workloads::{phoenix, run_cape, Workload};

const CHAINS: usize = 4;
const INSTANCES_PER_KERNEL: usize = 8;

/// Builds one engine job per (kernel, instance) pair of the Phoenix
/// tiny suite, tagging names so failures identify the tenant.
fn phoenix_job(w: &dyn Workload, instance: usize) -> JobSpec {
    let mut mem = MainMemory::new();
    let program = w.cape_setup(&mut mem);
    JobSpec::new(format!("{}#{instance}", w.name()), program, mem)
        .with_priority((instance % 4) as u8)
}

#[test]
fn sixty_four_concurrent_jobs_match_their_solo_runs() {
    let config = CapeConfig::tiny(CHAINS);
    let suite = phoenix::tiny_suite();

    // Reference digests: each kernel alone on a fresh machine.
    let solo: Vec<u64> = suite
        .iter()
        .map(|w| run_cape(w.as_ref(), &config).digest)
        .collect();

    let mut engine = Engine::new(EngineConfig {
        queue_capacity: suite.len() * INSTANCES_PER_KERNEL,
        slice_vectors: 16,
        max_batch: INSTANCES_PER_KERNEL,
        machine: config,
        fault: None,
    });

    // Admit the full mix: 8 kernels x 8 instances = 64 concurrent jobs.
    // Instance 3 of every kernel takes a Section V-C page fault at
    // element 7 of its first vector memory access, so one tenant per
    // kernel restarts mid-batch.
    let mut ids = Vec::new();
    for instance in 0..INSTANCES_PER_KERNEL {
        for (k, w) in suite.iter().enumerate() {
            let mut spec = phoenix_job(w.as_ref(), instance);
            if instance == 3 {
                spec = spec.with_fault_at(7);
            }
            let id = engine.submit(spec).expect("queue sized for the whole mix");
            ids.push((id, k));
        }
    }
    assert_eq!(ids.len(), 64);

    // The bounded queue pushes back on the 65th submission.
    let overflow = engine.submit(phoenix_job(suite[0].as_ref(), 99));
    assert!(matches!(overflow, Err(AdmissionError::QueueFull { .. })));

    let report = engine.run();
    assert_eq!(report.jobs.len(), 64);
    assert_eq!(report.completed(), 64, "every tenant must halt cleanly");
    let faults: u64 = report.jobs.iter().map(|j| j.faults).sum();
    assert_eq!(faults, suite.len() as u64, "one armed fault per kernel");

    // Bit-exact isolation: each tenant's outputs equal its solo run.
    for (id, k) in &ids {
        let mem = engine.memory(*id).expect("job finished");
        let digest = suite[*k].digest(mem);
        assert_eq!(
            digest,
            solo[*k],
            "{} diverged from its solo run",
            engine.job_report(*id).unwrap().name
        );
    }

    // Cross-tenant amortization: with 8 tenants per kernel, at most one
    // pays each compile and the rest hit its entry.
    assert!(
        report.cross_tenant_hit_rate > 0.5,
        "cross-tenant hit rate {:.3} should exceed 0.5",
        report.cross_tenant_hit_rate
    );
    assert!(report.cross_tenant_hits > 0);

    // Same-kernel batching actually happened, and jobs were preempted
    // and context-switched rather than run to completion back-to-back.
    assert!(
        report.batches >= suite.len() as u64,
        "at least one batch per kernel"
    );
    assert!(report.context_switches > 64, "contexts must actually cycle");
    assert!(report.jobs.iter().any(|j| j.preemptions > 0));

    // Queue-latency percentiles are coherent and non-trivial.
    let q = report.queue_latency;
    assert!(q.p50 <= q.p90 && q.p90 <= q.p99 && q.p99 <= q.max);
    assert!(q.max > 0, "64 queued jobs cannot all start at cycle 0");
    assert!(report.jobs_per_ms() > 0.0);
}

#[test]
fn page_fault_restart_is_invisible_to_co_scheduled_tenants() {
    let config = CapeConfig::tiny(CHAINS);
    let suite = phoenix::tiny_suite();
    // Histogram faults mid-load while linear regression and string
    // match share the machine; a 4-instruction slice budget forces the
    // fault to land between other tenants' slices.
    let hist = &suite[3];
    let lreg = &suite[2];
    let strm = &suite[7];
    let solo_hist = run_cape(hist.as_ref(), &config).digest;
    let solo_lreg = run_cape(lreg.as_ref(), &config).digest;
    let solo_strm = run_cape(strm.as_ref(), &config).digest;

    let mut engine = Engine::new(EngineConfig {
        queue_capacity: 16,
        slice_vectors: 4,
        max_batch: 4,
        machine: config,
        fault: None,
    });
    let faulty = engine
        .submit(phoenix_job(hist.as_ref(), 0).with_fault_at(17))
        .unwrap();
    let clean_hist = engine.submit(phoenix_job(hist.as_ref(), 1)).unwrap();
    let bystander_a = engine.submit(phoenix_job(lreg.as_ref(), 0)).unwrap();
    let bystander_b = engine.submit(phoenix_job(strm.as_ref(), 0)).unwrap();

    let report = engine.run();
    assert_eq!(report.completed(), 4);

    let job = |id| engine.job_report(id).unwrap();
    assert_eq!(job(faulty).faults, 1, "the armed fault must fire");
    assert_eq!(job(clean_hist).faults, 0);
    assert_eq!(job(bystander_a).faults, 0);
    assert_eq!(job(bystander_b).faults, 0);

    // The restart is architecturally invisible: the faulting tenant
    // still produces its solo digest, and so does everyone else.
    assert_eq!(hist.digest(engine.memory(faulty).unwrap()), solo_hist);
    assert_eq!(hist.digest(engine.memory(clean_hist).unwrap()), solo_hist);
    assert_eq!(lreg.digest(engine.memory(bystander_a).unwrap()), solo_lreg);
    assert_eq!(strm.digest(engine.memory(bystander_b).unwrap()), solo_strm);

    // The fault's handler penalty lands on the faulting tenant's own
    // clock, not a bystander's.
    assert!(job(faulty).report.cycles > job(clean_hist).report.cycles + 1000);
}

#[test]
fn deadline_jobs_jump_the_fifo_queue() {
    let config = CapeConfig::tiny(CHAINS);
    let suite = phoenix::tiny_suite();
    let mut engine = Engine::new(EngineConfig {
        queue_capacity: 16,
        slice_vectors: 16,
        max_batch: 1,
        machine: config,
        fault: None,
    });
    // Four bulk jobs first, then one urgent job with a deadline.
    let bulk: Vec<_> = (0..4)
        .map(|i| engine.submit(phoenix_job(suite[0].as_ref(), i)).unwrap())
        .collect();
    let urgent = engine
        .submit(phoenix_job(suite[1].as_ref(), 0).with_deadline(1))
        .unwrap();
    engine.run();
    let urgent_finish = engine.job_report(urgent).unwrap().finish_cycle;
    for id in bulk {
        assert!(
            urgent_finish < engine.job_report(id).unwrap().finish_cycle,
            "EDF job must finish before every FIFO bulk job"
        );
    }
}
