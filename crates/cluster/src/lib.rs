//! `cape-cluster`: a multi-machine fleet scheduler that puts N
//! independent [`Engine`](cape_engine::Engine)s behind the same front
//! door one engine presents — typed admission, drain-to-completion,
//! per-job reports — and adds the robustness a fleet is for:
//!
//! * **Health-aware routing** — jobs are placed by program-fingerprint
//!   affinity (same-kernel jobs land where the program cache is already
//!   warm) with a least-loaded fallback, per-machine bounded queues and
//!   fleet-level typed backpressure.
//! * **A health model** — between scheduling steps every machine's
//!   fault-layer counters (strike detections, checkpointed retries,
//!   spare-block inventory, unremappable faults) are sampled and
//!   classified Healthy → Degraded → Quarantined against the
//!   [`HealthThresholds`] in `cape-core`'s config. Demotion is
//!   automatic and one-way; the only route back is an explicit repair
//!   ([`Cluster::readmit`]): spares are replenished, pending faults
//!   remapped, and the machine walks a Probation ladder — N consecutive
//!   clean windows to re-enter rotation, one dirty window and it is
//!   quarantined for good.
//! * **Drain/resubmit migration** — when a machine leaves `Healthy`
//!   mid-run, its unstarted queue is drained and resubmitted to healthy
//!   peers, and jobs it failed with machine-side errors are re-run
//!   elsewhere from their pristine specs. Completed-job digests are
//!   bit-identical to a single-engine run and zero admitted jobs are
//!   ever lost — every one gets a final accounting, even if the whole
//!   fleet degrades (then it is reported *stranded*, not dropped).
//! * **Fleet reporting** — [`ClusterReport`] aggregates the per-machine
//!   engine reports into makespan throughput, utilization skew,
//!   migration counts and cross-machine queue-latency percentiles.
//!
//! # Quick start
//!
//! ```
//! use cape_cluster::{Cluster, ClusterConfig};
//! use cape_core::CapeConfig;
//! use cape_engine::{EngineConfig, JobSpec};
//! use cape_isa::assemble;
//! use cape_mem::MainMemory;
//!
//! let engine = EngineConfig::new(CapeConfig::tiny(2));
//! let mut fleet = Cluster::new(ClusterConfig::new(2, engine));
//!
//! let program = assemble(
//!     "li t0, 8
//!      vsetvli t1, t0
//!      li a0, 0x1000
//!      vle32.v v1, (a0)
//!      vadd.vv v2, v1, v1
//!      li a1, 0x2000
//!      vse32.v v2, (a1)
//!      halt",
//! )
//! .unwrap();
//! let mut ids = Vec::new();
//! for tenant in 0..4u32 {
//!     let mut mem = MainMemory::new();
//!     let input: Vec<u32> = (0..8).map(|i| i + tenant * 10).collect();
//!     mem.write_u32_slice(0x1000, &input);
//!     let spec = JobSpec::new(format!("tenant{tenant}"), program.clone(), mem);
//!     ids.push(fleet.submit(spec).unwrap());
//! }
//!
//! let report = fleet.run();
//! assert_eq!(report.completed(), 4);
//! assert_eq!(report.lost(), 0);
//! // Same-kernel jobs shared one warm machine (fingerprint affinity).
//! let out = fleet.memory(ids[3]).unwrap().read_u32_slice(0x2000, 8);
//! assert_eq!(out, (0..8).map(|i| (i + 30) * 2).collect::<Vec<u32>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod health;
mod report;

pub use cape_core::HealthThresholds;
pub use cluster::{Cluster, ClusterConfig, ClusterJobId};
pub use health::{HealthMonitor, HealthProbe, HealthState};
pub use report::{ClusterJobReport, ClusterReport, HealthTransition, MachineReport};

#[cfg(test)]
mod tests {
    use super::*;
    use cape_core::{CapeConfig, FaultConfig, FaultKind};
    use cape_engine::{AdmissionError, EngineConfig, FaultApiError, FaultPolicy, JobSpec};
    use cape_isa::assemble;
    use cape_mem::MainMemory;

    fn add_job(n: u32, scale: u32) -> JobSpec {
        let mut mem = MainMemory::new();
        let data: Vec<u32> = (0..n).map(|i| i * scale + 1).collect();
        mem.write_u32_slice(0x1000, &data);
        let prog = assemble(&format!(
            "li t0, {n}
vsetvli t1, t0
li a0, 0x1000
vle32.v v1, (a0)
vadd.vv v2, v1, v1
li a1, 0x4000
vse32.v v2, (a1)
halt"
        ))
        .unwrap();
        JobSpec::new(format!("add{n}x{scale}"), prog, mem)
    }

    fn fleet(machines: usize) -> Cluster {
        Cluster::new(ClusterConfig::new(
            machines,
            EngineConfig::new(CapeConfig::tiny(2)),
        ))
    }

    #[test]
    fn same_fingerprint_jobs_colocate_and_distinct_kernels_spread() {
        let mut c = fleet(3);
        // Three instances of one kernel (same fingerprint, different
        // inputs), then two distinct kernels.
        for scale in 1..=3 {
            c.submit(add_job(8, scale)).unwrap();
        }
        c.submit(add_job(16, 1)).unwrap();
        c.submit(add_job(32, 1)).unwrap();
        let report = c.run();
        assert_eq!(report.completed(), 5);
        // The three same-kernel jobs all ran on one machine…
        let homes: Vec<usize> = report.jobs[..3]
            .iter()
            .map(|j| j.machine.unwrap())
            .collect();
        assert!(
            homes.windows(2).all(|w| w[0] == w[1]),
            "affinity broken: {homes:?}"
        );
        // …and the distinct kernels landed on the other two machines.
        let others: Vec<usize> = report.jobs[3..]
            .iter()
            .map(|j| j.machine.unwrap())
            .collect();
        assert!(!others.contains(&homes[0]), "least-loaded fallback broken");
        assert_ne!(others[0], others[1]);
    }

    #[test]
    fn fleet_backpressure_is_typed_and_counts_every_queue() {
        let mut c = Cluster::new(ClusterConfig::new(
            2,
            EngineConfig {
                queue_capacity: 2,
                ..EngineConfig::new(CapeConfig::tiny(2))
            },
        ));
        for scale in 0..4 {
            c.submit(add_job(4, scale)).unwrap();
        }
        let err = c.submit(add_job(4, 9)).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { capacity: 4 });
        c.run();
        assert!(c.submit(add_job(4, 9)).is_ok(), "drain frees the fleet");
    }

    #[test]
    fn outputs_are_bit_identical_to_a_single_engine() {
        let jobs: Vec<JobSpec> = (1..=6).map(|s| add_job(16, s)).collect();

        let mut solo = cape_engine::Engine::new(EngineConfig::new(CapeConfig::tiny(2)));
        let solo_ids: Vec<_> = jobs
            .iter()
            .map(|j| solo.submit(j.clone()).unwrap())
            .collect();
        solo.run();

        let mut c = fleet(3);
        let ids: Vec<_> = jobs.iter().map(|j| c.submit(j.clone()).unwrap()).collect();
        let report = c.run();
        assert_eq!(report.completed(), 6);
        assert_eq!(report.lost(), 0);
        for (cid, sid) in ids.iter().zip(&solo_ids) {
            assert_eq!(
                c.memory(*cid).unwrap().read_u32_slice(0x4000, 16),
                solo.memory(*sid).unwrap().read_u32_slice(0x4000, 16),
                "fleet output diverged from the single engine"
            );
        }
    }

    #[test]
    fn strike_without_a_fault_policy_is_a_typed_error() {
        let mut c = fleet(2);
        assert_eq!(
            c.strike(0, 0, FaultKind::DeadBlock),
            Err(FaultApiError::NoFaultPolicy)
        );
    }

    #[test]
    fn out_of_range_strikes_are_typed_errors_and_the_fleet_still_serves() {
        let mut c = Cluster::new(ClusterConfig::new(
            2,
            EngineConfig {
                fault: Some(FaultPolicy::quiescent()),
                ..EngineConfig::new(CapeConfig::tiny(2))
            },
        ));
        let stuck = FaultKind::StuckAt {
            lane: 0,
            subarray: 0,
            row: 36,
            mask: 1,
            value: true,
        };
        for (machine, chain, kind) in [
            (2, 0, FaultKind::DeadBlock),
            (usize::MAX, 0, FaultKind::DeadBlock),
            (0, 2, FaultKind::DeadBlock),
            (1, 0, stuck),
        ] {
            assert_eq!(
                c.strike(machine, chain, kind),
                Err(FaultApiError::OutOfRange),
                "machine {machine}, chain {chain}, {kind:?}"
            );
        }
        let id = c.submit(add_job(16, 5)).unwrap();
        let report = c.run();
        assert_eq!(report.completed(), 1);
        assert_eq!(
            c.memory(id).unwrap().read_u32_slice(0x4000, 16),
            (0..16).map(|i| (i * 5 + 1) * 2).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn degraded_machine_drains_and_its_jobs_complete_elsewhere() {
        let mut c = Cluster::new(ClusterConfig::new(
            2,
            EngineConfig {
                fault: Some(FaultPolicy::quiescent()),
                slice_vectors: 1,
                max_batch: 1,
                ..EngineConfig::new(CapeConfig::tiny(2))
            },
        ));
        // Pin everything to machine 0 via shared fingerprints: 6
        // same-kernel jobs, served one per batch.
        let ids: Vec<_> = (0..6).map(|_| c.submit(add_job(16, 5)).unwrap()).collect();
        assert!(c.step(), "first round serves a batch");
        // Now wedge machine 0: repeated dead blocks burn its retries and
        // spares while its queue still holds unstarted jobs.
        for _ in 0..3 {
            c.strike(0, 0, FaultKind::DeadBlock).unwrap();
            c.step();
        }
        let report = c.run();
        assert_eq!(report.lost(), 0, "zero jobs lost");
        assert_eq!(report.completed() + report.failed() + report.stranded(), 6);
        assert!(
            c.health(0) > HealthState::Healthy,
            "machine 0 must leave rotation, got {}",
            c.health(0)
        );
        assert!(
            report.migrations + report.resubmissions > 0,
            "the drain must move jobs"
        );
        assert_eq!(
            report.migrations,
            report.jobs.iter().map(|j| j.migrations).sum::<u64>(),
            "every migration accounted per job"
        );
        assert_eq!(
            report.resubmissions,
            report.jobs.iter().map(|j| j.resubmissions).sum::<u64>(),
        );
        // Whatever completed is bit-exact.
        let want: Vec<u32> = (0..16).map(|i| (i * 5 + 1) * 2).collect();
        for id in ids {
            if c.job_report(id).is_some_and(|r| r.succeeded()) {
                assert_eq!(c.memory(id).unwrap().read_u32_slice(0x4000, 16), want);
            }
        }
    }

    #[test]
    fn a_fully_degraded_fleet_strands_jobs_instead_of_losing_them() {
        let mut c = Cluster::new(ClusterConfig::new(
            1,
            EngineConfig {
                fault: Some(FaultPolicy {
                    csb: FaultConfig::quiescent(0), // zero spares
                    ..FaultPolicy::quiescent()
                }),
                max_batch: 1,
                ..EngineConfig::new(CapeConfig::tiny(2))
            },
        ));
        for _ in 0..3 {
            c.submit(add_job(8, 2)).unwrap();
        }
        c.strike(0, 0, FaultKind::DeadBlock).unwrap();
        let report = c.run();
        assert_eq!(report.lost(), 0);
        assert_eq!(
            report.completed() + report.failed() + report.stranded(),
            3,
            "every admitted job has a final accounting: {report:?}"
        );
        assert!(report.failed() >= 1, "the struck job fails typed");
        assert!(
            report.stranded() >= 1,
            "unplaceable queue is stranded, not dropped"
        );
        assert_eq!(c.health(0), HealthState::Quarantined);
    }

    #[test]
    fn a_readmitted_machine_walks_probation_and_receives_new_work() {
        let mut c = Cluster::new(ClusterConfig::new(
            2,
            EngineConfig {
                fault: Some(FaultPolicy {
                    csb: FaultConfig::quiescent(0), // zero spares: one dead block quarantines
                    ..FaultPolicy::quiescent()
                }),
                max_batch: 1,
                ..EngineConfig::new(CapeConfig::tiny(2))
            },
        ));
        // Wedge machine 0: the struck job's dead block has no spare to
        // remap onto, so the machine quarantines.
        c.submit(add_job(8, 2)).unwrap();
        c.strike(0, 0, FaultKind::DeadBlock).unwrap();
        c.run();
        assert_eq!(c.health(0), HealthState::Quarantined);

        // Field service: fresh spares absorb the pending fault and the
        // machine drops to Probation. The credit is single-use.
        assert!(c.readmit(0, 8));
        assert_eq!(c.health(0), HealthState::Probation);
        assert!(!c.readmit(0, 8), "repair credit is once per machine");

        // On probation it gets no new work…
        let during = c.submit(add_job(16, 3)).unwrap();
        let report = c.run();
        assert_eq!(
            report.jobs.last().unwrap().machine,
            Some(1),
            "probation machines are out of rotation"
        );
        // …and clean scheduling rounds walk it back to Healthy (some
        // clean windows may already have accrued while the job above
        // was served — every round probes the whole fleet).
        let clean = c.config().health.probation_clean_windows;
        let mut rounds = 0;
        while c.health(0) == HealthState::Probation {
            c.step();
            rounds += 1;
            assert!(
                rounds <= clean,
                "probation must end within {clean} clean rounds"
            );
        }
        assert_eq!(c.health(0), HealthState::Healthy);

        // Re-admitted for real: a fresh kernel routes to it (least
        // loaded, lowest index) and completes bit-exact.
        let after = c.submit(add_job(4, 7)).unwrap();
        let report = c.run();
        let placed = report.jobs.last().unwrap();
        assert_eq!(
            placed.machine,
            Some(0),
            "re-admitted machine idle, gets work"
        );
        assert!(c.job_report(during).unwrap().succeeded());
        assert!(c.job_report(after).unwrap().succeeded());
        let want: Vec<u32> = (0..4).map(|i| (i * 7 + 1) * 2).collect();
        assert_eq!(c.memory(after).unwrap().read_u32_slice(0x4000, 4), want);
        // The ladder's moves are all on the transition record.
        let hops: Vec<(HealthState, HealthState)> = report
            .transitions
            .iter()
            .filter(|t| t.machine == 0)
            .map(|t| (t.from, t.to))
            .collect();
        assert!(hops.contains(&(HealthState::Quarantined, HealthState::Probation)));
        assert!(hops.contains(&(HealthState::Probation, HealthState::Healthy)));
    }

    #[test]
    fn report_aggregates_queue_latency_and_skew() {
        let mut c = fleet(2);
        for s in 1..=4 {
            c.submit(add_job(8, s)).unwrap();
        }
        let report = c.run();
        assert_eq!(report.completed(), 4);
        assert!(report.makespan_cycles() > 0);
        assert!(report.jobs_per_ms() > 0.0);
        assert!(report.utilization_skew() >= 1.0);
        assert!(report.queue_latency().max >= report.queue_latency().p50);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.migration_queue_latency(), Default::default());
    }
}
