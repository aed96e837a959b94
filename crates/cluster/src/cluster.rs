//! The fleet scheduler: N independent engines behind one front door.

use std::collections::HashSet;

use cape_core::{FaultKind, HealthThresholds};
use cape_engine::{
    fingerprint, AdmissionError, Engine, EngineConfig, FaultApiError, JobError, JobId, JobSpec,
};
use cape_mem::MainMemory;

use crate::health::{HealthMonitor, HealthProbe, HealthState};
use crate::report::{ClusterJobReport, ClusterReport, HealthTransition, MachineReport};

/// Fleet-wide job identity handed out at admission. Stable across
/// migrations: engine-local [`JobId`]s change every time a job moves,
/// but the cluster id is stamped into the spec's tag and travels with
/// it, so every engine-side report stays correlatable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterJobId(pub u64);

impl std::fmt::Display for ClusterJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cjob#{}", self.0)
    }
}

/// Fleet tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Machines in the fleet, each an independent [`Engine`] (own CSB,
    /// own program cache, own virtual clock).
    pub machines: usize,
    /// Per-machine engine configuration: machine model, bounded queue
    /// depth, slice budget, batch size and fault policy, identical
    /// across the fleet.
    pub engine: EngineConfig,
    /// When the health monitor stops trusting a machine.
    pub health: HealthThresholds,
    /// Placements one job may consume (the initial submit plus re-runs
    /// after machine-fault failures) before the cluster accepts the
    /// typed failure instead of trying yet another machine.
    pub max_attempts: u32,
}

impl ClusterConfig {
    /// Defaults: `machines` machines, default health thresholds, and
    /// enough attempts to try every machine once.
    pub fn new(machines: usize, engine: EngineConfig) -> Self {
        Self {
            machines,
            engine,
            health: HealthThresholds::default(),
            max_attempts: machines.max(2) as u32,
        }
    }
}

/// One machine of the fleet.
struct Machine {
    engine: Engine,
    health: HealthMonitor,
    /// Program fingerprints routed here — the affinity signal: these
    /// kernels' compiled microprograms are (or will shortly be) warm in
    /// this machine's program cache.
    warm: HashSet<u64>,
}

/// Lifecycle record of one admitted job.
struct Track {
    /// Pristine copy of the spec as admitted (tag stamped). Failure
    /// re-runs restart from this, never from a partially-executed
    /// memory image.
    spec: JobSpec,
    fingerprint: u64,
    /// Where the job currently waits or runs, while unfinished.
    location: Option<(usize, JobId)>,
    /// Where the final report lives, once finished.
    finished: Option<(usize, JobId)>,
    migrations: u64,
    resubmissions: u64,
    attempts: u32,
    /// Admitted but unplaceable: every machine that could take it has
    /// left rotation. Re-placement is retried each step.
    stranded: bool,
}

/// A fleet of [`Engine`]s presenting the single-engine front door:
/// [`Cluster::submit`] with typed admission errors, [`Cluster::run`]
/// to drain, per-job reports and memory images afterwards.
///
/// Placement is fingerprint-affine: jobs whose program already ran on
/// some healthy machine land there (warm program cache), everything
/// else goes to the least-loaded healthy machine. Between scheduling
/// steps every machine's fault counters are re-sampled; a machine that
/// leaves `Healthy` has its unstarted queue drained and resubmitted to
/// healthy peers, and jobs it failed with machine-side errors are
/// re-run elsewhere from their pristine specs — completed work is
/// bit-identical to a single-engine run and no admitted job is ever
/// lost.
pub struct Cluster {
    config: ClusterConfig,
    machines: Vec<Machine>,
    jobs: Vec<Track>,
    migrations: u64,
    resubmissions: u64,
    transitions: Vec<HealthTransition>,
}

impl Cluster {
    /// A fleet of freshly built machines.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero (engine-config invariants are
    /// checked by [`Engine::new`]).
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.machines > 0, "a cluster needs at least one machine");
        let machines = (0..config.machines)
            .map(|_| Machine {
                engine: Engine::new(config.engine),
                health: HealthMonitor::new(config.health),
                warm: HashSet::new(),
            })
            .collect();
        Self {
            config,
            machines,
            jobs: Vec::new(),
            migrations: 0,
            resubmissions: 0,
            transitions: Vec::new(),
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Machines in the fleet.
    pub fn machines(&self) -> usize {
        self.machines.len()
    }

    /// The current health classification of machine `i`.
    pub fn health(&self, machine: usize) -> HealthState {
        self.machines[machine].health.state()
    }

    /// Jobs waiting fleet-wide (stranded jobs included).
    pub fn pending_jobs(&self) -> usize {
        let queued: usize = self.machines.iter().map(|m| m.engine.pending_jobs()).sum();
        queued + self.jobs.iter().filter(|t| t.stranded).count()
    }

    /// Total queue slots across the fleet (the bound behind fleet-level
    /// backpressure; slots on non-healthy machines stop counting once
    /// those machines leave rotation).
    pub fn fleet_queue_capacity(&self) -> usize {
        self.machines.len() * self.config.engine.queue_capacity
    }

    /// Plants one CSB fault at `chain` of machine `machine` — the
    /// strike hook fleet stress harnesses use to degrade one machine
    /// mid-run.
    ///
    /// # Errors
    ///
    /// [`FaultApiError::NoFaultPolicy`] when the engines were built
    /// without a fault policy (nothing to inject into), and
    /// [`FaultApiError::OutOfRange`] when `machine` is not in the fleet
    /// or the engine rejects `chain` or `kind`
    /// ([`cape_engine::Engine::inject_fault`]).
    pub fn strike(
        &mut self,
        machine: usize,
        chain: usize,
        kind: FaultKind,
    ) -> Result<(), FaultApiError> {
        self.machines
            .get_mut(machine)
            .ok_or(FaultApiError::OutOfRange)?
            .engine
            .inject_fault(chain, kind)
    }

    /// Re-admits a repaired machine onto the probation ladder: models a
    /// field service that installs `spares` fresh spare blocks for the
    /// machine's whole CSB (a count that does not depend on the host's
    /// thread count), remaps every still-pending faulty block onto them
    /// ([`cape_engine::Engine::service_spares`]), and moves the health
    /// monitor `Quarantined → Probation`. The machine receives no new
    /// work yet — it must post `probation_clean_windows` consecutive
    /// clean health windows (one per [`Cluster::step`]) to re-enter
    /// rotation, and one dirty window re-quarantines it permanently
    /// (the repair credit is once per machine).
    ///
    /// Returns whether the machine was eligible: `false` when it is not
    /// quarantined, its repair credit is already spent, or the
    /// replenished spares still cannot absorb its pending faults.
    pub fn readmit(&mut self, machine: usize, spares: usize) -> bool {
        let m = &mut self.machines[machine];
        if m.health.state() != HealthState::Quarantined {
            return false;
        }
        let _ = m.engine.service_spares(spares);
        if m.engine.machine().pending_faults() > 0 || !m.health.mark_repaired() {
            return false;
        }
        self.transitions.push(HealthTransition {
            machine,
            from: HealthState::Quarantined,
            to: HealthState::Probation,
        });
        true
    }

    /// Admits a job to the fleet, routing it by fingerprint affinity:
    /// a healthy machine already warm for this program wins, otherwise
    /// the least-loaded healthy machine takes it.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when no healthy machine has queue
    /// room (fleet-level backpressure — resubmit after a drain), plus
    /// everything [`Engine::submit`] refuses (empty or unencodable
    /// programs), bounced before any state changes.
    pub fn submit(&mut self, spec: JobSpec) -> Result<ClusterJobId, AdmissionError> {
        let fp = fingerprint(&spec.program);
        let Some(target) = self.route(fp, None) else {
            return Err(AdmissionError::QueueFull {
                capacity: self.fleet_queue_capacity(),
            });
        };
        let gid = self.jobs.len() as u64;
        let spec = spec.with_tag(gid);
        let local = self.machines[target].engine.submit(spec.clone())?;
        self.machines[target].warm.insert(fp);
        self.jobs.push(Track {
            spec,
            fingerprint: fp,
            location: Some((target, local)),
            finished: None,
            migrations: 0,
            resubmissions: 0,
            attempts: 1,
            stranded: false,
        });
        Ok(ClusterJobId(gid))
    }

    /// Serves every admitted job to its final accounting and reports
    /// the drain. Terminates even if the whole fleet degrades: jobs
    /// with no healthy machine left to run on are reported stranded,
    /// never dropped.
    pub fn run(&mut self) -> ClusterReport {
        while self.step() {}
        self.report()
    }

    /// One scheduling round: re-places stranded jobs, then lets every
    /// healthy machine serve one batch, re-sampling every machine's
    /// health (and draining it if it degraded) afterwards. Machines out
    /// of rotation are still probed each round — that is what advances
    /// a re-admitted machine's probation clock. Returns whether any
    /// progress was made — `false` means the fleet is drained (or
    /// wedged with only stranded jobs, which [`Cluster::run`] reports
    /// rather than spins on).
    ///
    /// Public so tests and stress harnesses can interleave strikes with
    /// scheduling rounds deterministically.
    pub fn step(&mut self) -> bool {
        let mut progressed = self.place_stranded() > 0;
        for i in 0..self.machines.len() {
            let served = self.machines[i].health.state() == HealthState::Healthy
                && self.machines[i].engine.run_next_batch();
            progressed |= served;
            // Health first: if the batch burned the machine's trust, its
            // queue must move before anything else lands on it.
            self.observe(i);
            if served {
                self.collect_finished(i);
            }
        }
        progressed
    }

    /// Routes one job: warm-affinity first, least-loaded fallback, only
    /// healthy machines with queue room, `exclude` never (the machine a
    /// drain or failure is moving work *off*).
    fn route(&self, fp: u64, exclude: Option<usize>) -> Option<usize> {
        let eligible = |i: usize, m: &Machine| {
            Some(i) != exclude
                && m.health.state() == HealthState::Healthy
                && m.engine.pending_jobs() < m.engine.config().queue_capacity
        };
        self.machines
            .iter()
            .enumerate()
            .filter(|(i, m)| eligible(*i, m) && m.warm.contains(&fp))
            .min_by_key(|(i, m)| (m.engine.pending_jobs(), *i))
            .or_else(|| {
                self.machines
                    .iter()
                    .enumerate()
                    .filter(|(i, m)| eligible(*i, m))
                    .min_by_key(|(i, m)| (m.engine.pending_jobs(), *i))
            })
            .map(|(i, _)| i)
    }

    /// Samples machine `i`'s health; on a downward transition, drains
    /// its unstarted queue onto healthy peers. Upward transitions
    /// (probation earning its way back to Healthy) are recorded but
    /// drain nothing — there is nothing queued on a machine that just
    /// re-entered rotation.
    fn observe(&mut self, i: usize) {
        let m = &mut self.machines[i];
        let probe = HealthProbe {
            fault: m.engine.machine().fault_stats(),
            retries: m.engine.total_retries(),
            pending_faults: m.engine.machine().pending_faults(),
            spare_blocks_free: m.engine.machine().spare_blocks_free(),
            quarantined_blocks: m.engine.machine().quarantined_blocks(),
        };
        let before = m.health.state();
        let after = m.health.observe(&probe);
        if after != before {
            self.transitions.push(HealthTransition {
                machine: i,
                from: before,
                to: after,
            });
            if after > before {
                self.drain(i);
            }
        }
    }

    /// Moves machine `i`'s entire pending queue to healthy peers. A
    /// pending job has not run a single slice, so the drained spec is
    /// exactly what was admitted — resubmission elsewhere is
    /// bit-equivalent to having routed there in the first place. Jobs
    /// with nowhere to go are parked stranded and retried each step.
    fn drain(&mut self, i: usize) {
        for (local, spec) in self.machines[i].engine.drain_pending() {
            let gid = spec.tag.expect("cluster jobs are tagged") as usize;
            debug_assert_eq!(self.jobs[gid].location, Some((i, local)));
            match self.route(self.jobs[gid].fingerprint, Some(i)) {
                Some(target) => {
                    let new_local = self.machines[target]
                        .engine
                        .submit(spec)
                        .expect("routed machine has room and the spec was admitted once already");
                    self.machines[target]
                        .warm
                        .insert(self.jobs[gid].fingerprint);
                    self.jobs[gid].location = Some((target, new_local));
                    self.jobs[gid].migrations += 1;
                    self.migrations += 1;
                }
                None => {
                    self.jobs[gid].location = None;
                    self.jobs[gid].stranded = true;
                }
            }
        }
    }

    /// Maps machine `i`'s newly finished jobs to their cluster records.
    /// Machine-fault failures (retries exhausted, spares exhausted) are
    /// re-run on a healthy peer from the pristine spec; program-bug
    /// failures are deterministic and accepted as final.
    fn collect_finished(&mut self, i: usize) {
        for gid in 0..self.jobs.len() {
            let Some((m, local)) = self.jobs[gid].location else {
                continue;
            };
            if m != i {
                continue;
            }
            let Some(report) = self.machines[i].engine.job_report(local) else {
                continue;
            };
            let machine_fault = matches!(
                report.error,
                Some(JobError::FaultRetriesExhausted { .. })
                    | Some(JobError::SparesExhausted { .. })
            );
            if !machine_fault || self.jobs[gid].attempts >= self.config.max_attempts {
                self.jobs[gid].finished = Some((i, local));
                self.jobs[gid].location = None;
                continue;
            }
            match self.route(self.jobs[gid].fingerprint, Some(i)) {
                Some(target) => {
                    let new_local = self.machines[target]
                        .engine
                        .submit(self.jobs[gid].spec.clone())
                        .expect("routed machine has room and the spec was admitted once already");
                    self.machines[target]
                        .warm
                        .insert(self.jobs[gid].fingerprint);
                    self.jobs[gid].location = Some((target, new_local));
                    self.jobs[gid].attempts += 1;
                    self.jobs[gid].resubmissions += 1;
                    self.resubmissions += 1;
                }
                // No healthy machine left: the typed failure stands.
                None => {
                    self.jobs[gid].finished = Some((i, local));
                    self.jobs[gid].location = None;
                }
            }
        }
    }

    /// Retries placement of stranded jobs (queue room frees up as
    /// machines drain). Returns how many were placed.
    fn place_stranded(&mut self) -> usize {
        let mut placed = 0;
        for gid in 0..self.jobs.len() {
            if !self.jobs[gid].stranded || self.jobs[gid].finished.is_some() {
                continue;
            }
            let Some(target) = self.route(self.jobs[gid].fingerprint, None) else {
                continue;
            };
            let local = self.machines[target]
                .engine
                .submit(self.jobs[gid].spec.clone())
                .expect("routed machine has room and the spec was admitted once already");
            self.machines[target]
                .warm
                .insert(self.jobs[gid].fingerprint);
            self.jobs[gid].location = Some((target, local));
            self.jobs[gid].stranded = false;
            self.jobs[gid].migrations += 1;
            self.migrations += 1;
            placed += 1;
        }
        placed
    }

    /// The fleet report over everything admitted so far.
    pub fn report(&self) -> ClusterReport {
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .map(|(gid, t)| ClusterJobReport {
                id: ClusterJobId(gid as u64),
                machine: t.finished.map(|(m, _)| m),
                migrations: t.migrations,
                resubmissions: t.resubmissions,
                attempts: t.attempts,
                report: t.finished.map(|(m, local)| {
                    self.machines[m]
                        .engine
                        .job_report(local)
                        .expect("finished jobs have reports")
                        .clone()
                }),
                stranded: t.finished.is_none() && t.location.is_none(),
            })
            .collect();
        let machines = self
            .machines
            .iter()
            .enumerate()
            .map(|(index, m)| MachineReport {
                index,
                state: m.health.state(),
                engine: m.engine.report(),
            })
            .collect();
        ClusterReport {
            jobs,
            machines,
            migrations: self.migrations,
            resubmissions: self.resubmissions,
            transitions: self.transitions.clone(),
            freq_ghz: self.config.engine.machine.freq_ghz,
        }
    }

    /// The final report of one cluster job (after [`Cluster::run`]).
    pub fn job_report(&self, id: ClusterJobId) -> Option<cape_engine::JobReport> {
        let t = self.jobs.get(id.0 as usize)?;
        let (m, local) = t.finished?;
        self.machines[m].engine.job_report(local).cloned()
    }

    /// A served job's memory image — where its outputs live, on
    /// whichever machine finally ran it.
    pub fn memory(&self, id: ClusterJobId) -> Option<&MainMemory> {
        let t = self.jobs.get(id.0 as usize)?;
        let (m, local) = t.finished?;
        self.machines[m].engine.memory(local)
    }
}
