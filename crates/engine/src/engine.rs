//! The batch-scheduling engine: admission, batching, slicing and
//! context switching over one shared [`CapeMachine`].

use std::collections::VecDeque;

use cape_core::{CapeConfig, CapeMachine, FaultConfig, MachineContext, MachineCounters, RunReport};
use cape_cp::{ControlProcessor, SliceOutcome};
use cape_isa::EncodeError;
use cape_mem::MainMemory;

use crate::job::{fingerprint, JobError, JobId, JobReport, JobSpec};
use crate::report::{EngineReport, QueueLatency};

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is at capacity — backpressure; resubmit after
    /// a drain.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The program contains an instruction with no machine encoding
    /// (admission runs every instruction through the encoder so a
    /// malformed job is bounced at the front door, not mid-run).
    InvalidProgram {
        /// Index of the offending instruction.
        index: usize,
        /// The encoder's diagnosis.
        source: EncodeError,
    },
    /// The program has no instructions.
    EmptyProgram,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue is full ({capacity} jobs)")
            }
            AdmissionError::InvalidProgram { index, source } => {
                write!(f, "instruction {index} is not encodable: {source}")
            }
            AdmissionError::EmptyProgram => write!(f, "program has no instructions"),
        }
    }
}

impl std::error::Error for AdmissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmissionError::InvalidProgram { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Why a fault-layer request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultApiError {
    /// The engine was built without a [`FaultPolicy`], so the CSB fault
    /// layer is disarmed and there is nothing to inject into. A health
    /// prober treats this as "machine not probeable", not a crash.
    NoFaultPolicy,
    /// A fault coordinate lies outside the target: a machine index past
    /// the fleet, a chain past the machine's chains, or a lane, subarray
    /// or row past the block geometry (see [`cape_core::FaultKind`]).
    OutOfRange,
}

impl std::fmt::Display for FaultApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultApiError::NoFaultPolicy => {
                write!(
                    f,
                    "the engine has no fault policy; the fault layer is disarmed"
                )
            }
            FaultApiError::OutOfRange => write!(f, "the fault coordinate is out of range"),
        }
    }
}

impl std::error::Error for FaultApiError {}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The machine the engine serves jobs on.
    pub machine: CapeConfig,
    /// Maximum jobs waiting for service; submissions beyond this bound
    /// are refused with [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// Vector instructions a job may commit per slice before it is
    /// preempted (always at a microprogram sync point — the vector
    /// engine is drained when the slice ends).
    pub slice_vectors: u64,
    /// Maximum jobs co-scheduled in one batch. Batches are formed from
    /// jobs with identical program fingerprints so they share compiled
    /// microprograms in the VCU cache.
    pub max_batch: usize,
    /// Fault-tolerance policy. `None` (the default) runs the fast path:
    /// no fault layer, no checkpointing, no scrubbing, and the
    /// resident-tenant optimization skips redundant context transfers.
    pub fault: Option<FaultPolicy>,
}

impl EngineConfig {
    /// Defaults: a 64-deep queue, 32 vector instructions per slice,
    /// batches of up to 8 same-kernel jobs, fault tolerance off.
    pub fn new(machine: CapeConfig) -> Self {
        Self {
            machine,
            queue_capacity: 64,
            slice_vectors: 32,
            max_batch: 8,
            fault: None,
        }
    }
}

/// How the engine survives hardware faults: the CSB fault layer to arm,
/// plus the checkpointed-retry bounds. With a policy set, every slice is
/// bracketed by a VMU-costed context restore/save (the checkpoint), a
/// parity scrub runs after every slice *before* the slice's end state
/// can become the next checkpoint, and a slice whose detectors latched
/// — or whose watchdog fired — is rolled back and re-executed from the
/// last verified checkpoint up to [`FaultPolicy::max_retries`] times.
#[derive(Debug, Clone, Copy)]
pub struct FaultPolicy {
    /// Configuration for the CSB fault-injection/detection layer (use
    /// [`FaultConfig::quiescent`] for detection machinery without
    /// injection).
    pub csb: FaultConfig,
    /// Re-executions of one slice before the job fails typed.
    pub max_retries: u32,
    /// Engine cycles charged per rollback (models handler + re-arm).
    pub retry_backoff_cycles: u64,
    /// Watchdog fuel: instructions one slice may commit before the CP
    /// declares it runaway ([`SliceOutcome::TimedOut`]).
    pub slice_fuel: u64,
}

impl FaultPolicy {
    /// Detection, scrubbing and checkpointed retry armed, but no fault
    /// injection — the configuration for measuring clean-run overhead.
    pub fn quiescent() -> Self {
        Self {
            csb: FaultConfig::quiescent(2),
            max_retries: 3,
            retry_backoff_cycles: 2_000,
            slice_fuel: 200_000,
        }
    }
}

/// A job waiting for service.
#[derive(Debug)]
struct Pending {
    id: u32,
    spec: JobSpec,
    fingerprint: u64,
    admit_cycle: u64,
}

/// A job being served in the current batch.
struct Active {
    id: u32,
    spec: JobSpec,
    fingerprint: u64,
    admit_cycle: u64,
    cp: ControlProcessor,
    ctx: MachineContext,
    acc: MachineCounters,
    start_cycle: Option<u64>,
    finish_cycle: u64,
    slices: u64,
    preemptions: u64,
    retries: u64,
    done: bool,
    error: Option<JobError>,
}

/// A served job: its report plus its memory image (outputs).
#[derive(Debug)]
struct Finished {
    report: JobReport,
    mem: MainMemory,
}

/// A multi-tenant serving runtime for one [`CapeMachine`].
///
/// Jobs are admitted through a bounded queue, batched by program
/// fingerprint (identical static code ⇒ shared compiled microprograms),
/// and executed round-robin in slices of
/// [`EngineConfig::slice_vectors`] vector instructions. Preemption only
/// happens at microprogram sync points; between slices of different
/// tenants the engine saves and restores the full CSB register file
/// through the bulk transposed-I/O path, charging
/// [`CapeMachine::context_transfer_cycles`] per transfer.
///
/// The engine clock is virtual: it advances by each slice's CP-cycle
/// delta plus context-transfer costs, giving deterministic queue-wait
/// and throughput figures.
pub struct Engine {
    config: EngineConfig,
    machine: CapeMachine,
    now: u64,
    next_id: u32,
    pending: VecDeque<Pending>,
    finished: Vec<Finished>,
    /// Tenant whose register state currently lives in the CSB; slices
    /// of the resident tenant skip the save/restore round trip.
    resident: Option<u32>,
    batches: u64,
    context_switches: u64,
    context_switch_cycles: u64,
    retries: u64,
}

impl Engine {
    /// An engine serving a freshly built machine.
    ///
    /// # Panics
    ///
    /// Panics if any of the config's capacities or budgets is zero.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.slice_vectors > 0, "slice budget must be positive");
        assert!(config.max_batch > 0, "batch size must be positive");
        let mut machine = CapeMachine::new(config.machine);
        if let Some(policy) = &config.fault {
            machine.enable_fault_injection(policy.csb);
        }
        Self {
            machine,
            config,
            now: 0,
            next_id: 0,
            pending: VecDeque::new(),
            finished: Vec::new(),
            resident: None,
            batches: 0,
            context_switches: 0,
            context_switch_cycles: 0,
            retries: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Jobs currently waiting for service.
    pub fn pending_jobs(&self) -> usize {
        self.pending.len()
    }

    /// Checkpointed slice re-executions across every job served so far —
    /// one of the health signals a fleet monitor samples between batches
    /// without paying for a full [`EngineReport`] clone.
    pub fn total_retries(&self) -> u64 {
        self.retries
    }

    /// Read access to the shared machine (cache statistics, config).
    pub fn machine(&self) -> &CapeMachine {
        &self.machine
    }

    /// Plants one specific CSB fault at chain `i` (testing hook, and the
    /// strike mechanism cluster stress harnesses use to degrade one
    /// machine of a fleet).
    ///
    /// # Errors
    ///
    /// [`FaultApiError::NoFaultPolicy`] when the engine was built
    /// without a [`FaultPolicy`] — the fault layer is disarmed, so there
    /// is no injection machinery to plant the fault into.
    /// [`FaultApiError::OutOfRange`] when `chain` is not one of the
    /// machine's chains or `kind` names a lane, subarray or row outside a
    /// block.
    pub fn inject_fault(
        &mut self,
        chain: usize,
        kind: cape_core::FaultKind,
    ) -> Result<(), FaultApiError> {
        if !self.machine.fault_injection_enabled() {
            return Err(FaultApiError::NoFaultPolicy);
        }
        if chain >= self.config.machine.chains || !kind.in_range() {
            return Err(FaultApiError::OutOfRange);
        }
        self.machine.inject_csb_fault(chain, kind);
        Ok(())
    }

    /// Field-repairs the machine: installs `spares` fresh spare blocks
    /// for its whole CSB and re-runs quarantine-and-remap (see
    /// [`CapeMachine::service_spares`]). The fleet scheduler calls this
    /// when re-admitting a quarantined machine; on success the machine
    /// has no pending faults and a replenished spare inventory.
    pub fn service_spares(&mut self, spares: usize) -> cape_core::RemapOutcome {
        self.machine.service_spares(spares)
    }

    /// Admits a job, or refuses it with typed backpressure.
    ///
    /// Admission validates the whole program through the instruction
    /// encoder, so a malformed job can never take down the machine
    /// mid-slice.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when the bounded queue is at
    /// capacity, [`AdmissionError::EmptyProgram`] /
    /// [`AdmissionError::InvalidProgram`] when the program fails
    /// validation.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmissionError> {
        if self.pending.len() >= self.config.queue_capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        if spec.program.is_empty() {
            return Err(AdmissionError::EmptyProgram);
        }
        for (index, instr) in spec.program.iter().enumerate() {
            instr
                .try_encode()
                .map_err(|source| AdmissionError::InvalidProgram { index, source })?;
        }
        let id = self.next_id;
        self.next_id += 1;
        let fingerprint = fingerprint(&spec.program);
        self.pending.push_back(Pending {
            id,
            spec,
            fingerprint,
            admit_cycle: self.now,
        });
        Ok(JobId(id))
    }

    /// Serves every queued job to completion and reports the drain.
    pub fn run(&mut self) -> EngineReport {
        while self.run_next_batch() {}
        self.report()
    }

    /// Serves exactly one batch if any jobs are queued, returning
    /// whether a batch ran. A fleet scheduler steps its machines with
    /// this so it can re-check machine health (and drain a degrading
    /// machine) between batches instead of committing to a full drain.
    pub fn run_next_batch(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        self.run_batch();
        true
    }

    /// Hands back every queued-but-unstarted job, emptying the queue.
    ///
    /// Each entry is the [`JobId`] admission assigned plus the untouched
    /// [`JobSpec`] (no slice of a pending job has run, so the spec —
    /// memory image included — is exactly what was submitted). This is
    /// the migration hook: a cluster drains a degraded machine's queue
    /// and resubmits the specs to healthy peers, using the ids (or the
    /// specs' stable [`JobSpec::tag`]s) to correlate reports across the
    /// move. Already-finished jobs are unaffected.
    pub fn drain_pending(&mut self) -> Vec<(JobId, JobSpec)> {
        self.pending
            .drain(..)
            .map(|p| (JobId(p.id), p.spec))
            .collect()
    }

    /// Picks the next batch: the most urgent pending job (earliest
    /// deadline, then highest priority, then FIFO) plus every other
    /// pending job with the same program fingerprint, up to
    /// `max_batch`, in admission order.
    ///
    /// Single pass, in place: each job is popped from the front once and
    /// either joins the batch or rotates to the back of the same deque
    /// (the ring buffer's capacity is reused — the old implementation
    /// drained into a freshly allocated `kept` deque, paying an
    /// O(queue-length) allocation + copy per batch).
    fn take_batch(&mut self) -> Vec<Pending> {
        let key = self
            .pending
            .iter()
            .min_by_key(|p| {
                (
                    p.spec.deadline.unwrap_or(u64::MAX),
                    std::cmp::Reverse(p.spec.priority),
                    p.id,
                )
            })
            .map(|p| p.fingerprint)
            .expect("take_batch requires a non-empty queue");
        let mut batch = Vec::new();
        for _ in 0..self.pending.len() {
            let p = self.pending.pop_front().expect("iterating queue length");
            if p.fingerprint == key && batch.len() < self.config.max_batch {
                batch.push(p);
            } else {
                self.pending.push_back(p);
            }
        }
        batch
    }

    /// Runs one batch round-robin until every member halts or fails.
    fn run_batch(&mut self) {
        let batch = self.take_batch();
        self.batches += 1;
        let mut active: Vec<Active> = batch
            .into_iter()
            .map(|p| Active {
                id: p.id,
                fingerprint: p.fingerprint,
                admit_cycle: p.admit_cycle,
                cp: self.machine.new_control_processor(),
                ctx: self.machine.fresh_context(),
                acc: MachineCounters::default(),
                start_cycle: None,
                finish_cycle: 0,
                slices: 0,
                preemptions: 0,
                retries: 0,
                done: false,
                error: None,
                spec: p.spec,
            })
            .collect();
        let mut alive = active.len();
        while alive > 0 {
            for job in active.iter_mut() {
                if job.done {
                    continue;
                }
                self.run_one_slice(job, alive);
                if job.done {
                    alive -= 1;
                }
            }
        }
        for job in active {
            let finished = self.retire(job);
            self.finished.push(finished);
        }
    }

    /// Runs one slice of `job`, switching its context in (and, if other
    /// tenants are still alive, back out) around the execution.
    fn run_one_slice(&mut self, job: &mut Active, alive: usize) {
        match self.config.fault {
            None => self.run_one_slice_fast(job, alive),
            Some(policy) => self.run_one_slice_checked(job, policy),
        }
    }

    /// The fast path: no checkpointing, no scrubbing, no watchdog, and
    /// a sole-resident tenant skips redundant context transfers.
    fn run_one_slice_fast(&mut self, job: &mut Active, alive: usize) {
        // Context switch in — skipped when the job's registers are
        // already resident (it ran the previous slice alone).
        if self.resident != Some(job.id) {
            self.machine.set_tenant(job.id);
            self.machine.restore_context(&job.ctx);
            self.charge_context_transfer();
            self.resident = Some(job.id);
        }
        if job.slices == 0 {
            job.start_cycle = Some(self.now);
            if let Some(elem) = job.spec.fault_at_element {
                self.machine.inject_page_fault(elem);
            }
        }
        let counters_before = self.machine.counters();
        let cycles_before = job.cp.stats().cycles;
        let outcome = self.machine.run_slice(
            &mut job.cp,
            &job.spec.program,
            &mut job.spec.mem,
            self.config.slice_vectors,
            u64::MAX,
        );
        job.acc
            .accumulate(&self.machine.counters().since(&counters_before));
        self.now += job.cp.stats().cycles - cycles_before;
        job.slices += 1;
        match outcome {
            Ok(SliceOutcome::Halted) => {
                job.done = true;
                job.finish_cycle = self.now;
            }
            Ok(SliceOutcome::Preempted) => {
                job.preemptions += 1;
                // Save only when another tenant will actually run next;
                // a sole survivor keeps its registers resident.
                if alive > 1 {
                    job.ctx = self.machine.save_context();
                    self.charge_context_transfer();
                }
            }
            Ok(SliceOutcome::TimedOut) => {
                unreachable!("the watchdog is disabled on the fast path")
            }
            Err(e) => {
                job.done = true;
                job.error = Some(JobError::Processor {
                    detail: e.to_string(),
                });
                job.finish_cycle = self.now;
            }
        }
    }

    /// The self-healing path: every slice starts from a verified
    /// checkpoint `(cp, ctx, mem)` and is only accepted — its end state
    /// becoming the next checkpoint — after a post-slice scrub comes
    /// back clean. A slice whose detectors latched, or whose watchdog
    /// fired, is rolled back and re-executed; [`FaultPolicy::max_retries`]
    /// bounds the loop, after which the job fails with a typed
    /// [`JobError`]. The scrub-before-save ordering is the correctness
    /// invariant: corrupted state can never become a checkpoint, so a
    /// rollback always lands on bit-clean state.
    fn run_one_slice_checked(&mut self, job: &mut Active, policy: FaultPolicy) {
        // The rollback image: everything one slice can mutate. `job.ctx`
        // (the vector state) is already the checkpoint and is only
        // replaced after a clean scrub below.
        let checkpoint_cp = job.cp.clone();
        let checkpoint_mem = job.spec.mem.clone();
        let mut attempt: u32 = 0;
        loop {
            // Always restore: the checkpoint is authoritative, and the
            // restore re-baselines any blocks remapped by a prior
            // attempt. Charged at the VMU bulk-transfer cost.
            self.machine.set_tenant(job.id);
            self.machine.restore_context(&job.ctx);
            self.charge_context_transfer();
            self.resident = Some(job.id);
            if job.slices == 0 {
                job.start_cycle = Some(self.now);
            }
            if job.slices == 0 && attempt == 0 {
                if let Some(elem) = job.spec.fault_at_element {
                    self.machine.inject_page_fault(elem);
                }
            }
            let counters_before = self.machine.counters();
            let cycles_before = job.cp.stats().cycles;
            let outcome = self.machine.run_slice(
                &mut job.cp,
                &job.spec.program,
                &mut job.spec.mem,
                self.config.slice_vectors,
                policy.slice_fuel,
            );
            // Retried slices accumulate too: wasted attempts are real
            // work the machine performed.
            job.acc
                .accumulate(&self.machine.counters().since(&counters_before));
            self.now += job.cp.stats().cycles - cycles_before;
            job.slices += 1;

            // Detection before checkpoint. Parity ran before each of the
            // slice's broadcasts; the scrub drains the strikes that landed
            // after the last one and march-tests for latent stuck-ats.
            let _ = self.machine.scrub();
            let corrupted = self.machine.pending_faults() > 0;
            if corrupted {
                let remap = self.machine.quarantine_and_remap();
                if !remap.fully_recovered() {
                    // Out of spares: the faulty blocks stay pending and
                    // the machine is degraded — fail typed, never mask.
                    job.done = true;
                    job.error = Some(JobError::SparesExhausted {
                        pending_blocks: self.machine.pending_faults(),
                    });
                    job.finish_cycle = self.now;
                    return;
                }
            }
            let timed_out = matches!(outcome, Ok(SliceOutcome::TimedOut));
            if corrupted || timed_out {
                attempt += 1;
                if attempt > policy.max_retries {
                    job.done = true;
                    job.error = Some(if timed_out {
                        JobError::WatchdogTimeout {
                            retries: policy.max_retries,
                        }
                    } else {
                        JobError::FaultRetriesExhausted {
                            retries: policy.max_retries,
                        }
                    });
                    job.finish_cycle = self.now;
                    return;
                }
                // Roll back to the verified checkpoint and re-execute.
                job.retries += 1;
                self.retries += 1;
                self.now += policy.retry_backoff_cycles;
                job.cp = checkpoint_cp.clone();
                job.spec.mem = checkpoint_mem.clone();
                continue;
            }
            match outcome {
                Ok(SliceOutcome::Halted) => {
                    job.done = true;
                    job.finish_cycle = self.now;
                }
                Ok(SliceOutcome::Preempted) => {
                    job.preemptions += 1;
                    // The scrub came back clean: this end state is the
                    // new checkpoint.
                    job.ctx = self.machine.save_context();
                    self.charge_context_transfer();
                }
                Ok(SliceOutcome::TimedOut) => unreachable!("handled by the rollback arm"),
                Err(e) => {
                    job.done = true;
                    job.error = Some(JobError::Processor {
                        detail: e.to_string(),
                    });
                    job.finish_cycle = self.now;
                }
            }
            return;
        }
    }

    fn charge_context_transfer(&mut self) {
        let cycles = self.machine.context_transfer_cycles();
        self.now += cycles;
        self.context_switches += 1;
        self.context_switch_cycles += cycles;
    }

    fn retire(&self, job: Active) -> Finished {
        let report = RunReport::new(job.cp.stats(), self.config.machine.freq_ghz, &job.acc);
        Finished {
            report: JobReport {
                id: JobId(job.id),
                tag: job.spec.tag,
                name: job.spec.name,
                fingerprint: job.fingerprint,
                priority: job.spec.priority,
                deadline: job.spec.deadline,
                admit_cycle: job.admit_cycle,
                start_cycle: job.start_cycle.unwrap_or(job.finish_cycle),
                finish_cycle: job.finish_cycle,
                slices: job.slices,
                preemptions: job.preemptions,
                report,
                faults: job.acc.faults_taken,
                retries: job.retries,
                error: job.error,
            },
            mem: job.spec.mem,
        }
    }

    /// The aggregate report over every job served so far.
    pub fn report(&self) -> EngineReport {
        let cache = self.machine.program_cache();
        let waits: Vec<u64> = self
            .finished
            .iter()
            .map(|f| f.report.queue_cycles())
            .collect();
        let mut window_flushes = cape_core::WindowFlushes::default();
        let mut dead_stores_eliminated = 0;
        for f in &self.finished {
            window_flushes.accumulate(&f.report.report.window_flushes);
            dead_stores_eliminated += f.report.report.dead_stores_eliminated;
        }
        EngineReport {
            jobs: self.finished.iter().map(|f| f.report.clone()).collect(),
            total_cycles: self.now,
            freq_ghz: self.config.machine.freq_ghz,
            batches: self.batches,
            context_switches: self.context_switches,
            context_switch_cycles: self.context_switch_cycles,
            queue_latency: QueueLatency::from_waits(&waits),
            cross_tenant_hits: cache.cross_tenant_hits(),
            cross_tenant_hit_rate: cache.cross_tenant_hit_rate(),
            cache_hit_rate: cache.hit_rate(),
            fused_window_hits: cache.window_hits(),
            fused_window_misses: cache.window_misses(),
            fused_window_evictions: cache.window_evictions(),
            cross_tenant_window_hits: cache.cross_tenant_window_hits(),
            window_flushes,
            dead_stores_eliminated,
            retries: self.retries,
            fault: self.machine.fault_stats(),
            spare_blocks_free: self.machine.spare_blocks_free(),
            quarantined_blocks: self.machine.quarantined_blocks(),
        }
    }

    /// The report of a served job.
    pub fn job_report(&self, id: JobId) -> Option<&JobReport> {
        self.finished.iter().map(|f| &f.report).find(|r| r.id == id)
    }

    /// A served job's memory image — where its outputs live.
    pub fn memory(&self, id: JobId) -> Option<&MainMemory> {
        self.finished
            .iter()
            .find(|f| f.report.id == id)
            .map(|f| &f.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_isa::assemble;

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
        JobSpec::new(format!("add{scale}"), prog, mem)
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::new(cape_core::CapeConfig::tiny(2)))
    }

    #[test]
    fn serves_one_job_end_to_end() {
        let mut e = engine();
        let id = e.submit(add_job(8, 3)).unwrap();
        let report = e.run();
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.completed(), 1);
        let out = e.memory(id).unwrap().read_u32_slice(0x4000, 8);
        let want: Vec<u32> = (0..8).map(|i| (i * 3 + 1) * 2).collect();
        assert_eq!(out, want);
        assert!(e.job_report(id).unwrap().succeeded());
    }

    #[test]
    fn backpressure_refuses_submissions_past_capacity() {
        let mut e = Engine::new(EngineConfig {
            queue_capacity: 2,
            ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
        });
        e.submit(add_job(4, 1)).unwrap();
        e.submit(add_job(4, 2)).unwrap();
        let err = e.submit(add_job(4, 3)).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { capacity: 2 });
        // Draining makes room again.
        e.run();
        assert!(e.submit(add_job(4, 3)).is_ok());
    }

    #[test]
    fn admission_rejects_unencodable_and_empty_programs() {
        use cape_isa::Reg;
        let mut e = engine();
        // addi with an immediate past the 12-bit field: executable by the
        // simulator, but with no machine encoding — admission bounces it.
        let bad = cape_isa::Program::builder()
            .addi(Reg::T0, Reg::ZERO, 10_000)
            .halt()
            .build()
            .unwrap();
        let err = e
            .submit(JobSpec::new("bad", bad, MainMemory::new()))
            .unwrap_err();
        assert!(matches!(
            err,
            AdmissionError::InvalidProgram { index: 0, .. }
        ));

        let empty = cape_isa::Program::builder().build().unwrap();
        let err = e
            .submit(JobSpec::new("empty", empty, MainMemory::new()))
            .unwrap_err();
        assert_eq!(err, AdmissionError::EmptyProgram);
        assert_eq!(e.pending_jobs(), 0, "rejected jobs must not queue");
    }

    #[test]
    fn same_kernel_jobs_share_one_batch_and_amortize_compiles() {
        let mut e = engine();
        for i in 0..4 {
            // Same program text, different inputs: same fingerprint.
            let mut spec = add_job(8, 1);
            spec.name = format!("tenant{i}");
            let data: Vec<u32> = (0..8).map(|k| k + i * 100).collect();
            spec.mem.write_u32_slice(0x1000, &data);
            e.submit(spec).unwrap();
        }
        let report = e.run();
        assert_eq!(report.batches, 1, "identical kernels batch together");
        assert_eq!(report.completed(), 4);
        assert!(
            report.cross_tenant_hit_rate > 0.5,
            "co-scheduled tenants must reuse each other's compiles: {}",
            report.cross_tenant_hit_rate
        );
        // Outputs stay per-tenant despite the shared machine.
        for (i, job) in report.jobs.iter().enumerate() {
            let out = e.memory(job.id).unwrap().read_u32_slice(0x4000, 8);
            let want: Vec<u32> = (0..8u32).map(|k| (k + i as u32 * 100) * 2).collect();
            assert_eq!(out, want, "tenant {i} output corrupted");
        }
    }

    #[test]
    fn deadline_and_priority_order_batch_service() {
        let mut e = Engine::new(EngineConfig {
            max_batch: 1,
            ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
        });
        let late = e.submit(add_job(4, 1).with_deadline(u64::MAX)).unwrap();
        let urgent = e.submit(add_job(8, 2).with_deadline(1)).unwrap();
        let high = e.submit(add_job(16, 3).with_priority(9)).unwrap();
        let report = e.run();
        let finish = |id: JobId| e.job_report(id).unwrap().finish_cycle;
        assert!(finish(urgent) < finish(late), "EDF first");
        assert!(
            finish(high) < finish(late),
            "priority beats no-deadline FIFO"
        );
        assert_eq!(
            report.deadline_misses(),
            1,
            "the 1-cycle deadline is missed"
        );
    }

    #[test]
    fn preemption_interleaves_without_corrupting_tenants() {
        // A slice budget of 1 forces a context switch after every vector
        // instruction; outputs must still be exact.
        let mut e = Engine::new(EngineConfig {
            slice_vectors: 1,
            ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
        });
        let a = e.submit(add_job(16, 5)).unwrap();
        let b = e.submit(add_job(16, 9)).unwrap();
        let report = e.run();
        assert!(report.context_switches > 4, "budget 1 must thrash contexts");
        assert!(report.jobs.iter().all(|j| j.preemptions > 0));
        let out_a = e.memory(a).unwrap().read_u32_slice(0x4000, 16);
        let out_b = e.memory(b).unwrap().read_u32_slice(0x4000, 16);
        assert_eq!(
            out_a,
            (0..16).map(|i| (i * 5 + 1) * 2).collect::<Vec<u32>>()
        );
        assert_eq!(
            out_b,
            (0..16).map(|i| (i * 9 + 1) * 2).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn quiescent_fault_mode_is_bit_identical_to_the_fast_path() {
        // Detection + checkpointing armed, zero injection: outputs must
        // match the fast path exactly, with zero retries and a clean
        // fault ledger (scrubs excepted).
        let run = |fault: Option<FaultPolicy>| {
            let mut e = Engine::new(EngineConfig {
                fault,
                slice_vectors: 2,
                ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
            });
            let ids: Vec<JobId> = (1..4).map(|s| e.submit(add_job(16, s)).unwrap()).collect();
            let report = e.run();
            let outs: Vec<Vec<u32>> = ids
                .iter()
                .map(|&id| e.memory(id).unwrap().read_u32_slice(0x4000, 16))
                .collect();
            (report, outs)
        };
        let (fast, fast_outs) = run(None);
        let (checked, checked_outs) = run(Some(FaultPolicy::quiescent()));
        assert_eq!(fast.completed(), 3);
        assert_eq!(checked.completed(), 3);
        assert_eq!(
            fast_outs, checked_outs,
            "fault mode must not change results"
        );
        assert_eq!(checked.retries, 0);
        assert_eq!(checked.fault.injected_total(), 0);
        assert!(checked.fault.scrubs > 0, "every slice must scrub");
        assert!(
            checked.total_cycles >= fast.total_cycles,
            "checkpointing cannot be free: {} vs {}",
            checked.total_cycles,
            fast.total_cycles
        );
    }

    #[test]
    fn injected_stuck_at_is_detected_remapped_and_the_job_still_exact() {
        let mut e = Engine::new(EngineConfig {
            fault: Some(FaultPolicy::quiescent()),
            slice_vectors: 1,
            ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
        });
        let id = e.submit(add_job(16, 5)).unwrap();
        // Wedge four columns of v1 in the block holding chain 0. The
        // stuck-at re-asserts every broadcast until quarantined.
        e.inject_fault(
            0,
            cape_core::FaultKind::StuckAt {
                lane: 0,
                subarray: 3,
                row: 1,
                mask: 0xF,
                value: true,
            },
        )
        .unwrap();
        let report = e.run();
        let job = e.job_report(id).unwrap();
        assert!(job.succeeded(), "error: {:?}", job.error);
        assert!(job.retries >= 1, "the corrupted slice must be re-executed");
        let out = e.memory(id).unwrap().read_u32_slice(0x4000, 16);
        assert_eq!(
            out,
            (0..16).map(|i| (i * 5 + 1) * 2).collect::<Vec<u32>>(),
            "self-healed output must be bit-exact"
        );
        assert_eq!(report.fault.injected_stuck, 1);
        assert!(report.fault.fully_accounted(), "{:?}", report.fault);
        assert!(report.fault.blocks_remapped >= 1);
        assert_eq!(
            report.quarantined_blocks,
            report.fault.blocks_remapped as usize
        );
    }

    #[test]
    fn runaway_job_times_out_typed_after_bounded_retries() {
        let mut e = Engine::new(EngineConfig {
            fault: Some(FaultPolicy {
                slice_fuel: 64,
                max_retries: 2,
                ..FaultPolicy::quiescent()
            }),
            ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
        });
        let spin = assemble("loop: j loop").unwrap();
        let id = e
            .submit(JobSpec::new("spin", spin, MainMemory::new()))
            .unwrap();
        let healthy = e.submit(add_job(8, 3)).unwrap();
        let report = e.run();
        let job = e.job_report(id).unwrap();
        assert_eq!(job.error, Some(JobError::WatchdogTimeout { retries: 2 }));
        assert_eq!(job.retries, 2);
        assert_eq!(report.retries, 2);
        // The runaway tenant must not take the healthy one with it.
        let job = e.job_report(healthy).unwrap();
        assert!(job.succeeded());
        let out = e.memory(healthy).unwrap().read_u32_slice(0x4000, 8);
        assert_eq!(out, (0..8).map(|i| (i * 3 + 1) * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn dead_block_with_no_spares_fails_typed_not_silently() {
        let mut e = Engine::new(EngineConfig {
            fault: Some(FaultPolicy {
                csb: cape_core::FaultConfig::quiescent(0), // no spares
                ..FaultPolicy::quiescent()
            }),
            ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
        });
        let id = e.submit(add_job(16, 2)).unwrap();
        e.inject_fault(0, cape_core::FaultKind::DeadBlock).unwrap();
        let report = e.run();
        let job = e.job_report(id).unwrap();
        assert!(
            matches!(job.error, Some(JobError::SparesExhausted { .. })),
            "got {:?}",
            job.error
        );
        assert!(report.fault.fully_accounted(), "{:?}", report.fault);
        assert_eq!(report.spare_blocks_free, 0);
    }

    #[test]
    fn rejected_vector_op_reaches_the_job_report_as_a_processor_error() {
        use cape_isa::{Reg, VReg};
        let mut e = engine();
        // vmul with vd aliasing a source: admission can't see it (it
        // encodes fine), the microcode sequencer rejects it typed.
        let prog = cape_isa::Program::builder()
            .li(Reg::T0, 4)
            .vsetvli(Reg::T1, Reg::T0)
            .vmul_vv(VReg::V1, VReg::V1, VReg::V2)
            .halt()
            .build()
            .unwrap();
        let id = e
            .submit(JobSpec::new("alias", prog, MainMemory::new()))
            .unwrap();
        e.run();
        let job = e.job_report(id).unwrap();
        match &job.error {
            Some(JobError::Processor { detail }) => {
                assert!(detail.contains("must not alias"), "{detail}")
            }
            other => panic!("expected a processor error, got {other:?}"),
        }
    }

    #[test]
    fn replica_load_with_a_huge_guest_chunk_length_reads_only_the_window() {
        use cape_isa::{Reg, VReg};
        let data: Vec<u32> = (1..=8).collect();
        // Chunk lengths of 2^40 words and i64::MAX words: only the 8
        // words the window tiles may be fetched, allocated or charged.
        for (seed, shift) in [(1, 40), (-1, 1)] {
            let mut builder = cape_isa::Program::builder();
            builder.li(Reg::T0, seed);
            if seed > 0 {
                builder.slli(Reg::T0, Reg::T0, shift);
            } else {
                builder.srli(Reg::T0, Reg::T0, shift);
            }
            let prog = builder
                .li(Reg::T1, 8)
                .vsetvli(Reg::T2, Reg::T1)
                .li(Reg::A0, 0x1000)
                .vlrw(VReg::V1, Reg::A0, Reg::T0)
                .li(Reg::A1, 0x4000)
                .vse32(VReg::V1, Reg::A1)
                .halt()
                .build()
                .unwrap();
            let mut mem = MainMemory::new();
            mem.write_u32_slice(0x1000, &data);
            let mut e = engine();
            let id = e.submit(JobSpec::new("vlrw", prog, mem)).unwrap();
            assert!(e.run_next_batch());
            let job = e.job_report(id).unwrap();
            assert!(job.succeeded(), "{:?}", job.error);
            assert_eq!(job.report.hbm_bytes_read, 8 * 4, "chunk {seed} << {shift}");
            assert_eq!(e.memory(id).unwrap().read_u32_slice(0x4000, 8), data);
        }
    }

    #[test]
    fn inject_fault_without_a_policy_is_a_typed_error_not_a_panic() {
        let mut e = engine();
        assert_eq!(
            e.inject_fault(0, cape_core::FaultKind::DeadBlock),
            Err(FaultApiError::NoFaultPolicy)
        );
        // With a policy the same call succeeds.
        let mut e = Engine::new(EngineConfig {
            fault: Some(FaultPolicy::quiescent()),
            ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
        });
        assert_eq!(e.inject_fault(0, cape_core::FaultKind::DeadBlock), Ok(()));
    }

    #[test]
    fn out_of_range_fault_coordinates_are_typed_errors_not_panics() {
        use cape_core::FaultKind;
        let mut e = Engine::new(EngineConfig {
            fault: Some(FaultPolicy::quiescent()),
            ..EngineConfig::new(cape_core::CapeConfig::tiny(2))
        });
        let stuck = |lane, subarray, row| FaultKind::StuckAt {
            lane,
            subarray,
            row,
            mask: 1,
            value: false,
        };
        let late = |lane, subarray, row| FaultKind::Transient {
            lane,
            subarray,
            row,
            mask: 1,
            late: true,
        };
        for (chain, kind) in [
            (2, FaultKind::DeadBlock),
            (usize::MAX, FaultKind::DeadBlock),
            (0, stuck(16, 0, 0)),
            (0, stuck(200, 0, 0)),
            (0, stuck(0, 32, 0)),
            (0, stuck(0, 0, 36)),
            (1, late(16, 0, 0)),
            (1, late(0, 32, 0)),
            (1, late(0, 0, 36)),
        ] {
            assert_eq!(
                e.inject_fault(chain, kind),
                Err(FaultApiError::OutOfRange),
                "chain {chain}, {kind:?}"
            );
        }
        // Nothing was planted, and the machine still serves a job.
        let id = e.submit(add_job(16, 3)).unwrap();
        let report = e.run();
        assert!(e.job_report(id).unwrap().succeeded());
        let out = e.memory(id).unwrap().read_u32_slice(0x4000, 16);
        assert_eq!(out, (0..16).map(|i| (i * 3 + 1) * 2).collect::<Vec<u32>>());
        assert_eq!(report.fault.injected_total(), 0);
        // The last coordinate of each range is accepted.
        assert_eq!(e.inject_fault(1, stuck(15, 31, 35)), Ok(()));
    }

    #[test]
    fn drain_pending_hands_back_unserved_specs_for_resubmission() {
        let mut e = engine();
        let a = e.submit(add_job(8, 2).with_tag(70)).unwrap();
        let b = e.submit(add_job(8, 4).with_tag(71)).unwrap();
        let drained = e.drain_pending();
        assert_eq!(e.pending_jobs(), 0);
        assert_eq!(
            drained.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a, b],
            "drain returns admission order with the admitted ids"
        );
        // The drained specs are untouched: resubmitting them to another
        // engine produces exactly the outputs the jobs would have had,
        // and the stable tags survive the move into the new reports.
        let mut other = engine();
        let ids: Vec<JobId> = drained
            .into_iter()
            .map(|(_, spec)| other.submit(spec).unwrap())
            .collect();
        let report = other.run();
        assert_eq!(report.completed(), 2);
        assert_eq!(other.job_report(ids[0]).unwrap().tag, Some(70));
        assert_eq!(other.job_report(ids[1]).unwrap().tag, Some(71));
        for (i, scale) in [2u32, 4].iter().enumerate() {
            let out = other.memory(ids[i]).unwrap().read_u32_slice(0x4000, 8);
            let want: Vec<u32> = (0..8).map(|k| (k * scale + 1) * 2).collect();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn run_next_batch_steps_one_batch_at_a_time() {
        let mut e = engine();
        e.submit(add_job(4, 1)).unwrap(); // fingerprint A
        e.submit(add_job(8, 1)).unwrap(); // fingerprint B (different vl)
        assert!(e.run_next_batch());
        assert_eq!(e.pending_jobs(), 1, "one fingerprint served per step");
        assert!(e.run_next_batch());
        assert!(!e.run_next_batch(), "empty queue steps are no-ops");
        assert_eq!(e.report().completed(), 2);
    }

    #[test]
    fn faulting_job_restarts_and_reports_its_fault() {
        let mut e = engine();
        let id = e.submit(add_job(32, 2).with_fault_at(11)).unwrap();
        e.run();
        let job = e.job_report(id).unwrap();
        assert!(job.succeeded());
        assert_eq!(job.faults, 1, "the injected fault must be taken");
        assert_eq!(job.report.cp.vector, 4);
        let out = e.memory(id).unwrap().read_u32_slice(0x4000, 32);
        assert_eq!(out, (0..32).map(|i| (i * 2 + 1) * 2).collect::<Vec<u32>>());
    }
}
