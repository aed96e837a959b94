//! The integrated CAPE machine.

use cape_cp::{
    ControlProcessor, Coprocessor, CpError, DrainReason, SliceOutcome, VectorCommit, VectorFault,
};
use cape_csb::{
    Csb, CsbSnapshot, FaultConfig, FaultKind, FaultStats, MicroOpStats, RemapOutcome, ScrubReport,
};
use cape_isa::{Instr, Program, Sew, VAluOp};
use cape_mem::{Hbm, MainMemory};
use cape_ucode::{
    fuse_window, window_fingerprint, CompiledOp, LogicOp, PostProcess, Sequencer, VectorOp,
};
use cape_vcu::{ProgramCache, Vcu};
use cape_vmu::Vmu;

use crate::config::CapeConfig;
use crate::report::{RunReport, WindowFlushes};
use crate::timing::microop_energy_pj;

/// Why a pending fusion window is being committed to the CSB. Each
/// variant maps onto one counter of [`WindowFlushes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    /// An effective `vl`/`vstart` change (`vsetvli`/`vsetstart` that
    /// actually moved the window).
    Vsetvli,
    /// A vector instruction whose result crosses to the scalar side.
    ScalarResult,
    /// A VMU transfer needs committed CSB state.
    Vmu,
    /// Slice preemption at a vector-budget boundary.
    Preempt,
    /// A context save/restore is switching jobs.
    CtxSwitch,
    /// Fault machinery (scrub/remap/spares/watchdog/rejection).
    Fault,
    /// End-of-run drain or direct CSB access.
    Drain,
    /// The window reached `fusion_window` capacity.
    Capacity,
}

/// A suspended tenant's complete architectural vector state: the full
/// CSB register file plus the vector CSRs (`sew`, `vstart`, `vl`) and
/// any armed page-fault injection. Saving and restoring one of these
/// around another tenant's slice is what lets a scheduler multiplex a
/// single [`CapeMachine`] without cross-tenant corruption.
///
/// Cloning is cheap: the register image is shared behind an `Arc`.
#[derive(Debug, Clone)]
pub struct MachineContext {
    snapshot: CsbSnapshot,
    sew: Sew,
    vstart: usize,
    vl: usize,
    fault_at_element: Option<usize>,
}

/// A monotonic snapshot of the machine's cumulative activity counters.
/// Unlike [`CapeMachine::run`], which resets counters per run, slice
/// scheduling needs *delta* attribution: take one snapshot before a
/// slice and one after, and [`MachineCounters::since`] yields the
/// slice's own share of energy, traffic and cache activity. Fault-layer
/// counters are machine-wide, not per job: read them with
/// [`CapeMachine::fault_stats`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MachineCounters {
    /// CSB dynamic energy in picojoules.
    pub energy_pj: f64,
    /// Element-wise vector operations executed.
    pub lane_ops: u64,
    /// Cycles spent in VMU transfers.
    pub vmu_cycles: u64,
    /// Cycles spent in VCU compute.
    pub vcu_cycles: u64,
    /// Bytes read from HBM.
    pub hbm_bytes_read: u64,
    /// Bytes written to HBM.
    pub hbm_bytes_written: u64,
    /// Program-cache hits.
    pub cache_hits: u64,
    /// Program-cache misses (fresh compiles).
    pub cache_misses: u64,
    /// Page faults taken by vector memory instructions.
    pub faults_taken: u64,
    /// Fusion windows of two or more instructions broadcast as one
    /// super-program.
    pub fused_windows: u64,
    /// Vector instructions executed inside those fused windows.
    pub fused_ops: u64,
    /// Pool broadcasts (fan-out + join) eliminated by fusion: each
    /// `n`-op window costs one broadcast instead of `n`.
    pub fused_joins_saved: u64,
    /// Window flushes, by cause.
    pub window_flushes: WindowFlushes,
    /// Plan-level stores the window compiler's peepholes removed from
    /// executed fused windows.
    pub dead_stores_eliminated: u64,
    /// CSB microops emitted.
    pub microops: MicroOpStats,
}

impl MachineCounters {
    /// Adds `delta` into this accumulator (field-wise sum) — how a
    /// scheduler totals a job's activity across its slices.
    pub fn accumulate(&mut self, delta: &Self) {
        self.energy_pj += delta.energy_pj;
        self.lane_ops += delta.lane_ops;
        self.vmu_cycles += delta.vmu_cycles;
        self.vcu_cycles += delta.vcu_cycles;
        self.hbm_bytes_read += delta.hbm_bytes_read;
        self.hbm_bytes_written += delta.hbm_bytes_written;
        self.cache_hits += delta.cache_hits;
        self.cache_misses += delta.cache_misses;
        self.faults_taken += delta.faults_taken;
        self.fused_windows += delta.fused_windows;
        self.fused_ops += delta.fused_ops;
        self.fused_joins_saved += delta.fused_joins_saved;
        self.window_flushes.accumulate(&delta.window_flushes);
        self.dead_stores_eliminated += delta.dead_stores_eliminated;
        self.microops.merge(&delta.microops);
    }

    /// The activity between `earlier` and `self` (field-wise difference).
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            energy_pj: self.energy_pj - earlier.energy_pj,
            lane_ops: self.lane_ops - earlier.lane_ops,
            vmu_cycles: self.vmu_cycles - earlier.vmu_cycles,
            vcu_cycles: self.vcu_cycles - earlier.vcu_cycles,
            hbm_bytes_read: self.hbm_bytes_read - earlier.hbm_bytes_read,
            hbm_bytes_written: self.hbm_bytes_written - earlier.hbm_bytes_written,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            faults_taken: self.faults_taken - earlier.faults_taken,
            fused_windows: self.fused_windows - earlier.fused_windows,
            fused_ops: self.fused_ops - earlier.fused_ops,
            fused_joins_saved: self.fused_joins_saved - earlier.fused_joins_saved,
            window_flushes: self.window_flushes.since(&earlier.window_flushes),
            dead_stores_eliminated: self.dead_stores_eliminated - earlier.dead_stores_eliminated,
            microops: self.microops.since(&earlier.microops),
        }
    }
}

/// One vector instruction buffered in the fusion window: the op, the
/// element width it committed under, and its already-compiled program
/// (cheap to hold — the program body is shared behind `Arc`s).
#[derive(Debug)]
struct PendingOp {
    op: VectorOp,
    sew_bits: u32,
    compiled: CompiledOp,
}

/// A complete CAPE system: control processor, VCU, VMU, CSB and HBM
/// (Fig. 2 of the paper), runnable on [`Program`]s.
#[derive(Debug)]
pub struct CapeMachine {
    config: CapeConfig,
    csb: Csb,
    vcu: Vcu,
    /// Compiled microop programs, keyed by `(VectorOp, SEW)`. Persists
    /// across runs — a warm cache models the chain controllers' TTM
    /// staying loaded.
    program_cache: ProgramCache,
    vmu: Vmu,
    hbm: Hbm,
    energy_pj: f64,
    lane_ops: u64,
    vmu_cycles: u64,
    vcu_cycles: u64,
    /// Selected element width (set by `vsetvli`).
    sew: Sew,
    /// Pending page-fault injection for the next vector load/store: the
    /// element index at which the transfer faults once (testing hook for
    /// the Section V-C restart mechanism).
    fault_at_element: Option<usize>,
    /// Page faults taken by vector memory instructions.
    faults_taken: u64,
    /// Vector instructions committed (timing and energy already charged)
    /// whose CSB broadcast is deferred: at the next fusion barrier the
    /// whole window executes as one fused super-program with a single
    /// pool fan-out and join.
    pending_window: Vec<PendingOp>,
    /// Fusion windows of ≥ 2 ops broadcast as one program.
    fused_windows: u64,
    /// Vector instructions executed inside those windows.
    fused_ops: u64,
    /// Broadcast joins eliminated by fusion (Σ window_len − 1).
    fused_joins_saved: u64,
    /// Window flushes, attributed by cause at each flush site.
    window_flushes: WindowFlushes,
    /// Plan-level stores the window compiler retired from executed fused
    /// windows (cache hits still count: the figure is compile-time
    /// metadata carried on the cached program).
    dead_stores: u64,
}

impl CapeMachine {
    /// Builds a machine for the given configuration.
    pub fn new(config: CapeConfig) -> Self {
        Self {
            config,
            csb: Csb::new(config.geometry()),
            vcu: Vcu::new(config.chains),
            program_cache: ProgramCache::new(config.program_cache_capacity),
            vmu: Vmu::new(config.freq_ghz),
            hbm: Hbm::new(config.hbm),
            energy_pj: 0.0,
            lane_ops: 0,
            vmu_cycles: 0,
            vcu_cycles: 0,
            sew: Sew::E32,
            fault_at_element: None,
            faults_taken: 0,
            pending_window: Vec::new(),
            fused_windows: 0,
            fused_ops: 0,
            fused_joins_saved: 0,
            window_flushes: WindowFlushes::default(),
            dead_stores: 0,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> CapeConfig {
        self.config
    }

    /// Read access to the CSB (for checking results in tests/examples).
    pub fn csb(&self) -> &Csb {
        &self.csb
    }

    /// Mutable access to the CSB (bring-up hook). Flushes any pending
    /// fusion window first so direct reads and writes observe fully
    /// committed architectural state.
    pub fn csb_mut(&mut self) -> &mut Csb {
        self.flush_window();
        &mut self.csb
    }

    /// Clears all run counters and CSB statistics (contents are kept).
    pub fn reset_counters(&mut self) {
        self.csb.reset_stats();
        self.hbm.reset();
        self.energy_pj = 0.0;
        self.lane_ops = 0;
        self.vmu_cycles = 0;
        self.vcu_cycles = 0;
    }

    /// Runs a program to its `halt`, returning the run report.
    ///
    /// # Errors
    ///
    /// Returns [`CpError`] when the program escapes its address range or
    /// exceeds the configured instruction budget.
    pub fn run(&mut self, program: &Program, mem: &mut MainMemory) -> Result<RunReport, CpError> {
        self.reset_counters();
        // The program cache and the fusion counters are not reset (the
        // cache stays warm across runs); the report counts this run's
        // activity only.
        let start = self.counters();
        let mut cp = ControlProcessor::new(self.config.mem_latency_cycles);
        let max = self.config.max_instructions;
        // Split borrow: the CP drives `self` as the coprocessor.
        let cp_result = {
            let this: &mut CapeMachine = self;
            let mut driver = MachineCoprocessor { machine: this };
            cp.run(program, mem, &mut driver, max)
        };
        // A run that errored out (budget, vector fault) still owes the
        // CSB its deferred broadcasts; normal exits drained via the CP.
        self.flush_window();
        let cp_stats = cp_result?;
        Ok(RunReport::new(
            cp_stats,
            self.config.freq_ghz,
            &self.counters().since(&start),
        ))
    }

    /// Arms a one-shot page fault at `elem` for the next vector memory
    /// instruction, exercising the Section V-C restart path: the transfer
    /// stops at the faulting index, `vstart` is set there, the fault is
    /// "handled" (a fixed penalty), and the instruction restarts.
    pub fn inject_page_fault(&mut self, elem: usize) {
        self.fault_at_element = Some(elem);
    }

    /// Page faults taken by vector memory instructions so far.
    pub fn faults_taken(&self) -> u64 {
        self.faults_taken
    }

    /// Takes the pending fault if it lies inside the current window.
    fn pending_fault_in_window(&mut self) -> Option<usize> {
        let (vstart, vl) = (self.csb.vstart(), self.csb.vl());
        match self.fault_at_element.take() {
            Some(f) if f >= vstart && f < vl => {
                self.faults_taken += 1;
                Some(f)
            }
            other => {
                self.fault_at_element = other;
                None
            }
        }
    }

    /// Runs a vector memory transfer with Section V-C fault/restart
    /// semantics: on a fault at element `f`, the transfer completes
    /// `[vstart, f)`, the handler runs, and the instruction restarts at
    /// `vstart = f` — element indexing is absolute, so the retry resumes
    /// exactly where the first attempt stopped.
    fn faultable_transfer(
        &mut self,
        mem: &mut MainMemory,
        mut transfer: impl FnMut(&mut Self, &mut MainMemory) -> cape_vmu::VmuTransfer,
    ) -> u64 {
        const FAULT_HANDLER_CYCLES: u64 = 2000; // OS walk + fill, ~750 ns
        match self.pending_fault_in_window() {
            None => transfer(self, mem).cycles,
            Some(f) => {
                let (vstart, vl) = (self.csb.vstart(), self.csb.vl());
                self.csb.set_active_window(vstart, f);
                let first = transfer(self, mem).cycles;
                self.csb.set_active_window(f, vl);
                let second = transfer(self, mem).cycles;
                // Architectural vstart returns to 0 once the restarted
                // instruction commits.
                self.csb.set_active_window(0, vl);
                first + FAULT_HANDLER_CYCLES + second
            }
        }
    }

    fn active_lanes(&self) -> u64 {
        (self.csb.vl() - self.csb.vstart()) as u64
    }

    fn active_chains(&self) -> u64 {
        (self.config.chains - self.csb.idle_chains()) as u64
    }

    /// The VCU's microcode program cache (hit/miss observability).
    pub fn program_cache(&self) -> &ProgramCache {
        &self.program_cache
    }

    /// Attributes subsequent program-cache lookups to `tenant` (see
    /// [`ProgramCache::set_tenant`]). A scheduler calls this before each
    /// tenant's slice so cross-tenant cache amortization is measurable.
    pub fn set_tenant(&mut self, tenant: u32) {
        self.program_cache.set_tenant(tenant);
    }

    /// Captures the current tenant's full vector state: every CSB
    /// register (data, metadata and match state), the selected element
    /// width, the active window and any armed page-fault injection.
    pub fn save_context(&mut self) -> MachineContext {
        // Preemption point: the snapshot must capture fully committed
        // state, never a half-deferred window.
        self.flush_window_as(FlushReason::CtxSwitch);
        MachineContext {
            snapshot: self.csb.save_registers(),
            sew: self.sew,
            vstart: self.csb.vstart(),
            vl: self.csb.vl(),
            fault_at_element: self.fault_at_element,
        }
    }

    /// Restores a context captured by [`CapeMachine::save_context`] (or
    /// built by [`CapeMachine::fresh_context`]), making the machine
    /// bit-identical — registers, CSRs and pending faults — to the
    /// moment the context was saved.
    ///
    /// # Panics
    ///
    /// Panics if the context was captured on a machine with a different
    /// CSB geometry.
    pub fn restore_context(&mut self, ctx: &MachineContext) {
        // A deferred window belongs to the outgoing tenant's state; it
        // must land before that state is replaced.
        self.flush_window_as(FlushReason::CtxSwitch);
        self.csb.restore_registers(&ctx.snapshot);
        self.csb.set_active_window(ctx.vstart, ctx.vl);
        self.sew = ctx.sew;
        self.fault_at_element = ctx.fault_at_element;
    }

    /// The context of a job that has never run: zeroed registers, 32-bit
    /// elements, a fully open window and no pending fault — exactly the
    /// state of a newly built machine. Restoring this before a fresh
    /// job's first slice guarantees it cannot observe a predecessor.
    pub fn fresh_context(&self) -> MachineContext {
        MachineContext {
            snapshot: CsbSnapshot::zeroed(self.config.geometry()),
            sew: Sew::E32,
            vstart: 0,
            vl: self.config.max_vl(),
            fault_at_element: None,
        }
    }

    /// Cycle cost of moving one full register-file context in one
    /// direction between the CSB and memory (a scheduler charges this
    /// once per save and once per restore).
    pub fn context_transfer_cycles(&self) -> u64 {
        self.vmu
            .context_transfer_cycles(&self.hbm, self.config.chains)
    }

    /// A control processor configured for this machine's memory latency.
    /// Slice scheduling keeps one per job — the CP *is* the job's scalar
    /// state (PC, registers, clock) across preemptions.
    pub fn new_control_processor(&self) -> ControlProcessor {
        ControlProcessor::new(self.config.mem_latency_cycles)
    }

    /// A snapshot of the cumulative activity counters, for per-slice
    /// delta attribution via [`MachineCounters::since`].
    pub fn counters(&self) -> MachineCounters {
        MachineCounters {
            energy_pj: self.energy_pj,
            lane_ops: self.lane_ops,
            vmu_cycles: self.vmu_cycles,
            vcu_cycles: self.vcu_cycles,
            hbm_bytes_read: self.hbm.bytes_read(),
            hbm_bytes_written: self.hbm.bytes_written(),
            cache_hits: self.program_cache.hits(),
            cache_misses: self.program_cache.misses(),
            faults_taken: self.faults_taken,
            fused_windows: self.fused_windows,
            fused_ops: self.fused_ops,
            fused_joins_saved: self.fused_joins_saved,
            window_flushes: self.window_flushes,
            dead_stores_eliminated: self.dead_stores,
            microops: self.csb.stats(),
        }
    }

    /// Arms the CSB hardware fault layer: seeded injection of stuck-at
    /// bits, transient flips and dead blocks, plus per-row parity
    /// detection, the scrub's march test and spare-block remap
    /// machinery. With the layer disarmed (the default) the machine pays
    /// a single branch per vector broadcast.
    pub fn enable_fault_injection(&mut self, config: FaultConfig) {
        self.csb.enable_fault_injection(config);
    }

    /// Whether the hardware fault layer is armed.
    pub fn fault_injection_enabled(&self) -> bool {
        self.csb.fault_injection_enabled()
    }

    /// Cumulative hardware fault-layer counters (zeroes when disarmed).
    pub fn fault_stats(&self) -> FaultStats {
        self.csb.fault_stats()
    }

    /// Blocks flagged faulty and awaiting quarantine-and-remap.
    pub fn pending_faults(&self) -> usize {
        self.csb.pending_faults()
    }

    /// Runs one scrub pass (`None` when the fault layer is disarmed): it
    /// drains the parity events injectors queued since the last scan and
    /// march-tests for latent stuck-ats parity cannot see (see
    /// [`Csb::scrub`]). A scheduler calls this between slices so no
    /// fault stays undetected across a checkpoint.
    pub fn scrub(&mut self) -> Option<ScrubReport> {
        self.flush_window_as(FlushReason::Fault);
        self.csb.scrub()
    }

    /// Quarantines every flagged block and remaps it onto a spare.
    /// Blocks that fail (spares exhausted) stay pending and the machine
    /// is degraded — the caller must fail jobs typed, not mask it.
    pub fn quarantine_and_remap(&mut self) -> RemapOutcome {
        self.flush_window_as(FlushReason::Fault);
        self.csb.quarantine_and_remap()
    }

    /// Installs `spares` fresh spare blocks for the whole CSB and re-runs
    /// quarantine-and-remap — the in-simulation model of a field repair
    /// (a technician re-racking spare capacity). Returns the remap
    /// outcome; on success the machine has no pending faults and a
    /// replenished spare inventory, the precondition for a fleet
    /// scheduler to re-admit it. A no-op returning the default outcome
    /// when the fault layer is disarmed.
    pub fn service_spares(&mut self, spares: usize) -> RemapOutcome {
        self.flush_window_as(FlushReason::Fault);
        self.csb.service_spares(spares)
    }

    /// Injects one fault at chain `i` (testing hook; requires the fault
    /// layer to be armed).
    pub fn inject_csb_fault(&mut self, chain: usize, kind: FaultKind) {
        self.csb.inject_fault(chain, kind);
    }

    /// Spare blocks still available to the CSB.
    pub fn spare_blocks_free(&self) -> usize {
        self.csb.spare_blocks_free()
    }

    /// Blocks quarantined so far.
    pub fn quarantined_blocks(&self) -> usize {
        self.csb.quarantined_blocks()
    }

    /// Runs `cp` on `program` until it halts or `max_vector` more vector
    /// instructions commit (see [`ControlProcessor::run_slice`]). Unlike
    /// [`CapeMachine::run`] this never resets counters — a scheduler
    /// interleaving many jobs attributes activity per slice with
    /// [`CapeMachine::counters`] deltas instead.
    ///
    /// `slice_fuel` is the watchdog: the maximum instructions this one
    /// slice may commit before the CP gives up and returns
    /// [`SliceOutcome::TimedOut`]. A timed-out CP stopped at an
    /// arbitrary instruction boundary — restore a checkpoint; never
    /// resume it. Pass `u64::MAX` to disable the watchdog.
    ///
    /// # Errors
    ///
    /// Returns [`CpError`] when the program escapes its address range,
    /// exceeds the configured instruction budget, or a vector
    /// instruction is rejected by the microcode sequencer
    /// ([`CpError::VectorFault`]).
    pub fn run_slice(
        &mut self,
        cp: &mut ControlProcessor,
        program: &Program,
        mem: &mut MainMemory,
        max_vector: u64,
        slice_fuel: u64,
    ) -> Result<SliceOutcome, CpError> {
        let max = self.config.max_instructions;
        let outcome = {
            let this: &mut CapeMachine = self;
            let mut driver = MachineCoprocessor { machine: this };
            cp.run_slice(program, mem, &mut driver, max, max_vector, slice_fuel)
        };
        // Clean exits drained via the CP's `drain` hook; errored slices
        // still owe the CSB their deferred broadcasts.
        self.flush_window();
        outcome
    }

    /// True when `op` can join a fusion window: nothing crosses back to
    /// the scalar side after its broadcast. Exactly the ops whose
    /// compiled [`PostProcess`] is `None` — reductions, mask queries and
    /// the functionally-modeled `vid.v` are barriers.
    fn fusible(op: &VectorOp) -> bool {
        !matches!(
            op,
            VectorOp::RedSum { .. }
                | VectorOp::Cpop { .. }
                | VectorOp::First { .. }
                | VectorOp::Vid { .. }
        )
    }

    /// Executes every deferred vector instruction in the pending fusion
    /// window. A one-op window replays its compiled program directly
    /// (identical to the unfused path); longer windows are fused —
    /// through the VCU's fingerprint-keyed window cache — into one
    /// super-program with a single pool broadcast and join.
    ///
    /// Timing, energy and lane counters were already charged at issue
    /// (they are pure functions of each op's data-independent microop
    /// statistics), so flushing only performs the deferred CSB mutation
    /// and bumps the fusion observability counters.
    pub fn flush_window(&mut self) {
        self.flush_window_as(FlushReason::Drain);
    }

    /// [`CapeMachine::flush_window`] with an explicit cause for the
    /// flush-reason counters. Empty windows cost (and count) nothing.
    fn flush_window_as(&mut self, reason: FlushReason) {
        if self.pending_window.is_empty() {
            return;
        }
        match reason {
            FlushReason::Vsetvli => self.window_flushes.vsetvli += 1,
            FlushReason::ScalarResult => self.window_flushes.scalar_result += 1,
            FlushReason::Vmu => self.window_flushes.vmu += 1,
            FlushReason::Preempt => self.window_flushes.preempt += 1,
            FlushReason::CtxSwitch => self.window_flushes.ctx_switch += 1,
            FlushReason::Fault => self.window_flushes.fault += 1,
            FlushReason::Drain => self.window_flushes.drain += 1,
            FlushReason::Capacity => self.window_flushes.capacity += 1,
        }
        let pending = std::mem::take(&mut self.pending_window);
        let sew = pending[0].sew_bits as usize;
        if pending.len() == 1 {
            Sequencer::with_width(&mut self.csb, sew).run_program(&pending[0].compiled);
            return;
        }
        let key: Vec<(VectorOp, u32)> = pending.iter().map(|p| (p.op, p.sew_bits)).collect();
        let fingerprint = window_fingerprint(&key);
        let fused = match self.program_cache.window_lookup(fingerprint, &key) {
            Some(fused) => fused,
            None => {
                let parts: Vec<&CompiledOp> = pending.iter().map(|p| &p.compiled).collect();
                let fused = fuse_window(&parts, false);
                self.program_cache
                    .window_insert(fingerprint, &key, fused.clone());
                fused
            }
        };
        self.fused_windows += 1;
        self.fused_ops += pending.len() as u64;
        self.fused_joins_saved += pending.len() as u64 - 1;
        self.dead_stores += u64::from(fused.program().dead_stores());
        Sequencer::with_width(&mut self.csb, sew).run_program(&fused);
    }

    /// Buffers a fusible vector instruction: compiles (through the
    /// per-op cache), charges its modeled cycles/energy/lanes now, and
    /// defers the broadcast into the pending window.
    fn buffer_vector_op(&mut self, op: &VectorOp) -> Result<VectorCommit, VectorFault> {
        let sew_bits = self.sew.bits();
        let compiled = match self.program_cache.try_get_or_compile(op, sew_bits) {
            Ok(compiled) => compiled.clone(),
            Err(e) => {
                // The rejection terminates the run; earlier deferred
                // work must still reach the CSB first.
                self.flush_window_as(FlushReason::Fault);
                return Err(VectorFault::Rejected {
                    detail: e.to_string(),
                });
            }
        };
        debug_assert_eq!(
            compiled.post(),
            PostProcess::None,
            "fusible() and the lowering disagree on {op:?}"
        );
        let stats = compiled.program().stats();
        let cycles = self.vcu.plan_cycles(op, &stats, sew_bits);
        self.energy_pj += microop_energy_pj(&stats, self.active_chains());
        self.lane_ops += self.active_lanes();
        self.vcu_cycles += cycles;
        self.pending_window.push(PendingOp {
            op: *op,
            sew_bits,
            compiled,
        });
        if self.pending_window.len() >= self.config.fusion_window {
            self.flush_window_as(FlushReason::Capacity);
        }
        Ok(VectorCommit {
            cycles,
            rd_value: None,
        })
    }

    fn run_vcu(&mut self, op: &VectorOp) -> Result<VectorCommit, VectorFault> {
        if self.config.fusion_window > 1 && Self::fusible(op) {
            return self.buffer_vector_op(op);
        }
        // Barrier op (its scalar result is consumed immediately): land
        // every deferred broadcast, then execute unfused.
        self.flush_window_as(FlushReason::ScalarResult);
        let r = self
            .vcu
            .execute(&mut self.csb, op, self.sew.bits(), &mut self.program_cache)
            .map_err(|e| VectorFault::Rejected {
                detail: e.to_string(),
            })?;
        self.energy_pj += microop_energy_pj(&r.stats, self.active_chains());
        self.lane_ops += self.active_lanes();
        self.vcu_cycles += r.cycles;
        Ok(VectorCommit {
            cycles: r.cycles,
            rd_value: r.scalar,
        })
    }

    fn dispatch(
        &mut self,
        instr: &Instr,
        rs1: i64,
        rs2: i64,
        mem: &mut MainMemory,
    ) -> Result<VectorCommit, VectorFault> {
        Ok(match *instr {
            Instr::Vsetvli { sew, .. } => {
                // Grant min(requested, VLMAX), select the element width,
                // and reset vstart (RVV).
                let granted = (rs1.max(0) as usize).min(self.config.max_vl());
                // Only an *effective* window change is a fusion barrier:
                // deferred ops must broadcast under the window they
                // committed with. A vsetvli that provably grants the
                // current vl with vstart already 0 leaves the active
                // window untouched — it joins the window as a no-op (SEW
                // reselection alone is fusion-transparent; each buffered
                // op carries its own width).
                if granted != self.csb.vl() || self.csb.vstart() != 0 {
                    self.flush_window_as(FlushReason::Vsetvli);
                    self.csb.set_active_window(0, granted);
                }
                self.sew = sew;
                VectorCommit {
                    cycles: self.vcu.cmd_dist_cycles(),
                    rd_value: Some(granted as i64),
                }
            }
            Instr::Vsetstart { .. } => {
                let vl = self.csb.vl();
                let vstart = (rs1.max(0) as usize).min(vl);
                // Same classification: an unchanged vstart is a no-op
                // marker, not a barrier.
                if vstart != self.csb.vstart() {
                    self.flush_window_as(FlushReason::Vsetvli);
                    self.csb.set_active_window(vstart, vl);
                }
                VectorCommit {
                    cycles: self.vcu.cmd_dist_cycles(),
                    rd_value: None,
                }
            }
            Instr::Vle32 { vd, .. } => {
                // VMU transfers read/write CSB rows directly.
                self.flush_window_as(FlushReason::Vmu);
                let addr = rs1 as u64;
                let reg = vd.index();
                let cycles = self.faultable_transfer(mem, |m, mem| {
                    m.vmu.load(&mut m.csb, mem, &mut m.hbm, reg, addr)
                });
                self.vmu_cycles += cycles;
                VectorCommit {
                    cycles,
                    rd_value: None,
                }
            }
            Instr::Vse32 { vs3, .. } => {
                self.flush_window_as(FlushReason::Vmu);
                let addr = rs1 as u64;
                let reg = vs3.index();
                let cycles = self.faultable_transfer(mem, |m, mem| {
                    m.vmu.store(&m.csb, mem, &mut m.hbm, reg, addr)
                });
                self.vmu_cycles += cycles;
                VectorCommit {
                    cycles,
                    rd_value: None,
                }
            }
            Instr::Vlrw { vd, .. } => {
                self.flush_window_as(FlushReason::Vmu);
                let chunk = usize::try_from(rs2.max(1)).unwrap_or(usize::MAX);
                let t = self.vmu.load_replica(
                    &mut self.csb,
                    mem,
                    &mut self.hbm,
                    vd.index(),
                    rs1 as u64,
                    chunk,
                );
                self.vmu_cycles += t.cycles;
                VectorCommit {
                    cycles: t.cycles,
                    rd_value: None,
                }
            }
            Instr::VOpVv { op, vd, lhs, rhs } => {
                let (vd, vs1, vs2) = (vd.index(), lhs.index(), rhs.index());
                let vop = match op {
                    VAluOp::Add => VectorOp::Add { vd, vs1, vs2 },
                    VAluOp::Sub => VectorOp::Sub { vd, vs1, vs2 },
                    VAluOp::Mul => VectorOp::Mul { vd, vs1, vs2 },
                    VAluOp::And => VectorOp::And { vd, vs1, vs2 },
                    VAluOp::Or => VectorOp::Or { vd, vs1, vs2 },
                    VAluOp::Xor => VectorOp::Xor { vd, vs1, vs2 },
                    VAluOp::Mseq => VectorOp::Mseq { vd, vs1, vs2 },
                    VAluOp::Msne => VectorOp::Msne { vd, vs1, vs2 },
                    VAluOp::Mslt => VectorOp::Mslt {
                        vd,
                        vs1,
                        vs2,
                        signed: true,
                    },
                    VAluOp::Msltu => VectorOp::Mslt {
                        vd,
                        vs1,
                        vs2,
                        signed: false,
                    },
                    VAluOp::Min => VectorOp::MinMax {
                        vd,
                        vs1,
                        vs2,
                        max: false,
                        signed: true,
                    },
                    VAluOp::Minu => VectorOp::MinMax {
                        vd,
                        vs1,
                        vs2,
                        max: false,
                        signed: false,
                    },
                    VAluOp::Max => VectorOp::MinMax {
                        vd,
                        vs1,
                        vs2,
                        max: true,
                        signed: true,
                    },
                    VAluOp::Maxu => VectorOp::MinMax {
                        vd,
                        vs1,
                        vs2,
                        max: true,
                        signed: false,
                    },
                };
                self.run_vcu(&vop)?
            }
            Instr::VOpVx { op, vd, lhs, .. } => {
                let (vd, vs1, rs) = (vd.index(), lhs.index(), rs1 as u32);
                let vop = match op {
                    VAluOp::Add => VectorOp::AddScalar { vd, vs1, rs },
                    VAluOp::Sub => VectorOp::SubScalar { vd, vs1, rs },
                    VAluOp::Mul => VectorOp::MulScalar { vd, vs1, rs },
                    VAluOp::And => VectorOp::LogicScalar {
                        op: LogicOp::And,
                        vd,
                        vs1,
                        rs,
                    },
                    VAluOp::Or => VectorOp::LogicScalar {
                        op: LogicOp::Or,
                        vd,
                        vs1,
                        rs,
                    },
                    VAluOp::Xor => VectorOp::LogicScalar {
                        op: LogicOp::Xor,
                        vd,
                        vs1,
                        rs,
                    },
                    VAluOp::Mseq => VectorOp::MseqScalar { vd, vs1, rs },
                    VAluOp::Msne => VectorOp::MsneScalar { vd, vs1, rs },
                    VAluOp::Mslt => VectorOp::MsltScalar {
                        vd,
                        vs1,
                        rs,
                        signed: true,
                    },
                    VAluOp::Msltu => VectorOp::MsltScalar {
                        vd,
                        vs1,
                        rs,
                        signed: false,
                    },
                    VAluOp::Min => VectorOp::MinMaxScalar {
                        vd,
                        vs1,
                        rs,
                        max: false,
                        signed: true,
                    },
                    VAluOp::Minu => VectorOp::MinMaxScalar {
                        vd,
                        vs1,
                        rs,
                        max: false,
                        signed: false,
                    },
                    VAluOp::Max => VectorOp::MinMaxScalar {
                        vd,
                        vs1,
                        rs,
                        max: true,
                        signed: true,
                    },
                    VAluOp::Maxu => VectorOp::MinMaxScalar {
                        vd,
                        vs1,
                        rs,
                        max: true,
                        signed: false,
                    },
                };
                self.run_vcu(&vop)?
            }
            Instr::VmergeVvm {
                vd,
                on_false,
                on_true,
            } => self.run_vcu(&VectorOp::Merge {
                vd: vd.index(),
                vs1: on_true.index(),
                vs2: on_false.index(),
            })?,
            Instr::VredsumVs { vd, vs2, vs1 } => {
                // The seed read below observes CSB state, so deferred
                // broadcasts must land first.
                self.flush_window_as(FlushReason::ScalarResult);
                // vd[0] = vs1[0] + sum(vs2): run the tree reduction, then
                // fold in the scalar seed held in vs1[0].
                let seed = self.csb.read_element(vs1.index(), 0);
                let commit = self.run_vcu(&VectorOp::RedSum {
                    vd: vd.index(),
                    vs: vs2.index(),
                })?;
                let sum = commit.rd_value.unwrap_or(0) as u32;
                let total = sum.wrapping_add(seed);
                self.csb.write_element(vd.index(), 0, total);
                VectorCommit {
                    cycles: commit.cycles,
                    rd_value: None,
                }
            }
            Instr::VmvVx { vd, .. } => self.run_vcu(&VectorOp::Broadcast {
                vd: vd.index(),
                rs: rs1 as u32,
            })?,
            Instr::VmvVv { vd, vs } => self.run_vcu(&VectorOp::Mv {
                vd: vd.index(),
                vs: vs.index(),
            })?,
            Instr::VrsubVx { vd, lhs, .. } => self.run_vcu(&VectorOp::RsubScalar {
                vd: vd.index(),
                vs1: lhs.index(),
                rs: rs1 as u32,
            })?,
            Instr::VmaccVv { vd, vs1, vs2 } => self.run_vcu(&VectorOp::Macc {
                vd: vd.index(),
                vs1: vs1.index(),
                vs2: vs2.index(),
            })?,
            Instr::VsraVi { vd, vs, imm } => self.run_vcu(&VectorOp::ShiftRightArith {
                vd: vd.index(),
                vs: vs.index(),
                sh: imm,
            })?,
            Instr::VmvXs { vs, .. } => {
                // Scalar read of a vector result: the fusion barrier.
                self.flush_window_as(FlushReason::ScalarResult);
                // A single-element read: one read microop through the
                // element path, plus command distribution.
                let value = self.csb.read_element(vs.index(), 0);
                self.csb.execute(&cape_csb::MicroOp::Read {
                    subarray: 0,
                    row: vs.index(),
                });
                VectorCommit {
                    cycles: self.vcu.cmd_dist_cycles() + 2,
                    rd_value: Some(i64::from(value)),
                }
            }
            Instr::VcpopM { vs, .. } => self.run_vcu(&VectorOp::Cpop { vs: vs.index() })?,
            Instr::VfirstM { vs, .. } => self.run_vcu(&VectorOp::First { vs: vs.index() })?,
            Instr::VidV { vd } => self.run_vcu(&VectorOp::Vid { vd: vd.index() })?,
            Instr::VsllVi { vd, vs, imm } => self.run_vcu(&VectorOp::ShiftLeft {
                vd: vd.index(),
                vs: vs.index(),
                sh: imm,
            })?,
            Instr::VsrlVi { vd, vs, imm } => self.run_vcu(&VectorOp::ShiftRight {
                vd: vd.index(),
                vs: vs.index(),
                sh: imm,
            })?,
            ref other => {
                debug_assert!(false, "{other} dispatched as vector");
                return Err(VectorFault::NotVector);
            }
        })
    }
}

/// Adapter giving the control processor a `Coprocessor` view of the
/// machine.
struct MachineCoprocessor<'a> {
    machine: &'a mut CapeMachine,
}

impl Coprocessor for MachineCoprocessor<'_> {
    fn execute_vector(
        &mut self,
        instr: &Instr,
        rs1: i64,
        rs2: i64,
        mem: &mut MainMemory,
    ) -> Result<VectorCommit, VectorFault> {
        self.machine.dispatch(instr, rs1, rs2, mem)
    }

    fn drain(&mut self, reason: DrainReason) {
        self.machine.flush_window_as(match reason {
            DrainReason::Exit => FlushReason::Drain,
            DrainReason::Preempt => FlushReason::Preempt,
            DrainReason::Watchdog => FlushReason::Fault,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_isa::assemble;

    fn machine() -> CapeMachine {
        CapeMachine::new(CapeConfig::tiny(4))
    }

    #[test]
    fn end_to_end_vector_add() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).map(|i| i * 3).collect();
        mem.write_u32_slice(0x1000, &a);
        mem.write_u32_slice(0x2000, &b);
        let prog = assemble(
            r"
            li t0, 100
            vsetvli t1, t0, e32,m1
            li a0, 0x1000
            li a1, 0x2000
            li a2, 0x3000
            vle32.v v1, (a0)
            vle32.v v2, (a1)
            vadd.vv v3, v1, v2
            vse32.v v3, (a2)
            halt
        ",
        )
        .unwrap();
        let report = m.run(&prog, &mut mem).unwrap();
        let want: Vec<u32> = (0..100).map(|i| i * 4).collect();
        assert_eq!(mem.read_u32_slice(0x3000, 100), want);
        assert_eq!(report.lane_ops, 100);
        assert!(report.csb_energy_uj > 0.0);
        assert_eq!(report.hbm_bytes_read, 800);
        assert_eq!(report.hbm_bytes_written, 400);
    }

    #[test]
    fn strip_mined_loop_covers_long_vectors() {
        // Process 300 elements on a 128-lane machine via vsetvli strip
        // mining (the vector-length-agnostic pattern of Section V-F).
        let mut m = machine();
        let mut mem = MainMemory::new();
        let a: Vec<u32> = (0..300).map(|i| i * 7).collect();
        mem.write_u32_slice(0x1000, &a);
        let prog = assemble(
            r"
            li t0, 300        # remaining
            li a0, 0x1000     # src
            li a1, 0x8000     # dst
            loop:
              vsetvli t1, t0, e32,m1
              vle32.v v1, (a0)
              vadd.vx v2, v1, t0   # add the remaining count (varies!)
              vse32.v v2, (a1)
              sub t0, t0, t1
              slli t2, t1, 2
              add a0, a0, t2
              add a1, a1, t2
              bnez t0, loop
            halt
        ",
        )
        .unwrap();
        m.run(&prog, &mut mem).unwrap();
        // First strip adds 300, second 172, third 44.
        let out = mem.read_u32_slice(0x8000, 300);
        assert_eq!(out[0], 300);
        assert_eq!(out[127], 127 * 7 + 300);
        assert_eq!(out[128], 128 * 7 + 172);
        assert_eq!(out[299], 299 * 7 + 44);
    }

    #[test]
    fn redsum_seeds_from_vs1() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        mem.write_u32_slice(0x100, &[5, 6, 7]);
        let prog = assemble(
            r"
            li t0, 3
            vsetvli t1, t0
            li a0, 0x100
            vle32.v v1, (a0)
            li t2, 1000
            vmv.v.x v2, t2
            vredsum.vs v3, v1, v2   # v3[0] = v2[0] + sum(v1) = 1018
            vse32.v v3, (a1)
            halt
        ",
        )
        .unwrap();
        m.run(&prog, &mut mem).unwrap();
        assert_eq!(mem.read_u32(0), 1018);
    }

    #[test]
    fn cpop_and_first_reach_scalar_registers() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        let a: Vec<u32> = (0..50).collect();
        mem.write_u32_slice(0x100, &a);
        let prog = assemble(
            r"
            li t0, 50
            vsetvli t1, t0
            li a0, 0x100
            vle32.v v1, (a0)
            li t2, 25
            vmslt.vx v2, v1, t2   # elements < 25
            vcpop.m a2, v2
            vfirst.m a3, v2
            li a4, 0x200
            sw a2, 0(a4)
            sw a3, 4(a4)
            halt
        ",
        )
        .unwrap();
        m.run(&prog, &mut mem).unwrap();
        assert_eq!(mem.read_u32(0x200), 25);
        assert_eq!(mem.read_u32(0x204), 0);
    }

    #[test]
    fn replica_load_supports_matmul_inner_pattern() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        mem.write_u32_slice(0x100, &[1, 2, 3, 4]);
        let prog = assemble(
            r"
            li t0, 12
            vsetvli t1, t0
            li a0, 0x100
            li a1, 4
            vlrw.v v1, a0, a1
            li a2, 0x400
            vse32.v v1, (a2)
            halt
        ",
        )
        .unwrap();
        let report = m.run(&prog, &mut mem).unwrap();
        assert_eq!(
            mem.read_u32_slice(0x400, 12),
            vec![1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]
        );
        // Replica load fetched 16 bytes, not 48.
        assert_eq!(report.hbm_bytes_read, 16);
    }

    #[test]
    fn narrow_elements_compute_mod_2_pow_sew() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        mem.write_u32_slice(0x1000, &[200, 100, 255, 7]);
        let prog = assemble(
            r"
            li t0, 4
            vsetvli t1, t0, e8, m1
            li a0, 0x1000
            vle32.v v1, (a0)
            vadd.vv v2, v1, v1     # doubles, wrapping at 8 bits
            li a1, 0x2000
            vse32.v v2, (a1)
            halt
        ",
        )
        .unwrap();
        m.run(&prog, &mut mem).unwrap();
        assert_eq!(mem.read_u32_slice(0x2000, 4), vec![144, 200, 254, 14]);
    }

    #[test]
    fn narrow_elements_are_faster() {
        let run_with = |sew: &str| {
            let mut m = machine();
            let mut mem = MainMemory::new();
            mem.write_u32_slice(0x1000, &[1; 64]);
            let prog = assemble(&format!(
                "li t0, 64
vsetvli t1, t0, {sew}, m1
li a0, 0x1000
vle32.v v1, (a0)
vadd.vv v2, v1, v1
halt"
            ))
            .unwrap();
            m.run(&prog, &mut mem).unwrap().cycles
        };
        let (e8, e32) = (run_with("e8"), run_with("e32"));
        assert!(e8 < e32, "8-bit adds ({e8}) must beat 32-bit ({e32})");
    }

    #[test]
    fn min_max_and_macc_instructions_work_end_to_end() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        mem.write_u32_slice(0x1000, &[5, 10, 15, 20]);
        mem.write_u32_slice(0x2000, &[12, 8, 15, 2]);
        let prog = assemble(
            r"
            li t0, 4
            vsetvli t1, t0
            li a0, 0x1000
            li a1, 0x2000
            vle32.v v1, (a0)
            vle32.v v2, (a1)
            vminu.vv v3, v1, v2
            vmaxu.vv v4, v1, v2
            vmacc.vv v3, v1, v2    # v3 += v1*v2
            li a2, 0x3000
            vse32.v v3, (a2)
            li a3, 0x4000
            vse32.v v4, (a3)
            halt
        ",
        )
        .unwrap();
        m.run(&prog, &mut mem).unwrap();
        assert_eq!(mem.read_u32_slice(0x3000, 4), vec![65, 88, 240, 42]);
        assert_eq!(mem.read_u32_slice(0x4000, 4), vec![12, 10, 15, 20]);
    }

    #[test]
    fn page_fault_restarts_the_load_at_the_faulting_index() {
        // Section V-C: vector loads are restartable via vstart; the
        // result must be identical to a fault-free run, with extra
        // handler cycles and one fault recorded.
        let data: Vec<u32> = (0..100).map(|i| i * 3 + 1).collect();
        let prog = assemble(
            r"
            li t0, 100
            vsetvli t1, t0
            li a0, 0x1000
            vle32.v v1, (a0)
            li a1, 0x9000
            vse32.v v1, (a1)
            halt
        ",
        )
        .unwrap();
        let run = |fault: Option<usize>| {
            let mut m = machine();
            let mut mem = MainMemory::new();
            mem.write_u32_slice(0x1000, &data);
            if let Some(f) = fault {
                m.inject_page_fault(f);
            }
            let r = m.run(&prog, &mut mem).unwrap();
            (mem.read_u32_slice(0x9000, 100), r.cycles, m.faults_taken())
        };
        let (clean, clean_cycles, f0) = run(None);
        let (faulted, faulted_cycles, f1) = run(Some(37));
        assert_eq!(clean, data);
        assert_eq!(faulted, data, "restart must not lose elements");
        assert_eq!(f0, 0);
        assert_eq!(f1, 1);
        assert!(
            faulted_cycles >= clean_cycles + 2000,
            "handler cost missing: {faulted_cycles} vs {clean_cycles}"
        );
    }

    #[test]
    fn fault_outside_the_window_is_deferred() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        mem.write_u32_slice(0x1000, &[1, 2, 3, 4]);
        m.inject_page_fault(90); // beyond vl=4
        let prog = assemble(
            "li t0, 4
vsetvli t1, t0
li a0, 0x1000
vle32.v v1, (a0)
halt",
        )
        .unwrap();
        m.run(&prog, &mut mem).unwrap();
        assert_eq!(m.faults_taken(), 0, "out-of-window fault must not fire");
    }

    #[test]
    fn context_roundtrip_restores_registers_and_csrs() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        mem.write_u32_slice(0x1000, &[9, 8, 7, 6, 5]);
        let prog = assemble(
            "li t0, 5
vsetvli t1, t0, e8, m1
li a0, 0x1000
vle32.v v4, (a0)
halt",
        )
        .unwrap();
        m.run(&prog, &mut mem).unwrap();
        m.inject_page_fault(3);
        let saved = m.save_context();

        // Trash everything: a different tenant runs with other CSRs.
        let fresh = m.fresh_context();
        m.restore_context(&fresh);
        assert_eq!(m.csb().read_vector(4, 5), vec![0; 5]);
        assert_eq!(m.csb().vl(), m.config().max_vl());
        assert!(m.fault_at_element.is_none());

        m.restore_context(&saved);
        assert_eq!(m.csb().read_vector(4, 5), vec![9, 8, 7, 6, 5]);
        assert_eq!((m.csb().vstart(), m.csb().vl()), (0, 5));
        assert_eq!(m.sew, Sew::E8);
        assert_eq!(m.fault_at_element, Some(3));
    }

    #[test]
    fn run_slice_with_context_switches_matches_a_solo_run() {
        let src = r"
            li t0, 64
            vsetvli t1, t0
            li a0, 0x1000
            vle32.v v1, (a0)
            vadd.vx v2, v1, t0
            vmacc.vv v2, v1, v1
            li a1, 0x4000
            vse32.v v2, (a1)
            halt
        ";
        let prog = assemble(src).unwrap();
        let data: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(13) + 5).collect();

        // Reference: one job alone on a fresh machine.
        let mut solo = machine();
        let mut solo_mem = MainMemory::new();
        solo_mem.write_u32_slice(0x1000, &data);
        solo.run(&prog, &mut solo_mem).unwrap();
        let want = solo_mem.read_u32_slice(0x4000, 64);

        // Sliced: the same job preempted after every vector instruction,
        // with a register-trashing intruder running between slices.
        let mut m = machine();
        let mut mem = MainMemory::new();
        mem.write_u32_slice(0x1000, &data);
        let mut cp = m.new_control_processor();
        let mut ctx = m.fresh_context();
        let mut slices = 0;
        loop {
            m.restore_context(&ctx);
            let outcome = m.run_slice(&mut cp, &prog, &mut mem, 1, u64::MAX).unwrap();
            ctx = m.save_context();
            slices += 1;
            if outcome == SliceOutcome::Halted {
                break;
            }
            // Another tenant scribbles over every register between slices.
            for reg in 0..8 {
                let junk: Vec<u32> = (0..64u32).map(|i| i ^ 0xDEAD_0000 ^ reg).collect();
                m.csb_mut().set_active_window(0, 64);
                m.csb_mut().write_vector(reg as usize, &junk);
            }
        }
        assert!(slices > 3, "budget of 1 must slice per vector instruction");
        assert_eq!(mem.read_u32_slice(0x4000, 64), want);
    }

    #[test]
    fn counters_attribute_deltas_per_slice() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        mem.write_u32_slice(0x1000, &[1, 2, 3, 4]);
        let prog = assemble(
            "li t0, 4
vsetvli t1, t0
li a0, 0x1000
vle32.v v1, (a0)
vadd.vv v2, v1, v1
vse32.v v2, (a0)
halt",
        )
        .unwrap();
        let mut cp = m.new_control_processor();
        let before = m.counters();
        while m.run_slice(&mut cp, &prog, &mut mem, 1, u64::MAX).unwrap() != SliceOutcome::Halted {}
        let delta = m.counters().since(&before);
        assert_eq!(delta.lane_ops, 4, "one vadd over four lanes");
        assert_eq!(delta.hbm_bytes_read, 16);
        assert_eq!(delta.hbm_bytes_written, 16);
        assert!(delta.energy_pj > 0.0);
        assert_eq!(delta.cache_misses, 1, "vadd.vv compiles once");
        // A second identical pass is all cache hits.
        let mid = m.counters();
        let mut cp2 = m.new_control_processor();
        while m.run_slice(&mut cp2, &prog, &mut mem, 1, u64::MAX).unwrap() != SliceOutcome::Halted {
        }
        let delta2 = m.counters().since(&mid);
        assert_eq!(delta2.cache_misses, 0);
        assert_eq!(delta2.cache_hits, 1);
    }

    #[test]
    fn fused_windows_are_bit_identical_and_report_join_savings() {
        let src = r"
            li t0, 100
            vsetvli t1, t0
            li a0, 0x1000
            li a1, 0x2000
            vle32.v v1, (a0)
            vle32.v v2, (a1)
            vadd.vv v3, v1, v2
            vxor.vv v4, v3, v1
            vsub.vv v5, v4, v2
            vand.vv v6, v5, v3
            vmacc.vv v6, v1, v2
            vredsum.vs v7, v6, v1    # barrier: scalar result consumed
            vadd.vv v7, v6, v1
            vor.vv v7, v7, v2
            li a2, 0x3000
            vse32.v v7, (a2)
            halt
        ";
        let prog = assemble(src).unwrap();
        let data_a: Vec<u32> = (0..100u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let data_b: Vec<u32> = (0..100u32).map(|i| i ^ 0x5a5a_1234).collect();
        let run = |fusion_window: usize| {
            let mut config = CapeConfig::tiny(4);
            config.fusion_window = fusion_window;
            let mut m = CapeMachine::new(config);
            let mut mem = MainMemory::new();
            mem.write_u32_slice(0x1000, &data_a);
            mem.write_u32_slice(0x2000, &data_b);
            let report = m.run(&prog, &mut mem).unwrap();
            (mem.read_u32_slice(0x3000, 100), report)
        };
        let (fused_mem, fused) = run(32);
        let (plain_mem, plain) = run(1);

        assert_eq!(fused_mem, plain_mem, "fused results must be bit-identical");
        assert_eq!(fused.cycles, plain.cycles, "modeled timing must not change");
        assert_eq!(fused.lane_ops, plain.lane_ops);
        assert_eq!(fused.vcu_cycles, plain.vcu_cycles);
        assert_eq!(fused.microops, plain.microops, "recorded microop ledger");
        assert!((fused.csb_energy_uj - plain.csb_energy_uj).abs() < 1e-12);

        assert_eq!(plain.fused_windows, 0, "window of 1 disables fusion");
        // The 5 compute ops before vredsum form one window; the 2 after
        // it form another (vse32 flushes).
        assert_eq!(fused.fused_windows, 2);
        assert_eq!(fused.fused_ops, 7);
        assert_eq!(fused.fused_joins_saved, 5);
        // Flush attribution: the vredsum is a scalar-result barrier, the
        // vse32 a VMU one; nothing else interrupted a non-empty window.
        assert_eq!(fused.window_flushes.scalar_result, 1);
        assert_eq!(fused.window_flushes.vmu, 1);
        assert_eq!(fused.window_flushes.total(), 2);
    }

    #[test]
    fn unchanged_vl_vsetvli_is_not_a_fusion_barrier() {
        let mut m = machine(); // max_vl = 128
        let mut mem = MainMemory::new();
        let prog = assemble(
            r"
            li t0, 128
            vsetvli t1, t0, e32,m1
            vmv.v.x v1, t0
            vadd.vv v2, v1, v1
            vsetvli t2, t0, e8,m1    # same vl, vstart 0: no-op marker
            vxor.vv v3, v1, v2
            li t3, 64
            vsetvli t4, t3, e32,m1   # vl shrinks: a real barrier
            vadd.vv v4, v1, v2
            halt
        ",
        )
        .unwrap();
        let report = m.run(&prog, &mut mem).unwrap();
        // The SEW-only vsetvli joined the window: one mixed-SEW window of
        // three ops flushed by the vl change, then a one-op window
        // drained at halt.
        assert_eq!(report.window_flushes.vsetvli, 1);
        assert_eq!(report.window_flushes.drain, 1);
        assert_eq!(report.window_flushes.total(), 2);
        assert_eq!(report.fused_windows, 1);
        assert_eq!(report.fused_ops, 3);
        // Bit-exactness across the no-op vsetvli: the e8 vxor of the two
        // e32 results, lane 0.
        let v1 = 128u32;
        let v2 = v1.wrapping_add(v1);
        assert_eq!(m.csb().read_element(3, 0), (v1 ^ v2) & 0xff);
    }

    #[test]
    fn vsetvli_grants_at_most_max_vl() {
        let mut m = machine();
        let mut mem = MainMemory::new();
        let prog = assemble("li t0, 100000\nvsetvli t1, t0\nli a0, 0\nsd t1, 0(a0)\nhalt").unwrap();
        m.run(&prog, &mut mem).unwrap();
        assert_eq!(mem.read_u64(0), 128);
    }
}
