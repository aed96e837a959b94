//! The full Compute-Storage Block: chains + reduction tree + accounting.

use std::sync::{Arc, OnceLock};

use crate::block::{image_words, images_equal, BLOCK_LANES, ZERO_IMAGE};
use crate::chain::Chain;
use crate::fault::{
    FaultConfig, FaultKind, FaultLayer, FaultStats, RemapOutcome, ScrubReport, StruckRow,
};
use crate::geometry::{CsbGeometry, ElementLocation, SUBARRAY_COLS};
use crate::microop::MicroOp;
use crate::pool::{Shard, WorkerPool};
use crate::program::MicroProgram;
use crate::stats::MicroOpStats;
use crate::subarray::DATA_ROWS;

/// A captured register-file image of a whole CSB, taken at a
/// microprogram sync point. It records a row mask — the row indices the
/// CSB's live-row mask held at the save — and, for every block in block
/// order, the masked row-slices of each subarray in row order, then the
/// tag slices and accumulator slices. Every row outside
/// the mask was zero at the save, so the image is the whole register
/// file: a context switch copies only the rows a tenant has written. The
/// image is a straight copy of the SoA block storage in block order, so
/// it does not depend on the shard split, and padding lanes are stored
/// as zero.
///
/// The image is reference-counted, so cloning a snapshot (e.g. to keep
/// one resident image per tenant in a scheduler) is cheap. A
/// [`CsbSnapshot::zeroed`] snapshot holds no image at all. Equality is by
/// content across row masks (a row a snapshot does not hold reads as
/// zero): `CsbSnapshot::zeroed(g)` equals a save of a fresh
/// `Csb::new(g)`.
#[derive(Debug, Clone)]
pub struct CsbSnapshot {
    num_chains: usize,
    /// The rows the image holds; every other row is zero.
    rows: u64,
    /// `None` is the all-zero image, never materialized.
    image: Option<Arc<Vec<u32>>>,
}

impl CsbSnapshot {
    /// The all-zero snapshot for `geometry` — what a freshly constructed
    /// CSB holds. Restoring it wipes the register file back to a fresh
    /// machine's state, so a job started from it observes exactly that.
    /// It holds no rows and allocates nothing.
    pub fn zeroed(geometry: CsbGeometry) -> Self {
        Self {
            num_chains: geometry.num_chains(),
            rows: 0,
            image: None,
        }
    }

    /// Number of chains the snapshot covers.
    pub fn num_chains(&self) -> usize {
        self.num_chains
    }

    /// The image of block `b` ([`ZERO_IMAGE`] when unmaterialized).
    fn block(&self, b: usize) -> &[u32] {
        let words = image_words(self.rows);
        self.image
            .as_deref()
            .map_or(&ZERO_IMAGE[..], |image| &image[b * words..][..words])
    }
}

impl PartialEq for CsbSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.num_chains == other.num_chains
            && (0..self.num_chains.div_ceil(BLOCK_LANES))
                .all(|b| images_equal(self.block(b), self.rows, other.block(b), other.rows))
    }
}

impl Eq for CsbSnapshot {}

/// Minimum number of *active* chains before a broadcast fans out over the
/// worker pool; below this, channel transfers cost more than the work.
const POOL_MIN_ACTIVE: usize = 512;

/// The Compute-Storage Block: an array of chains executing broadcast
/// [`MicroOp`]s in lockstep, plus the global reduction tree.
///
/// The CSB also owns the *active window* (`vstart..vl`) that implements
/// RISC-V vector-length-agnostic semantics: columns mapped to elements
/// outside the window are masked out of every search and update, and tail
/// elements keep their values as the RVV specification requires
/// (Section V-F).
///
/// Chains are partitioned once, at construction, into contiguous *shards*
/// — one per worker thread — and packed inside each shard into
/// structure-of-arrays blocks of [`BLOCK_LANES`] chains (see the `block`
/// module), so every microop runs as a vectorized sweep over a block. A
/// broadcast of a whole [`MicroProgram`] ([`Csb::execute_program`]) moves
/// each shard to a persistent worker, runs every microop chain-locally,
/// and joins exactly once to harvest per-shard reduction sums; single
/// microops ([`Csb::execute`]) take the same path with a one-op program.
#[derive(Debug, Clone)]
pub struct Csb {
    geometry: CsbGeometry,
    shards: Vec<Shard>,
    /// Chains per shard (the last shard may be shorter). Always a
    /// multiple of [`BLOCK_LANES`] so a chain index maps to a
    /// (shard, block, lane) triple without crossing shard boundaries.
    shard_size: usize,
    /// Chains whose window mask is non-zero (fully-masked chains are
    /// power-gated and skipped, Section V-F).
    active_count: usize,
    vstart: usize,
    vl: usize,
    stats: MicroOpStats,
    /// Worker threads for the broadcast fan-out: the host's CPUs, read
    /// once per process, capped at 16.
    threads: usize,
    pool: WorkerPool,
    /// Seeded fault injection + parity/march detection. `None` (the
    /// default) costs one branch per broadcast — the PR 4 kernels run at
    /// full speed with injection disabled.
    fault: Option<Box<FaultLayer>>,
    /// Live-row mask over the row indices: a row whose bit is clear is
    /// zero in every subarray and lane of every block. Broadcasts, data
    /// transfers and the fault layer's injectors OR in the rows they
    /// write, and a restore sets it to the snapshot's rows, so a context
    /// switch copies only these, armed or not.
    live_rows: u64,
}

/// The CPUs this process may run on, read once per process: the query
/// reads the cgroup CPU quota and costs more than the rest of a small
/// [`Csb::new`]. A process pinned to one CPU (`taskset -c 0`) reads 1.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl Csb {
    /// Creates a zero-initialized CSB with the given geometry. The active
    /// window starts fully open (`vstart = 0`, `vl = MAX_VL`).
    pub fn new(geometry: CsbGeometry) -> Self {
        let n = geometry.num_chains();
        let threads = host_cpus().min(16);
        let shard_size = n
            .div_ceil(threads.min(n).max(1))
            .next_multiple_of(BLOCK_LANES);
        let shards = (0..n.div_ceil(shard_size))
            .map(|s| Shard::new(shard_size.min(n - s * shard_size)))
            .collect();
        let mut csb = Self {
            geometry,
            shards,
            shard_size,
            active_count: n,
            vstart: 0,
            vl: geometry.max_vl(),
            stats: MicroOpStats::new(),
            threads,
            pool: WorkerPool::new(),
            fault: None,
            live_rows: 0,
        };
        csb.recompute_windows();
        csb
    }

    /// The CSB geometry.
    pub fn geometry(&self) -> CsbGeometry {
        self.geometry
    }

    /// Maximum hardware vector length.
    pub fn max_vl(&self) -> usize {
        self.geometry.max_vl()
    }

    /// Current vector length.
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Current vector start index.
    pub fn vstart(&self) -> usize {
        self.vstart
    }

    /// Reconfigures the active window. Chain controllers locally compute
    /// their column masks from the chain ID, `vstart` and `vl`
    /// (Section V-F); fully-masked chains would power-gate their
    /// peripherals.
    ///
    /// # Panics
    ///
    /// Panics if `vl > MAX_VL` or `vstart > vl`.
    pub fn set_active_window(&mut self, vstart: usize, vl: usize) {
        assert!(
            vl <= self.max_vl(),
            "vl {vl} exceeds MAX_VL {}",
            self.max_vl()
        );
        assert!(vstart <= vl, "vstart {vstart} exceeds vl {vl}");
        self.vstart = vstart;
        self.vl = vl;
        self.recompute_windows();
    }

    fn recompute_windows(&mut self) {
        self.active_count = 0;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            for j in 0..shard.len() {
                let w = self
                    .geometry
                    .window_mask(s * self.shard_size + j, self.vstart, self.vl);
                shard.set_window(j, w);
                if w != 0 {
                    self.active_count += 1;
                }
            }
        }
    }

    /// Number of chains whose window is fully masked (candidates for
    /// power gating).
    pub fn idle_chains(&self) -> usize {
        self.geometry.num_chains() - self.active_count
    }

    /// True when broadcasts fan out over the worker pool: enough *active*
    /// chains to amortize the channel transfers, regardless of how many
    /// tail chains the window masks off.
    fn use_pool(&self) -> bool {
        self.threads > 1 && self.active_count >= POOL_MIN_ACTIVE
    }

    /// Executes one microop as a one-op program through
    /// [`Csb::execute_program`]: one broadcast, one fault-layer tick, and
    /// the summed reduction popcount for [`MicroOp::ReduceTags`] (`None`
    /// for every other op; per-chain read data is accessible through
    /// [`Csb::chain_row`]).
    ///
    /// A convenience for single-microop callers; whole instructions go
    /// through [`Csb::execute_program`] directly.
    pub fn execute(&mut self, op: &MicroOp) -> Option<u64> {
        self.execute_program(&MicroProgram::new(vec![op.clone()]))
            .pop()
    }

    /// Executes a whole compiled [`MicroProgram`] as one broadcast unit:
    /// every shard runs every microop locally (skipping its power-gated
    /// chains), and the single join harvests one summed popcount per
    /// [`MicroOp::ReduceTags`] sync point, returned in program order.
    ///
    /// Functionally identical to running every microop on each active
    /// chain's scalar [`Chain::execute`] reference in order — but the
    /// thread fan-out/fan-in and the reduction-tree sum happen once per
    /// program.
    pub fn execute_program(&mut self, program: &MicroProgram) -> Vec<u64> {
        self.stats.merge(&program.stats());
        if program.is_empty() {
            return Vec::new();
        }
        self.live_rows |= program.written_rows();
        if let Some(f) = self.fault.as_deref_mut() {
            f.pre_broadcast(&mut self.shards);
            self.live_rows |= f.take_rows_written();
        }
        if self.use_pool() {
            self.pool.run(&mut self.shards, program.plan());
        } else {
            for shard in &mut self.shards {
                shard.run(program.plan());
            }
        }
        let mut sums = vec![0u64; program.reduce_count()];
        for shard in &self.shards {
            for (k, &s) in shard.sums.iter().enumerate() {
                sums[k] += s;
            }
        }
        if let Some(f) = self.fault.as_deref_mut() {
            f.post_broadcast(&mut self.shards);
            self.live_rows |= f.take_rows_written();
        }
        sums
    }

    /// Accumulated microop statistics.
    pub fn stats(&self) -> MicroOpStats {
        self.stats
    }

    /// Resets the microop statistics.
    pub fn reset_stats(&mut self) {
        self.stats = MicroOpStats::new();
    }

    /// Splits a global chain index into its owning shard and local index.
    #[inline]
    fn shard_of(&self, i: usize) -> (usize, usize) {
        (i / self.shard_size, i % self.shard_size)
    }

    /// Materializes chain `i` as a scalar [`Chain`] — the reference-model
    /// view of one lane of the block-SoA storage. This copies the chain
    /// state out of its block; use the targeted accessors
    /// ([`Csb::chain_tags`], [`Csb::chain_row`], …) in loops.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn chain(&self, i: usize) -> Chain {
        let (s, j) = self.shard_of(i);
        self.shards[s].chain(j)
    }

    /// Tag bits of subarray `sub` of chain `i` (cheap single-word read).
    pub fn chain_tags(&self, i: usize, sub: usize) -> u32 {
        let (s, j) = self.shard_of(i);
        self.shards[s].tags(j, sub)
    }

    /// Accumulator bits of subarray `sub` of chain `i`.
    pub fn chain_acc(&self, i: usize, sub: usize) -> u32 {
        let (s, j) = self.shard_of(i);
        self.shards[s].acc(j, sub)
    }

    /// Row `row` of subarray `sub` of chain `i` (cheap single-word read).
    pub fn chain_row(&self, i: usize, sub: usize, row: usize) -> u32 {
        let (s, j) = self.shard_of(i);
        self.shards[s].row(j, sub, row)
    }

    /// Overwrites the tag bits of subarray `sub` of chain `i`
    /// (bring-up/test hook; real programs set tags through searches).
    pub fn set_chain_tags(&mut self, i: usize, sub: usize, v: u32) {
        let (s, j) = self.shard_of(i);
        self.shards[s].set_tags(j, sub, v);
    }

    /// Overwrites the accumulator bits of subarray `sub` of chain `i`
    /// (bring-up/test hook).
    pub fn set_chain_acc(&mut self, i: usize, sub: usize, v: u32) {
        let (s, j) = self.shard_of(i);
        self.shards[s].set_acc(j, sub, v);
    }

    /// Masked write into row `row` of subarray `sub` of chain `i`
    /// (bring-up/test hook; broadcast programs write rows through
    /// [`MicroOp::Write`]/[`MicroOp::Update`]).
    pub fn write_chain_row(&mut self, i: usize, sub: usize, row: usize, data: u32, mask: u32) {
        let (s, j) = self.shard_of(i);
        self.shards[s].write_row(j, sub, row, data, mask);
        self.live_rows |= 1 << row;
    }

    /// Location of vector element `elem`.
    pub fn locate(&self, elem: usize) -> ElementLocation {
        self.geometry.locate(elem)
    }

    /// Deposits `value` into element `elem` of vector register `reg`
    /// (functional data-transfer path; the VMU accounts for its timing).
    pub fn write_element(&mut self, reg: usize, elem: usize, value: u32) {
        let loc = self.geometry.locate(elem);
        let (s, j) = self.shard_of(loc.chain);
        self.shards[s].write_element(j, reg, loc.col, value);
        self.live_rows |= 1 << reg;
    }

    /// Reads element `elem` of vector register `reg`.
    pub fn read_element(&self, reg: usize, elem: usize) -> u32 {
        let loc = self.geometry.locate(elem);
        let (s, j) = self.shard_of(loc.chain);
        self.shards[s].read_element(j, reg, loc.col)
    }

    /// Reads the first `len` elements of register `reg` into a vector —
    /// convenient for tests and result extraction.
    pub fn read_vector(&self, reg: usize, len: usize) -> Vec<u32> {
        self.read_vector_at(reg, 0, len)
    }

    /// Reads `len` elements of register `reg` starting at element `start`,
    /// as one bulk transfer: each chain holding in-range elements is read
    /// with a single 32-row block transpose and the values are scattered
    /// into element order.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > MAX_VL`.
    pub fn read_vector_at(&self, reg: usize, start: usize, len: usize) -> Vec<u32> {
        let end = start + len;
        assert!(
            end <= self.max_vl(),
            "element range {start}..{end} exceeds MAX_VL"
        );
        let n = self.geometry.num_chains();
        let mut out = vec![0u32; len];
        for c in 0..n {
            let cols = self.geometry.window_mask(c, start, end);
            if cols == 0 {
                continue;
            }
            let (s, j) = self.shard_of(c);
            let vals = self.shards[s].read_column_block(j, reg);
            let (lo, hi) = (cols.trailing_zeros(), u32::BITS - cols.leading_zeros());
            for (k, &v) in vals.iter().enumerate().take(hi as usize).skip(lo as usize) {
                out[k * n + c - start] = v;
            }
        }
        out
    }

    /// Writes `values` into register `reg`, starting at element 0.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > MAX_VL`.
    pub fn write_vector(&mut self, reg: usize, values: &[u32]) {
        self.write_vector_at(reg, 0, values);
    }

    /// Writes `values` into register `reg` starting at element `start`, as
    /// one bulk transfer: values are gathered per chain, bit-sliced with a
    /// single 32×32 transpose and written as masked row words, leaving
    /// elements outside the range untouched.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a vector register or
    /// `start + values.len() > MAX_VL`.
    pub fn write_vector_at(&mut self, reg: usize, start: usize, values: &[u32]) {
        let end = start + values.len();
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        assert!(
            end <= self.max_vl(),
            "element range {start}..{end} exceeds MAX_VL"
        );
        self.live_rows |= 1 << reg;
        let n = self.geometry.num_chains();
        for c in 0..n {
            let cols = self.geometry.window_mask(c, start, end);
            if cols == 0 {
                continue;
            }
            let mut vals = [0u32; SUBARRAY_COLS];
            let (lo, hi) = (cols.trailing_zeros(), u32::BITS - cols.leading_zeros());
            for (k, v) in vals
                .iter_mut()
                .enumerate()
                .take(hi as usize)
                .skip(lo as usize)
            {
                *v = values[k * n + c - start];
            }
            let (s, j) = self.shard_of(c);
            self.shards[s].write_column_block(j, reg, &vals, cols);
        }
    }

    /// Per-chain window mask for chain `i`.
    pub fn window(&self, i: usize) -> u32 {
        let (s, j) = self.shard_of(i);
        self.shards[s].window(j)
    }

    /// Captures the register-file image of every chain — vector
    /// registers, metadata rows and match registers — as straight copies
    /// of each block's live row-slices and its tag and accumulator
    /// slices into one pre-sized allocation. Only the rows in
    /// the live-row mask are copied: every other row is zero, and the
    /// snapshot records the mask so a restore reads them back as zero.
    /// With the fault layer armed the mask also holds every row an
    /// injector struck, so the image is what a clean CSB would save plus
    /// those rows.
    pub fn save_registers(&self) -> CsbSnapshot {
        let rows = self.live_rows;
        debug_assert_eq!(
            self.shards.iter().fold(0, |r, s| r | s.nonzero_rows()) & !rows,
            0,
            "a row outside the live-row mask holds a nonzero bit"
        );
        let n = self.geometry.num_chains();
        let mut image = Vec::with_capacity(n.div_ceil(BLOCK_LANES) * image_words(rows));
        for shard in &self.shards {
            shard.save_image(&mut image, rows);
        }
        CsbSnapshot {
            num_chains: n,
            rows,
            image: Some(Arc::new(image)),
        }
    }

    /// Restores every chain to a previously captured image — the inverse
    /// of [`Csb::save_registers`]. It rewrites every row that is live
    /// here or held by the snapshot: a held row is copied from the
    /// image, any other is zeroed. Rows outside both masks are zero on
    /// both sides and are skipped. Tag and accumulator slices are always
    /// copied, and the live-row mask becomes the snapshot's. Restoring
    /// [`CsbSnapshot::zeroed`] wipes the live rows and the match
    /// registers back to fresh-machine state.
    ///
    /// With the fault layer armed this costs *no* parity rescan: each
    /// rewritten row XOR-folds its old and new lane fold into its parity
    /// word, the same delta a broadcast folds, so per-row parity tracks
    /// the restored image exactly. A struck row is in the live-row mask
    /// (injectors add the rows they write), so the restore rewrites it
    /// too and the strike keeps its fold/parity mismatch through the
    /// overwrite; a row outside both masks is zero and its parity word
    /// is untouched. Multi-tenant slice switches therefore pay only the
    /// copy of the live rows, as on a clean CSB.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken on a CSB of a different geometry.
    pub fn restore_registers(&mut self, snapshot: &CsbSnapshot) {
        assert_eq!(
            snapshot.num_chains,
            self.geometry.num_chains(),
            "snapshot geometry does not match this CSB"
        );
        let (held, rewrite) = (snapshot.rows, self.live_rows | snapshot.rows);
        let mut images = (0..snapshot.num_chains.div_ceil(BLOCK_LANES)).map(|b| snapshot.block(b));
        for shard in &mut self.shards {
            shard.load_image(&mut images, held, rewrite);
        }
        self.live_rows = held;
    }

    // ---- fault injection, detection and recovery ----------------------

    /// Arms deterministic fault injection: provisions
    /// `config.spare_blocks` spare blocks for the whole CSB and arms
    /// incremental per-row parity over the current (assumed clean) state
    /// — the one full parity-rebuild pass, paid here and never on the
    /// broadcast path. See the `fault` module docs for the detection
    /// tiers and recovery invariants.
    pub fn enable_fault_injection(&mut self, config: FaultConfig) {
        self.fault = Some(Box::new(FaultLayer::new(config, &mut self.shards)));
    }

    /// True when the fault layer is armed.
    pub fn fault_injection_enabled(&self) -> bool {
        self.fault.is_some()
    }

    /// Fault-layer counters (all zero while injection is disabled).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
            .as_deref()
            .map(FaultLayer::stats)
            .unwrap_or_default()
    }

    /// Blocks flagged by detection and not yet successfully remapped. A
    /// scheduler must not checkpoint or trust results while this is
    /// non-zero.
    pub fn pending_faults(&self) -> usize {
        self.fault.as_deref().map_or(0, FaultLayer::pending_blocks)
    }

    /// Runs one scrub pass: re-asserts persistent faults (the silicon
    /// does not wait for a broadcast), drains the parity dirty set (the
    /// blocks injectors disturbed since the last drain, not every block)
    /// and march-tests for latent persistent defects parity cannot see.
    /// Returns `None` while injection is disabled.
    pub fn scrub(&mut self) -> Option<ScrubReport> {
        let f = self.fault.as_deref_mut()?;
        let report = f.scrub(&mut self.shards);
        self.live_rows |= f.take_rows_written();
        Some(report)
    }

    /// Quarantines every flagged block while spares last, each spare
    /// taking over one block's chains. Register *contents* of a remapped
    /// block are a best-effort copy and may still be corrupt — restore a
    /// known-good [`CsbSnapshot`] afterwards to resume bit-exact
    /// execution.
    pub fn quarantine_and_remap(&mut self) -> RemapOutcome {
        match self.fault.as_deref_mut() {
            Some(f) => f.quarantine_and_remap(&mut self.shards),
            None => RemapOutcome::default(),
        }
    }

    /// Field service: provisions `spares` fresh spare blocks for the
    /// whole CSB (modeling a hardware swap of the exhausted spare rack)
    /// and immediately retries quarantine-and-remap on every
    /// still-pending block. A machine that was degraded to "unremappable
    /// faults pending" comes back with `pending_faults() == 0` and a
    /// replenished inventory — the precondition a fleet's probation
    /// ladder checks before re-admitting it. No-op while the fault layer
    /// is disarmed.
    ///
    /// Like [`Csb::quarantine_and_remap`], remapped blocks inherit a
    /// best-effort (possibly corrupt) data copy: restore a known-good
    /// [`CsbSnapshot`] before trusting results again.
    pub fn service_spares(&mut self, spares: usize) -> RemapOutcome {
        match self.fault.as_deref_mut() {
            Some(f) => f.service_spares(&mut self.shards, spares),
            None => RemapOutcome::default(),
        }
    }

    /// Test hook: plants one specific fault on the block holding chain
    /// `i`. Injection must be enabled.
    ///
    /// # Panics
    ///
    /// Panics if the fault layer is not armed, if chain `i` is out of
    /// range, or if `kind` is not [`FaultKind::in_range`].
    pub fn inject_fault(&mut self, i: usize, kind: FaultKind) {
        assert!(i < self.geometry.num_chains(), "chain {i} out of range");
        let f = self
            .fault
            .as_deref_mut()
            .expect("enable_fault_injection first");
        f.inject_now(&mut self.shards, i / BLOCK_LANES, kind);
        self.live_rows |= f.take_rows_written();
    }

    /// Unused spare blocks remaining (0 while injection is disabled).
    pub fn spare_blocks_free(&self) -> usize {
        self.fault.as_deref().map_or(0, FaultLayer::spares_free)
    }

    /// Blocks quarantined so far, each one taken over by a spare.
    pub fn quarantined_blocks(&self) -> usize {
        self.fault_stats().blocks_remapped as usize
    }

    /// Row-granular localizations of every strike flagged so far: the
    /// exact `(block, subarray, row)` coordinates whose parity
    /// mismatched at detection time. Empty while injection is disabled
    /// or nothing has been flagged.
    pub fn struck_rows(&self) -> Vec<StruckRow> {
        self.fault
            .as_deref()
            .map(|f| f.struck_rows().to_vec())
            .unwrap_or_default()
    }

    /// Test hook: true when every block's incrementally maintained
    /// per-row parity equals a from-scratch recompute and all syndromes
    /// are zero. Vacuously true while the fault layer is off (an unarmed
    /// broadcast does not fold parity).
    pub fn parity_consistent(&self) -> bool {
        self.fault.is_none() || self.shards.iter().all(Shard::parity_consistent)
    }
}

/// Materializes every chain of `csb` as a [`Chain`] and runs `ops` over
/// them through [`crate::scalar_sweep`]: the chains and sums a broadcast
/// must match.
#[cfg(test)]
pub(crate) fn scalar_reference(csb: &Csb, ops: &[MicroOp]) -> (Vec<Chain>, Vec<u64>) {
    let n = csb.geometry().num_chains();
    let mut chains: Vec<Chain> = (0..n).map(|c| csb.chain(c)).collect();
    let windows: Vec<u32> = (0..n).map(|c| csb.window(c)).collect();
    let sums = crate::scalar_sweep(&mut chains, &windows, ops);
    (chains, sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microop::{ColSel, Probe, TagDest, TagMode, WriteSpec};

    fn small() -> Csb {
        Csb::new(CsbGeometry::new(4))
    }

    fn search1(subarray: usize, row: usize, want: bool) -> MicroOp {
        MicroOp::Search {
            probes: vec![Probe::row(subarray, row, want)],
            gates: vec![],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        }
    }

    #[test]
    fn vector_roundtrip_across_chains() {
        let mut csb = small();
        let data: Vec<u32> = (0..128).map(|i| i * 0x0101).collect();
        csb.write_vector(6, &data);
        assert_eq!(csb.read_vector(6, 128), data);
    }

    #[test]
    fn bulk_write_matches_per_element_path_at_offsets() {
        let mut bulk = small();
        let mut serial = small();
        let data: Vec<u32> = (0..50u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0xA5A5)
            .collect();
        bulk.write_vector_at(7, 13, &data);
        for (e, &v) in data.iter().enumerate() {
            serial.write_element(7, 13 + e, v);
        }
        for e in 0..128 {
            assert_eq!(
                bulk.read_element(7, e),
                serial.read_element(7, e),
                "element {e}"
            );
        }
        assert_eq!(bulk.read_vector_at(7, 13, 50), data);
    }

    #[test]
    fn offset_write_preserves_neighbouring_elements() {
        let mut csb = small();
        csb.write_vector(9, &[0x5151_5151; 128]);
        csb.write_vector_at(9, 40, &[7; 20]);
        let out = csb.read_vector(9, 128);
        assert!(out[..40].iter().all(|&v| v == 0x5151_5151));
        assert!(out[40..60].iter().all(|&v| v == 7));
        assert!(out[60..].iter().all(|&v| v == 0x5151_5151));
    }

    #[test]
    fn broadcast_search_reaches_every_chain() {
        let mut csb = small();
        // Element e of v1 = e; search bit 0 == 1 finds the odd elements.
        let data: Vec<u32> = (0..16).map(|i| i as u32).collect();
        csb.write_vector(1, &data);
        csb.set_active_window(0, 16);
        csb.execute(&search1(0, 1, true));
        let total = csb.execute(&MicroOp::ReduceTags { subarray: 0 }).unwrap();
        assert_eq!(total, 8); // 8 odd values in 0..16
    }

    #[test]
    fn active_window_masks_tail_elements() {
        let mut csb = small();
        let data: Vec<u32> = vec![1; 16];
        csb.write_vector(2, &data);
        csb.set_active_window(0, 5);
        csb.execute(&search1(0, 2, true));
        let total = csb.execute(&MicroOp::ReduceTags { subarray: 0 }).unwrap();
        assert_eq!(total, 5);
    }

    #[test]
    fn tail_elements_unchanged_by_update() {
        let mut csb = small();
        csb.write_vector(3, &[7u32; 8]);
        csb.set_active_window(0, 4);
        // Bulk-clear bit 0 of v3 inside the window.
        csb.execute(&MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 0,
                row: 3,
                value: false,
                cols: ColSel::Window,
            }],
        });
        let out = csb.read_vector(3, 8);
        assert_eq!(&out[..4], &[6, 6, 6, 6]);
        assert_eq!(&out[4..], &[7, 7, 7, 7]); // tail untouched
    }

    #[test]
    fn idle_chains_counts_fully_masked_chains() {
        let mut csb = small();
        // vl = 2 with 4 chains: chains 2 and 3 hold no active element.
        csb.set_active_window(0, 2);
        assert_eq!(csb.idle_chains(), 2);
        csb.set_active_window(0, csb.max_vl());
        assert_eq!(csb.idle_chains(), 0);
    }

    #[test]
    fn window_rewrites_take_effect_between_broadcasts() {
        // Regression test for active-list staleness: masking chains to
        // zero *between* ops must be honored by the very next broadcast.
        let mut csb = small();
        csb.write_vector(1, &[1u32; 128]);
        csb.set_active_window(0, 128);
        csb.execute(&search1(0, 0, true));
        let before: Vec<Chain> = (0..4).map(|c| csb.chain(c)).collect();

        // Shrink the window so chains 2 and 3 are fully gated, then run
        // an op that would visibly mutate them (unconditional row set).
        csb.set_active_window(0, 2);
        csb.execute(&MicroOp::Write {
            subarray: 0,
            row: 9,
            data: u32::MAX,
            mask: u32::MAX,
        });
        for (c, want) in before.iter().enumerate().skip(2) {
            assert_eq!(&csb.chain(c), want, "gated chain {c} must not change");
        }
        assert_ne!(csb.chain_row(0, 0, 9), 0, "active chain must be written");
    }

    #[test]
    fn stats_classify_ops() {
        let mut csb = small();
        csb.execute(&search1(0, 0, true));
        csb.execute(&MicroOp::Update {
            writes: vec![WriteSpec {
                subarray: 1,
                row: 0,
                value: true,
                cols: ColSel::Tags(0),
            }],
        });
        csb.execute(&MicroOp::ReduceTags { subarray: 0 });
        let s = csb.stats();
        assert_eq!(s.searches_bs, 1);
        assert_eq!(s.updates_prop, 1);
        assert_eq!(s.reduces, 1);
        assert_eq!(s.total(), 3);
        csb.reset_stats();
        assert_eq!(csb.stats().total(), 0);
    }

    #[test]
    fn execute_program_matches_per_op_path() {
        let ops = vec![
            search1(0, 1, true),
            MicroOp::ReduceTags { subarray: 0 },
            MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: 1,
                    row: 5,
                    value: true,
                    cols: ColSel::Tags(0),
                }],
            },
            MicroOp::TagCombine {
                src: 0,
                dst: 1,
                op: TagMode::Set,
            },
            MicroOp::ReduceTags { subarray: 1 },
        ];
        let data: Vec<u32> = (0..128).map(|i| i as u32).collect();
        let mut csb = small();
        csb.write_vector(1, &data);
        csb.set_active_window(3, 77);

        let (reference, per_op_sums) = scalar_reference(&csb, &ops);
        let program = MicroProgram::new(ops);
        let program_sums = csb.execute_program(&program);

        assert_eq!(program_sums, per_op_sums);
        for (c, want) in reference.iter().enumerate() {
            assert_eq!(&csb.chain(c), want, "chain {c}");
        }
        assert_eq!(csb.stats(), program.stats());
    }

    #[test]
    fn empty_program_is_a_no_op() {
        let mut csb = small();
        assert_eq!(
            csb.execute_program(&MicroProgram::new(vec![])),
            Vec::<u64>::new()
        );
        assert_eq!(csb.stats().total(), 0);
    }

    #[test]
    fn large_partially_masked_csb_matches_functional_expectation() {
        // 1,024 chains with vl = 600: chains 600..1024 are fully masked,
        // leaving 600 active chains — above the pool threshold, so on
        // multi-core hosts this exercises the pooled partial-window path
        // (and the serial path elsewhere; results must be identical).
        let mut csb = Csb::new(CsbGeometry::new(1024));
        let data: Vec<u32> = (0..600).map(|e| e as u32).collect();
        csb.write_vector(1, &data);
        csb.set_active_window(0, 600);
        assert!(csb.idle_chains() > 0);

        let sums = csb.execute_program(&MicroProgram::new(vec![
            search1(0, 1, true),
            MicroOp::ReduceTags { subarray: 0 },
        ]));
        assert_eq!(sums, vec![300]); // odd values in 0..600

        // Per-microop path on the same machine state agrees.
        csb.execute(&search1(1, 1, true));
        let evens_with_bit1 = csb.execute(&MicroOp::ReduceTags { subarray: 1 }).unwrap();
        assert_eq!(evens_with_bit1, 300); // values in 0..600 with bit 1 set
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_VL")]
    fn window_beyond_max_vl_panics() {
        small().set_active_window(0, 129);
    }

    #[test]
    fn snapshot_roundtrip_restores_registers_metadata_and_tags() {
        let mut csb = small();
        let data: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        csb.write_vector(5, &data);
        csb.set_chain_tags(1, 3, 0xF0F0_0F0F);
        csb.set_chain_acc(2, 7, 0x1234_5678);
        csb.write_chain_row(0, 4, crate::subarray::ROW_CARRY, 0xAAAA_5555, u32::MAX);

        let snap = csb.save_registers();

        // Trash everything, then restore.
        csb.write_vector(5, &vec![0xDEAD_BEEF; 128]);
        csb.set_chain_tags(1, 3, 0);
        csb.set_chain_acc(2, 7, 0);
        csb.write_chain_row(0, 4, crate::subarray::ROW_CARRY, 0, u32::MAX);
        csb.restore_registers(&snap);

        assert_eq!(csb.read_vector(5, 128), data);
        assert_eq!(csb.chain_tags(1, 3), 0xF0F0_0F0F);
        assert_eq!(csb.chain_acc(2, 7), 0x1234_5678);
        assert_eq!(csb.chain_row(0, 4, crate::subarray::ROW_CARRY), 0xAAAA_5555);
    }

    #[test]
    fn zeroed_snapshot_wipes_back_to_fresh_state() {
        let mut csb = small();
        csb.write_vector(9, &[7; 128]);
        csb.set_chain_tags(0, 0, u32::MAX);
        let dirty = csb.save_registers();
        let zeroed = CsbSnapshot::zeroed(csb.geometry());
        assert_ne!(dirty, zeroed);
        csb.restore_registers(&zeroed);
        let fresh = small();
        for c in 0..4 {
            assert_eq!(csb.chain(c), fresh.chain(c), "chain {c}");
        }
        // Equality is by content: the unmaterialized zero image equals a
        // save of a fresh CSB, whatever its shard split or padding.
        for chains in [4, 20, 1024] {
            let g = CsbGeometry::new(chains);
            assert_eq!(CsbSnapshot::zeroed(g), Csb::new(g).save_registers());
            assert_eq!(Csb::new(g).save_registers(), CsbSnapshot::zeroed(g));
        }
        assert_eq!(csb.save_registers(), zeroed);
        assert_ne!(CsbSnapshot::zeroed(CsbGeometry::new(8)), zeroed);
    }

    #[test]
    fn padding_lanes_read_zero_after_save_restore_and_wipe() {
        // 20 chains: the last block holds 4 chains and 12 padding lanes.
        let mut csb = Csb::new(CsbGeometry::new(20));
        let data: Vec<u32> = (0..640u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for reg in 0..crate::subarray::DATA_ROWS {
            csb.write_vector(reg, &data);
        }
        for c in 0..20 {
            csb.set_chain_tags(c, 3, 0xF00D_F00D);
            csb.set_chain_acc(c, 5, 0xBEEF_BEEF);
        }
        // Dirty the padding lanes behind the CSB's back, as a dead-block
        // scramble does. Only live rows may be dirtied: the writes above
        // made every vector register live, row 0 included.
        let shard = csb.shards.last_mut().unwrap();
        let pad = shard.len()..shard.len().next_multiple_of(BLOCK_LANES);
        for j in pad.clone() {
            shard.write_row(j, 0, 0, u32::MAX, u32::MAX);
            shard.set_tags(j, 1, u32::MAX);
            shard.set_acc(j, 2, u32::MAX);
        }
        let pad_is_zero = |csb: &Csb| {
            let shard = csb.shards.last().unwrap();
            pad.clone().all(|j| shard.chain(j) == Chain::new())
        };
        let before: Vec<Chain> = (0..20).map(|c| csb.chain(c)).collect();

        let snap = csb.save_registers();
        let image = snap.image.as_deref().unwrap();
        let words = image_words(snap.rows);
        assert_eq!(image.len(), 2 * words);
        let real = 20 % BLOCK_LANES;
        assert!(
            image[words..]
                .chunks_exact(BLOCK_LANES)
                .all(|line| line[real..].iter().all(|&w| w == 0)),
            "saved padding lanes must be zero"
        );

        csb.restore_registers(&snap);
        assert!(pad_is_zero(&csb), "restore must leave padding zero");
        for (c, want) in before.iter().enumerate() {
            assert_eq!(&csb.chain(c), want, "chain {c}");
        }
        assert_eq!(csb.save_registers(), snap);

        csb.restore_registers(&CsbSnapshot::zeroed(csb.geometry()));
        assert!(pad_is_zero(&csb), "wipe must leave padding zero");
        let fresh = Csb::new(csb.geometry());
        for c in 0..20 {
            assert_eq!(csb.chain(c), fresh.chain(c), "chain {c}");
        }
    }

    #[test]
    fn pooled_snapshot_matches_serial_snapshot() {
        // 1,024 chains: one shard per worker thread on multi-core hosts,
        // so the image spans every shard.
        let mut csb = Csb::new(CsbGeometry::new(1024));
        let data: Vec<u32> = (0..4096).map(|e| e as u32 ^ 0x5A5A).collect();
        csb.write_vector(2, &data);
        csb.set_chain_tags(777, 11, 0xCAFE_F00D);

        let snap = csb.save_registers();
        csb.write_vector(2, &vec![0; 4096]);
        csb.set_chain_tags(777, 11, 0);
        csb.restore_registers(&snap);

        assert_eq!(csb.read_vector(2, 4096), data);
        assert_eq!(csb.chain_tags(777, 11), 0xCAFE_F00D);
        // A second capture of the restored state is identical.
        assert_eq!(csb.save_registers(), snap);
    }

    #[test]
    #[should_panic(expected = "geometry does not match")]
    fn restore_rejects_mismatched_geometry() {
        let snap = CsbSnapshot::zeroed(CsbGeometry::new(8));
        small().restore_registers(&snap);
    }

    // ---- fault injection, detection and recovery ----------------------

    fn armed(chains: usize, spares: usize) -> Csb {
        let mut csb = Csb::new(CsbGeometry::new(chains));
        csb.enable_fault_injection(FaultConfig::quiescent(spares));
        csb
    }

    #[test]
    fn parity_scan_catches_transient_flip_before_next_broadcast() {
        let mut csb = armed(4, 1);
        csb.write_vector(1, &[3u32; 128]);
        assert_eq!(csb.pending_faults(), 0);
        csb.inject_fault(
            0,
            FaultKind::Transient {
                lane: 0,
                subarray: 2,
                row: 1,
                mask: 0x10,
                late: false,
            },
        );
        // The pre-broadcast scan of the next program latches the block.
        csb.execute(&search1(0, 1, true));
        assert_eq!(csb.pending_faults(), 1);
        let stats = csb.fault_stats();
        assert_eq!(stats.detected_parity, 1);
        assert!(stats.fully_accounted(), "{stats:?}");
    }

    #[test]
    fn scrub_detects_stuck_at_without_a_broadcast() {
        let mut csb = armed(4, 1);
        csb.write_vector(2, &[0u32; 128]); // rows all zero → stuck-at-1 flips
        csb.inject_fault(
            1,
            FaultKind::StuckAt {
                lane: 1,
                subarray: 5,
                row: 2,
                mask: 0xFF,
                value: true,
            },
        );
        let report = csb.scrub().unwrap();
        assert_eq!(report.newly_flagged, 1);
        assert_eq!(report.pending, 1);
        assert_eq!(csb.fault_stats().scrubs, 1);
    }

    #[test]
    fn save_inject_detect_remap_restore_is_bit_identical() {
        let mut csb = armed(4, 2);
        let data: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        csb.write_vector(5, &data);
        csb.set_active_window(0, 128);
        let snap = csb.save_registers();
        let clean = csb.read_vector(5, 128);

        // Kill the whole block under chain 0, detect via scrub, remap
        // onto a spare, then restore the checkpoint.
        csb.inject_fault(0, FaultKind::DeadBlock);
        let report = csb.scrub().unwrap();
        assert_eq!(report.pending, 1);
        let outcome = csb.quarantine_and_remap();
        assert!(outcome.fully_recovered());
        assert_eq!(csb.quarantined_blocks(), 1);
        csb.restore_registers(&snap);

        assert_eq!(csb.read_vector(5, 128), clean);
        assert_eq!(csb.pending_faults(), 0);
        // One spare took over block 0, and the dead silicon it retired no
        // longer scrambles: the next scrub finds nothing.
        assert_eq!(csb.spare_blocks_free(), 1);
        let report = csb.scrub().unwrap();
        assert_eq!((report.newly_flagged, report.pending), (0, 0));
        assert_eq!(csb.save_registers(), snap);
        assert!(csb.parity_consistent());
        // And the machine still computes correctly on the spare.
        csb.execute(&search1(0, 0, true));
        let stats = csb.fault_stats();
        assert_eq!(stats.blocks_remapped, 1);
        assert!(stats.fully_accounted());
    }

    #[test]
    fn strike_survives_restores_of_saved_and_zeroed_snapshots() {
        let strike = FaultKind::Transient {
            lane: 2,
            subarray: 6,
            row: 3,
            mask: 0x0100,
            late: false,
        };
        let struck = StruckRow {
            block: 0,
            subarray: 6,
            row: 3,
        };
        let saved = {
            let mut csb = armed(4, 1);
            csb.write_vector(3, &(0..128).collect::<Vec<u32>>());
            csb.save_registers()
        };
        for snap in [saved, CsbSnapshot::zeroed(CsbGeometry::new(4))] {
            let mut csb = armed(4, 1);
            csb.write_vector(3, &[0x5A5A_5A5A; 128]);
            csb.inject_fault(2, strike);
            // The restore overwrites the struck row through the parity
            // fold, so the row keeps its mismatch and detection after the
            // restore still localizes it.
            csb.restore_registers(&snap);
            assert!(!csb.parity_consistent(), "restore absorbed the strike");
            let report = csb.scrub().unwrap();
            assert_eq!(report.pending, 1);
            assert_eq!(csb.struck_rows(), vec![struck]);
            csb.restore_registers(&snap);
            let _ = csb.scrub().unwrap();
            assert_eq!(csb.pending_faults(), 1);
            assert_eq!(csb.struck_rows(), vec![struck]);
        }
    }

    #[test]
    fn armed_switch_copies_the_clean_rows_plus_the_struck_ones() {
        let data: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let (mut clean, mut armed) = (small(), armed(4, 1));
        for csb in [&mut clean, &mut armed] {
            csb.write_vector(3, &data);
            csb.execute(&search1(0, 3, true));
            csb.execute(&MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: 1,
                    row: 3,
                    value: false,
                    cols: ColSel::Tags(0),
                }],
            });
        }
        // Arming adds no live row: the image is the unarmed twin's.
        let (a, c) = (armed.save_registers(), clean.save_registers());
        assert_eq!(a.rows, 1 << 3);
        assert_eq!((a.rows, &a.image), (c.rows, &c.image));
        // A strike on row 20, which the tenant never wrote, joins the
        // mask, so the next save copies it.
        armed.inject_fault(
            1,
            FaultKind::Transient {
                lane: 1,
                subarray: 9,
                row: 20,
                mask: 0x0004_0000,
                late: false,
            },
        );
        assert_eq!(armed.save_registers().rows, 1 << 3 | 1 << 20);
        // A wipe zeroes the struck row through the parity fold: its
        // mismatch survives, and scrub localizes it to that row.
        armed.restore_registers(&CsbSnapshot::zeroed(armed.geometry()));
        assert_eq!(armed.save_registers().rows, 0);
        assert_eq!(armed.scrub().unwrap().pending, 1);
        assert_eq!(
            armed.struck_rows(),
            vec![StruckRow {
                block: 0,
                subarray: 9,
                row: 20,
            }]
        );
    }

    #[test]
    fn out_of_spares_keeps_block_flagged_forever() {
        let mut csb = armed(4, 0);
        csb.inject_fault(
            0,
            FaultKind::Transient {
                lane: 3,
                subarray: 0,
                row: 0,
                mask: 1,
                late: false,
            },
        );
        let _ = csb.scrub().unwrap();
        let outcome = csb.quarantine_and_remap();
        assert_eq!(outcome.failed, 1);
        assert!(!outcome.fully_recovered());
        // The corruption is never silently re-absorbed: the block stays
        // pending across scrubs and broadcasts.
        csb.execute(&search1(0, 0, true));
        assert_eq!(csb.pending_faults(), 1);
    }

    #[test]
    fn late_strike_is_caught_by_the_next_parity_scan() {
        let mut csb = armed(4, 1);
        csb.write_vector(1, &[1u32; 128]);
        // A late transient lands after its broadcast ran, so that
        // broadcast's pre-run scan cannot see it; its dirty event waits
        // for the next scan.
        csb.inject_fault(
            2,
            FaultKind::Transient {
                lane: 2,
                subarray: 1,
                row: 1,
                mask: 0xF0F0,
                late: true,
            },
        );
        csb.execute(&search1(0, 1, true));
        assert_eq!(csb.pending_faults(), 0);
        let stats = csb.fault_stats();
        assert_eq!(stats.injected_transient, 1, "the strike landed");
        assert!(!stats.fully_accounted(), "{stats:?}");

        let report = csb.scrub().unwrap();
        assert_eq!(report.newly_flagged, 1);
        assert_eq!(
            csb.struck_rows(),
            vec![StruckRow {
                block: 0,
                subarray: 1,
                row: 1,
            }]
        );
        let stats = csb.fault_stats();
        assert_eq!((stats.detected_parity, stats.detected_scrub), (1, 0));
        assert!(stats.fully_accounted(), "{stats:?}");
    }

    #[test]
    fn march_scrub_finds_a_latent_stuck_at_parity_cannot_see() {
        let mut csb = armed(4, 1);
        csb.write_vector(1, &(0..128).collect::<Vec<u32>>());
        // Stuck-at-0 cells in a row nothing ever writes: the forced value
        // is what the cells already hold, so no parity event ever fires.
        csb.inject_fault(
            1,
            FaultKind::StuckAt {
                lane: 1,
                subarray: 4,
                row: 20,
                mask: 0xFFFF,
                value: false,
            },
        );
        for _ in 0..4 {
            csb.execute(&search1(0, 1, true));
            csb.execute(&MicroOp::ReduceTags { subarray: 0 });
            assert_eq!(csb.pending_faults(), 0, "parity saw a latent defect");
        }
        assert!(csb.parity_consistent());

        let report = csb.scrub().unwrap();
        assert_eq!(report.newly_flagged, 1);
        let stats = csb.fault_stats();
        assert_eq!((stats.detected_parity, stats.detected_scrub), (0, 1));
        assert!(stats.fully_accounted(), "{stats:?}");
        assert_eq!(
            csb.struck_rows(),
            vec![StruckRow {
                block: 0,
                subarray: 4,
                row: 20,
            }]
        );
    }

    #[test]
    fn remap_preserves_power_gating_and_padding_invariants() {
        // 20 chains: two blocks, the second partially padded (one shard
        // or two, depending on the host's thread count).
        let mut csb = armed(20, 2);
        csb.set_active_window(0, 20 * 32);
        let gated_before = csb.window(19);
        csb.inject_fault(17, FaultKind::DeadBlock);
        let _ = csb.scrub().unwrap();
        let outcome = csb.quarantine_and_remap();
        assert!(outcome.fully_recovered());
        // Window masks survive the remap bit-for-bit (including padding
        // lanes staying gated), and broadcasts still work.
        assert_eq!(csb.window(19), gated_before);
        let snap = CsbSnapshot::zeroed(csb.geometry());
        csb.restore_registers(&snap);
        csb.write_vector(1, &(0..640).map(|i| i as u32).collect::<Vec<_>>());
        csb.execute(&search1(0, 1, true));
        let total = csb.execute(&MicroOp::ReduceTags { subarray: 0 }).unwrap();
        assert_eq!(total, 320); // odd values in 0..640
    }

    #[test]
    fn spare_budget_is_per_csb_whatever_the_host_parallelism() {
        // The CSB cuts one shard per host thread; the spare budget must
        // not follow the cut.
        for chains in [4, 20, 1024, 4096] {
            assert_eq!(armed(chains, 2).spare_blocks_free(), 2, "{chains} chains");
        }
        // Dead blocks under chains 0, 1000 and 500 (blocks 0, 62 and
        // 31, in different shards on a multi-core host): two spares heal
        // the first two flagged, the third stays pending until a field
        // service brings one more.
        let mut csb = armed(1024, 2);
        for chain in [0, 1000, 500] {
            csb.inject_fault(chain, FaultKind::DeadBlock);
        }
        assert_eq!(csb.scrub().unwrap().pending, 3);
        let outcome = csb.quarantine_and_remap();
        assert_eq!((outcome.remapped, outcome.failed), (2, 1));
        assert_eq!(csb.pending_faults(), 1);
        assert_eq!(csb.spare_blocks_free(), 0);
        assert_eq!(csb.quarantined_blocks(), 2);
        assert!(csb.service_spares(1).fully_recovered());
        assert_eq!((csb.pending_faults(), csb.spare_blocks_free()), (0, 0));
        let stats = csb.fault_stats();
        assert_eq!(stats.blocks_remapped, 3);
        assert!(stats.fully_accounted(), "{stats:?}");
    }

    #[test]
    fn remap_retires_the_late_strike_and_dirty_entry_of_the_old_silicon() {
        let mut csb = armed(32, 2);
        let strike = |row, late| FaultKind::Transient {
            lane: 0,
            subarray: 0,
            row,
            mask: 1,
            late,
        };
        // The pre-broadcast scan flags block 0; a late strike then lands
        // on it and queues it dirty again.
        csb.inject_fault(0, strike(1, false));
        csb.inject_fault(0, strike(2, true));
        csb.execute(&search1(0, 0, true));
        assert_eq!(csb.pending_faults(), 1);
        // A late strike aimed at block 0 before the remap never lands.
        csb.inject_fault(0, strike(3, true));
        assert!(csb.quarantine_and_remap().fully_recovered());
        // After the remap, detection follows strike order: block 1 first.
        csb.inject_fault(16, strike(4, false));
        csb.inject_fault(0, strike(5, false));
        csb.execute(&search1(0, 0, true));
        let blocks: Vec<u32> = csb.struck_rows().iter().map(|s| s.block).collect();
        assert_eq!(blocks, [0, 1, 0]);
        let stats = csb.fault_stats();
        assert_eq!(stats.injected_transient, 4, "a retired late strike landed");
        assert!(stats.fully_accounted(), "{stats:?}");
    }

    #[test]
    fn transient_on_a_pending_block_is_attributed_when_it_lands() {
        let mut csb = armed(4, 0);
        let strike = |row| FaultKind::Transient {
            lane: 0,
            subarray: 0,
            row,
            mask: 1,
            late: false,
        };
        csb.inject_fault(0, strike(1));
        assert_eq!(csb.scrub().unwrap().newly_flagged, 1);
        // No spare: block 0 stays pending, so scans skip it and the
        // march leg skips transients.
        assert_eq!(csb.quarantine_and_remap().failed, 1);
        csb.inject_fault(0, strike(2));
        csb.scrub();
        csb.scrub();
        let stats = csb.fault_stats();
        assert_eq!(stats.injected_transient, 2);
        assert_eq!(stats.detected_parity, 1, "one block flagged once");
        assert!(stats.fully_accounted(), "{stats:?}");
    }

    #[test]
    fn disabled_fault_layer_reports_zeroes() {
        let mut csb = small();
        assert!(!csb.fault_injection_enabled());
        assert_eq!(csb.fault_stats(), FaultStats::default());
        assert_eq!(csb.pending_faults(), 0);
        assert!(csb.scrub().is_none());
        let outcome = csb.quarantine_and_remap();
        assert_eq!(outcome, RemapOutcome::default());
    }
}
