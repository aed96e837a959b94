//! Persistent broadcast worker pool and block-SoA chain shards.
//!
//! The CSB's chains are partitioned once, at construction, into
//! [`Shard`]s — contiguous runs of chains that are *owned* (not borrowed)
//! by whoever is executing on them. Program broadcast moves each shard to
//! a long-lived worker thread through a channel, the worker runs the whole
//! microop program on its chains, and the shard (with its partial
//! reduction sums) moves back. Ownership transfer is what lets the pool
//! outlive any single call without scoped threads or `unsafe`: sending a
//! `Shard` is a pointer-width move, and the `Csb` gets its chains back at
//! the join.
//!
//! Within a shard, chains are packed [`BLOCK_LANES`] at a time into
//! [`ChainBlock`]s (structure-of-arrays, see the `block` module), so the
//! broadcast hot loop runs each lowered microop over a whole block of
//! chains with auto-vectorizable contiguous-slice kernels.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::block::{ChainBlock, Lanes, BLOCK_LANES};
use crate::chain::Chain;
use crate::geometry::SUBARRAY_COLS;
use crate::program::Plan;

/// The narrow lane span: a block whose non-gated lanes all lie below it
/// (a CAPE-tiny block of 4 chains, or a window that ends in the first
/// four lanes) runs kernels that sweep only these lanes. Every other
/// active block sweeps all [`BLOCK_LANES`].
const NARROW_SPAN: usize = 4;

/// A contiguous run of chains (packed into [`ChainBlock`]s) plus their
/// window masks, the block-level active list, the parity flag and a
/// reusable partial-sum scratch buffer — only what a broadcast needs.
/// Fault bookkeeping (spares, pending blocks, the dirty set) lives in
/// the fault layer, which numbers blocks across the whole CSB.
///
/// `windows[b][l]` is the active-column mask of lane `l` of block `b`;
/// padding lanes of a trailing partial block keep a permanent 0 mask.
/// `active_blocks` holds, for each block with at least one non-gated
/// lane, its index and its lane span ([`NARROW_SPAN`] or
/// [`BLOCK_LANES`]). Fully-masked blocks are power-gated and skipped
/// (Section V-F), and kernels blend per lane so gated lanes inside a live
/// block are never mutated either. The list, spans included, is built
/// lazily and nowhere else — [`Shard::new`] and any window rewrite mark
/// it dirty and [`Shard::run`] rebuilds it before broadcasting — so
/// neither a block nor its span can go stale when masks change between
/// programs.
///
/// `sums` accumulates one window-masked popcount partial sum per
/// reduction in the plan, in program order, and is
/// cleared and refilled in place on every run — no per-microop
/// allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    blocks: Vec<ChainBlock>,
    windows: Vec<Lanes>,
    active_blocks: Vec<(u32, usize)>,
    active_dirty: bool,
    nchains: usize,
    /// True once the fault layer armed this shard: each block folds the
    /// rows a broadcast may write into their parity around the plan, so
    /// a worker thread maintains the parity of the shard it owns with no
    /// shared state.
    parity_on: bool,
    pub sums: Vec<u64>,
}

impl Shard {
    /// A zero-initialized shard of `len` chains with fully-open windows.
    /// The trailing block's padding lanes (when `len` is not a multiple of
    /// [`BLOCK_LANES`]) get a permanent zero window. The active list and
    /// its spans are left for the first broadcast to build.
    pub fn new(len: usize) -> Self {
        let nblocks = len.div_ceil(BLOCK_LANES);
        let mut windows = vec![[0u32; BLOCK_LANES]; nblocks];
        for local in 0..len {
            windows[local / BLOCK_LANES][local % BLOCK_LANES] = u32::MAX;
        }
        Self {
            blocks: vec![ChainBlock::new(); nblocks],
            windows,
            active_blocks: Vec::with_capacity(nblocks),
            active_dirty: true,
            nchains: len,
            parity_on: false,
            sums: Vec::new(),
        }
    }

    /// Splits a local chain index into its (block, lane) coordinates.
    #[inline]
    fn loc(&self, local: usize) -> (usize, usize) {
        (local / BLOCK_LANES, local % BLOCK_LANES)
    }

    /// Number of chains in this shard (excluding block padding lanes).
    pub fn len(&self) -> usize {
        self.nchains
    }

    /// The window mask of local chain `local`.
    pub fn window(&self, local: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.windows[b][l]
    }

    /// Rewrites the window mask of local chain `local`, marking the
    /// block-level active list for a rebuild before the next broadcast.
    pub fn set_window(&mut self, local: usize, mask: u32) {
        debug_assert!(local < self.nchains, "chain {local} out of shard");
        let (b, l) = self.loc(local);
        if self.windows[b][l] != mask {
            self.windows[b][l] = mask;
            self.active_dirty = true;
        }
    }

    /// Rebuilds `active_blocks`, with each block's span, from the current
    /// window masks if any mask changed since the last rebuild.
    fn refresh_active(&mut self) {
        if !self.active_dirty {
            return;
        }
        self.active_blocks.clear();
        for (b, win) in self.windows.iter().enumerate() {
            if let Some(last) = win.iter().rposition(|&w| w != 0) {
                let span = if last < NARROW_SPAN {
                    NARROW_SPAN
                } else {
                    BLOCK_LANES
                };
                self.active_blocks.push((b as u32, span));
            }
        }
        self.active_dirty = false;
    }

    /// The (block, span) pairs the next broadcast will visit
    /// (test/bring-up observability for the lazy active-list rebuild).
    #[cfg(test)]
    pub fn active_spans(&mut self) -> Vec<(u32, usize)> {
        self.refresh_active();
        self.active_blocks.clone()
    }

    /// Runs a whole lowered plan over this shard's active blocks,
    /// leaving one partial sum per `ReduceTags` op in `self.sums`.
    ///
    /// Every microop except `ReduceTags` is chain-local, so the only
    /// cross-chain synchronization a program needs is the harvest of
    /// `sums` after this returns — one join per program, not per microop.
    ///
    /// Iteration is block-outer, op-inner: each block runs the *whole*
    /// program while its state is cache-resident, and each op runs as one
    /// vectorized sweep over the lanes below the block's span. Reduction
    /// order across chains changes, but the partial sums are plain
    /// additions, so the totals are identical.
    ///
    /// The block kernels are inlined into this loop, once per span
    /// ([`ChainBlock::run_plan`]), so a plan op costs its lane sweeps and
    /// one dispatch, and only a reduction yields a sum. Armed and clean
    /// shards run the same kernels; an armed one also folds the written
    /// rows into their parity before and after each block's plan.
    pub fn run(&mut self, plan: &Plan) {
        self.refresh_active();
        let Shard {
            blocks,
            windows,
            active_blocks,
            parity_on,
            sums,
            ..
        } = self;
        sums.clear();
        sums.resize(plan.reduces, 0);
        for &(b, span) in active_blocks.iter() {
            let (block, win) = (&mut blocks[b as usize], &windows[b as usize]);
            if span == NARROW_SPAN {
                block.run_plan::<NARROW_SPAN>(plan, win, *parity_on, sums);
            } else {
                block.run_plan::<BLOCK_LANES>(plan, win, *parity_on, sums);
            }
        }
    }

    // ---- per-chain access, delegating into the owning block's lane ----

    /// Materializes local chain `local` as a scalar [`Chain`]
    /// (reference-model view; test/bring-up hook, not a hot path).
    pub fn chain(&self, local: usize) -> Chain {
        let (b, l) = self.loc(local);
        self.blocks[b].to_chain(l)
    }

    /// Tag bits of subarray `s` of local chain `local`.
    pub fn tags(&self, local: usize, s: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.blocks[b].tags(l, s)
    }

    /// Overwrites the tag bits of subarray `s` of local chain `local`.
    pub fn set_tags(&mut self, local: usize, s: usize, v: u32) {
        let (b, l) = self.loc(local);
        self.blocks[b].set_tags(l, s, v);
    }

    /// Accumulator bits of subarray `s` of local chain `local`.
    pub fn acc(&self, local: usize, s: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.blocks[b].acc(l, s)
    }

    /// Overwrites the accumulator bits of subarray `s` of local chain
    /// `local`.
    pub fn set_acc(&mut self, local: usize, s: usize, v: u32) {
        let (b, l) = self.loc(local);
        self.blocks[b].set_acc(l, s, v);
    }

    /// Row `r` of subarray `s` of local chain `local`.
    pub fn row(&self, local: usize, s: usize, r: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.blocks[b].row(l, s, r)
    }

    /// Masked write into row `r` of subarray `s` of local chain `local`.
    pub fn write_row(&mut self, local: usize, s: usize, r: usize, data: u32, mask: u32) {
        let (b, l) = self.loc(local);
        self.blocks[b].write_row(l, s, r, data, mask);
    }

    /// Deposits one element into register `reg`, column `col` of local
    /// chain `local`.
    pub fn write_element(&mut self, local: usize, reg: usize, col: usize, value: u32) {
        let (b, l) = self.loc(local);
        self.blocks[b].write_element(l, reg, col, value);
    }

    /// Reads one element of register `reg`, column `col` of local chain
    /// `local`.
    pub fn read_element(&self, local: usize, reg: usize, col: usize) -> u32 {
        let (b, l) = self.loc(local);
        self.blocks[b].read_element(l, reg, col)
    }

    /// Bulk-reads register `reg` of local chain `local` across all 32
    /// columns (one 32×32 transpose).
    pub fn read_column_block(&self, local: usize, reg: usize) -> [u32; SUBARRAY_COLS] {
        let (b, l) = self.loc(local);
        self.blocks[b].read_column_block(l, reg)
    }

    /// Bulk-writes register `reg` of local chain `local` at the columns
    /// selected by `col_mask` (one 32×32 transpose).
    pub fn write_column_block(
        &mut self,
        local: usize,
        reg: usize,
        values: &[u32; SUBARRAY_COLS],
        col_mask: u32,
    ) {
        let (b, l) = self.loc(local);
        self.blocks[b].write_column_block(l, reg, values, col_mask);
    }

    /// Appends the image of every block, holding the rows in `rows`, to
    /// `out` in block order. Padding lanes of a trailing partial block
    /// are stored as zero.
    pub fn save_image(&self, out: &mut Vec<u32>, rows: u64) {
        for (b, block) in self.blocks.iter().enumerate() {
            let lanes = (self.nchains - b * BLOCK_LANES).min(BLOCK_LANES);
            block.save_image(out, lanes, rows);
        }
    }

    /// Loads every block, in block order, from the next image `images`
    /// yields — the inverse of [`Shard::save_image`] for images holding
    /// the rows in `held`, rewriting the rows in `rewrite` (see
    /// [`ChainBlock::load_image`]).
    ///
    /// # Panics
    ///
    /// Panics if `images` runs out before every block is loaded.
    pub fn load_image<'a>(
        &mut self,
        images: &mut impl Iterator<Item = &'a [u32]>,
        held: u64,
        rewrite: u64,
    ) {
        for block in &mut self.blocks {
            let image = images.next().expect("snapshot holds one image per block");
            block.load_image(image, held, rewrite);
        }
    }

    /// The rows holding a nonzero bit in some block (debug checks only).
    pub fn nonzero_rows(&self) -> u64 {
        self.blocks
            .iter()
            .fold(0, |rows, b| rows | b.nonzero_rows())
    }

    // ---- fault layer hooks ----------------------------------------------

    /// The shard's blocks, for the fault layer's injectors and detectors.
    pub fn blocks_mut(&mut self) -> &mut [ChainBlock] {
        &mut self.blocks
    }

    /// Arms incremental parity on this shard: every block's per-row
    /// parity words are rebuilt from current data (the one full pass,
    /// paid at arming time only), and from here on every broadcast folds
    /// the rows it may write into their parity.
    pub fn enable_parity(&mut self) {
        for b in self.blocks.iter_mut() {
            b.rebuild_parity();
        }
        self.parity_on = true;
    }

    /// Test hook: every block's parity is consistent with its data.
    pub fn parity_consistent(&self) -> bool {
        self.blocks.iter().all(ChainBlock::parity_consistent)
    }
}

/// One unit of work: a shard to own and the lowered plan to broadcast
/// over it.
struct Job {
    shard: Shard,
    plan: Arc<Plan>,
}

struct Worker {
    /// `None` once the pool starts shutting down.
    tx: Option<Sender<Job>>,
    rx: Receiver<Shard>,
    handle: Option<JoinHandle<()>>,
}

/// Long-lived worker threads for the broadcast fan-out.
///
/// Workers are spawned lazily on first use and live until the pool (and
/// with it the owning [`Csb`](crate::Csb)) is dropped, so the per-call
/// cost of a broadcast is two channel transfers per shard instead of a
/// thread spawn + join per microop.
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// An empty pool; threads spawn on the first [`WorkerPool::run`].
    pub fn new() -> Self {
        Self {
            workers: Vec::new(),
        }
    }

    /// Number of worker threads spawned so far.
    pub fn spawned(&self) -> usize {
        self.workers.len()
    }

    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let (job_tx, job_rx) = channel::<Job>();
            let (res_tx, res_rx) = channel::<Shard>();
            let handle = std::thread::Builder::new()
                .name(format!("csb-broadcast-{}", self.workers.len()))
                .spawn(move || {
                    while let Ok(mut job) = job_rx.recv() {
                        job.shard.run(&job.plan);
                        if res_tx.send(job.shard).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn CSB broadcast worker");
            self.workers.push(Worker {
                tx: Some(job_tx),
                rx: res_rx,
                handle: Some(handle),
            });
        }
    }

    /// Fans the program out once over all shards and joins. Each shard is
    /// moved to its worker, run through every microop locally, and moved
    /// back with its partial sums filled in.
    pub fn run(&mut self, shards: &mut [Shard], plan: &Arc<Plan>) {
        self.ensure(shards.len());
        for (slot, worker) in shards.iter_mut().zip(&self.workers) {
            let job = Job {
                shard: std::mem::take(slot),
                plan: Arc::clone(plan),
            };
            worker
                .tx
                .as_ref()
                .expect("worker pool is shut down")
                .send(job)
                .expect("CSB broadcast worker exited");
        }
        for (slot, worker) in shards.iter_mut().zip(&self.workers) {
            *slot = worker.rx.recv().expect("CSB broadcast worker panicked");
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("spawned", &self.spawned())
            .finish()
    }
}

/// Cloning a CSB must not share worker threads; the clone gets a fresh
/// pool that lazily spawns its own.
impl Clone for WorkerPool {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping every sender ends each worker's recv loop...
        for w in &mut self.workers {
            w.tx.take();
        }
        // ...then the threads can be joined.
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{image_words, ALL_ROWS};
    use crate::microop::{MicroOp, Probe, TagDest, TagMode};
    use crate::program::Plan;

    fn sample_shard(len: usize) -> Shard {
        let mut s = Shard::new(len);
        for c in 0..len {
            for col in 0..Chain::LANES {
                s.write_element(c, 1, col, (c * 37 + col) as u32);
            }
        }
        s
    }

    fn sample_ops() -> Vec<MicroOp> {
        vec![
            MicroOp::Search {
                probes: vec![Probe::row(0, 1, true)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Set,
            },
            MicroOp::ReduceTags { subarray: 0 },
            MicroOp::TagCombine {
                src: 0,
                dst: 1,
                op: TagMode::Set,
            },
            MicroOp::ReduceTags { subarray: 1 },
        ]
    }

    fn sample_plan() -> Plan {
        Plan::lower(&sample_ops())
    }

    /// Runs the original microops over materialized scalar chains — the
    /// reference the block-backed shard must match bit for bit.
    fn reference_run(shard: &Shard, ops: &[MicroOp]) -> (Vec<Chain>, Vec<u64>) {
        let mut chains: Vec<Chain> = (0..shard.len()).map(|c| shard.chain(c)).collect();
        let windows: Vec<u32> = (0..shard.len()).map(|c| shard.window(c)).collect();
        let sums = crate::scalar_sweep(&mut chains, &windows, ops);
        (chains, sums)
    }

    #[test]
    fn shard_run_matches_direct_chain_execution() {
        // 19 chains: one full block plus a padded partial block.
        let mut shard = sample_shard(19);
        let (want_chains, want_sums) = reference_run(&shard, &sample_ops());

        shard.run(&sample_plan());

        assert_eq!(shard.sums, want_sums);
        for (c, want) in want_chains.iter().enumerate() {
            assert_eq!(&shard.chain(c), want, "chain {c}");
        }
    }

    #[test]
    fn shard_run_skips_inactive_chains() {
        let mut shard = sample_shard(4);
        shard.set_window(2, 0);
        let before = shard.chain(2);
        shard.run(&sample_plan());
        assert_eq!(shard.chain(2), before, "power-gated chain must not change");
    }

    #[test]
    fn window_rewrites_refresh_the_active_list_between_runs() {
        // Two full blocks; regression test for stale active lists and
        // spans: masking chains to zero *after* setup must be honored by
        // the next broadcast, re-opening them must bring their block back,
        // and widening a narrowed block's window must widen its span.
        let mut shard = sample_shard(2 * BLOCK_LANES);
        assert_eq!(shard.active_spans(), [(0, BLOCK_LANES), (1, BLOCK_LANES)]);

        // Gate every chain of block 1.
        for c in BLOCK_LANES..2 * BLOCK_LANES {
            shard.set_window(c, 0);
        }
        let before: Vec<Chain> = (BLOCK_LANES..2 * BLOCK_LANES)
            .map(|c| shard.chain(c))
            .collect();
        shard.run(&sample_plan());
        assert_eq!(
            shard.active_spans(),
            [(0, BLOCK_LANES)],
            "gated block must drop out"
        );
        for (i, want) in before.iter().enumerate() {
            let c = BLOCK_LANES + i;
            assert_eq!(&shard.chain(c), want, "gated chain {c} must not change");
        }

        // Re-open one chain of block 1: the block rejoins the broadcast,
        // narrowed to lane 0, so it runs at span 4.
        shard.set_window(BLOCK_LANES, u32::MAX);
        assert_eq!(shard.active_spans(), [(0, BLOCK_LANES), (1, NARROW_SPAN)]);
        let (want_chains, _) = reference_run(&shard, &sample_ops());
        shard.run(&sample_plan());
        assert_eq!(shard.chain(BLOCK_LANES), want_chains[BLOCK_LANES]);

        // Open lane 10 of block 1: the next run must sweep it, so a span
        // kept from the narrow window would leave it unexecuted.
        let lane10 = BLOCK_LANES + 10;
        shard.set_window(lane10, u32::MAX);
        let (want_chains, want_sums) = reference_run(&shard, &sample_ops());
        shard.run(&sample_plan());
        assert_eq!(shard.chain(lane10), want_chains[lane10], "chain {lane10}");
        assert_eq!(shard.sums, want_sums);
        assert_eq!(shard.active_spans(), [(0, BLOCK_LANES), (1, BLOCK_LANES)]);
    }

    #[test]
    fn save_image_round_trips_through_blocks() {
        // `sample_shard` writes register 1 only: the full image and the
        // image of that one row both round-trip.
        let shard = sample_shard(BLOCK_LANES + 3);
        assert_eq!(shard.nonzero_rows(), 1 << 1);
        for rows in [ALL_ROWS, 1 << 1] {
            let mut image = Vec::new();
            shard.save_image(&mut image, rows);
            assert_eq!(image.len(), 2 * image_words(rows));
            let mut fresh = Shard::new(shard.len());
            fresh.load_image(&mut image.chunks_exact(image_words(rows)), rows, rows);
            for c in 0..shard.len() {
                assert_eq!(fresh.chain(c), shard.chain(c), "chain {c}");
            }
            let mut again = Vec::new();
            fresh.save_image(&mut again, rows);
            assert_eq!(again, image);
        }
    }

    #[test]
    fn pool_run_equals_serial_run_and_reuses_workers() {
        let plan = Arc::new(sample_plan());
        let mut pooled: Vec<Shard> = (0..4).map(|i| sample_shard(2 + i)).collect();
        let mut serial = pooled.clone();

        let mut pool = WorkerPool::new();
        pool.run(&mut pooled, &plan);
        pool.run(&mut pooled, &plan); // second dispatch reuses threads
        assert_eq!(pool.spawned(), 4);

        for s in serial.iter_mut() {
            s.run(&plan);
            s.run(&plan);
        }
        for (p, s) in pooled.iter().zip(&serial) {
            assert_eq!(p.sums, s.sums);
            for c in 0..p.len() {
                assert_eq!(p.chain(c), s.chain(c));
            }
        }
    }
}
