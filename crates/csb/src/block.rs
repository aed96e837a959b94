//! Block-SoA chain kernels: the vectorized broadcast hot path.
//!
//! A [`ChainBlock`] packs [`BLOCK_LANES`] chains in structure-of-arrays
//! form: row `r` of subarray `s` across all chains of the block is one
//! contiguous `[u32; BLOCK_LANES]` (one 64-byte cache line), and the
//! per-subarray tag and accumulator registers are laid out the same way.
//! Every broadcast microop runs the identical operation on every chain,
//! so the lowered [`PlanOp`] interpreter becomes a set of tight loops
//! over those contiguous slices — shapes rustc/LLVM auto-vectorizes
//! without `unsafe` or nightly SIMD. This is the transform FPGA CAPP
//! reproductions use to get row-parallel throughput: lay the same
//! bit-slice of many processing elements contiguously so one wide
//! operation serves the whole row.
//!
//! Invariants (see DESIGN.md §13):
//!
//! * Lane `l` of a block holds the chain with local index
//!   `block * BLOCK_LANES + l`; chain counts that are not a multiple of
//!   `BLOCK_LANES` pad the last block with all-zero lanes whose window
//!   mask is permanently 0.
//! * A lane whose window mask is 0 is *never mutated* by a kernel — not
//!   even by `Set`-mode tag latches — so a block kernel is bit-exact
//!   with the scalar path that skips power-gated chains entirely
//!   (Section V-F), and padding lanes stay zero forever.
//! * Reduction partial sums are plain additions, so summing lanes in a
//!   different order than the chain-serial path yields identical totals.
//! * The kernels are generic over a lane span `N` and sweep lanes `0..N`
//!   only. Every lane at or past the span has a zero window, so by the
//!   invariant above it contributes nothing and is not written: a block
//!   whose live lanes are all among lanes 0–3 runs at span 4, any other
//!   at span 16. Parity folds, block images, the fault injectors and
//!   [`Lanes`] stay [`BLOCK_LANES`] wide.
//!
//! The scalar [`Chain`] keeps the one-chain-at-a-time implementation as
//! the reference model; the differential tests below (and the
//! `kernel-smoke` release gate) pin every kernel here bit-exact against
//! it.

use crate::bitmat::transpose32;
use crate::bitstep::{Addend, BitStep};
use crate::chain::Chain;
use crate::geometry::{SUBARRAYS_PER_CHAIN, SUBARRAY_COLS};
use crate::microop::{TagDest, TagMode};
use crate::program::{Plan, PlanOp, PlanProbe, PlanWrite};
use crate::subarray::{DATA_ROWS, TOTAL_ROWS};

/// Chains per block: 16 `u32` row-slices = one 64-byte cache line.
pub const BLOCK_LANES: usize = 16;

/// One row-slice (or tag/acc/window-slice): the same word of every chain
/// in the block, contiguously.
pub(crate) type Lanes = [u32; BLOCK_LANES];

/// Every row index: the 32 vector registers and the metadata rows.
pub(crate) const ALL_ROWS: u64 = (1 << TOTAL_ROWS) - 1;

/// Words in the row part of a block image holding the rows in `rows`:
/// one row-slice per held row of every subarray.
pub(crate) const fn image_row_words(rows: u64) -> usize {
    SUBARRAYS_PER_CHAIN * rows.count_ones() as usize * BLOCK_LANES
}

/// Words in one block image holding the rows in `rows`
/// ([`ChainBlock::save_image`]): for each subarray its held row-slices in
/// row order, then the tag slices, then the accumulator slices.
pub(crate) const fn image_words(rows: u64) -> usize {
    image_row_words(rows) + 2 * SUBARRAYS_PER_CHAIN * BLOCK_LANES
}

/// The block image of a fresh block under the empty row mask: its tag
/// and accumulator slices, all zero.
pub(crate) static ZERO_IMAGE: [u32; image_words(0)] = [0; image_words(0)];

/// The runs of consecutive row indices set in `rows`, ascending: saves
/// and restores copy each run of a subarray as one contiguous slice, and
/// `.flatten()` walks the rows one by one.
#[inline]
fn row_runs(mut rows: u64) -> impl Iterator<Item = std::ops::Range<usize>> {
    std::iter::from_fn(move || {
        if rows == 0 {
            return None;
        }
        let start = rows.trailing_zeros();
        let len = (rows >> start).trailing_ones();
        // Adding the run's lowest bit carries through the run and clears it.
        rows &= rows.wrapping_add(1 << start);
        Some(start as usize..(start + len) as usize)
    })
}

/// Overwrites a row-slice with `new`, XOR-folding the old and new lane
/// fold into the row's parity word — the delta the per-lane write path
/// applies, so a struck row keeps its fold/parity mismatch.
#[inline]
fn overwrite(line: &mut Lanes, parity: &mut u32, new: &Lanes) {
    let mut delta = 0u32;
    for l in 0..BLOCK_LANES {
        delta ^= line[l] ^ new[l];
    }
    *line = *new;
    *parity ^= delta;
}

/// The next row-slice of an image that holds the rows in `held`: the
/// image's line for row `r` when `held` has it, a zero line otherwise.
#[inline]
fn held_line<'a>(lines: &mut std::slice::Iter<'a, Lanes>, held: u64, r: usize) -> &'a Lanes {
    if held >> r & 1 == 1 {
        lines
            .next()
            .expect("block image holds one line per held row")
    } else {
        &[0; BLOCK_LANES]
    }
}

/// Content equality of two block images that may hold different rows: a
/// row an image does not hold reads as zero.
pub(crate) fn images_equal(a: &[u32], a_rows: u64, b: &[u32], b_rows: u64) -> bool {
    let (a_lines, a_regs) = a.split_at(image_row_words(a_rows));
    let (b_lines, b_regs) = b.split_at(image_row_words(b_rows));
    let (mut a_lines, mut b_lines) = (a_lines.as_chunks().0.iter(), b_lines.as_chunks().0.iter());
    (0..SUBARRAYS_PER_CHAIN).all(|_| {
        row_runs(a_rows | b_rows)
            .flatten()
            .all(|r| held_line(&mut a_lines, a_rows, r) == held_line(&mut b_lines, b_rows, r))
    }) && a_regs == b_regs
}

/// All-ones activity mask when the lane's window is non-zero, all-zeros
/// when the lane is power-gated — the branchless select the kernels use
/// to keep masked lanes byte-identical to the skipped scalar path.
#[inline]
fn lane_act(window: u32) -> u32 {
    0u32.wrapping_sub(u32::from(window != 0))
}

/// XOR-fold of a row-slice: the per-row parity word the write path
/// maintains. One u32 per `[u32; BLOCK_LANES]` cache line.
#[inline]
fn lane_fold(line: &Lanes) -> u32 {
    let mut f = 0u32;
    for &w in line {
        f ^= w;
    }
    f
}

/// Position-mixed hash of one row's parity mismatch, XOR-accumulated
/// into the block syndrome. `splitmix64` over (subarray, row, delta) so
/// mismatches on *different* rows can never cancel each other the way
/// raw deltas could; a mismatch that genuinely disappears (a transient
/// flipped back by a second identical strike) cancels exactly.
#[inline]
fn row_term_hash(s: usize, r: usize, delta: u32) -> u64 {
    if delta == 0 {
        return 0;
    }
    let mut z = ((s as u64) << 40) ^ ((r as u64) << 32) ^ u64::from(delta);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`BLOCK_LANES`] chains in structure-of-arrays layout.
///
/// `rows[s][r]` is row `r` of subarray `s` across the block's lanes;
/// `tags[s]`/`acc[s]` are the match registers of subarray `s` across the
/// lanes. All kernels take the block's window-slice (`win[l]` is lane
/// `l`'s active-column mask) and leave `win[l] == 0` lanes untouched;
/// they sweep the lanes below the span `N` they are instantiated at.
///
/// # Incremental parity (DESIGN.md §15)
///
/// `parity[s][r]` is the XOR-fold of row-slice `rows[s][r]` as seen by
/// the *write path*: every legitimate mutation folds its delta into it.
/// A per-lane data-transfer write and a context restore XOR-fold the old
/// and new word or cache line; a broadcast on an armed shard folds every
/// row its plan may write once before and once after the plan
/// ([`ChainBlock::run_plan`]). So on a fault-free block
/// `parity[s][r] == lane_fold(rows[s][r])` outside a broadcast. The fault
/// injectors ([`ChainBlock::flip_bits`], [`ChainBlock::force_bits`],
/// [`ChainBlock::scramble`]) mutate row data *without* updating parity
/// (a strike bypasses the write path), creating a per-row mismatch that
/// subsequent legitimate writes provably preserve: a write updates the
/// data fold and the parity word by the same XOR delta, so the mismatch
/// survives until the block is quarantined — corruption is never
/// silently absorbed, even by a full overwrite of the struck row.
///
/// `syndrome` is the XOR of [`row_term_hash`] over every mismatching
/// row, maintained at the *injection sites only* (the single places
/// where a fold/parity divergence can change). Detection therefore
/// reads one word per block instead of rehashing its ~80 KB of state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChainBlock {
    rows: [[Lanes; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
    tags: [Lanes; SUBARRAYS_PER_CHAIN],
    acc: [Lanes; SUBARRAYS_PER_CHAIN],
    parity: [[u32; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
    syndrome: u64,
}

impl Default for ChainBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainBlock {
    /// A zero-initialized block. All-zero parity words are consistent
    /// with the all-zero row data, so a fresh block is born clean.
    pub fn new() -> Self {
        Self {
            rows: [[[0; BLOCK_LANES]; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
            tags: [[0; BLOCK_LANES]; SUBARRAYS_PER_CHAIN],
            acc: [[0; BLOCK_LANES]; SUBARRAYS_PER_CHAIN],
            parity: [[0; TOTAL_ROWS]; SUBARRAYS_PER_CHAIN],
            syndrome: 0,
        }
    }

    /// Runs every op of `plan` across the block's first `N` lanes, adding
    /// each reduction's lane sum to `sums` in plan order.
    ///
    /// `N` is the block's lane span: every lane at or past it must have a
    /// zero window. The kernels never read such a lane into a result or
    /// write it, so sweeping `0..N` instead of all [`BLOCK_LANES`] is
    /// bit-exact ([`Shard`](crate::pool::Shard) picks `N` per block from
    /// its windows; DESIGN.md §13).
    ///
    /// With `parity` (an armed shard) the rows the plan may write
    /// ([`Plan::written_rows`]) are folded into their parity words, in
    /// every subarray, once before the op loop and once after it. The
    /// fold is linear, so the two folds move each row's parity word by
    /// the XOR of the deltas its writes made, exactly what folding every
    /// write would give; the op loop itself is the clean kernels. Nothing
    /// strikes between the two folds (injectors run in the fault layer's
    /// pre- and post-broadcast hooks), so a struck row keeps its
    /// fold/parity mismatch through any write (DESIGN.md §15).
    ///
    /// This and the kernels it calls are always inlined, so the
    /// broadcast loop over a plan ([`Shard::run`](crate::pool::Shard::run))
    /// compiles to one loop per span with no call per op, and the match
    /// and lane slices stay in registers.
    #[inline(always)]
    pub fn run_plan<const N: usize>(
        &mut self,
        plan: &Plan,
        win: &Lanes,
        parity: bool,
        sums: &mut [u64],
    ) {
        const { assert!(N <= BLOCK_LANES) };
        debug_assert!(
            win[N..].iter().all(|&w| w == 0),
            "a lane past span {N} is live"
        );
        if parity {
            self.fold_parity(plan.written_rows);
        }
        let mut k = 0;
        for op in &plan.ops {
            if let Some(r) = self.execute_plan::<N>(op, plan, win) {
                sums[k] += r;
                k += 1;
            }
        }
        if parity {
            self.fold_parity(plan.written_rows);
        }
    }

    /// XORs the lane fold of every row in `rows`, in every subarray,
    /// into the row's parity word. The fold always spans all
    /// [`BLOCK_LANES`] lanes, whatever the span of the plan it brackets.
    fn fold_parity(&mut self, rows: u64) {
        for (sub, parity) in self.rows.iter().zip(&mut self.parity) {
            for r in row_runs(rows).flatten() {
                parity[r] ^= lane_fold(&sub[r]);
            }
        }
    }

    /// Executes one op of `plan` across the block's first `N` lanes (its
    /// span; see [`ChainBlock::run_plan`]), reading a general search's
    /// probes or a general update's writes from the plan's tables; a
    /// [`BitStep`] runs as [`ChainBlock::bit_step`]. Returns the window-masked tag popcount summed over
    /// the lanes for [`PlanOp::ReduceTags`], `None` otherwise. `Read` is
    /// a no-op here: row data is chain-local and consumers read block
    /// state after the program completes. Row writes leave the parity
    /// words alone: [`ChainBlock::run_plan`] folds them around the whole
    /// plan on an armed shard.
    #[inline(always)]
    fn execute_plan<const N: usize>(
        &mut self,
        op: &PlanOp,
        plan: &Plan,
        win: &Lanes,
    ) -> Option<u64> {
        match *op {
            PlanOp::BitStep(step) => {
                self.bit_step::<N>(&step, win);
                None
            }
            PlanOp::SearchOne { probe, dest, mode } => {
                let m = self.probe_match::<N>(&probe, win);
                self.accumulate::<N>(probe.subarray as usize, &m, dest, mode, win);
                None
            }
            PlanOp::Step {
                probe,
                dest,
                mode,
                nwrites,
                writes,
            } => {
                let m = self.probe_match::<N>(&probe, win);
                self.accumulate::<N>(probe.subarray as usize, &m, dest, mode, win);
                self.plan_write::<N>(&writes[0], win);
                if nwrites == 2 {
                    self.plan_write::<N>(&writes[1], win);
                }
                None
            }
            PlanOp::Search {
                at,
                probes,
                gates,
                dest,
                mode,
            } => {
                let (probes, gates) = plan.search(at, probes, gates);
                // The window ANDed with every gate's match, once for all
                // probes.
                let mut gated = *win;
                for g in gates {
                    self.and_probe::<N>(g, &mut gated);
                }
                for p in probes {
                    let mut m = gated;
                    self.and_probe::<N>(p, &mut m);
                    self.accumulate::<N>(p.subarray as usize, &m, dest, mode, win);
                }
                None
            }
            PlanOp::UpdateOne { write } => {
                self.plan_write::<N>(&write, win);
                None
            }
            PlanOp::UpdateTwo { writes } => {
                self.plan_write::<N>(&writes[0], win);
                self.plan_write::<N>(&writes[1], win);
                None
            }
            PlanOp::Update { at, n } => {
                let writes = plan.update(at, n);
                debug_assert!(
                    distinct_subarrays(writes),
                    "update writes two rows of one subarray"
                );
                for w in writes {
                    self.plan_write::<N>(w, win);
                }
                None
            }
            PlanOp::Read { .. } => None,
            PlanOp::Write {
                subarray,
                row,
                data,
                mask,
            } => {
                let r = &mut self.rows[subarray as usize][row as usize];
                for l in 0..N {
                    let m = mask & win[l];
                    r[l] = (r[l] & !m) | (data & m);
                }
                None
            }
            PlanOp::ReduceTags { subarray } => {
                let t = &self.tags[subarray as usize];
                let mut sum = 0u64;
                for l in 0..N {
                    sum += u64::from((t[l] & win[l]).count_ones());
                }
                Some(sum)
            }
            PlanOp::TagCombine { src, dst, op } => {
                let m = self.tags[src as usize];
                let d = &mut self.tags[dst as usize];
                match op {
                    TagMode::Set => {
                        for l in 0..N {
                            let act = lane_act(win[l]);
                            d[l] = (m[l] & act) | (d[l] & !act);
                        }
                    }
                    TagMode::And => {
                        for l in 0..N {
                            d[l] &= m[l] | !win[l];
                        }
                    }
                    TagMode::Or => {
                        for l in 0..N {
                            d[l] |= m[l] & win[l];
                        }
                    }
                }
                None
            }
        }
    }

    /// One fused truth-table bit-step ([`BitStep`]) across the block's
    /// first `N` lanes, straight-line: per lane it loads the destination,
    /// carry, addend and gate words, computes the flip mask
    /// `e = win·g·(a ⊕ c)` and the generated carry, then stores the new
    /// destination word, the tag and accumulator latches (blended through
    /// the lane-activity mask, so a gated lane keeps them) and, with a
    /// carry-out, ORs the carry into row `c` of subarray `s + 1`. Every
    /// load happens before any store, so cells the step both reads and
    /// writes read their old value, as in the exhaustive check that
    /// admitted the step. A missing gate or a constant addend selects a
    /// mask instead of branching.
    #[inline(always)]
    fn bit_step<const N: usize>(&mut self, step: &BitStep, win: &Lanes) {
        let (s, d, c) = (step.s as usize, step.d as usize, step.c as usize);
        let mut next = [0u32; N];
        let (mut tags, mut acc, mut carry) = ([0u32; N], [0u32; N], [0u32; N]);
        {
            let rows = &self.rows;
            let (dr, cr) = (&rows[s][d], &rows[s][c]);
            let (ar, a_mask, a_const) = match step.addend {
                Addend::Cell(x) => (&rows[x.sub as usize][x.row as usize], u32::MAX, 0),
                Addend::Const(v) => (dr, 0, 0u32.wrapping_sub(u32::from(v))),
            };
            let gate = |g: Option<(crate::bitstep::Cell, bool)>| match g {
                Some((x, want)) => (
                    &rows[x.sub as usize][x.row as usize],
                    if want { 0 } else { u32::MAX },
                    0,
                ),
                None => (dr, 0, u32::MAX),
            };
            let (g0, inv0, off0) = gate(step.gates[0]);
            let (g1, inv1, off1) = gate(step.gates[1]);
            let borrow = 0u32.wrapping_sub(u32::from(step.borrow));
            for l in 0..N {
                let (dv, cv) = (dr[l], cr[l]);
                let av = (ar[l] & a_mask) | a_const;
                let g = win[l] & ((g0[l] ^ inv0) | off0) & ((g1[l] ^ inv1) | off1);
                let e = g & (av ^ cv);
                next[l] = dv ^ e;
                tags[l] = e & dv;
                acc[l] = e & !dv;
                carry[l] = g & ((av & cv) | ((dv ^ borrow) & (av ^ cv)));
            }
        }
        self.rows[s][d][..N].copy_from_slice(&next);
        let (t, a) = (&mut self.tags[s], &mut self.acc[s]);
        for l in 0..N {
            let act = lane_act(win[l]);
            t[l] = (tags[l] & act) | (t[l] & !act);
            a[l] = (acc[l] & act) | (a[l] & !act);
        }
        if step.carry_out {
            let out = &mut self.rows[s + 1][c];
            for l in 0..N {
                out[l] |= carry[l];
            }
        }
    }

    /// ANDs the probe's branchless key matches into `m`: per key row,
    /// `m[l] &= rows[l] ^ inv` over the first `N` lanes of the row-slice.
    #[inline(always)]
    fn and_probe<const N: usize>(&self, p: &PlanProbe, m: &mut Lanes) {
        let sub = &self.rows[p.subarray as usize];
        for k in 0..p.nkeys as usize {
            let row = &sub[p.rows[k] as usize];
            let inv = p.inv[k];
            for l in 0..N {
                m[l] &= row[l] ^ inv;
            }
        }
    }

    /// Window-masked single-probe match across the block's first `N`
    /// lanes; lanes past the span keep their (zero) window.
    #[inline(always)]
    fn probe_match<const N: usize>(&self, p: &PlanProbe, win: &Lanes) -> Lanes {
        let mut m = *win;
        self.and_probe::<N>(p, &mut m);
        m
    }

    /// Latches a pre-window-masked match-slice `m` into the tags or
    /// accumulator of `sub` in the first `N` lanes. `Set` blends through
    /// the lane-activity mask so power-gated lanes keep their register
    /// value, exactly like the scalar path that never executes them.
    #[inline(always)]
    fn accumulate<const N: usize>(
        &mut self,
        sub: usize,
        m: &Lanes,
        dest: TagDest,
        mode: TagMode,
        win: &Lanes,
    ) {
        let reg = match dest {
            TagDest::Tags => &mut self.tags[sub],
            TagDest::Acc => &mut self.acc[sub],
        };
        match mode {
            TagMode::Set => {
                for l in 0..N {
                    let act = lane_act(win[l]);
                    reg[l] = (m[l] & act) | (reg[l] & !act);
                }
            }
            TagMode::And => {
                for l in 0..N {
                    reg[l] &= m[l] | !win[l];
                }
            }
            TagMode::Or => {
                for l in 0..N {
                    reg[l] |= m[l];
                }
            }
        }
    }

    /// One lowered row write across the block's first `N` lanes: `sel`
    /// picks the per-lane column source (window, tags or accumulator of
    /// `src`).
    #[inline(always)]
    fn plan_write<const N: usize>(&mut self, w: &PlanWrite, win: &Lanes) {
        let mut cols = *win;
        match w.sel {
            1 => {
                let t = &self.tags[w.src as usize];
                for l in 0..N {
                    cols[l] &= t[l];
                }
            }
            2 => {
                let a = &self.acc[w.src as usize];
                for l in 0..N {
                    cols[l] &= a[l];
                }
            }
            _ => {}
        }
        let row = &mut self.rows[w.subarray as usize][w.row as usize];
        if w.value {
            for l in 0..N {
                row[l] |= cols[l];
            }
        } else {
            for l in 0..N {
                row[l] &= !cols[l];
            }
        }
    }

    // ----- per-lane access (data transfer, bring-up, reference view) ----

    /// Current tag bits of subarray `s` in lane `lane`.
    pub fn tags(&self, lane: usize, s: usize) -> u32 {
        self.tags[s][lane]
    }

    /// Overwrites the tag bits of subarray `s` in lane `lane`.
    pub fn set_tags(&mut self, lane: usize, s: usize, v: u32) {
        self.tags[s][lane] = v;
    }

    /// Current accumulator bits of subarray `s` in lane `lane`.
    pub fn acc(&self, lane: usize, s: usize) -> u32 {
        self.acc[s][lane]
    }

    /// Overwrites the accumulator bits of subarray `s` in lane `lane`.
    pub fn set_acc(&mut self, lane: usize, s: usize, v: u32) {
        self.acc[s][lane] = v;
    }

    /// Row `r` of subarray `s` in lane `lane`.
    pub fn row(&self, lane: usize, s: usize, r: usize) -> u32 {
        self.rows[s][r][lane]
    }

    /// Writes `data` into row `r` of subarray `s` in lane `lane` at the
    /// columns selected by `mask`. Maintains the row's parity word
    /// unconditionally — one extra XOR, negligible off the hot path.
    pub fn write_row(&mut self, lane: usize, s: usize, r: usize, data: u32, mask: u32) {
        let w = &mut self.rows[s][r][lane];
        let n = (*w & !mask) | (data & mask);
        self.parity[s][r] ^= *w ^ n;
        *w = n;
    }

    /// Deposits a 32-bit `value` into vector register `reg` at column
    /// `col` of lane `lane`, bit-slicing it across the 32 subarrays.
    pub fn write_element(&mut self, lane: usize, reg: usize, col: usize, value: u32) {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        assert!(col < SUBARRAY_COLS, "column {col} out of range");
        let bit = 1u32 << col;
        for (s, sub) in self.rows.iter_mut().enumerate() {
            let r = &mut sub[reg][lane];
            let n = if value >> s & 1 == 1 {
                *r | bit
            } else {
                *r & !bit
            };
            self.parity[s][reg] ^= *r ^ n;
            *r = n;
        }
    }

    /// Reads back the 32-bit element of register `reg` at column `col`
    /// of lane `lane`.
    pub fn read_element(&self, lane: usize, reg: usize, col: usize) -> u32 {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        assert!(col < SUBARRAY_COLS, "column {col} out of range");
        let mut v = 0u32;
        for (s, sub) in self.rows.iter().enumerate() {
            v |= (sub[reg][lane] >> col & 1) << s;
        }
        v
    }

    /// Bulk-reads vector register `reg` of lane `lane` across all 32
    /// columns through one 32×32 [`transpose32`] — the wide-transfer
    /// path of [`Chain::read_column_block`], lifted to the block layout.
    pub fn read_column_block(&self, lane: usize, reg: usize) -> [u32; SUBARRAY_COLS] {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        let mut m = [0u32; SUBARRAY_COLS];
        for (s, sub) in self.rows.iter().enumerate() {
            m[s] = sub[reg][lane];
        }
        transpose32(&mut m);
        m
    }

    /// Bulk-deposits up to 32 elements into register `reg` of lane
    /// `lane`, one per column selected by `col_mask`, through one 32×32
    /// [`transpose32`] — the inverse of [`ChainBlock::read_column_block`].
    pub fn write_column_block(
        &mut self,
        lane: usize,
        reg: usize,
        values: &[u32; SUBARRAY_COLS],
        col_mask: u32,
    ) {
        assert!(reg < DATA_ROWS, "vector register {reg} out of range");
        let mut m = *values;
        transpose32(&mut m);
        for (s, sub) in self.rows.iter_mut().enumerate() {
            let r = &mut sub[reg][lane];
            let n = (*r & !col_mask) | (m[s] & col_mask);
            self.parity[s][reg] ^= *r ^ n;
            *r = n;
        }
    }

    // ----- block images (context save/restore) ------------------------

    /// Appends the block image holding the rows in `rows` —
    /// [`image_words`]`(rows)` words: each subarray's held row-slices in
    /// row order, then the tag and accumulator slices — to `out` as
    /// straight slice copies. Only the first `lanes` lanes hold chains:
    /// the rest are padding and are stored as zero, so the image depends
    /// only on the chains' contents.
    pub fn save_image(&self, out: &mut Vec<u32>, lanes: usize, rows: u64) {
        let start = out.len();
        for sub in &self.rows {
            for run in row_runs(rows) {
                out.extend_from_slice(sub[run].as_flattened());
            }
        }
        out.extend_from_slice(self.tags.as_flattened());
        out.extend_from_slice(self.acc.as_flattened());
        if lanes < BLOCK_LANES {
            for line in out[start..].chunks_exact_mut(BLOCK_LANES) {
                line[lanes..].fill(0);
            }
        }
    }

    /// Loads a block image from [`ChainBlock::save_image`] that holds the
    /// rows in `held`: rewrites every row-slice in `rewrite` (a superset
    /// of `held`) — from the image when held, with zeros otherwise — and
    /// every tag and accumulator slice. Each rewritten row XOR-folds its
    /// old and new lane fold into its parity word — the delta the
    /// per-lane write path applies, so a struck row keeps its fold/parity
    /// mismatch through the restore (DESIGN.md §15). Rows outside
    /// `rewrite` are left alone: the caller guarantees they are zero here
    /// and in the image.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not [`image_words`]`(held)` long.
    pub fn load_image(&mut self, image: &[u32], held: u64, rewrite: u64) {
        assert_eq!(
            image.len(),
            image_words(held),
            "block image has the wrong size"
        );
        debug_assert_eq!(held & !rewrite, 0, "a held row is not rewritten");
        let (rows, regs) = image.split_at(image_row_words(held));
        let mut lines = rows.as_chunks::<BLOCK_LANES>().0;
        for (sub, parity) in self.rows.iter_mut().zip(&mut self.parity) {
            for run in row_runs(held) {
                let (new, rest) = lines.split_at(run.len());
                lines = rest;
                let olds = sub[run.clone()].iter_mut().zip(&mut parity[run]);
                for ((line, p), new) in olds.zip(new) {
                    overwrite(line, p, new);
                }
            }
            for r in row_runs(rewrite & !held).flatten() {
                overwrite(&mut sub[r], &mut parity[r], &[0; BLOCK_LANES]);
            }
        }
        let slices = self.tags.iter_mut().chain(self.acc.iter_mut());
        for (slice, new) in slices.zip(regs.as_chunks::<BLOCK_LANES>().0) {
            *slice = *new;
        }
    }

    /// The rows that hold a nonzero bit in some subarray and lane — the
    /// ground truth a live-row mask must cover. O(block); debug checks
    /// only.
    pub fn nonzero_rows(&self) -> u64 {
        let mut rows = 0u64;
        for sub in &self.rows {
            for (r, line) in sub.iter().enumerate() {
                if line.iter().any(|&w| w != 0) {
                    rows |= 1 << r;
                }
            }
        }
        rows
    }

    /// Materializes lane `lane` as a scalar [`Chain`] (reference-model
    /// view; test/bring-up hook, not a hot path): copies the lane's word
    /// of every row, tag and accumulator slice.
    pub fn to_chain(&self, lane: usize) -> Chain {
        let mut chain = Chain::new();
        for (s, sub) in self.rows.iter().enumerate() {
            let dst = chain.subarray_mut(s);
            for (r, line) in sub.iter().enumerate() {
                dst.write_row(r, line[lane], u32::MAX);
            }
            chain.set_tags(s, self.tags[s][lane]);
            chain.set_acc(s, self.acc[s][lane]);
        }
        chain
    }

    // ----- fault-layer hooks (parity rebuild + seeded injection) -------

    /// Current fold-vs-parity mismatch term of row `r` of subarray `s`
    /// (0 when the row is consistent).
    #[inline]
    fn row_term(&self, s: usize, r: usize) -> u64 {
        row_term_hash(s, r, lane_fold(&self.rows[s][r]) ^ self.parity[s][r])
    }

    /// The block syndrome: 0 iff no row's parity mismatches its data
    /// (up to hash collision odds; see DESIGN.md §15). Injectors keep
    /// this exact, so detection is a one-word read per block.
    pub fn syndrome(&self) -> u64 {
        self.syndrome
    }

    /// Recomputes every row's parity word from current data and clears
    /// the syndrome — used when a block enters fault-tracked service
    /// (arming, remap onto a spare), never on the broadcast path.
    pub fn rebuild_parity(&mut self) {
        for (s, sub) in self.rows.iter().enumerate() {
            for (r, row) in sub.iter().enumerate() {
                self.parity[s][r] = lane_fold(row);
            }
        }
        self.syndrome = 0;
    }

    /// Lists `(subarray, row)` coordinates whose stored parity disagrees
    /// with the data fold — the strike localization the detector reports.
    /// O(block), only walked once a nonzero syndrome flags the block.
    pub fn struck_rows(&self) -> Vec<(u8, u8)> {
        let mut out = Vec::new();
        for (s, sub) in self.rows.iter().enumerate() {
            for (r, row) in sub.iter().enumerate() {
                if lane_fold(row) != self.parity[s][r] {
                    out.push((s as u8, r as u8));
                }
            }
        }
        out
    }

    /// Test hook: true when every row's parity equals its data fold and
    /// the syndrome is zero — the invariant legitimate execution must
    /// preserve exactly.
    pub fn parity_consistent(&self) -> bool {
        self.syndrome == 0
            && self
                .rows
                .iter()
                .enumerate()
                .all(|(s, sub)| (0..TOTAL_ROWS).all(|r| lane_fold(&sub[r]) == self.parity[s][r]))
    }

    /// Transient strike: XOR-flips `mask` bits of row `r` of subarray
    /// `s` in lane `lane`, updating the struck row's syndrome term —
    /// the O(1 cache line) in-array parity check a real CAPE substrate
    /// evaluates on the row it just disturbed.
    pub fn flip_bits(&mut self, lane: usize, s: usize, r: usize, mask: u32) {
        let old = self.row_term(s, r);
        self.rows[s][r][lane] ^= mask;
        self.syndrome ^= old ^ self.row_term(s, r);
    }

    /// Stuck-at assertion: wedges `mask` bits of row `r` of subarray `s`
    /// in lane `lane` to `value`. Returns true if the word changed (an
    /// unchanged word leaves no parity trace — the march-test scrub is
    /// what catches such latent defects).
    pub fn force_bits(&mut self, lane: usize, s: usize, r: usize, mask: u32, value: bool) -> bool {
        let w = self.rows[s][r][lane];
        let forced = if value { w | mask } else { w & !mask };
        if forced == w {
            return false;
        }
        let old = self.row_term(s, r);
        self.rows[s][r][lane] = forced;
        self.syndrome ^= old ^ self.row_term(s, r);
        true
    }

    /// Dead-block assertion: scrambles every row, tag and accumulator
    /// slice to seeded xorshift garbage, then recomputes the whole-block
    /// syndrome (O(block), storm-only). Tags and accumulators carry no
    /// parity, but a dead block always scrambles its rows too, so the
    /// row syndrome flags it.
    pub fn scramble(&mut self, seed: u32) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for sub in &mut self.rows {
            for row in sub {
                for w in row {
                    *w = next();
                }
            }
        }
        for slice in self.tags.iter_mut().chain(self.acc.iter_mut()) {
            for w in slice {
                *w = next();
            }
        }
        let mut syn = 0u64;
        for s in 0..SUBARRAYS_PER_CHAIN {
            for r in 0..TOTAL_ROWS {
                syn ^= self.row_term(s, r);
            }
        }
        self.syndrome = syn;
    }
}

/// True when every write targets a distinct subarray (the hardware
/// writes at most one row per subarray per update). Validated once at
/// plan lowering; kernels only `debug_assert!` it.
fn distinct_subarrays(writes: &[PlanWrite]) -> bool {
    let mut seen = 0u32;
    for w in writes {
        let bit = 1u32 << w.subarray;
        if seen & bit != 0 {
            return false;
        }
        seen |= bit;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microop::{ColSel, MicroOp, Probe, WriteSpec};
    use crate::program::MicroProgram;

    /// Deterministic pseudorandom word stream.
    fn rng(seed: u32) -> impl FnMut() -> u32 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        }
    }

    /// A block and the per-lane scalar reference chains, seeded with the
    /// same pseudorandom registers, tags and accumulators.
    fn seeded_pair(seed: u32) -> (ChainBlock, Vec<Chain>) {
        let mut next = rng(seed);
        let mut block = ChainBlock::new();
        let mut chains = vec![Chain::new(); BLOCK_LANES];
        for (lane, chain) in chains.iter_mut().enumerate() {
            for reg in 0..6 {
                for col in 0..SUBARRAY_COLS {
                    let v = next();
                    block.write_element(lane, reg, col, v);
                    chain.write_element(reg, col, v);
                }
            }
            for s in 0..SUBARRAYS_PER_CHAIN {
                let (t, a) = (next(), next());
                block.set_tags(lane, s, t);
                chain.set_tags(s, t);
                block.set_acc(lane, s, a);
                chain.set_acc(s, a);
            }
        }
        (block, chains)
    }

    /// A messy microop soup covering every kernel shape: gated and
    /// ungated searches, all tag modes and destinations, tag-selected
    /// and window updates, raw writes, tag combines and reductions.
    fn sample_ops() -> Vec<MicroOp> {
        vec![
            MicroOp::Search {
                probes: vec![Probe::row(0, 1, true)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Set,
            },
            MicroOp::Update {
                writes: vec![WriteSpec {
                    subarray: 1,
                    row: 4,
                    value: true,
                    cols: ColSel::Tags(0),
                }],
            },
            MicroOp::Search {
                probes: vec![Probe::new(2, vec![(1, true), (3, false)])],
                gates: vec![Probe::row(9, 0, true)],
                dest: TagDest::Acc,
                mode: TagMode::Set,
            },
            MicroOp::Search {
                probes: vec![Probe::row(3, 2, false)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::Or,
            },
            MicroOp::Search {
                probes: vec![Probe::row(4, 0, true)],
                gates: vec![],
                dest: TagDest::Tags,
                mode: TagMode::And,
            },
            MicroOp::Update {
                writes: vec![
                    WriteSpec {
                        subarray: 2,
                        row: 5,
                        value: false,
                        cols: ColSel::Acc(2),
                    },
                    WriteSpec {
                        subarray: 3,
                        row: crate::ROW_CARRY,
                        value: true,
                        cols: ColSel::Tags(2),
                    },
                ],
            },
            MicroOp::Write {
                subarray: 7,
                row: 6,
                data: 0xA5A5_5A5A,
                mask: 0x0FF0_F00F,
            },
            MicroOp::TagCombine {
                src: 0,
                dst: 5,
                op: TagMode::Set,
            },
            MicroOp::TagCombine {
                src: 5,
                dst: 6,
                op: TagMode::And,
            },
            MicroOp::TagCombine {
                src: 6,
                dst: 7,
                op: TagMode::Or,
            },
            MicroOp::ReduceTags { subarray: 7 },
            MicroOp::Update {
                writes: (0..SUBARRAYS_PER_CHAIN)
                    .map(|i| WriteSpec {
                        subarray: i,
                        row: 8,
                        value: i % 3 == 0,
                        cols: ColSel::Window,
                    })
                    .collect(),
            },
            MicroOp::Read {
                subarray: 1,
                row: 4,
            },
            MicroOp::ReduceTags { subarray: 0 },
        ]
    }

    /// Runs the lowered plan on the block at span `N`, armed, and the
    /// original microops on the per-lane reference chains through
    /// `scalar_sweep`, then asserts bit-exact state in all 16 lanes,
    /// identical reduction sums and parity that the per-broadcast fold
    /// kept exact.
    fn assert_block_matches_reference<const N: usize>(win: Lanes, seed: u32) {
        let (mut block, mut chains) = seeded_pair(seed);
        let program = MicroProgram::new(sample_ops());
        let plan = program.plan();

        let mut block_sums = vec![0; plan.reduces];
        block.run_plan::<N>(plan, &win, true, &mut block_sums);
        assert!(
            block.parity_consistent(),
            "legit execution broke parity (seed {seed})"
        );

        let ref_sums = crate::scalar_sweep(&mut chains, &win, program.ops());

        assert_eq!(block_sums, ref_sums, "reduction sums (seed {seed})");
        for (lane, chain) in chains.iter().enumerate() {
            assert_eq!(
                &block.to_chain(lane),
                chain,
                "lane {lane} diverged (seed {seed}, win {:#x})",
                win[lane]
            );
        }
    }

    #[test]
    fn kernels_match_scalar_chain_full_window() {
        assert_block_matches_reference::<BLOCK_LANES>([u32::MAX; BLOCK_LANES], 0xC0FF_EE01);
    }

    #[test]
    fn kernels_match_scalar_chain_mixed_windows() {
        let mut next = rng(0xBEEF);
        let mut win = [0u32; BLOCK_LANES];
        for w in win.iter_mut() {
            *w = next();
        }
        // Force a couple of fully-gated and one fully-open lane.
        win[3] = 0;
        win[11] = 0;
        win[5] = u32::MAX;
        assert_block_matches_reference::<BLOCK_LANES>(win, 0xDEAD_0001);
    }

    #[test]
    fn span_4_kernels_match_scalar_chain_on_a_narrow_window() {
        // Live only in lanes 0-3, one of them gated and one fully open:
        // the span-4 sweep must leave lanes 4-15 exactly as the scalar
        // path that never runs them.
        let mut next = rng(0x5AA5);
        let mut win = [0u32; BLOCK_LANES];
        for w in &mut win[..4] {
            *w = next();
        }
        win[1] = 0;
        win[2] = u32::MAX;
        assert_block_matches_reference::<4>(win, 0xFACE_0004);
    }

    #[test]
    fn power_gated_lanes_are_never_mutated() {
        let (mut block, chains) = seeded_pair(7);
        let before = block.to_chain(4);
        let mut win = [u32::MAX; BLOCK_LANES];
        win[4] = 0;
        let program = MicroProgram::new(sample_ops());
        let plan = program.plan();
        block.run_plan::<BLOCK_LANES>(plan, &win, false, &mut vec![0; plan.reduces]);
        assert_eq!(block.to_chain(4), before, "gated lane must not change");
        drop(chains);
    }

    #[test]
    fn strike_survives_full_row_overwrite_and_localizes() {
        let (mut block, _) = seeded_pair(0x0BAD);
        block.rebuild_parity();
        assert!(block.parity_consistent());
        block.flip_bits(3, 7, 5, 0x10);
        assert_ne!(block.syndrome(), 0, "strike must raise the syndrome");
        assert_eq!(block.struck_rows(), vec![(7, 5)]);
        // A legitimate full overwrite of the struck row shifts data and
        // parity by the same delta: the mismatch (and syndrome) persist.
        let win = [u32::MAX; BLOCK_LANES];
        let plan = Plan::lower(&[MicroOp::Write {
            subarray: 7,
            row: 5,
            data: 0xFFFF_FFFF,
            mask: u32::MAX,
        }]);
        block.run_plan::<BLOCK_LANES>(&plan, &win, true, &mut []);
        assert_eq!(block.rows[7][5], [u32::MAX; BLOCK_LANES]);
        assert_ne!(block.syndrome(), 0, "overwrite must not absorb the strike");
        assert_eq!(block.struck_rows(), vec![(7, 5)]);
        // Rebuild (quarantine/remap path) clears it.
        block.rebuild_parity();
        assert!(block.parity_consistent());
    }

    #[test]
    fn element_roundtrip_and_column_block_agree() {
        let mut block = ChainBlock::new();
        let mut next = rng(42);
        let mut vals = [0u32; SUBARRAY_COLS];
        for v in vals.iter_mut() {
            *v = next();
        }
        block.write_column_block(9, 6, &vals, u32::MAX);
        for (col, &v) in vals.iter().enumerate() {
            assert_eq!(block.read_element(9, 6, col), v, "col {col}");
        }
        assert_eq!(block.read_column_block(9, 6), vals);
        // Other lanes untouched.
        assert_eq!(block.read_column_block(8, 6), [0; SUBARRAY_COLS]);
    }

    #[test]
    fn chain_state_roundtrips_through_block() {
        let (block, chains) = seeded_pair(0x5EED);
        // `seeded_pair` writes registers 0..6 only: the full image and
        // the image of just those rows reload to the same chains.
        let live = block.nonzero_rows();
        assert_eq!(live, 0b11_1111);
        for rows in [ALL_ROWS, live] {
            let mut image = Vec::new();
            block.save_image(&mut image, BLOCK_LANES, rows);
            assert_eq!(image.len(), image_words(rows));
            let mut reloaded = ChainBlock::new();
            reloaded.load_image(&image, rows, rows);
            assert!(reloaded.parity_consistent(), "restore must fold parity");
            for (lane, chain) in chains.iter().enumerate() {
                assert_eq!(&block.to_chain(lane), chain, "lane {lane}");
                assert_eq!(&reloaded.to_chain(lane), chain, "lane {lane} reload");
            }
        }
    }

    #[test]
    fn load_zeroes_rewritten_rows_the_image_lacks() {
        let (mut block, _) = seeded_pair(0xF00D);
        block.rebuild_parity();
        // An image holding register 2 only, loaded over every live row:
        // register 2 comes back, the other rewritten rows read zero.
        let mut image = Vec::new();
        block.save_image(&mut image, BLOCK_LANES, 1 << 2);
        let want = block.read_column_block(5, 2);
        block.load_image(&image, 1 << 2, block.nonzero_rows());
        assert_eq!(block.nonzero_rows(), 1 << 2);
        assert_eq!(block.read_column_block(5, 2), want);
        assert!(block.parity_consistent(), "zeroed rows must fold parity");
    }

    #[test]
    fn images_compare_by_content_across_row_masks() {
        let save = |block: &ChainBlock, rows| {
            let mut image = Vec::new();
            block.save_image(&mut image, BLOCK_LANES, rows);
            image
        };
        let (block, _) = seeded_pair(0xAB);
        let (live, full) = (block.nonzero_rows(), save(&block, ALL_ROWS));
        assert!(images_equal(&save(&block, live), live, &full, ALL_ROWS));
        // Dropping a nonzero row changes the content.
        let fewer = live & !1;
        assert!(!images_equal(&save(&block, fewer), fewer, &full, ALL_ROWS));
        let fresh = save(&ChainBlock::new(), ALL_ROWS);
        assert!(images_equal(&ZERO_IMAGE, 0, &fresh, ALL_ROWS));
    }
}
